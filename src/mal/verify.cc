#include "src/mal/verify.h"

#include <map>
#include <utility>

#include "src/common/string_util.h"
#include "src/gdk/types.h"

namespace sciql {
namespace mal {

namespace {

/// What the signature table can demand of an argument (or promise of a
/// return). The verifier tracks values abstractly, so the kinds form a
/// small lattice rather than full physical types: `kVal` accepts any
/// runtime value (BAT or scalar), `kScalar` any scalar, `kNum`/`kStr`
/// specific scalar families, and the object kinds match opaque plan
/// objects by tag.
enum class AK {
  kVal,       // BAT or scalar
  kBat,       // BAT only
  kScalar,    // any scalar
  kNum,       // numeric scalar (bit/int/lng/dbl/oid)
  kStr,       // string scalar
  kObjArray,  // opaque object tagged "arraydesc"
  kObjTile,   // opaque object tagged "tilespec"
};

const char* AKName(AK k) {
  switch (k) {
    case AK::kVal: return "value";
    case AK::kBat: return "bat";
    case AK::kScalar: return "scalar";
    case AK::kNum: return "numeric scalar";
    case AK::kStr: return "string scalar";
    case AK::kObjArray: return "arraydesc object";
    case AK::kObjTile: return "tilespec object";
  }
  return "?";
}

/// Abstract kind of a defined register. `kPoly` is a batcalc result whose
/// BAT-vs-scalar shape could not be pinned down (mixed/poly operands); it
/// satisfies both BAT and scalar argument slots.
enum class RK { kBat, kNum, kStr, kScalar, kPoly, kObj };

struct RegState {
  bool defined = false;
  /// Instruction that defined the register, -1 for constants/objects.
  int def_instr = -1;
  RK kind = RK::kScalar;
  std::string obj_tag;
};

bool Matches(AK spec, const RegState& r) {
  switch (spec) {
    case AK::kVal:
      return r.kind != RK::kObj;
    case AK::kBat:
      return r.kind == RK::kBat || r.kind == RK::kPoly;
    case AK::kScalar:
      return r.kind == RK::kNum || r.kind == RK::kStr ||
             r.kind == RK::kScalar || r.kind == RK::kPoly;
    case AK::kNum:
      return r.kind == RK::kNum || r.kind == RK::kScalar ||
             r.kind == RK::kPoly;
    case AK::kStr:
      return r.kind == RK::kStr || r.kind == RK::kScalar ||
             r.kind == RK::kPoly;
    case AK::kObjArray:
      return r.kind == RK::kObj && r.obj_tag == "arraydesc";
    case AK::kObjTile:
      return r.kind == RK::kObj && r.obj_tag == "tilespec";
  }
  return false;
}

const char* RKName(RK k) {
  switch (k) {
    case RK::kBat: return "bat";
    case RK::kNum: return "numeric scalar";
    case RK::kStr: return "string scalar";
    case RK::kScalar: return "scalar";
    case RK::kPoly: return "bat-or-scalar";
    case RK::kObj: return "object";
  }
  return "?";
}

/// One acceptable shape of an opcode: `fixed` leading arguments followed by
/// zero or more repetitions of `group` (at least `min_groups`). Opcodes
/// with genuinely alternative shapes (algebra.select's optional candidate
/// list, algebra.orderidx's two spellings) list several OpSigs.
struct OpSig {
  std::vector<AK> fixed;
  std::vector<AK> group;
  int min_groups = 0;
  std::vector<AK> rets;
  /// Single return whose BAT-vs-scalar shape follows the value arguments
  /// (batcalc): all-scalar operands give a scalar, any BAT gives a BAT.
  bool poly_ret = false;

  size_t RetCount() const { return poly_ret ? 1 : rets.size(); }

  bool ArityOk(size_t nargs) const {
    if (group.empty()) return nargs == fixed.size();
    if (nargs < fixed.size() + group.size() * min_groups) return false;
    return (nargs - fixed.size()) % group.size() == 0;
  }

  std::string ArityString() const {
    std::string out = StrFormat("%zu", fixed.size());
    if (!group.empty()) {
      out += StrFormat("+%zuk", group.size());
      if (min_groups > 0) out += StrFormat(" (k>=%d)", min_groups);
    }
    return out;
  }

  AK ArgSpec(size_t i) const {
    if (i < fixed.size()) return fixed[i];
    return group[(i - fixed.size()) % group.size()];
  }
};

using SigTable = std::map<std::string, std::vector<OpSig>>;

/// The declarative opcode inventory. Mirrors src/mal/modules.cc (every op
/// RegisterBuiltinModules installs) plus the display-only `sql.ddl`
/// pseudo-instruction CompileDdlDisplay emits for EXPLAIN of DDL. Adding an
/// op to the engine means adding its row here, or every Debug-build
/// execution of it fails with unknown-op (docs/static_analysis.md).
SigTable BuildTable() {
  SigTable t;
  auto add = [&t](const std::string& name, OpSig sig) {
    t[name].push_back(std::move(sig));
  };

  // bat.*
  add("bat.count", {{AK::kBat}, {}, 0, {AK::kNum}});
  add("bat.dense", {{AK::kNum}, {}, 0, {AK::kBat}});
  add("bat.pack", {{}, {AK::kScalar}, 1, {AK::kBat}});
  add("bat.broadcast", {{AK::kVal, AK::kBat}, {}, 0, {AK::kBat}});
  add("bat.clone", {{AK::kBat}, {}, 0, {AK::kBat}});

  // algebra.*
  add("algebra.select", {{AK::kBat}, {}, 0, {AK::kBat}});
  add("algebra.select", {{AK::kBat, AK::kBat}, {}, 0, {AK::kBat}});
  add("algebra.thetaselect",
      {{AK::kBat, AK::kStr, AK::kScalar}, {}, 0, {AK::kBat}});
  add("algebra.project", {{AK::kBat, AK::kBat}, {}, 0, {AK::kBat}});
  add("algebra.join", {{AK::kBat, AK::kBat}, {}, 0, {AK::kBat, AK::kBat}});
  add("algebra.njoin",
      {{AK::kNum}, {AK::kBat, AK::kBat}, 1, {AK::kBat, AK::kBat}});
  add("algebra.crossjoin",
      {{AK::kNum, AK::kNum}, {}, 0, {AK::kBat, AK::kBat}});
  add("algebra.slice", {{AK::kBat, AK::kNum, AK::kNum}, {}, 0, {AK::kBat}});
  add("algebra.sort", {{}, {AK::kBat, AK::kNum}, 1, {AK::kBat}});
  add("algebra.firstn", {{AK::kNum}, {AK::kBat, AK::kNum}, 1, {AK::kBat}});
  add("algebra.orderidx", {{AK::kBat}, {}, 0, {AK::kBat}});
  add("algebra.orderidx", {{}, {AK::kBat, AK::kNum}, 1, {AK::kBat}});

  // batcalc.* — shape-polymorphic over scalars and BATs.
  for (const char* op : {"+", "-", "*", "/", "%", "==", "!=", "<", "<=",
                         ">", ">=", "and", "or"}) {
    add(std::string("batcalc.") + op,
        {{AK::kVal, AK::kVal}, {}, 0, {}, true});
  }
  for (const char* op : {"not", "neg", "abs", "isnil"}) {
    add(std::string("batcalc.") + op, {{AK::kVal}, {}, 0, {}, true});
  }
  add("batcalc.ifthenelse",
      {{AK::kVal, AK::kVal, AK::kVal}, {}, 0, {}, true});
  add("batcalc.const", {{AK::kScalar, AK::kNum}, {}, 0, {AK::kBat}});
  for (const char* ty : {"bit", "int", "lng", "dbl"}) {
    add(std::string("batcalc.cast_") + ty, {{AK::kVal}, {}, 0, {}, true});
  }

  // group.* / aggr.*
  add("group.group", {{AK::kBat}, {}, 0, {AK::kBat, AK::kBat, AK::kNum}});
  add("group.subgroup",
      {{AK::kBat, AK::kBat, AK::kNum}, {}, 0,
       {AK::kBat, AK::kBat, AK::kNum}});
  for (const char* op : {"sum", "avg", "min", "max", "count"}) {
    add(std::string("aggr.") + op,
        {{AK::kBat, AK::kBat, AK::kNum}, {}, 0, {AK::kBat}});
    add(std::string("aggr.") + op + "_all", {{AK::kBat}, {}, 0, {AK::kScalar}});
  }
  add("aggr.count_star", {{AK::kBat, AK::kNum}, {}, 0, {AK::kBat}});

  // array.*
  add("array.series",
      {{AK::kNum, AK::kNum, AK::kNum, AK::kNum, AK::kNum}, {}, 0, {AK::kBat}});
  add("array.filler", {{AK::kNum, AK::kScalar}, {}, 0, {AK::kBat}});
  add("array.cellpos", {{AK::kObjArray}, {AK::kBat}, 1, {AK::kBat}});
  add("array.slab",
      {{AK::kStr}, {AK::kStr, AK::kStr, AK::kScalar}, 1, {AK::kBat}});
  add("array.tileagg",
      {{AK::kObjArray, AK::kObjTile, AK::kStr, AK::kBat}, {}, 0, {AK::kBat}});
  add("array.scatter", {{AK::kStr, AK::kStr, AK::kBat, AK::kVal}, {}, 0, {}});

  // sql.* — `sql.ddl` is the display-only pseudo-op EXPLAIN emits for DDL.
  add("sql.bind", {{AK::kStr, AK::kStr}, {}, 0, {AK::kBat}});
  add("sql.count", {{AK::kStr}, {}, 0, {AK::kNum}});
  add("sql.append", {{AK::kStr, AK::kStr, AK::kBat}, {}, 0, {}});
  add("sql.replace", {{AK::kStr, AK::kStr, AK::kBat, AK::kVal}, {}, 0, {}});
  add("sql.delete_rows", {{AK::kStr, AK::kBat}, {}, 0, {}});
  add("sql.ddl", {{AK::kStr}, {}, 0, {}});

  return t;
}

const SigTable& Table() {
  static const SigTable* t = new SigTable(BuildTable());
  return *t;
}

RK RetKind(AK spec) {
  switch (spec) {
    case AK::kBat: return RK::kBat;
    case AK::kNum: return RK::kNum;
    case AK::kStr: return RK::kStr;
    default: return RK::kScalar;
  }
}

}  // namespace

std::string VerifyDiag::ToString() const {
  if (instr < 0) return "verify[" + check + "]: " + detail;
  return StrFormat("verify[%s] at #%d: ", check.c_str(), instr) + detail;
}

std::vector<VerifyDiag> VerifyProgramDiags(const MalProgram& prog) {
  std::vector<VerifyDiag> diags;
  const auto& regs = prog.regs();
  const auto& instrs = prog.instrs();
  const int nregs = static_cast<int>(regs.size());

  std::vector<RegState> state(regs.size());
  for (int r = 0; r < nregs; ++r) {
    if (regs[r].is_const) {
      state[r].defined = true;
      state[r].kind =
          regs[r].cval.type == gdk::PhysType::kStr ? RK::kStr : RK::kNum;
    } else if (regs[r].is_obj) {
      state[r].defined = true;
      state[r].kind = RK::kObj;
      state[r].obj_tag = regs[r].obj_tag;
    }
  }

  auto diag = [&diags](const std::string& check, int instr,
                       std::string detail) {
    diags.push_back(VerifyDiag{check, instr, std::move(detail)});
  };

  for (size_t i = 0; i < instrs.size(); ++i) {
    const MalInstr& in = instrs[i];
    const int ii = static_cast<int>(i);

    // Register indexes must be valid before anything else can be said —
    // including rendering: InstrToString dereferences the register file,
    // so it must not run on a corrupted instruction.
    bool regs_ok = true;
    for (int a : in.args) {
      if (a < 0 || a >= nregs) {
        diag("bad-register", ii,
             StrFormat("argument register %d out of range (program has %d "
                       "registers) in `%s(...)`",
                       a, nregs, in.Name().c_str()));
        regs_ok = false;
      }
    }
    for (int r : in.rets) {
      if (r < 0 || r >= nregs) {
        diag("bad-register", ii,
             StrFormat("return register %d out of range (program has %d "
                       "registers) in `%s(...)`",
                       r, nregs, in.Name().c_str()));
        regs_ok = false;
      }
    }
    if (!regs_ok) continue;
    const std::string line = prog.InstrToString(i);

    // Def-before-use over the already-processed prefix.
    for (size_t a = 0; a < in.args.size(); ++a) {
      if (!state[in.args[a]].defined) {
        diag("use-before-def", ii,
             "argument " + StrFormat("%zu", a) + " (" +
                 regs[in.args[a]].name + ") is not a constant and has no "
                 "defining instruction before `" + line + "`");
      }
    }

    const auto it = Table().find(in.Name());
    const std::vector<OpSig>* sigs =
        it == Table().end() ? nullptr : &it->second;
    if (sigs == nullptr) {
      diag("unknown-op", ii,
           "`" + in.Name() + "` is not in the MAL signature table: `" + line +
               "`");
    }

    const OpSig* matched = nullptr;
    if (sigs != nullptr) {
      // Shape first: find the alternatives this arity/ret-count fits, then
      // demand the argument kinds of one of them.
      std::vector<const OpSig*> shape_ok;
      for (const OpSig& s : *sigs) {
        if (s.ArityOk(in.args.size()) && s.RetCount() == in.rets.size()) {
          shape_ok.push_back(&s);
        }
      }
      if (shape_ok.empty()) {
        const OpSig& s = (*sigs)[0];
        diag("arity-mismatch", ii,
             "`" + in.Name() + "` expects " + s.ArityString() +
                 StrFormat(" args and %zu rets, got %zu args and %zu rets "
                           "in `",
                           s.RetCount(), in.args.size(), in.rets.size()) +
                 line + "`");
      } else {
        std::string first_mismatch;
        for (const OpSig* s : shape_ok) {
          bool all = true;
          for (size_t a = 0; a < in.args.size(); ++a) {
            const RegState& rs = state[in.args[a]];
            if (!rs.defined) continue;  // already reported use-before-def
            if (!Matches(s->ArgSpec(a), rs)) {
              all = false;
              if (first_mismatch.empty()) {
                first_mismatch =
                    "argument " + StrFormat("%zu", a) + " (" +
                    regs[in.args[a]].name + ") is " + RKName(rs.kind) +
                    ", `" + in.Name() + "` needs " + AKName(s->ArgSpec(a)) +
                    " in `" + line + "`";
              }
              break;
            }
          }
          if (all) {
            matched = s;
            break;
          }
        }
        if (matched == nullptr) {
          diag("type-mismatch", ii, first_mismatch);
        }
      }
    }

    // Returns: single assignment into plain variable registers only.
    for (size_t r = 0; r < in.rets.size(); ++r) {
      const int reg = in.rets[r];
      if (regs[reg].is_const || regs[reg].is_obj) {
        diag("const-assign", ii,
             "return " + StrFormat("%zu", r) + " writes " +
                 (regs[reg].is_obj ? "object" : "constant") + " register " +
                 regs[reg].name + " in `" + line + "`");
        continue;
      }
      if (state[reg].defined) {
        diag("double-assign", ii,
             "register " + regs[reg].name +
                 (state[reg].def_instr >= 0
                      ? StrFormat(" already assigned by #%d",
                                  state[reg].def_instr)
                      : std::string(" assigned twice")) +
                 ", reassigned in `" + line + "`");
        continue;
      }
      RegState& rs = state[reg];
      rs.defined = true;
      rs.def_instr = ii;
      if (matched == nullptr) {
        rs.kind = RK::kPoly;  // unknown op / failed match: stay permissive
      } else if (matched->poly_ret) {
        // batcalc shape propagation: any BAT operand makes the result a
        // BAT, all-scalar operands a scalar, anything unresolved stays
        // polymorphic.
        bool any_bat = false, any_poly = false;
        for (int a : in.args) {
          if (state[a].kind == RK::kBat) any_bat = true;
          if (state[a].kind == RK::kPoly) any_poly = true;
        }
        rs.kind = any_bat ? RK::kBat : (any_poly ? RK::kPoly : RK::kScalar);
      } else {
        rs.kind = RetKind(matched->rets[r]);
      }
    }
  }

  // Result columns must name defined registers.
  for (const MalProgram::ResultCol& rc : prog.results()) {
    if (rc.reg < 0 || rc.reg >= nregs) {
      diag("bad-register", -1,
           StrFormat("result column `%s` names register %d, out of range "
                     "(program has %d registers)",
                     rc.name.c_str(), rc.reg, nregs));
      continue;
    }
    if (!state[rc.reg].defined) {
      diag("result-undefined", -1,
           "result column `" + rc.name + "` names register " +
               regs[rc.reg].name + ", which no instruction defines");
    }
  }

  return diags;
}

Status VerifyProgram(const MalProgram& prog) {
  std::vector<VerifyDiag> diags = VerifyProgramDiags(prog);
  if (diags.empty()) {
    VerifyStats().programs_verified.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  VerifyStats().programs_rejected.fetch_add(1, std::memory_order_relaxed);
  std::string msg = "MAL program failed verification";
  for (const VerifyDiag& d : diags) msg += "\n  " + d.ToString();
  return Status::Internal(std::move(msg));
}

VerifyControls& GetVerifyControls() {
  static VerifyControls c;
  return c;
}

VerifyCounters& VerifyStats() {
  static VerifyCounters c;
  return c;
}

}  // namespace mal
}  // namespace sciql
