#include "src/mal/verify.h"

#include <utility>

#include "src/common/string_util.h"
#include "src/gdk/types.h"
#include "src/mal/interpreter.h"

namespace sciql {
namespace mal {

namespace {

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
  const auto& instrs = prog.instrs();
  const int nregs = static_cast<int>(prog.NumRegs());

  std::vector<RegState> state(prog.NumRegs());
  for (int r = 0; r < nregs; ++r) {
    if (prog.IsConst(r)) {
      state[r].defined = true;
      state[r].kind =
          prog.ConstValue(r).type == gdk::PhysType::kStr ? RK::kStr : RK::kNum;
    } else if (prog.IsObj(r)) {
      state[r].defined = true;
      state[r].kind = RK::kObj;
      state[r].obj_tag = prog.Value(r).obj_tag;
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
                       a, nregs, in.name.c_str()));
        regs_ok = false;
      }
    }
    for (int r : in.rets) {
      if (r < 0 || r >= nregs) {
        diag("bad-register", ii,
             StrFormat("return register %d out of range (program has %d "
                       "registers) in `%s(...)`",
                       r, nregs, in.name.c_str()));
        regs_ok = false;
      }
    }
    if (!regs_ok) continue;
    // Rendered only when a diagnostic fires: a clean program renders nothing.
    auto line = [&prog, i] { return prog.InstrToString(i); };

    // Def-before-use over the already-processed prefix.
    for (size_t a = 0; a < in.args.size(); ++a) {
      if (!state[in.args[a]].defined) {
        diag("use-before-def", ii,
             "argument " + StrFormat("%zu", a) + " (" +
                 prog.VarName(in.args[a]) + ") is not a constant and has no "
                 "defining instruction before `" + line() + "`");
      }
    }

    if (in.op == nullptr) {
      diag("unknown-op", ii,
           "`" + in.name + "` is not in the MAL op table: `" + line() + "`");
    }

    const OpSig* matched = nullptr;
    if (in.op != nullptr) {
      // Shape first: find the alternatives this arity/ret-count fits, then
      // demand the argument kinds of one of them.
      std::vector<const OpSig*> shape_ok;
      for (const OpSig& s : in.op->sigs) {
        if (s.ArityOk(in.args.size()) && s.RetCount() == in.rets.size()) {
          shape_ok.push_back(&s);
        }
      }
      if (shape_ok.empty()) {
        diag("arity-mismatch", ii,
             in.op->ShapeMismatch(in) + " in `" + line() + "`");
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
                    prog.VarName(in.args[a]) + ") is " + RKName(rs.kind) +
                    ", `" + in.name + "` needs " + AKName(s->ArgSpec(a)) +
                    " in `" + line() + "`";
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
      if (prog.IsConst(reg) || prog.IsObj(reg)) {
        diag("const-assign", ii,
             "return " + StrFormat("%zu", r) + " writes " +
                 (prog.IsObj(reg) ? "object" : "constant") + " register " +
                 prog.VarName(reg) + " in `" + line() + "`");
        continue;
      }
      if (state[reg].defined) {
        diag("double-assign", ii,
             "register " + prog.VarName(reg) +
                 (state[reg].def_instr >= 0
                      ? StrFormat(" already assigned by #%d",
                                  state[reg].def_instr)
                      : std::string(" assigned twice")) +
                 ", reassigned in `" + line() + "`");
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
               prog.VarName(rc.reg) + ", which no instruction defines");
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
