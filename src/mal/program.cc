#include "src/mal/program.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "src/common/string_util.h"
#include "src/gdk/hash.h"
#include "src/mal/interpreter.h"

namespace sciql {
namespace mal {

namespace {

/// Hash of a constant's identity: type, NULL-ness and the exact payload (a
/// NULL keys on its type alone; a DOUBLE on its bit pattern).
uint64_t PoolHash(const gdk::ScalarValue& v) {
  uint64_t h = static_cast<uint64_t>(v.type) * 2 + (v.is_null ? 1 : 0);
  if (v.is_null) return gdk::Fingerprint64(h);
  uint64_t bits;
  if (v.type == gdk::PhysType::kDbl) {
    std::memcpy(&bits, &v.d, sizeof(bits));
  } else if (v.type == gdk::PhysType::kStr) {
    bits = gdk::Fingerprint64(std::string_view(v.s));
  } else {
    bits = static_cast<uint64_t>(v.i);
  }
  return gdk::Fingerprint64(gdk::HashCombine(h, bits));
}

/// Identity as PoolHash sees it. Not Equals: DOUBLEs compare by bit
/// pattern, so 0.0 and -0.0 stay apart, and NaN matches only its own bits.
bool SameConst(const gdk::ScalarValue& a, const gdk::ScalarValue& b) {
  if (a.type != b.type || a.is_null != b.is_null) return false;
  if (a.is_null) return true;
  if (a.type == gdk::PhysType::kDbl) {
    return std::memcmp(&a.d, &b.d, sizeof(double)) == 0;
  }
  if (a.type == gdk::PhysType::kStr) return a.s == b.s;
  return a.i == b.i;
}

}  // namespace

int MalProgram::AddReg(RegKind kind, size_t slot) {
  regs_.push_back(Reg{kind, static_cast<uint32_t>(slot)});
  return static_cast<int>(regs_.size()) - 1;
}

int MalProgram::NewReg(const std::string& hint) {
  var_names_.push_back(StrFormat("%s_%d", hint.empty() ? "t" : hint.c_str(),
                                 name_counter_++));
  return AddReg(RegKind::kVar, var_names_.size() - 1);
}

int MalProgram::Const(const gdk::ScalarValue& v) {
  // Hash-cons on the exact value, not its rendering: DOUBLEs display with
  // %.6g, so 1.0000001 and 1.00000015 render alike, and 0.0 == -0.0 would
  // compare equal.
  uint64_t hash = PoolHash(v);
  int r = FindPooled(v, hash);
  if (r >= 0) return r;
  MalValue& c = consts_.emplace_back();
  c.kind = MalValue::Kind::kScalar;
  c.scalar = v;
  r = AddReg(RegKind::kConst, consts_.size() - 1);
  PoolInsert(r, hash);
  return r;
}

int MalProgram::FindPooled(const gdk::ScalarValue& v, uint64_t hash) const {
  if (pool_.empty()) return -1;
  const size_t mask = pool_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const PoolEntry& e = pool_[i];
    if (e.reg < 0) return -1;
    if (e.hash == hash && SameConst(ConstValue(e.reg), v)) return e.reg;
  }
}

void MalProgram::PoolInsert(int r, uint64_t hash) {
  // Keep the table at most half full; growing re-places every entry by
  // its stored hash.
  if (2 * (pool_size_ + 1) > pool_.size()) {
    std::vector<PoolEntry> old = std::move(pool_);
    pool_.assign(std::max<size_t>(64, 2 * old.size()), PoolEntry{});
    pool_size_ = 0;
    for (const PoolEntry& e : old) {
      if (e.reg >= 0) PoolInsert(e.reg, e.hash);
    }
  }
  const size_t mask = pool_.size() - 1;
  size_t i = hash & mask;
  while (pool_[i].reg >= 0) i = (i + 1) & mask;
  pool_[i] = PoolEntry{hash, r};
  ++pool_size_;
}

int MalProgram::Obj(std::shared_ptr<const void> obj, const std::string& tag,
                    const std::string& display) {
  objs_.push_back(ObjReg{MalValue::Object(std::move(obj), tag), display});
  return AddReg(RegKind::kObj, objs_.size() - 1);
}

void MalProgram::SetConst(int r, gdk::ScalarValue v) {
  MalValue& c = consts_.emplace_back();
  c.kind = MalValue::Kind::kScalar;
  c.scalar = std::move(v);
  regs_[static_cast<size_t>(r)] =
      Reg{RegKind::kConst, static_cast<uint32_t>(consts_.size() - 1)};
}

void MalProgram::Emit(const std::string& module, const std::string& fn,
                      std::vector<int> rets, std::vector<int> args) {
  std::string name = module + "." + fn;
  const OpDef* op = FindOp(name);
  instrs_.push_back(
      MalInstr{op, std::move(name), std::move(rets), std::move(args)});
}

int MalProgram::EmitR(const std::string& module, const std::string& fn,
                      std::vector<int> args, const std::string& hint) {
  int r = NewReg(hint);
  Emit(module, fn, {r}, std::move(args));
  return r;
}

void MalProgram::AddResult(const std::string& name, int reg, bool is_dim) {
  results_.push_back(ResultCol{name, reg, is_dim});
}

const std::string& MalProgram::VarName(int r) const {
  static const std::string kNone;
  const Reg& g = reg(r);
  return g.kind == RegKind::kVar ? var_names_[g.slot] : kNone;
}

std::string MalProgram::RegName(int r) const {
  const Reg& g = reg(r);
  switch (g.kind) {
    case RegKind::kConst:
      return consts_[g.slot].scalar.ToString();
    case RegKind::kObj:
      return objs_[g.slot].display;
    case RegKind::kVar:
      break;
  }
  return var_names_[g.slot];
}

std::string MalProgram::InstrToString(size_t i) const {
  const MalInstr& in = instrs_[i];
  std::string line;
  if (in.rets.size() == 1) {
    line += RegName(in.rets[0]) + " := ";
  } else if (in.rets.size() > 1) {
    std::vector<std::string> rets;
    for (int r : in.rets) rets.push_back(RegName(r));
    line += "(" + Join(rets, ", ") + ") := ";
  }
  line += in.name + "(";
  std::vector<std::string> args;
  for (int a : in.args) args.push_back(RegName(a));
  line += Join(args, ", ") + ");";
  return line;
}

std::string MalProgram::ResultLineToString() const {
  if (results_.empty()) return std::string();
  std::vector<std::string> cols;
  for (const auto& rc : results_) {
    std::string name = rc.is_dim ? "[" + rc.name + "]" : rc.name;
    cols.push_back(name + "=" + RegName(rc.reg));
  }
  return "io.result(" + Join(cols, ", ") + ");";
}

std::string MalProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < instrs_.size(); ++i) {
    out += InstrToString(i) + "\n";
  }
  std::string result_line = ResultLineToString();
  if (!result_line.empty()) out += result_line + "\n";
  return out;
}

}  // namespace mal
}  // namespace sciql
