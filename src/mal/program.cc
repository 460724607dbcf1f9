#include "src/mal/program.h"

#include <cstring>

#include "src/common/string_util.h"
#include "src/mal/interpreter.h"

namespace sciql {
namespace mal {

int MalProgram::NewReg(const std::string& hint) {
  Reg r;
  r.name = StrFormat("%s_%d", hint.empty() ? "t" : hint.c_str(),
                     name_counter_++);
  regs_.push_back(std::move(r));
  return static_cast<int>(regs_.size()) - 1;
}

int MalProgram::Const(gdk::ScalarValue v) {
  // Hash-cons on the exact value, not its rendering: DOUBLEs display with
  // %.6g, so 1.0000001 and 1.00000015 render alike, and 0.0 == -0.0 would
  // compare equal. A NULL keys on its type alone.
  ConstKey key(v.type, v.is_null, 0, 0, std::string());
  if (!v.is_null) {
    if (v.type == gdk::PhysType::kDbl) {
      std::memcpy(&std::get<3>(key), &v.d, sizeof(double));
    } else if (v.type == gdk::PhysType::kStr) {
      std::get<4>(key) = v.s;
    } else {
      std::get<2>(key) = v.i;
    }
  }
  auto it = const_pool_.find(key);
  if (it != const_pool_.end()) return it->second;
  Reg r;
  r.is_const = true;
  r.cval = std::move(v);
  regs_.push_back(std::move(r));
  int idx = static_cast<int>(regs_.size()) - 1;
  const_pool_.emplace(std::move(key), idx);
  return idx;
}

int MalProgram::Obj(std::shared_ptr<const void> obj, const std::string& tag,
                    const std::string& display) {
  Reg r;
  r.is_obj = true;
  r.obj = std::move(obj);
  r.obj_tag = tag;
  r.obj_display = display;
  regs_.push_back(std::move(r));
  return static_cast<int>(regs_.size()) - 1;
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

std::string MalProgram::RegName(int r) const {
  const Reg& reg = regs_[static_cast<size_t>(r)];
  if (reg.is_const) return reg.cval.ToString();
  if (reg.is_obj) return reg.obj_display;
  return reg.name;
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
