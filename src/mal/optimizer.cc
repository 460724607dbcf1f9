#include "src/mal/optimizer.h"

#include <map>
#include <vector>

#include "src/common/string_util.h"
#include "src/mal/interpreter.h"

namespace sciql {
namespace mal {

namespace {

// Apply a register aliasing map to all instruction arguments and results.
void ApplyAliases(MalProgram* prog, const std::vector<int>& alias) {
  for (MalInstr& in : *prog->mutable_instrs()) {
    for (int& a : in.args) a = alias[static_cast<size_t>(a)];
  }
  for (auto& rc : *prog->mutable_results()) {
    rc.reg = alias[static_cast<size_t>(rc.reg)];
  }
}

std::vector<int> IdentityAliases(const MalProgram& prog) {
  std::vector<int> alias(prog.regs().size());
  for (size_t i = 0; i < alias.size(); ++i) alias[i] = static_cast<int>(i);
  return alias;
}

}  // namespace

Status CommonSubexpressionElimination(MalProgram* prog,
                                      OptimizerStats* stats) {
  std::vector<int> alias = IdentityAliases(*prog);
  // Key: resolved op + canonicalised argument registers.
  std::map<std::pair<const OpDef*, std::vector<int>>, std::vector<int>> seen;
  std::vector<MalInstr> kept;
  for (MalInstr in : prog->instrs()) {
    for (int& a : in.args) a = alias[static_cast<size_t>(a)];
    if (in.op == nullptr) {
      // Unknown ops share no row to key on; they fail at run time by name.
      kept.push_back(std::move(in));
      continue;
    }
    auto key = std::make_pair(in.op, in.args);
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(std::move(key), in.rets);
      kept.push_back(std::move(in));
      continue;
    }
    // Duplicate: alias this instruction's results to the first occurrence.
    for (size_t r = 0; r < in.rets.size(); ++r) {
      alias[static_cast<size_t>(in.rets[r])] = it->second[r];
    }
    if (stats != nullptr) stats->cse_removed++;
  }
  *prog->mutable_instrs() = std::move(kept);
  ApplyAliases(prog, alias);
  return Status::OK();
}

Status ConstantFold(MalProgram* prog, OptimizerStats* stats) {
  const MalEngine& engine = MalEngine::Global();
  // Only fold scalar computations in the batcalc module; anything touching
  // the catalog or BATs stays.
  MalContext ctx(nullptr);
  ctx.regs.assign(prog->regs().size(), MalValue::None());
  for (size_t i = 0; i < prog->regs().size(); ++i) {
    const MalProgram::Reg& r = prog->regs()[i];
    if (r.is_const) ctx.regs[i] = MalValue::Of(r.cval);
  }
  std::vector<MalInstr> kept;
  for (const MalInstr& in : prog->instrs()) {
    bool foldable = in.op != nullptr && in.op->module == "batcalc" &&
                    in.rets.size() == 1;
    if (foldable) {
      for (int a : in.args) {
        if (!prog->regs()[static_cast<size_t>(a)].is_const &&
            !ctx.regs[static_cast<size_t>(a)].IsScalar()) {
          foldable = false;
          break;
        }
      }
    }
    if (!foldable) {
      kept.push_back(in);
      continue;
    }
    Status st = engine.RunInstr(in, &ctx);
    if (!st.ok() || !ctx.regs[static_cast<size_t>(in.rets[0])].IsScalar()) {
      // E.g. division by zero: keep the instruction so the error surfaces
      // at execution time with proper context.
      kept.push_back(in);
      continue;
    }
    MalProgram::Reg& r = (*prog->mutable_regs())[static_cast<size_t>(in.rets[0])];
    r.is_const = true;
    r.cval = ctx.regs[static_cast<size_t>(in.rets[0])].scalar;
    if (stats != nullptr) stats->folded++;
  }
  *prog->mutable_instrs() = std::move(kept);
  return Status::OK();
}

Status DeadCodeElimination(MalProgram* prog, OptimizerStats* stats) {
  std::vector<bool> used(prog->regs().size(), false);
  for (const auto& rc : prog->results()) {
    used[static_cast<size_t>(rc.reg)] = true;
  }
  // Backward sweep: every op is pure (writes are applied by the executor,
  // not by MAL), so an instruction is live iff any of its results is used.
  std::vector<bool> live(prog->instrs().size(), false);
  for (size_t i = prog->instrs().size(); i-- > 0;) {
    const MalInstr& in = prog->instrs()[i];
    bool needed = false;
    for (int r : in.rets) {
      if (used[static_cast<size_t>(r)]) needed = true;
    }
    if (!needed) continue;
    live[i] = true;
    for (int a : in.args) used[static_cast<size_t>(a)] = true;
  }
  std::vector<MalInstr> kept;
  for (size_t i = 0; i < prog->instrs().size(); ++i) {
    if (live[i]) {
      kept.push_back(prog->instrs()[i]);
    } else if (stats != nullptr) {
      stats->dead_removed++;
    }
  }
  *prog->mutable_instrs() = std::move(kept);
  return Status::OK();
}

Status Optimize(MalProgram* prog, OptimizerStats* stats) {
  // Two rounds reach a fixpoint for the plans our compiler emits.
  for (int round = 0; round < 2; ++round) {
    SCIQL_RETURN_NOT_OK(CommonSubexpressionElimination(prog, stats));
    SCIQL_RETURN_NOT_OK(ConstantFold(prog, stats));
    SCIQL_RETURN_NOT_OK(DeadCodeElimination(prog, stats));
  }
  return Status::OK();
}

}  // namespace mal
}  // namespace sciql
