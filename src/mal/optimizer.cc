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
  std::vector<int> alias(prog.NumRegs());
  for (size_t i = 0; i < alias.size(); ++i) alias[i] = static_cast<int>(i);
  return alias;
}

/// Ops whose result is a scalar when all their operands are: the
/// shape-polymorphic batcalc rows.
bool FoldsOnScalars(const OpDef* op) {
  return op != nullptr && op->sigs[0].poly_ret;
}

}  // namespace

Status CommonSubexpressionElimination(MalProgram* prog,
                                      OptimizerStats* stats) {
  std::vector<int> alias = IdentityAliases(*prog);
  // Key: resolved op + canonicalised argument registers.
  std::map<std::pair<const OpDef*, std::vector<int>>, std::vector<int>> seen;
  std::vector<MalInstr> instrs = std::move(*prog->mutable_instrs());
  std::vector<MalInstr> kept;
  kept.reserve(instrs.size());
  for (MalInstr& in : instrs) {
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
  // Only fold scalar computations; anything touching the catalog or BATs
  // stays. The arguments are read from the program, so the context's
  // variable file is made only once something folds.
  MalContext ctx(nullptr);
  ctx.prog = prog;
  std::vector<MalInstr> instrs = std::move(*prog->mutable_instrs());
  std::vector<MalInstr> kept;
  kept.reserve(instrs.size());
  for (MalInstr& in : instrs) {
    bool foldable = FoldsOnScalars(in.op) && in.rets.size() == 1;
    for (size_t a = 0; foldable && a < in.args.size(); ++a) {
      foldable = prog->IsConst(in.args[a]);
    }
    if (!foldable) {
      kept.push_back(std::move(in));
      continue;
    }
    if (ctx.vars.size() != prog->NumVars()) ctx.vars.resize(prog->NumVars());
    Status st = engine.RunInstr(in, &ctx);
    const MalValue& out = ctx.Reg(in.rets[0]);
    if (!st.ok() || !out.IsScalar()) {
      // E.g. division by zero: keep the instruction so the error surfaces
      // at execution time with proper context.
      kept.push_back(std::move(in));
      continue;
    }
    prog->SetConst(in.rets[0], out.scalar);
    if (stats != nullptr) stats->folded++;
  }
  *prog->mutable_instrs() = std::move(kept);
  return Status::OK();
}

Status DeadCodeElimination(MalProgram* prog, OptimizerStats* stats) {
  std::vector<bool> used(prog->NumRegs(), false);
  for (const auto& rc : prog->results()) {
    used[static_cast<size_t>(rc.reg)] = true;
  }
  // Backward sweep: every op is pure (writes are applied by the executor,
  // not by MAL), so an instruction is live iff any of its results is used.
  std::vector<MalInstr>& instrs = *prog->mutable_instrs();
  std::vector<bool> live(instrs.size(), false);
  for (size_t i = instrs.size(); i-- > 0;) {
    const MalInstr& in = instrs[i];
    bool needed = false;
    for (int r : in.rets) {
      if (used[static_cast<size_t>(r)]) needed = true;
    }
    if (!needed) continue;
    live[i] = true;
    for (int a : in.args) used[static_cast<size_t>(a)] = true;
  }
  size_t n = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (live[i]) {
      if (n != i) instrs[n] = std::move(instrs[i]);
      ++n;
    } else if (stats != nullptr) {
      stats->dead_removed++;
    }
  }
  instrs.resize(n);
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
