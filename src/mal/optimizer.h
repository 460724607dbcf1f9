// MAL optimizer passes (paper Fig. 2, "MAL Optimizers"): common
// subexpression elimination, constant folding and dead-code elimination over
// the generated MAL program.

#ifndef SCIQL_MAL_OPTIMIZER_H_
#define SCIQL_MAL_OPTIMIZER_H_

#include "src/common/result.h"
#include "src/mal/program.h"

namespace sciql {
namespace mal {

/// \brief Per-pass statistics, used by tests and EXPLAIN diagnostics.
struct OptimizerStats {
  size_t cse_removed = 0;
  size_t folded = 0;
  size_t dead_removed = 0;
};

/// \brief Deduplicate instructions with identical ops and arguments.
Status CommonSubexpressionElimination(MalProgram* prog, OptimizerStats* stats);

/// \brief Evaluate single-result batcalc instructions whose arguments are
/// all scalar constants; replaces the result register with an inline
/// constant.
Status ConstantFold(MalProgram* prog, OptimizerStats* stats);

/// \brief Remove instructions none of whose results are used.
Status DeadCodeElimination(MalProgram* prog, OptimizerStats* stats);

/// \brief The standard pipeline: CSE, folding, DCE (to fixpoint).
Status Optimize(MalProgram* prog, OptimizerStats* stats = nullptr);

}  // namespace mal
}  // namespace sciql

#endif  // SCIQL_MAL_OPTIMIZER_H_
