// Compilation of SELECT statements into MAL pipelines: scans and joins over
// the FROM items, WHERE filtering, value-based or structural (tiling)
// grouping, HAVING, projection, ORDER BY and LIMIT.

#ifndef SCIQL_ENGINE_PLANNER_H_
#define SCIQL_ENGINE_PLANNER_H_

#include "src/engine/binder.h"

namespace sciql {
namespace engine {

/// \brief Process-wide planner switches for differential testing. The
/// fuzzer's oracle runner (src/fuzz/) flips these so one logical query
/// compiles down redundant pipelines whose results must agree bit-for-bit.
struct PlannerControls {
  /// When false, ORDER BY + LIMIT compiles to the explicit
  /// orderidx + project + slice pipeline instead of fusing into
  /// algebra.firstn — the redundant pair the top-k kernel is pinned against.
  bool fuse_firstn = true;

  void Reset() { *this = PlannerControls{}; }
};

/// \brief The process-wide planner controls.
PlannerControls& GetPlannerControls();

/// \brief Compiles one SELECT (possibly nested) into an existing MalProgram.
class SelectCompiler {
 public:
  SelectCompiler(mal::MalProgram* prog, const catalog::CatalogVersion* cat)
      : prog_(prog), cat_(cat) {}

  /// \brief Compile the full pipeline; the returned environment holds the
  /// output columns (name, is_dim, register) in select-list order.
  Result<Env> Compile(const sql::SelectStmt& sel);

  /// \brief Bind all columns of a table or array into a fresh environment
  /// (dimensions first for arrays). Also used by the DML compilers.
  Result<Env> ScanObject(const std::string& name, const std::string& alias);

  /// \brief Filter `env` in place by the AND of `conjuncts` (WHERE of a
  /// SELECT, UPDATE or DELETE). When `env` is the plain scan of array
  /// `object` (pass "" otherwise) and index paths are on
  /// (gdk::Controls().use_index_paths), every `dimension cmp literal`
  /// conjunct compiles into one array.slab and the rest filter the slab's
  /// rows. If `pos` is non-null it receives the register of the selected
  /// row ids of the scan, or -1 when `conjuncts` is empty.
  Status CompileWhere(const std::string& object,
                      const std::vector<const sql::Expr*>& conjuncts,
                      Env* env, int* pos);

 private:
  /// FROM: scans and joins; returns the base environment and the conjuncts
  /// of WHERE not consumed by equi-joins.
  Result<Env> CompileFrom(const sql::SelectStmt& sel,
                          std::vector<const sql::Expr*>* residual);

  /// Filter `env` in place by a predicate (bit BAT -> candidates ->
  /// projection of every column); returns the candidates register.
  Result<int> ApplyFilter(Env* env, int bits_reg, bool bits_scalar,
                          std::vector<int>* extra_aligned);

  /// Split the conjuncts array.slab answers off `conjuncts` (into
  /// *residual the rest) and emit the slab over array `object`; returns its
  /// register, or -1 when no conjunct qualifies.
  Result<int> CompileSlab(const std::string& object, const Env& env,
                          const std::vector<const sql::Expr*>& conjuncts,
                          std::vector<const sql::Expr*>* residual);

  /// Structural grouping: compute tile aggregates (cell-aligned).
  Status CompileTiling(const sql::SelectStmt& sel, const Env& env,
                       const std::vector<const sql::Expr*>& aggs,
                       std::map<const sql::Expr*, int>* agg_map);

  mal::MalProgram* prog_;
  const catalog::CatalogVersion* cat_;
};

}  // namespace engine
}  // namespace sciql

#endif  // SCIQL_ENGINE_PLANNER_H_
