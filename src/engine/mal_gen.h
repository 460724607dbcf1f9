// Statement-level MAL generation: SELECT pipelines plus the read parts of
// DML statements. Writes (appends, scatters, deletes) are applied by the
// Executor from the evaluated result — mirroring MonetDB's handling of SQL
// updates through delta application after plan evaluation.

#ifndef SCIQL_ENGINE_MAL_GEN_H_
#define SCIQL_ENGINE_MAL_GEN_H_

#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/result.h"
#include "src/engine/binder.h"
#include "src/mal/program.h"
#include "src/sql/ast.h"

namespace sciql {
namespace engine {

/// \brief A compiled statement: the MAL read pipeline plus the action the
/// executor must apply to its result.
struct CompiledStatement {
  enum class Action {
    kQuery,          ///< plain SELECT: result returned to the caller
    kInsert,         ///< append/scatter result rows into `target`
    kUpdate,         ///< write __set columns at __pos positions of `target`
    kDelete,         ///< delete/NULL rows at __pos positions of `target`
    kCreateTableAs,  ///< materialise result as new table `target`
    kCreateArrayAs,  ///< coerce result to a new array `target`
    kDdlDisplay,     ///< DDL program for EXPLAIN only; never executed
  };

  Action action = Action::kQuery;
  mal::MalProgram prog;
  std::string target;
  std::vector<std::string> insert_columns;  ///< explicit INSERT column list
  std::vector<std::string> set_columns;     ///< UPDATE SET column names
};

/// \brief Compiles parsed statements into CompiledStatements. Reads only a
/// pinned, immutable catalog version: compilation never takes a lock and is
/// never invalidated by concurrent writers publishing newer versions.
class StatementCompiler {
 public:
  explicit StatementCompiler(const catalog::CatalogVersion* cat) : cat_(cat) {}

  /// \brief Compile any non-DDL statement (SELECT, INSERT, UPDATE, DELETE,
  /// CREATE ... AS SELECT). Plain DDL is executed directly by Database.
  Result<CompiledStatement> Compile(const sql::Statement& stmt);

  /// \brief Build the Figure-3 style array.series/array.filler program for a
  /// plain DDL statement, for EXPLAIN.
  Result<CompiledStatement> CompileDdlDisplay(const sql::Statement& stmt);

 private:
  Result<CompiledStatement> CompileSelect(const sql::Statement& stmt);
  Result<CompiledStatement> CompileInsert(const sql::Statement& stmt);
  Result<CompiledStatement> CompileUpdate(const sql::Statement& stmt);
  Result<CompiledStatement> CompileDelete(const sql::Statement& stmt);
  /// UPDATE/DELETE: scan the target, filter it by WHERE and add the
  /// selected row ids as the `__pos` result column; returns the filtered
  /// environment the SET expressions compile over.
  Result<Env> CompileTargetRows(const sql::Statement& stmt,
                                CompiledStatement* cs);

  const catalog::CatalogVersion* cat_;
};

}  // namespace engine
}  // namespace sciql

#endif  // SCIQL_ENGINE_MAL_GEN_H_
