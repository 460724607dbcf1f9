// The MAL interpreter: dispatches module.fn instructions to GDK kernels
// over a register file (paper Fig. 2, "MAL Interpreter" -> "GDK Kernel").
//
// Which ops exist, the shapes each accepts and the kernel behind each is
// one decision, declared once as rows of the op table (OpTable(), defined
// beside the kernels in modules.cc). MalProgram::Emit resolves each
// instruction to its row, the verifier checks argument kinds against the
// row's signatures, and the interpreter checks arity against the same
// signatures before calling the row's kernel.

#ifndef SCIQL_MAL_INTERPRETER_H_
#define SCIQL_MAL_INTERPRETER_H_

#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/result.h"
#include "src/mal/program.h"
#include "src/mal/value.h"

namespace sciql {
namespace obs {
class StatementTrace;
}  // namespace obs

namespace mal {

/// \brief Execution state of one MAL program run. Binds a pinned, immutable
/// catalog version (or null for catalog-free programs): runtime binding ops
/// resolve against the same snapshot the program was compiled from.
struct MalContext {
  explicit MalContext(const catalog::CatalogVersion* cat) : catalog(cat) {}

  const catalog::CatalogVersion* catalog;
  /// The program whose registers these are (set by MalEngine::Run): its
  /// constants and objects are read from it, never copied in.
  const MalProgram* prog = nullptr;
  /// The program's variable registers, by MalProgram::Reg::slot.
  std::vector<MalValue> vars;

  /// When non-null, Run() records one obs::InstrSample per instruction
  /// (wall time, row counts, telemetry delta) into this trace.
  obs::StatementTrace* trace = nullptr;

  /// \brief Any register's current value.
  const MalValue& Reg(int r) const {
    const MalProgram::Reg& g = prog->reg(r);
    return g.kind == MalProgram::RegKind::kVar ? vars[g.slot]
                                                : prog->Value(r);
  }
  /// \brief A variable register, to store an instruction's result.
  MalValue& Var(int r) { return vars[prog->reg(r).slot]; }
};

/// \brief What a signature demands of an argument (or promises of a
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

/// \brief One acceptable shape of an op: `fixed` leading arguments, then,
/// when `group` is non-empty, one or more repetitions of `group`. Ops with
/// alternative shapes (algebra.select's optional candidate list) list
/// several OpSigs.
struct OpSig {
  std::vector<AK> fixed;
  std::vector<AK> group;
  std::vector<AK> rets;
  /// Single return whose BAT-vs-scalar shape follows the value arguments
  /// (batcalc): all-scalar operands give a scalar, any BAT gives a BAT.
  bool poly_ret = false;

  size_t RetCount() const { return poly_ret ? 1 : rets.size(); }
  bool ArityOk(size_t nargs) const;
  /// \brief "3", or "1+2k (k>=1)" for a variadic shape.
  std::string ArityString() const;
  AK ArgSpec(size_t i) const;
};

/// \brief An op's kernel. Dispatch has already checked the instruction's
/// argument and return counts against the op's signatures; the kernel
/// checks the values (kinds, ranges) it reads.
using MalKernel = Status (*)(MalContext* ctx, const MalInstr& in);

/// \brief One row of the op table.
struct OpDef {
  std::string module;
  std::string fn;
  std::vector<OpSig> sigs;
  /// Null for the display-only `sql.ddl`, which EXPLAIN renders for DDL
  /// and nothing executes.
  MalKernel kernel;

  /// \brief True if some signature takes `nargs` arguments and `nrets`
  /// returns.
  bool ShapeOk(size_t nargs, size_t nrets) const;
  /// \brief "`module.fn` expects N args and M rets, got ..." for an
  /// instruction ShapeOk rejects.
  std::string ShapeMismatch(const MalInstr& in) const;
};

/// \brief Every op the engine knows, in declaration order; defined in
/// modules.cc beside the kernels.
const std::vector<OpDef>& OpTable();

/// \brief The row named "module.fn", or null when no row declares it.
const OpDef* FindOp(const std::string& name);

/// \brief Dispatcher of resolved MAL instructions.
class MalEngine {
 public:
  /// \brief The process-wide engine.
  static const MalEngine& Global();

  /// \brief Execute the whole program: binds `ctx` to it with a fresh
  /// variable file, then runs every instruction in order, sampling each
  /// into `ctx->trace` when one is set.
  Status Run(const MalProgram& prog, MalContext* ctx) const;

  /// \brief Execute a single instruction against a context bound to its
  /// program. Fails without dispatching when the op is unknown or
  /// display-only, the instruction's shape fits none of its signatures, or
  /// a result register is not a variable.
  Status RunInstr(const MalInstr& instr, MalContext* ctx) const;
};

}  // namespace mal
}  // namespace sciql

#endif  // SCIQL_MAL_INTERPRETER_H_
