// Static verifier for MAL programs: checks every planner-emitted (and
// optimizer-rewritten) program against the signatures in the op table
// (OpTable(), src/mal/interpreter.h) before it is executed, so a malformed
// plan fails with a diagnostic naming the offending instruction instead of
// a runtime error deep inside a kernel — or worse, a silently wrong
// result. The interpreter checks only arity against the same rows; argument
// kinds, single assignment and def-before-use are checked here. This is
// the plan-construction-time counterpart to the compile-time
// lock-capability analysis (docs/static_analysis.md).
//
// Checked invariants:
//   - single assignment: every register is written by at most one
//     instruction, and constant/object registers are never written
//   - def-before-use: every argument is a constant, an object, or the
//     result of an earlier instruction
//   - signature consistency: known op (resolved to an op-table row when
//     emitted), argument/return arity (including the variadic shapes:
//     bat.pack, algebra.firstn/njoin/orderidx, array.cellpos/slab), and
//     BAT-vs-scalar value kinds
//   - result-column validity: every `io.result` register is defined
//
// Wired in three places: Session::CompileAndRun verifies both the raw and
// the optimized program when `GetVerifyControls().enabled` (the default in
// Debug builds), EXPLAIN verifies unconditionally, and the fuzz oracle
// forces verification on for every path of every generated case.

#ifndef SCIQL_MAL_VERIFY_H_
#define SCIQL_MAL_VERIFY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mal/program.h"

namespace sciql {
namespace mal {

/// \brief One verifier finding.
struct VerifyDiag {
  /// Named check that fired: "unknown-op", "bad-register", "const-assign",
  /// "double-assign", "use-before-def", "arity-mismatch", "type-mismatch"
  /// or "result-undefined".
  std::string check;
  /// Offending instruction index, or -1 for program-level findings (result
  /// columns).
  int instr = -1;
  /// Human-readable description, including the rendered instruction.
  std::string detail;

  /// \brief "verify[<check>] at #<instr>: <detail>".
  std::string ToString() const;
};

/// \brief Run every check over `prog`; empty means the program is valid.
std::vector<VerifyDiag> VerifyProgramDiags(const MalProgram& prog);

/// \brief VerifyProgramDiags reduced to a Status: OK, or Internal with
/// every diagnostic joined into the message. Bumps VerifyStats().
Status VerifyProgram(const MalProgram& prog);

/// \brief Process-wide verifier switches (same pattern as PlannerControls).
///
/// Verification is on by default in Debug builds and off in optimized
/// builds; EXPLAIN and the fuzz oracle verify regardless of this flag.
struct VerifyControls {
#ifdef NDEBUG
  bool enabled = false;
#else
  bool enabled = true;
#endif

  void Reset() { *this = VerifyControls(); }
};

VerifyControls& GetVerifyControls();

/// \brief Monotonic verifier telemetry, exported by the metrics registry as
/// sciql.mal.programs_verified / sciql.mal.programs_rejected.
struct VerifyCounters {
  std::atomic<uint64_t> programs_verified{0};
  std::atomic<uint64_t> programs_rejected{0};
};

VerifyCounters& VerifyStats();

}  // namespace mal
}  // namespace sciql

#endif  // SCIQL_MAL_VERIFY_H_
