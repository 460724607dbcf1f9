// Per-layer timing for the traced run, taken from outside the engine.
//
// The benchmark links the engine with `-Wl,--wrap=<symbol>` for each layer
// boundary (see CMakeLists.txt). Every cross-module call to
//
//   engine::Session::Execute / Session::Run   (statement entry)
//   sql::Parse                                (sql)
//   engine::StatementCompiler::Compile        (engine: bind + plan)
//   mal::Optimize                             (mal optimizer)
//   engine::Executor::Execute                 (engine: execute + apply)
//   mal::MalEngine::Run                       (mal interpreter)
//
// then lands in a wrapper in layers.cc that times the real function when the
// calling thread has tracing switched on. MalEngine::Run additionally hangs
// an obs::StatementTrace on the MalContext, which yields one sample per MAL
// instruction. Nothing in src/ is changed for this.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

namespace e2e {
namespace layers {

/// Totals of one MAL operator over the traced statements.
struct OpTotals {
  double us = 0;          ///< summed instruction wall time
  uint64_t calls = 0;     ///< instructions executed
  uint64_t out_rows = 0;  ///< summed result rows
};

/// Everything the wrappers measured over the traced statements.
struct Totals {
  uint64_t stmts = 0;       ///< outermost Session::Execute/Run calls
  double session_us = 0;    ///< their summed wall time
  uint64_t parse_calls = 0;
  uint64_t parse_bytes = 0; ///< SQL text handed to sql::Parse
  double parse_us = 0;
  double compile_us = 0;
  double optimize_us = 0;
  double execute_us = 0;    ///< Executor::Execute
  double run_us = 0;        ///< MalEngine::Run
  uint64_t instrs = 0;      ///< MAL instructions run
  std::map<std::string, OpTotals> ops;  ///< keyed by module.fn
};

/// Switch tracing on or off for the calling thread. Only the session thread
/// runs the wrapped calls (kernel worker threads sit below MalEngine::Run),
/// so a thread-local switch attributes every sample to one statement.
void SetThreadTracing(bool on);

/// Clear every thread's totals.
void Reset();

/// Sum of every thread's totals.
Totals Collect();

}  // namespace layers
}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
