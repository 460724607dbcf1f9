#include "layers.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "src/engine/executor.h"
#include "src/engine/mal_gen.h"
#include "src/engine/result_set.h"
#include "src/engine/session.h"
#include "src/mal/interpreter.h"
#include "src/mal/optimizer.h"
#include "src/obs/trace.h"
#include "src/sql/parser.h"

namespace e2e {
namespace layers {
namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Slot {
  Totals totals;
};

std::mutex g_mu;
std::vector<std::unique_ptr<Slot>> g_slots;  // guarded by g_mu

thread_local bool t_on = false;
thread_local int t_session_depth = 0;
thread_local int t_run_depth = 0;

Totals& Mine() {
  thread_local Slot* slot = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_slots.push_back(std::make_unique<Slot>());
    return g_slots.back().get();
  }();
  return slot->totals;
}

}  // namespace

void SetThreadTracing(bool on) { t_on = on; }

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& s : g_slots) s->totals = Totals{};
}

Totals Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  Totals sum;
  for (const auto& s : g_slots) {
    const Totals& t = s->totals;
    sum.stmts += t.stmts;
    sum.session_us += t.session_us;
    sum.parse_calls += t.parse_calls;
    sum.parse_bytes += t.parse_bytes;
    sum.parse_us += t.parse_us;
    sum.compile_us += t.compile_us;
    sum.optimize_us += t.optimize_us;
    sum.execute_us += t.execute_us;
    sum.run_us += t.run_us;
    sum.instrs += t.instrs;
    for (const auto& [name, op] : t.ops) {
      OpTotals& o = sum.ops[name];
      o.us += op.us;
      o.calls += op.calls;
      o.out_rows += op.out_rows;
    }
  }
  return sum;
}

}  // namespace layers
}  // namespace e2e

// ---------------------------------------------------------------------------
// Link-time wrappers. Each `__wrap_<sym>` receives the calls the engine's
// other object files make to <sym>; `__real_<sym>` is the original. A member
// function is declared as a free function taking `this` first, which is the
// same calling convention under the Itanium C++ ABI. If a wrapped function
// is renamed or changes its signature, its `__real_` reference is left
// undefined and the link fails. A boundary that stops being crossed (say, a
// call that gets inlined) reads 0 in the traced run, which the self-test
// rejects.
// CMakeLists.txt reads the `__wrap_` names below to emit the --wrap flags.
// ---------------------------------------------------------------------------

namespace e2e_wrap {

using sciql::Result;
using sciql::Status;
using sciql::engine::CompiledStatement;
using sciql::engine::Executor;
using sciql::engine::ResultSet;
using sciql::engine::Session;
using sciql::engine::StatementCompiler;
using sciql::mal::MalContext;
using sciql::mal::MalEngine;
using sciql::mal::MalProgram;
using sciql::mal::OptimizerStats;
using sciql::sql::Statement;
using sciql::sql::StatementPtr;
using e2e::layers::Clock;
using e2e::layers::Mine;
using e2e::layers::UsSince;
using e2e::layers::t_on;
using e2e::layers::t_run_depth;
using e2e::layers::t_session_depth;

#define E2E_SESSION_EXECUTE \
  "_ZN5sciql6engine7Session7ExecuteERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define E2E_SESSION_RUN \
  "_ZN5sciql6engine7Session3RunERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define E2E_SQL_PARSE \
  "_ZN5sciql3sql5ParseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define E2E_COMPILE "_ZN5sciql6engine17StatementCompiler7CompileERKNS_3sql9StatementE"
#define E2E_OPTIMIZE "_ZN5sciql3mal8OptimizeEPNS0_10MalProgramEPNS0_14OptimizerStatsE"
#define E2E_EXECUTE "_ZN5sciql6engine8Executor7ExecuteERKNS0_17CompiledStatementE"
#define E2E_MAL_RUN "_ZNK5sciql3mal9MalEngine3RunERKNS0_10MalProgramEPNS0_10MalContextE"

Result<ResultSet> RealSessionExecute(Session*, const std::string&)
    __asm__("__real_" E2E_SESSION_EXECUTE);
Result<ResultSet> WrapSessionExecute(Session*, const std::string&)
    __asm__("__wrap_" E2E_SESSION_EXECUTE);

Status RealSessionRun(Session*, const std::string&)
    __asm__("__real_" E2E_SESSION_RUN);
Status WrapSessionRun(Session*, const std::string&)
    __asm__("__wrap_" E2E_SESSION_RUN);

Result<std::vector<StatementPtr>> RealParse(const std::string&)
    __asm__("__real_" E2E_SQL_PARSE);
Result<std::vector<StatementPtr>> WrapParse(const std::string&)
    __asm__("__wrap_" E2E_SQL_PARSE);

Result<CompiledStatement> RealCompile(StatementCompiler*, const Statement&)
    __asm__("__real_" E2E_COMPILE);
Result<CompiledStatement> WrapCompile(StatementCompiler*, const Statement&)
    __asm__("__wrap_" E2E_COMPILE);

Status RealOptimize(MalProgram*, OptimizerStats*)
    __asm__("__real_" E2E_OPTIMIZE);
Status WrapOptimize(MalProgram*, OptimizerStats*)
    __asm__("__wrap_" E2E_OPTIMIZE);

Result<ResultSet> RealExecute(Executor*, const CompiledStatement&)
    __asm__("__real_" E2E_EXECUTE);
Result<ResultSet> WrapExecute(Executor*, const CompiledStatement&)
    __asm__("__wrap_" E2E_EXECUTE);

Status RealMalRun(const MalEngine*, const MalProgram&, MalContext*)
    __asm__("__real_" E2E_MAL_RUN);
Status WrapMalRun(const MalEngine*, const MalProgram&, MalContext*)
    __asm__("__wrap_" E2E_MAL_RUN);

namespace {

/// Times the outermost statement entry of a traced thread.
template <typename F>
auto SessionEntry(F&& call) {
  if (!t_on || t_session_depth > 0) {
    ++t_session_depth;
    auto r = call();
    --t_session_depth;
    return r;
  }
  ++t_session_depth;
  Clock::time_point t0 = Clock::now();
  auto r = call();
  double us = UsSince(t0);
  --t_session_depth;
  auto& t = Mine();
  t.stmts++;
  t.session_us += us;
  return r;
}

/// Times one inner boundary into `field` of the calling thread's totals.
template <typename F>
auto Boundary(double e2e::layers::Totals::*field, F&& call) {
  if (!t_on) return call();
  Clock::time_point t0 = Clock::now();
  auto r = call();
  Mine().*field += UsSince(t0);
  return r;
}

}  // namespace

Result<ResultSet> WrapSessionExecute(Session* self, const std::string& sql) {
  return SessionEntry([&] { return RealSessionExecute(self, sql); });
}

Status WrapSessionRun(Session* self, const std::string& sql) {
  return SessionEntry([&] { return RealSessionRun(self, sql); });
}

Result<std::vector<StatementPtr>> WrapParse(const std::string& text) {
  if (t_on) {
    auto& t = Mine();
    t.parse_calls++;
    t.parse_bytes += text.size();
  }
  return Boundary(&e2e::layers::Totals::parse_us,
                  [&] { return RealParse(text); });
}

Result<CompiledStatement> WrapCompile(StatementCompiler* self,
                                      const Statement& stmt) {
  return Boundary(&e2e::layers::Totals::compile_us,
                  [&] { return RealCompile(self, stmt); });
}

Status WrapOptimize(MalProgram* prog, OptimizerStats* stats) {
  return Boundary(&e2e::layers::Totals::optimize_us,
                  [&] { return RealOptimize(prog, stats); });
}

Result<ResultSet> WrapExecute(Executor* self, const CompiledStatement& cs) {
  return Boundary(&e2e::layers::Totals::execute_us,
                  [&] { return RealExecute(self, cs); });
}

Status WrapMalRun(const MalEngine* self, const MalProgram& prog,
                  MalContext* ctx) {
  if (!t_on || t_run_depth > 0 || ctx == nullptr || ctx->trace != nullptr) {
    ++t_run_depth;
    Status st = RealMalRun(self, prog, ctx);
    --t_run_depth;
    return st;
  }
  sciql::obs::StatementTrace trace;
  ctx->trace = &trace;
  ++t_run_depth;
  Clock::time_point t0 = Clock::now();
  Status st = RealMalRun(self, prog, ctx);
  double us = UsSince(t0);
  --t_run_depth;
  ctx->trace = nullptr;
  auto& t = Mine();
  t.run_us += us;
  t.instrs += trace.samples().size();
  for (const sciql::obs::InstrSample& s : trace.samples()) {
    e2e::layers::OpTotals& op = t.ops[s.name];
    op.us += static_cast<double>(s.micros);
    op.calls++;
    op.out_rows += s.out_rows;
  }
  return st;
}

}  // namespace e2e_wrap
