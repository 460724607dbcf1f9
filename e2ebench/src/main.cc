// sciql_e2ebench: one closed-loop workload per process, end-to-end metrics
// untraced (--trace 0) or per-layer metrics traced (--trace 1). Usually
// started through run.py, which builds it first; see README.md.
//
//   sciql_e2ebench --workload <array_pipeline|cell_oltp|shared_ingest>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--smoke]
//   sciql_e2ebench --selftest

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "src/engine/database.h"
#include "workloads.h"

namespace e2e {
int SelfTest();
}  // namespace e2e

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "sciql_e2ebench: %s\nusage: sciql_e2ebench --workload "
               "<array_pipeline|cell_oltp|shared_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> [--smoke]\n"
               "       sciql_e2ebench --selftest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::strcmp(E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "sciql_e2ebench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 E2E_BUILD_TYPE);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "sciql_e2ebench: refusing to measure with assertions on\n");
  return 2;
#endif
  // Part of every workload's definition: glibc's mmap threshold stays at its
  // initial 128 KiB instead of rising to the size of the largest buffer
  // freed so far. Every buffer of 128 KiB or more is then mapped when the
  // engine allocates it and unmapped when it is freed, so the engine's
  // per-statement allocation cost stays in the figures, but no longer
  // depends on the order in which the kernel threads happened to free
  // earlier buffers. With the self-adjusting default, the same run measured
  // cut-out reads of 2.4 ms in one process and 5.2 ms in the next.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Also part of every workload's definition: the kernel pool gets half the
  // CPUs, whatever SCIQL_THREADS says. A parallel kernel waits for its
  // slowest worker, so with one worker per CPU on a shared host any CPU a
  // neighbour takes stalls every kernel. On a 4-vCPU VM with two spinning
  // processes beside it, cell_oltp's read p50 rose 22% and its p90 61% with
  // 4 workers, and both about 5% with 2.
  sciql::engine::Database::SetExecutionThreads(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency() / 2)));
  e2e::Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                a == "--trace" || a == "--work-dir") &&
               (v = value()) != nullptr) {
      if (a == "--workload") o.workload = v;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
      if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
      if (a == "--work-dir") o.work_dir = v;
    } else {
      return Usage(("bad argument " + a).c_str());
    }
  }
  if (selftest) return e2e::SelfTest();
  if (o.work_dir.empty()) return Usage("--work-dir is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) return Usage("bad --seconds");

  e2e::Report rep;
  if (o.workload == "array_pipeline") {
    rep = e2e::RunArrayPipeline(o);
  } else if (o.workload == "cell_oltp") {
    rep = e2e::RunCellOltp(o);
  } else if (o.workload == "shared_ingest") {
    rep = e2e::RunSharedIngest(o);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  e2e::PrintReport(o, rep);
  return rep.failed == 0 && rep.attempted > 0 ? 0 : 1;
}
