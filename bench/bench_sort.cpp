// Thread-count sweep over the parallel sort / order-index / partitioned
// group kernels, at 4M rows. Run with --benchmark_filter=Threads; the
// bench_parallel CMake target merges the JSON report into
// BENCH_parallel.json alongside the select/calc/join/tiling sweeps.

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"
#include "src/obs/metrics.h"

using sciql::Rng;
using sciql::ThreadPool;
using namespace sciql::gdk;

namespace {

// Attributes kernel work to each benchmark: a TelemetryProbe pins the
// kernel-telemetry delta across the timed loop (so the report says which
// physical path each op actually took — e.g. order_index_built vs
// order_index_reused) and a fixed log2 histogram records per-iteration
// latency. Both land in the JSON report as counters ("telemetry.<field>"
// per iteration, "lat_us.le_<bound>" cumulative, "lat_us.count"/".sum")
// that merge_parallel_bench.py folds into BENCH_parallel.json.
class KernelObserver {
 public:
  void BeginIter() { iter_start_ = std::chrono::steady_clock::now(); }
  void EndIter() {
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - iter_start_)
                  .count();
    hist_.Observe(static_cast<uint64_t>(us));
  }
  void Flush(benchmark::State& state) {
    const TelemetrySnapshot delta = probe_.delta();
    for (const TelemetryField& f : TelemetryFields()) {
      uint64_t v = delta.*(f.snap);
      if (v == 0) continue;
      state.counters[std::string("telemetry.") + f.name] = benchmark::Counter(
          static_cast<double>(v), benchmark::Counter::kAvgIterations);
    }
    uint64_t cumulative = 0;
    for (size_t i = 0; i < sciql::obs::Histogram::kFiniteBuckets; ++i) {
      if (hist_.bucket(i) == 0) {
        cumulative += hist_.bucket(i);
        continue;
      }
      cumulative += hist_.bucket(i);
      state.counters["lat_us.le_" + std::to_string(
                         sciql::obs::Histogram::BucketBound(i))] =
          static_cast<double>(cumulative);
    }
    if (hist_.bucket(sciql::obs::Histogram::kFiniteBuckets) != 0) {
      state.counters["lat_us.le_inf"] = static_cast<double>(hist_.count());
    }
    state.counters["lat_us.count"] = static_cast<double>(hist_.count());
    state.counters["lat_us.sum"] = static_cast<double>(hist_.sum());
  }

 private:
  TelemetryProbe probe_;
  sciql::obs::Histogram hist_;
  std::chrono::steady_clock::time_point iter_start_;
};

/// One iteration of the timed loop, latency-observed end to end.
class IterTimer {
 public:
  explicit IterTimer(KernelObserver* o) : o_(o) { o_->BeginIter(); }
  ~IterTimer() { o_->EndIter(); }

 private:
  KernelObserver* o_;
};

void ThreadArgs(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(2)->Arg(4);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) b->Arg(hw);
}

constexpr size_t kSweepRows = 4 * 1024 * 1024;

BATPtr SweepIntColumn(uint64_t seed, uint64_t domain) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kInt);
  b->ints().resize(kSweepRows);
  for (auto& v : b->ints()) v = static_cast<int32_t>(rng.Below(domain));
  return b;
}

BATPtr SweepDblColumn(uint64_t seed) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kDbl);
  b->dbls().resize(kSweepRows);
  for (auto& v : b->dbls()) {
    v = static_cast<double>(rng.Below(1000000)) / 997.0 - 300.0;
  }
  return b;
}

void BM_SortIntSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto b = SweepIntColumn(1, 1u << 30);
  for (auto _ : state) {
    IterTimer it(&kobs);
    b->InvalidateOrderIndex();  // time the build, not the cache hit
    auto r = OrderIndex({b.get()}, {false});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_SortIntSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SortDblDescSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto b = SweepDblColumn(2);
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto r = OrderIndex({b.get()}, {true});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_SortDblDescSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SortMultiKeySweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto k1 = SweepIntColumn(3, 1000);  // duplicate-heavy primary key
  auto k2 = SweepDblColumn(4);
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto r = OrderIndex({k1.get(), k2.get()}, {false, true});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_SortMultiKeySweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SortMaterializeSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto b = SweepIntColumn(5, 1u << 30);
  for (auto _ : state) {
    IterTimer it(&kobs);
    b->InvalidateOrderIndex();
    auto r = SortBat(*b, /*desc=*/false);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_SortMaterializeSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

// firstn-vs-sort: top-100 of 1M rows via the bounded-heap FirstN kernel
// against the full sort it replaces (OrderIndex + head slice). Same rows,
// same thread counts, adjacent in the merged BENCH_parallel.json report.
constexpr size_t kTopKRows = 1024 * 1024;
constexpr size_t kTopK = 100;

void BM_FirstN100of1M_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  Rng rng(7);
  auto b = BAT::Make(PhysType::kInt);
  b->ints().resize(kTopKRows);
  for (auto& v : b->ints()) v = static_cast<int32_t>(rng.Below(1u << 30));
  for (auto _ : state) {
    IterTimer it(&kobs);
    b->InvalidateOrderIndex();  // time the heap path, not the index window
    auto r = FirstN({b.get()}, {false}, kTopK);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kTopKRows);
}
BENCHMARK(BM_FirstN100of1M_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_SortSlice100of1M_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  Rng rng(7);  // identical rows to the FirstN sweep
  auto b = BAT::Make(PhysType::kInt);
  b->ints().resize(kTopKRows);
  for (auto& v : b->ints()) v = static_cast<int32_t>(rng.Below(1u << 30));
  for (auto _ : state) {
    IterTimer it(&kobs);
    b->InvalidateOrderIndex();
    auto r = OrderIndex({b.get()}, {false});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Slice(0, kTopK)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kTopKRows);
}
BENCHMARK(BM_SortSlice100of1M_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

// DESC served from the cached ascending index: the O(n) run reversal that
// replaces a second O(n log n) sort. The ascending build happens once,
// outside the timed loop.
void BM_DescFromAscIndexSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto b = SweepIntColumn(8, 1000);  // duplicate-heavy: long tie runs
  if (!EnsureOrderIndex(*b).ok()) {
    state.SkipWithError("index build failed");
    return;
  }
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto r = OrderIndex({b.get()}, {true});  // reversal, never a sort
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_DescFromAscIndexSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

// Multi-key spec reuse: the first EnsureOrderIndexSpec sorts and caches;
// the timed loop hits the keyed cache (compare against
// BM_SortMultiKeySweep, the cache-free build of the same spec).
void BM_MultiKeySpecReuseSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto k1 = SweepIntColumn(9, 1000);
  auto k2 = SweepDblColumn(10);
  const std::vector<BATPtr> keys = {k1, k2};
  if (!EnsureOrderIndexSpec(keys, {false, true}).ok()) {
    state.SkipWithError("spec build failed");
    return;
  }
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto r = EnsureOrderIndexSpec(keys, {false, true});
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*r)->size());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_MultiKeySpecReuseSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

// String join pair: the hash path against the both-sides-indexed merge
// path on identical data (1M x 1M rows, 64K distinct strings). Adjacent in
// the merged report; the merge builds no hash table.
constexpr size_t kStrJoinRows = 1024 * 1024;

BATPtr SweepStrColumn(uint64_t seed) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kStr);
  for (size_t i = 0; i < kStrJoinRows; ++i) {
    auto st = b->Append(
        ScalarValue::Str("k" + std::to_string(rng.Below(1u << 16))));
    (void)st;
  }
  return b;
}

void BM_HashJoinStrSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto l = SweepStrColumn(11);
  auto r = SweepStrColumn(12);
  for (auto _ : state) {
    IterTimer it(&kobs);
    l->InvalidateOrderIndex();  // keep the hash path
    r->InvalidateOrderIndex();
    auto jr = HashJoin(*l, *r);
    if (!jr.ok()) {
      state.SkipWithError(jr.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(jr->left->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kStrJoinRows);
}
BENCHMARK(BM_HashJoinStrSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_MergeJoinStrSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  auto l = SweepStrColumn(11);  // identical rows to the hash sweep
  auto r = SweepStrColumn(12);
  if (!EnsureOrderIndex(*l).ok() || !EnsureOrderIndex(*r).ok()) {
    state.SkipWithError("index build failed");
    return;
  }
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto jr = HashJoin(*l, *r);  // both indexed: string merge path
    if (!jr.ok()) {
      state.SkipWithError(jr.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(jr->left->Count());
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kStrJoinRows);
}
BENCHMARK(BM_MergeJoinStrSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

void BM_GroupBuildSweep_Threads(benchmark::State& state) {
  ThreadPool::Get().SetThreadCount(static_cast<int>(state.range(0)));
  KernelObserver kobs;
  // Partitioned hash build, modest dictionary: 4096 distinct keys spread
  // 2^16 apart, a range wider than the row count, so the dense path (key
  // range within the row count) does not apply.
  auto b = SweepIntColumn(6, 4096);
  for (auto& v : b->ints()) v *= 1 << 16;
  for (auto _ : state) {
    IterTimer it(&kobs);
    auto r = Group(*b, nullptr, 0);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->ngroups);
  }
  ThreadPool::Get().SetThreadCount(1);
  kobs.Flush(state);
  state.SetItemsProcessed(state.iterations() * kSweepRows);
}
BENCHMARK(BM_GroupBuildSweep_Threads)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond);

}  // namespace
