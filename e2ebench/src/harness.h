// Shared machinery of the end-to-end benchmark: options, the closed-loop
// operation recorder, the measurement window, metric assembly and output.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "counting_env.h"
#include "layers.h"
#include "src/common/result.h"
#include "src/engine/database_core.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;     ///< tiny sizes, for the self-test
  std::string work_dir;   ///< parent of the storage directories
};

/// Operation classes of the closed loops; each has its latency metric.
enum class Op { kPipeline, kScan, kCellRead, kCellUpdate, kRowInsert, kBatch };
constexpr size_t kNumOps = 6;

/// One client thread's record: latencies of untraced operations, outcome
/// counts, and the traced/untraced split used for trace.overhead_ratio.
class Recorder {
 public:
  Recorder(const Options& o, Clock::time_point start)
      : trace_mode_(o.trace), start_(start) {}

  /// Run `fn` (one closed-loop operation: the caller waits for its reply)
  /// as an operation of class `op` that reads `cells` input cells or rows.
  /// In a traced run, alternate 250 ms slices run with layer tracing on.
  template <typename F>
  auto Time(Op op, uint64_t cells, F&& fn) -> decltype(fn()) {
    attempted_++;
    bool traced = trace_mode_ && TracedSlice();
    layers::SetThreadTracing(traced);
    Clock::time_point t0 = Clock::now();
    auto r = fn();
    double us = UsSince(t0);
    layers::SetThreadTracing(false);
    Note(op, t0, us, traced, cells);
    return r;
  }

  /// Judge the operation just timed: `ok` false counts it as failed.
  void Expect(bool ok, const std::string& what);
  /// An untimed operation (checkpoint, reopen, final counts): attempted
  /// once, failed unless `ok`.
  void Check(bool ok, const std::string& what) {
    attempted_++;
    Expect(ok, what);
  }

  void Merge(const Recorder& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<double>& latencies(Op op) const {
    return lat_us_[static_cast<size_t>(op)];
  }
  /// Quantile q of the untraced latencies of `op`, taken within each 5 s
  /// window of the run that holds at least 10 of them, then the median over
  /// those windows. A burst of interference from outside the process (a
  /// neighbour on a shared host) then moves one window, not the figure. With
  /// no such window, the quantile over the whole run.
  double WindowedQuantile(Op op, double q) const;
  /// Whole-object work (pipeline and scan operations) as rates, one per
  /// unit: each operation, or each group closed by EndUnit() after
  /// GroupUnits(). Their median is cells_per_s.
  void GroupUnits() { grouped_ = true; }
  void EndUnit();
  const std::vector<double>& unit_rates() const { return unit_rates_; }
  /// Traced wall time over the untraced time of the same operation mix.
  double OverheadRatio() const;

 private:
  bool TracedSlice() const;
  void Note(Op op, Clock::time_point t0, double us, bool traced,
            uint64_t cells);

  bool trace_mode_;
  Clock::time_point start_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::array<std::vector<double>, kNumOps> lat_us_;
  std::array<std::vector<double>, kNumOps> lat_at_s_;  ///< start of each, s
  std::array<double, kNumOps> traced_us_{}, untraced_us_{};
  std::array<double, kNumOps> traced_n_{}, untraced_n_{};
  bool grouped_ = false;
  double unit_cells_ = 0, unit_us_ = 0;
  std::vector<double> unit_rates_;  ///< cells per second
};

/// Linear-interpolation quantile (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// What a workload measured outside the per-statement recorder.
struct StorageFigures {
  IoCounts io;                     ///< counting-env delta over the loop
  double user_bytes_written = 0;   ///< raw bytes of rows/cells committed
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_columns;
  double open_ms = 0;
  double reopen_s = 0;             ///< Close + Open + first count, median
  uint64_t objects_loaded = 0;     ///< lazy loads from reopen to first count
  uint64_t reopen_bytes_read = 0;
};

/// Wall-clock state captured at the start of the timed loop.
class Window {
 public:
  void Begin(const CountingEnv& env, const sciql::engine::DatabaseCore& core);
  void End(const CountingEnv& env, const sciql::engine::DatabaseCore& core);

  double wall_s = 0;
  double cpu_s = 0;
  IoCounts io;
  uint64_t catalog_versions = 0;
  std::map<std::string, double> prom_delta;  ///< unlabelled counters

 private:
  Clock::time_point t0_;
  double cpu0_ = 0;
  IoCounts io0_;
  uint64_t version0_ = 0;
  std::map<std::string, double> prom0_;
};

/// The metrics of one run, in output order.
struct Report {
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::pair<std::string, std::string>> record;  ///< run facts
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double v) { e2e.emplace_back(name, v); }
  void AddLayer(const std::string& name, double v) {
    layer.emplace_back(name, v);
  }
  void Note(const std::string& key, const std::string& value) {
    record.emplace_back(key, value);
  }
};

/// Inputs to the common end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;     ///< one per set-up
  /// Rows per second of each ingest unit: a 1000-row batch at set-up, or a
  /// batch-and-checkpoint cycle of the shared_ingest ingester.
  std::vector<double> ingest_rates;
  double disk_bytes = 0;           ///< storage directory after Close
  double user_bytes_stored = 0;    ///< raw bytes of everything stored
};

/// The p90 latency of each operation class. They are reported, per layer
/// and in the untraced run's record, but not gated: on a 4-vCPU VM of a
/// shared host, ten-run sets of unchanged code spread by up to 0.74 of their
/// median, because a tail holds the statements that met a neighbour's burst
/// or, for one-row INSERTs, that followed a full scan and found the caches
/// cold. The p50s are gated.
std::vector<std::pair<std::string, double>> Tails(const Recorder& rec);

/// Fill every end-to-end metric, in BENCHMARK.json order.
void AddEndToEnd(const Recorder& rec, const EndToEnd& e, Report* rep);

/// Timings the apps layer reports, in milliseconds per call.
struct AppFigures {
  std::vector<double> vault_load_ms, smooth_ms, edge_ms, filter_ms,
      histogram_ms, life_ms;
};

/// Fill every per-layer metric, in BENCHMARK.json order.
void AddLayers(const Recorder& rec, const layers::Totals& lt,
               const Window& w, const StorageFigures& sf,
               const AppFigures& app, Report* rep);

/// The unit a metric's name implies (`_us` -> us, `_per_s` -> 1/s, ...).
std::string UnitOf(const std::string& metric);

/// `module.fn` as a metric-name fragment: batcalc.== -> batcalc.eq.
std::string OpMetricName(const std::string& op);

/// Print the run record and metrics, then the final JSON line.
void PrintReport(const Options& o, const Report& rep);

/// Peak resident set of this process, in MiB.
double PeakRssMb();
/// Bytes of the regular files under `dir`.
double DirBytes(const std::string& dir);
/// A fresh, empty directory `work_dir/<name>-<pid>`.
std::string FreshDir(const Options& o, const std::string& name);
void RemoveDir(const std::string& dir);


}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
