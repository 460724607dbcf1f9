// The three closed-loop workloads and the pieces they share. Every workload
// keeps its data in a storage directory so that each end-to-end metric,
// including load, checkpoint and reopen, is measured on each of them.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/engine/database_core.h"
#include "src/engine/session.h"
#include "src/storage/storage_engine.h"

namespace e2e {

Report RunArrayPipeline(const Options& o);
Report RunCellOltp(const Options& o);
Report RunSharedIngest(const Options& o);

/// Judge one operation: its status first, then the oracle's verdict.
void Judge(Recorder* rec, const std::string& what, const sciql::Status& st,
           const std::function<std::string()>& oracle = nullptr);

/// splitmix64: the benchmark's only source of generated data.
uint64_t Mix(uint64_t x);

/// Row `seq` of the generated observation table obs(seq, x, y, v):
/// x and y in [0, extent), v in [0, 1e6).
struct ObsRow {
  int64_t x, y, v;
};
ObsRow MakeObsRow(uint64_t seed, int64_t seq, int64_t extent);

/// `INSERT INTO <table> VALUES ...` with rows first .. first+count-1.
std::string ObsInsert(const std::string& table, uint64_t seed, int64_t first,
                      int64_t count, int64_t extent);

/// Load `rows` observation rows through 1000-row INSERT ... VALUES batches.
sciql::Status LoadObs(sciql::engine::Session* s, const std::string& table,
                      uint64_t seed, int64_t rows, int64_t extent);

/// One unit of batch ingest, run between the operations of the one-session
/// workloads' timed loops, so that ingest_rows_per_s is sampled across the
/// whole run: create table `staging`, load 8 1000-row batches (2 at smoke
/// sizes) into it, count it, and drop it. The unit's rows per second over
/// its batches lands in e->ingest_rates. `unit` numbers the units of a run.
/// Returns the rows committed.
int64_t IngestUnit(sciql::engine::Session* s, const Options& o, int64_t extent,
                uint64_t unit, Recorder* rec, EndToEnd* e);

/// The storage directory a workload runs on, with its counting env.
struct Store {
  std::string dir;
  CountingEnv env;
  sciql::storage::OpenOptions options;
};

/// End of every run: a timed checkpoint, then 15 cycles of Close + Open +
/// the first count (storage.reopen_s is their median), the directory size
/// after the first Close, and the count checks.
/// `counts` maps each table to the rows acknowledged into it.
void CloseAndReopen(sciql::engine::DatabaseCore* core,
                    sciql::engine::Session* s, Store* store,
                    const std::vector<std::pair<std::string, int64_t>>& counts,
                    Recorder* rec, StorageFigures* sf, EndToEnd* e);

/// A fresh, empty storage directory `work_dir/<name>-<pid>` with its
/// counting env.
std::unique_ptr<Store> NewStore(const Options& o, const std::string& name,
                                sciql::storage::DurabilityLevel durability);

/// Run `setup` five times, each on a fresh store, keeping the last result.
/// Only `setup` is timed: closing the previous instance and removing its
/// directory happen before the clock starts. Each set-up's wall time lands
/// in e->setup_s (the metric reports their median).
template <typename T>
T RepeatSetup(EndToEnd* e, const std::function<std::unique_ptr<Store>()>& store,
              const std::function<T(std::unique_ptr<Store>)>& setup) {
  T kept{};
  for (int i = 0; i < 5; ++i) {
    kept = T{};  // close the previous instance before its directory goes
    std::unique_ptr<Store> fresh = store();
    Clock::time_point t0 = Clock::now();
    kept = setup(std::move(fresh));
    e->setup_s.push_back(SecondsSince(t0));
  }
  return kept;
}

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
