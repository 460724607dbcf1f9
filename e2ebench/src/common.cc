#include <cstdio>

#include "oracles.h"
#include "workloads.h"

namespace e2e {

using sciql::Status;
using sciql::engine::ResultSet;

void Judge(Recorder* rec, const std::string& what, const Status& st,
           const std::function<std::string()>& oracle) {
  if (!st.ok()) {
    rec->Expect(false, what + ": " + st.ToString());
    return;
  }
  std::string err = oracle ? oracle() : "";
  rec->Expect(err.empty(), what + ": " + err);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ObsRow MakeObsRow(uint64_t seed, int64_t seq, int64_t extent) {
  uint64_t h = Mix(seed * 0x100000001b3ULL + static_cast<uint64_t>(seq));
  uint64_t e = static_cast<uint64_t>(extent);
  return ObsRow{static_cast<int64_t>(h % e),
                static_cast<int64_t>((h >> 21) % e),
                static_cast<int64_t>((h >> 42) % 1000000)};
}

std::string ObsInsert(const std::string& table, uint64_t seed, int64_t first,
                      int64_t count, int64_t extent) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  char buf[96];
  for (int64_t seq = first; seq < first + count; ++seq) {
    ObsRow r = MakeObsRow(seed, seq, extent);
    std::snprintf(buf, sizeof(buf), "%s(%lld, %lld, %lld, %lld)",
                  seq == first ? "" : ", ", static_cast<long long>(seq),
                  static_cast<long long>(r.x), static_cast<long long>(r.y),
                  static_cast<long long>(r.v));
    sql += buf;
  }
  return sql;
}

Status LoadObs(sciql::engine::Session* s, const std::string& table,
               uint64_t seed, int64_t rows, int64_t extent) {
  constexpr int64_t kBatch = 1000;
  for (int64_t first = 0; first < rows; first += kBatch) {
    int64_t n = std::min(kBatch, rows - first);
    SCIQL_RETURN_NOT_OK(s->Run(ObsInsert(table, seed, first, n, extent)));
  }
  return Status::OK();
}

int64_t IngestUnit(sciql::engine::Session* s, const Options& o,
                   int64_t extent, uint64_t unit, Recorder* rec, EndToEnd* e) {
  constexpr int64_t kBatch = 1000;
  const int64_t batches = o.smoke ? 2 : 8;
  Status st = s->Run("CREATE TABLE staging (seq INT, x INT, y INT, v INT)");
  rec->Check(st.ok(), "create staging: " + st.ToString());
  if (!st.ok()) return 0;
  double secs = 0;
  int64_t rows = 0;
  for (int64_t b = 0; b < batches && st.ok(); ++b) {
    std::string sql = ObsInsert("staging", o.seed + 3 + unit, b * kBatch,
                                kBatch, extent);
    Clock::time_point t0 = Clock::now();
    st = rec->Time(Op::kBatch, 0, [&] { return s->Run(sql); });
    secs += SecondsSince(t0);
    Judge(rec, "ingest batch", st);
    if (st.ok()) rows += kBatch;
  }
  if (st.ok()) {
    auto rs = s->Execute("SELECT COUNT(*) FROM staging");
    bool ok = rs.ok() && rs->NumRows() == 1 &&
              rs->Value(0, 0).AsInt64() == batches * kBatch;
    rec->Check(ok, "staging count: " +
                       (rs.ok() ? rs->ToString() : rs.status().ToString()));
    e->ingest_rates.push_back(static_cast<double>(batches * kBatch) / secs);
  }
  Status drop = s->Run("DROP TABLE staging");
  rec->Check(drop.ok(), "drop staging: " + drop.ToString());
  return rows;
}

std::unique_ptr<Store> NewStore(const Options& o, const std::string& name,
                                sciql::storage::DurabilityLevel durability) {
  auto store = std::make_unique<Store>();
  store->dir = FreshDir(o, name);
  store->options.env = &store->env;
  store->options.durability = durability;
  return store;
}

void CloseAndReopen(sciql::engine::DatabaseCore* core,
                    sciql::engine::Session* s, Store* store,
                    const std::vector<std::pair<std::string, int64_t>>& counts,
                    Recorder* rec, StorageFigures* sf, EndToEnd* e) {
  Clock::time_point t0 = Clock::now();
  Status st = core->Checkpoint();
  sf->checkpoint_ms.push_back(UsSince(t0) / 1e3);
  rec->Check(st.ok(), "checkpoint: " + st.ToString());
  if (st.ok()) {
    sf->checkpoint_columns.push_back(static_cast<double>(
        core->storage_engine()->stats().checkpoint_columns_written.load()));
  }

  // Many cycles, reported as medians: one cycle takes a few milliseconds.
  std::vector<double> reopen_s, open_ms;
  for (int cycle = 0; cycle < 15 && st.ok(); ++cycle) {
    t0 = Clock::now();
    st = core->Close();
    double close_s = SecondsSince(t0);
    rec->Check(st.ok(), "close: " + st.ToString());
    if (cycle == 0) e->disk_bytes = DirBytes(store->dir);

    uint64_t read0 = store->env.Snapshot().bytes_read;
    t0 = Clock::now();
    st = core->Open(store->dir, store->options);
    open_ms.push_back(UsSince(t0) / 1e3);
    rec->Check(st.ok(), "reopen: " + st.ToString());
    for (size_t i = 0; i < counts.size() && st.ok(); ++i) {
      const auto& [table, want] = counts[i];
      auto rs = s->Execute("SELECT COUNT(*) FROM " + table);
      if (i == 0) {
        reopen_s.push_back(close_s + SecondsSince(t0));
        if (cycle == 0) {
          sf->objects_loaded = core->storage_engine()->stats().objects_loaded;
          sf->reopen_bytes_read = store->env.Snapshot().bytes_read - read0;
        }
      }
      bool ok =
          rs.ok() && rs->NumRows() == 1 && rs->Value(0, 0).AsInt64() == want;
      rec->Check(ok, "count after reopen of " + table + ": " +
                         (rs.ok() ? rs->ToString() : rs.status().ToString()) +
                         " want " + std::to_string(want));
    }
  }
  sf->reopen_s = Median(reopen_s);
  sf->open_ms = Median(open_ms);
}

}  // namespace e2e
