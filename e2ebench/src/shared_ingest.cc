// shared_ingest: a durable directory under the default fsync durability,
// three sessions on three threads, each a closed loop. A batch ingester
// commits 1000-row INSERT ... VALUES into obs back to back, checkpoints
// every 32 batches and, every 96 batches, deletes what it added (so obs
// stays between 256K and about 352K rows). A logger commits one-row INSERTs
// into events. A reader runs whole-table spatial aggregates and every fourth
// round pins a snapshot and reads it twice. With more than one session the
// catalog copies on write, and every commit goes through the writer mutex,
// the WAL and fsync, none of which the one-session workloads exercise.

#include <memory>
#include <thread>

#include "oracles.h"
#include "workloads.h"

namespace e2e {
namespace {

using sciql::Status;
using sciql::engine::DatabaseCore;
using sciql::engine::ResultSet;
using sciql::engine::Session;

struct Sizes {
  int64_t obs_rows;     ///< observations at start
  int64_t cycle_batches;      ///< batches per checkpoint cycle
  int64_t cycles_per_window;  ///< checkpoint cycles per retention window
  int64_t extent;       ///< x, y range of observations
};

Sizes SizesFor(const Options& o) {
  if (o.smoke) return Sizes{3000, 4, 2, 256};
  return Sizes{262144, 32, 3, 1024};
}

constexpr int64_t kBatch = 1000;

struct State {
  std::unique_ptr<Store> store;
  std::unique_ptr<DatabaseCore> core;
  std::unique_ptr<Session> main, ingest, logger, reader;
};

void Must(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "e2ebench: shared_ingest set-up failed at %s: %s\n",
               what, st.ToString().c_str());
  std::exit(1);
}

std::unique_ptr<State> Setup(const Options& o, const Sizes& z,
                             std::unique_ptr<Store> store) {
  auto st = std::make_unique<State>();
  st->store = std::move(store);
  st->core = std::make_unique<DatabaseCore>();
  Must(st->core->Open(st->store->dir, st->store->options), "open");
  st->main = st->core->CreateSession();
  Session* s = st->main.get();

  Must(s->Run("CREATE TABLE obs (seq INT, x INT, y INT, v INT)"), "create obs");
  Must(LoadObs(s, "obs", o.seed, z.obs_rows, z.extent), "load obs");
  Must(s->Run("CREATE TABLE events (seq INT, x INT, y INT, v INT)"),
       "create events");
  Must(st->core->Checkpoint(), "checkpoint");
  // The extra sessions switch the catalog to copy-on-write.
  st->ingest = st->core->CreateSession();
  st->logger = st->core->CreateSession();
  st->reader = st->core->CreateSession();
  return st;
}

struct IngestResult {
  int64_t rows = 0;        ///< rows committed by the ingester
  int64_t final_rows = 0;  ///< rows in obs when it stopped
  std::vector<double> cycle_rates;  ///< rows per second of each cycle
  std::vector<double> checkpoint_ms, checkpoint_columns;
};

/// The ingester works in cycles of `cycle_batches` batches followed by a
/// checkpoint; every `cycles_per_window` cycles it also deletes what it
/// added (a rolling window, so the table size does not depend on how fast
/// the engine ingests). Deleting a suffix keeps seq a gap-free prefix.
void Ingester(const Options& o, const Sizes& z, State* st,
              Clock::time_point deadline, Recorder* rec, IngestResult* out) {
  int64_t next = z.obs_rows;
  for (int64_t cycle = 1; Clock::now() < deadline; ++cycle) {
    Clock::time_point cycle_start = Clock::now();
    int64_t rows = 0;
    for (int64_t b = 0; b < z.cycle_batches && Clock::now() < deadline; ++b) {
      std::string sql = ObsInsert("obs", o.seed, next, kBatch, z.extent);
      Status s = rec->Time(Op::kBatch, 0, [&] { return st->ingest->Run(sql); });
      Judge(rec, "ingest batch", s);
      if (!s.ok()) return;  // later batches would leave a gap in seq
      next += kBatch;
      rows += kBatch;
      out->rows += kBatch;
      out->final_rows = next;
    }
    Clock::time_point t0 = Clock::now();
    Status c = st->core->Checkpoint();
    out->checkpoint_ms.push_back(UsSince(t0) / 1e3);
    rec->Check(c.ok(), "checkpoint: " + c.ToString());
    if (!c.ok()) return;
    out->checkpoint_columns.push_back(static_cast<double>(
        st->core->storage_engine()->stats().checkpoint_columns_written.load()));
    if (cycle % z.cycles_per_window == 0) {
      Status d = st->ingest->Run("DELETE FROM obs WHERE seq >= " +
                                 std::to_string(z.obs_rows));
      rec->Check(d.ok(), "retention delete: " + d.ToString());
      if (!d.ok()) return;
      next = z.obs_rows;
      out->final_rows = next;
    }
    // A cycle cut short by the deadline is not a full unit of work.
    if (rows == z.cycle_batches * kBatch) {
      out->cycle_rates.push_back(static_cast<double>(rows) /
                                 SecondsSince(cycle_start));
    }
  }
}

void Logger(const Options& o, const Sizes& z, State* st,
            Clock::time_point deadline, Recorder* rec, int64_t* events) {
  while (Clock::now() < deadline) {
    ObsRow r = MakeObsRow(o.seed + 1, *events, z.extent);
    std::string sql = "INSERT INTO events VALUES (" + std::to_string(*events) +
                      ", " + std::to_string(r.x) + ", " + std::to_string(r.y) +
                      ", " + std::to_string(r.v) + ")";
    Status s = rec->Time(Op::kRowInsert, 1, [&] { return st->logger->Run(sql); });
    Judge(rec, "event insert", s);
    if (s.ok()) ++*events;
  }
}

void Reader(const Sizes& z, State* st, Clock::time_point deadline,
            Recorder* rec) {
  const std::string grouped =
      "SELECT x / 64 AS gx, COUNT(*) AS c, SUM(seq) AS s FROM obs GROUP BY x / 64";
  const std::string total = "SELECT COUNT(*) AS c, SUM(seq) AS s FROM obs";
  uint64_t rows = static_cast<uint64_t>(z.obs_rows);  // as of the last read
  for (uint64_t round = 0; Clock::now() < deadline; ++round) {
    bool pin = round % 4 == 0;
    if (pin) st->reader->PinSnapshot();
    Rows first[2];
    for (int rep = 0; rep < (pin ? 2 : 1); ++rep) {
      // One operation: the grouped aggregate, then the total.
      sciql::Result<ResultSet> g = Status::Internal("not run");
      auto t = rec->Time(Op::kScan, 2 * rows, [&] {
        g = st->reader->Query(grouped);
        return st->reader->Query(total);
      });
      Judge(rec, "grouped aggregate and total",
            g.ok() ? t.status() : g.status(), [&] {
              Rows groups = ToRows(*g);
              Rows got = ToRows(*t);
              if (got.size() != 1 || got[0].size() != 2) {
                return std::string("total: bad shape");
              }
              Rows keyed = {{0, got[0][0], got[0][1]}};
              std::string err = CheckPrefix(groups);
              if (err.empty()) err = CheckPrefix(keyed);
              if (err.empty() && rep == 1) err = CheckSame(first[0], groups);
              if (err.empty() && rep == 1) err = CheckSame(first[1], got);
              rows = static_cast<uint64_t>(got[0][0]);
              first[0] = std::move(groups);
              first[1] = std::move(got);
              return err;
            });
    }
    if (pin) st->reader->Unpin();
  }
}

}  // namespace

Report RunSharedIngest(const Options& o) {
  Sizes z = SizesFor(o);
  EndToEnd e;
  std::unique_ptr<State> st = RepeatSetup<std::unique_ptr<State>>(
      &e,
      [&] {
        return NewStore(o, "shared_ingest",
                        sciql::storage::DurabilityLevel::kFsync);
      },
      [&](std::unique_ptr<Store> store) {
        return Setup(o, z, std::move(store));
      });

  Window win;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  Recorder rec_i(o, start), rec_l(o, start), rec_r(o, start);
  IngestResult ingest;
  ingest.final_rows = z.obs_rows;
  int64_t events = 0;
  win.Begin(st->store->env, *st->core);
  {
    std::thread ti(Ingester, std::cref(o), std::cref(z), st.get(), deadline,
                   &rec_i, &ingest);
    std::thread tl(Logger, std::cref(o), std::cref(z), st.get(), deadline,
                   &rec_l, &events);
    std::thread tr(Reader, std::cref(z), st.get(), deadline, &rec_r);
    ti.join();
    tl.join();
    tr.join();
  }
  win.End(st->store->env, *st->core);
  layers::Totals lt = layers::Collect();
  Recorder rec(o, start);
  rec.Merge(rec_i);
  rec.Merge(rec_l);
  rec.Merge(rec_r);

  e.ingest_rates = ingest.cycle_rates;
  StorageFigures sf;
  sf.io = win.io;
  sf.user_bytes_written = 16.0 * static_cast<double>(ingest.rows + events);
  sf.checkpoint_ms = ingest.checkpoint_ms;
  sf.checkpoint_columns = ingest.checkpoint_columns;

  // Untimed: fill the retention window, so every run closes and reopens
  // the same number of rows.
  const int64_t full =
      z.obs_rows + z.cycles_per_window * z.cycle_batches * kBatch;
  for (int64_t next = ingest.final_rows; next < full; next += kBatch) {
    Status s = st->main->Run(ObsInsert("obs", o.seed, next, kBatch, z.extent));
    rec.Check(s.ok(), "window fill: " + s.ToString());
    if (!s.ok()) break;
    ingest.final_rows = next + kBatch;
  }
  st->ingest.reset();
  st->logger.reset();
  st->reader.reset();
  int64_t obs_rows = ingest.final_rows;
  CloseAndReopen(st->core.get(), st->main.get(), st->store.get(),
                 {{"obs", obs_rows}, {"events", events}}, &rec, &sf, &e);
  e.user_bytes_stored = 16.0 * static_cast<double>(obs_rows + events);

  Report rep;
  rep.Note("sizes", "obs " + std::to_string(z.obs_rows) +
                        " rows plus a rolling window of " +
                        std::to_string(z.cycles_per_window * z.cycle_batches) +
                        " batches of " + std::to_string(kBatch) + "; events");
  rep.Note("clients", "3 sessions on 3 threads (ingester, logger, reader), closed loop");
  rep.Note("durability", "fsync");
  rep.Note("rows_ingested", std::to_string(ingest.rows));
  AddEndToEnd(rec, e, &rep);
  AddLayers(rec, lt, win, sf, AppFigures{}, &rep);
  rep.attempted = rec.attempted();
  rep.failed = rec.failed();
  st->main.reset();
  st->core.reset();
  RemoveDir(st->store->dir);
  return rep;
}

}  // namespace e2e
