// cell_oltp: short statements, one session, so the catalog writes in place.
// A seeded mix over a grid array and an observation table: 40% cell reads
// by dimension predicates (half in a 64x64 hot region), 15% one-cell
// UPDATEs, 40% one-row INSERTs and 5% whole-table queries (top-k by value
// plus a grouped count, timed together), drawn in runs (see the loop). A
// quarter of the reads fetch one cell and the rest a 3x3 window, so the
// median falls inside one shape. The benchmark keeps a shadow model and
// checks every read against it. Reads run beside writes, and the inserts
// invalidate the order index that the top-k query reuses. Every 256
// operations, one unit of batch ingest (8 1000-row INSERT ... VALUES into a
// staging table) gives ingest_rows_per_s.

#include <map>
#include <memory>
#include <random>

#include "oracles.h"
#include "src/engine/database.h"
#include "workloads.h"

namespace e2e {
namespace {

using sciql::Status;
using sciql::engine::Database;
using sciql::engine::ResultSet;

struct Sizes {
  int64_t grid;      ///< grid is grid x grid cells
  int64_t obs_rows;  ///< observations loaded at set-up
  int64_t hot;       ///< edge of the hot region
};

Sizes SizesFor(const Options& o) {
  if (o.smoke) return Sizes{64, 3000, 16};
  return Sizes{1024, 262144, 64};
}

struct State {
  std::unique_ptr<Store> store;
  std::unique_ptr<Database> db;
  std::vector<int32_t> grid;      // shadow of grid.v, g[x * n + y]
  std::vector<int32_t> obs_v;     // shadow of obs.v by seq
  std::map<int64_t, int64_t> obs_per_x;
};

void Must(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "e2ebench: cell_oltp set-up failed at %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

/// The grid's fill formula, from the seed.
struct GridFormula {
  int64_t a, b, c;
  explicit GridFormula(uint64_t seed)
      : a(1 + static_cast<int64_t>(Mix(seed + 11) % 97)),
        b(1 + static_cast<int64_t>(Mix(seed + 12) % 89)),
        c(static_cast<int64_t>(Mix(seed + 13) % 1000)) {}
};

std::unique_ptr<State> Setup(const Options& o, const Sizes& z,
                             std::unique_ptr<Store> store) {
  auto st = std::make_unique<State>();
  st->store = std::move(store);
  st->db = std::make_unique<Database>();
  Database* db = st->db.get();
  Must(db->Open(st->store->dir, st->store->options), "open");

  GridFormula f(o.seed);
  std::string n = std::to_string(z.grid);
  Must(db->Run("CREATE ARRAY grid (x INT DIMENSION[0:1:" + n +
               "], y INT DIMENSION[0:1:" + n + "], v INT DEFAULT 0)"),
       "create grid");
  Must(db->Run("UPDATE grid SET v = (x * " + std::to_string(f.a) + " + y * " +
               std::to_string(f.b) + " + " + std::to_string(f.c) + ") MOD 1000"),
       "fill grid");
  Must(db->Run("CREATE TABLE obs (seq INT, x INT, y INT, v INT)"),
       "create obs");
  Must(LoadObs(&db->session(), "obs", o.seed, z.obs_rows, z.grid),
       "load obs");
  return st;
}

/// The shadow model of what set-up stored, built outside the timed set-up.
void MakeShadow(const Options& o, const Sizes& z, State* st) {
  GridFormula f(o.seed);
  const int64_t n = z.grid;
  st->grid.resize(static_cast<size_t>(n * n));
  for (int64_t x = 0; x < n; ++x) {
    for (int64_t y = 0; y < n; ++y) {
      st->grid[static_cast<size_t>(x * n + y)] =
          static_cast<int32_t>((x * f.a + y * f.b + f.c) % 1000);
    }
  }
  for (int64_t seq = 0; seq < z.obs_rows; ++seq) {
    ObsRow r = MakeObsRow(o.seed, seq, n);
    st->obs_v.push_back(static_cast<int32_t>(r.v));
    st->obs_per_x[r.x]++;
  }
}

}  // namespace

Report RunCellOltp(const Options& o) {
  Sizes z = SizesFor(o);
  EndToEnd e;
  std::unique_ptr<State> st = RepeatSetup<std::unique_ptr<State>>(
      &e,
      [&] {
        return NewStore(o, "cell_oltp", sciql::storage::DurabilityLevel::kNone);
      },
      [&](std::unique_ptr<Store> store) {
        return Setup(o, z, std::move(store));
      });
  MakeShadow(o, z, st.get());
  Database* db = st->db.get();
  const int64_t n = z.grid;

  std::mt19937_64 rng(Mix(o.seed ^ 0xce11));
  int64_t hot_x = static_cast<int64_t>(rng() % static_cast<uint64_t>(n - z.hot));
  int64_t hot_y = static_cast<int64_t>(rng() % static_cast<uint64_t>(n - z.hot));
  auto shadow = [&](int64_t x, int64_t y) {
    return static_cast<double>(st->grid[static_cast<size_t>(x * n + y)]);
  };
  uint64_t updates = 0, inserts = 0;
  int64_t staged = 0;  // rows committed by ingest units

  Window win;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(o.seconds));
  Recorder rec(o, start);
  win.Begin(st->store->env, db->core());
  const uint64_t unit_every = o.smoke ? 16 : 256;
  uint64_t ops = 0, units = 0;
  // The mix is drawn in runs: a cell read, cell update or row insert is
  // drawn and then issued 4 times in a row, a scan query once. The draw
  // weights 1000 : 375 : 1000 : 500 give the operation shares 40/15/40/5.
  // A one-row INSERT right after a 1M-cell scan takes about 3x as long as
  // one right after another INSERT. Drawn one at a time, 40% of the inserts
  // followed an insert, which put their p50 between the two kinds, where it
  // moved from run to run; in runs, 84% do.
  enum Kind { kRead, kUpdate, kInsert, kScan } kind = kRead;
  int left = 0;  // operations left in the current run
  while (Clock::now() < deadline) {
    // Every `unit_every` operations, one unit of batch ingest.
    if (++ops % unit_every == 0) {
      staged += IngestUnit(&db->session(), o, n, units++, &rec, &e);
    }
    if (left == 0) {
      uint64_t d = rng() % 2875;
      kind = d < 1000 ? kRead : d < 1375 ? kUpdate : d < 2375 ? kInsert : kScan;
      left = kind == kScan ? 1 : 4;
    }
    left--;
    if (kind == kRead) {
      // cell_read: one cell or a 3x3 window, half of them in the hot region.
      bool hot = rng() % 2 == 0;
      int64_t span = hot ? z.hot : n;
      int64_t x = (hot ? hot_x : 0) + static_cast<int64_t>(rng() % static_cast<uint64_t>(span));
      int64_t y = (hot ? hot_y : 0) + static_cast<int64_t>(rng() % static_cast<uint64_t>(span));
      int64_t r = rng() % 4 == 0 ? 0 : 1;  // radius: one cell or 3x3
      std::string sql =
          r == 0 ? "SELECT x, y, v FROM grid WHERE x = " + std::to_string(x) +
                       " AND y = " + std::to_string(y)
                 : "SELECT x, y, v FROM grid WHERE x >= " + std::to_string(x - 1) +
                       " AND x <= " + std::to_string(x + 1) + " AND y >= " +
                       std::to_string(y - 1) + " AND y <= " + std::to_string(y + 1);
      auto rs = rec.Time(Op::kCellRead, 1, [&] { return db->Query(sql); });
      Judge(&rec, "cell read", rs.status(), [&] {
        return CheckCells(ToRows(*rs), x - r, x + r, y - r, y + r, n, shadow);
      });
    } else if (kind == kUpdate) {
      // cell_update: one cell.
      int64_t x = static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
      int64_t y = static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
      int32_t v = static_cast<int32_t>(rng() % 1000);
      auto rs = rec.Time(Op::kCellUpdate, 1, [&] {
        return db->Execute("UPDATE grid SET v = " + std::to_string(v) +
                           " WHERE x = " + std::to_string(x) +
                           " AND y = " + std::to_string(y));
      });
      Judge(&rec, "cell update", rs.status(), [&] {
        if (rs->NumRows() != 1 || rs->Value(0, 0).AsInt64() != 1) {
          return "cell update touched " + rs->ToString();
        }
        st->grid[static_cast<size_t>(x * n + y)] = v;
        return std::string();
      });
      updates++;
    } else if (kind == kInsert) {
      // row_insert: the next generated observation.
      int64_t seq = static_cast<int64_t>(st->obs_v.size());
      ObsRow r = MakeObsRow(o.seed, seq, n);
      std::string sql = "INSERT INTO obs VALUES (" + std::to_string(seq) + ", " +
                        std::to_string(r.x) + ", " + std::to_string(r.y) +
                        ", " + std::to_string(r.v) + ")";
      Status s = rec.Time(Op::kRowInsert, 1, [&] { return db->Run(sql); });
      Judge(&rec, "row insert", s);
      if (s.ok()) {
        st->obs_v.push_back(static_cast<int32_t>(r.v));
        st->obs_per_x[r.x]++;
        inserts++;
      }
    } else {
      // scan_query: top-k by value, then a grouped count, as one operation.
      uint64_t rows = st->obs_v.size();
      sciql::Result<ResultSet> top = Status::Internal("not run");
      auto groups = rec.Time(Op::kScan, 2 * rows, [&] {
        top = db->Query("SELECT seq, v FROM obs ORDER BY v DESC LIMIT 10");
        return db->Query("SELECT x, COUNT(*) AS c FROM obs GROUP BY x");
      });
      Judge(&rec, "top-k and grouped count",
            top.ok() ? groups.status() : top.status(), [&] {
              std::string err = CheckTopK(ToRows(*top), st->obs_v, 10);
              return err.empty()
                         ? CheckGroupCounts(ToRows(*groups), st->obs_per_x)
                         : err;
            });
    }
  }
  win.End(st->store->env, db->core());
  layers::Totals lt = layers::Collect();
  StorageFigures sf;
  sf.io = win.io;
  sf.user_bytes_written = 4.0 * static_cast<double>(updates) +
                          16.0 * (static_cast<double>(inserts) +
                                  static_cast<double>(staged));

  CloseAndReopen(&db->core(), &db->session(), st->store.get(),
                 {{"obs", static_cast<int64_t>(st->obs_v.size())}}, &rec, &sf,
                 &e);
  e.user_bytes_stored = 4.0 * static_cast<double>(n * n) +
                        16.0 * static_cast<double>(st->obs_v.size());

  Report rep;
  rep.Note("sizes", "grid " + std::to_string(n) + "^2, obs " +
                        std::to_string(z.obs_rows) + " rows at start, hot region " +
                        std::to_string(z.hot) + "^2");
  rep.Note("clients", "1 session, closed loop");
  rep.Note("durability", "none");
  AddEndToEnd(rec, e, &rep);
  AddLayers(rec, lt, win, sf, AppFigures{}, &rep);
  rep.attempted = rec.attempted();
  rep.failed = rec.failed();
  st->db.reset();
  RemoveDir(st->store->dir);
  return rep;
}

}  // namespace e2e
