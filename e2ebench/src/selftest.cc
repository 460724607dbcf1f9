// Self-test of the oracles: each must accept the engine's answer to a small
// query and reject the same answer with one value changed.

#include <cstdio>
#include <functional>
#include <string>

#include "oracles.h"
#include "src/engine/database.h"
#include "src/img/ops.h"
#include "src/life/life.h"
#include "src/vault/synth.h"
#include "src/vault/vault.h"

namespace e2e {
namespace {

using sciql::engine::Database;
using sciql::vault::Image;
namespace img = sciql::img;

int g_failures = 0;

/// `check` must accept `right` and reject `wrong`.
template <typename T>
void Expect(const char* oracle, const T& right, const T& wrong,
            const std::function<std::string(const T&)>& check) {
  std::string ok = check(right);
  std::string bad = check(wrong);
  bool pass = ok.empty() && !bad.empty();
  if (!pass) g_failures++;
  std::printf("%-16s %s (right: %s; wrong: %s)\n", oracle,
              pass ? "ok" : "FAILED", ok.empty() ? "accepted" : ok.c_str(),
              bad.empty() ? "accepted" : bad.c_str());
}

Rows Query(Database* db, const std::string& sql) {
  auto rs = db->Query(sql);
  if (!rs.ok()) {
    std::printf("query failed: %s: %s\n", sql.c_str(),
                rs.status().ToString().c_str());
    g_failures++;
    return {};
  }
  return ToRows(*rs);
}

Rows Bump(Rows r, size_t row, size_t col) {
  if (row < r.size() && col < r[row].size()) r[row][col] += 1;
  return r;
}

}  // namespace

int SelfTest() {
  Database db;
  const int64_t n = 8;
  std::vector<int32_t> m(static_cast<size_t>(n * n));
  for (int64_t x = 0; x < n; ++x) {
    for (int64_t y = 0; y < n; ++y) {
      m[static_cast<size_t>(x * n + y)] = static_cast<int32_t>((x * 5 + y * 3) % 17);
    }
  }
  (void)db.Run("CREATE ARRAY matrix (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)");
  (void)db.Run("UPDATE matrix SET v = (x * 5 + y * 3) MOD 17");
  Rows tiles = Query(&db, "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2] "
                          "HAVING x MOD 2 = 1 AND y MOD 2 = 1");
  Expect<Rows>("tiling", tiles, Bump(tiles, 2, 2),
               [&](const Rows& r) { return CheckTiling(r, m, n, 1); });

  Rows cells = Query(&db, "SELECT x, y, v FROM matrix WHERE x >= 2 AND x <= 4 AND y >= 6 AND y <= 8");
  auto shadow = [&](int64_t x, int64_t y) {
    return static_cast<double>(m[static_cast<size_t>(x * n + y)]);
  };
  Expect<Rows>("cells", cells, Bump(cells, 1, 2), [&](const Rows& r) {
    return CheckCells(r, 2, 4, 6, 8, n, shadow);
  });

  Image building = sciql::vault::MakeBuildingImage(24, 24, 3);
  (void)sciql::vault::LoadImage(&db, "building", building);
  (void)img::EdgeDetect(&db, "building", "edge");
  Image edge_ref = img::native::EdgeDetect(building);
  auto stored = sciql::vault::StoreImage(&db, "edge");
  Image edge = stored.ok() ? *stored : Image{};
  Image wrong_edge = edge;
  if (!wrong_edge.pixels.empty()) wrong_edge.pixels[30] += 1;
  Expect<Image>("image", edge, wrong_edge,
                [&](const Image& i) { return CheckImage(i, edge_ref); });

  auto hist = img::Histogram(&db, "building");
  auto right_hist = hist.ok() ? *hist : decltype(img::native::Histogram(building)){};
  auto wrong_hist = right_hist;
  if (!wrong_hist.empty()) wrong_hist[0].second += 1;
  Expect<decltype(right_hist)>("histogram", right_hist, wrong_hist, [&](const auto& h) {
    return CheckHistogram(h, img::native::Histogram(building));
  });

  Rows found = Query(&db, "SELECT x, y, v FROM edge WHERE v > 20");
  Expect<Rows>("detection", found, Bump(found, 0, 2),
               [&](const Rows& r) { return CheckDetection(r, edge_ref, 20); });

  Rows blocks = Query(&db, "SELECT x / 8 AS gx, y / 8 AS gy, AVG(v) AS a, MAX(v) AS m, "
                           "COUNT(v) AS c FROM edge GROUP BY x / 8, y / 8");
  Expect<Rows>("blocks", blocks, Bump(blocks, 1, 4),
               [&](const Rows& r) { return CheckBlocks(r, edge_ref, 8); });

  // One SciQL Life generation of a glider against the native StepLife.
  auto board_cells = [&](const char* name) {
    std::vector<int32_t> b(static_cast<size_t>(n * n));
    for (const auto& r : Query(&db, std::string("SELECT x, y, v FROM ") + name)) {
      b[static_cast<size_t>(r[0]) * static_cast<size_t>(n) + static_cast<size_t>(r[1])] =
          static_cast<int32_t>(r[2]);
    }
    return b;
  };
  auto board = sciql::life::LifeBoard::Create(&db, "life", static_cast<size_t>(n));
  if (board.ok()) (void)board->Seed(sciql::life::Pattern::kGlider, 2, 2);
  std::vector<int32_t> stepped = board_cells("life");
  StepLife(&stepped, n);
  if (board.ok()) (void)board->StepSciql();
  std::vector<int32_t> after = board_cells("life");
  std::vector<int32_t> wrong_board = after;
  wrong_board[0] ^= 1;
  Expect<std::vector<int32_t>>("life step", after, wrong_board,
                               [&](const std::vector<int32_t>& b) { return CheckBoard(b, stepped); });

  (void)db.Run("CREATE TABLE obs (seq INT, x INT, y INT, v INT)");
  (void)db.Run("INSERT INTO obs VALUES (0, 1, 1, 50), (1, 2, 1, 70), (2, 1, 3, 10), (3, 2, 2, 90)");
  std::vector<int32_t> v_by_seq = {50, 70, 10, 90};
  Rows top = Query(&db, "SELECT seq, v FROM obs ORDER BY v DESC LIMIT 2");
  Expect<Rows>("top-k", top, Bump(top, 1, 1),
               [&](const Rows& r) { return CheckTopK(r, v_by_seq, 2); });

  Rows groups = Query(&db, "SELECT x, COUNT(*) AS c FROM obs GROUP BY x");
  std::map<int64_t, int64_t> per_x = {{1, 2}, {2, 2}};
  Expect<Rows>("group counts", groups, Bump(groups, 0, 1),
               [&](const Rows& r) { return CheckGroupCounts(r, per_x); });

  Rows prefix = Query(&db, "SELECT x / 2 AS gx, COUNT(*) AS c, SUM(seq) AS s FROM obs GROUP BY x / 2");
  Expect<Rows>("prefix", prefix, Bump(prefix, 0, 2),
               [](const Rows& r) { return CheckPrefix(r); });
  Expect<Rows>("snapshot", prefix, Bump(prefix, 0, 1),
               [&](const Rows& r) { return CheckSame(prefix, r); });

  std::printf("oracle self-test: %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace e2e
