// Dimension-predicate slabs: WHERE conjuncts comparing an array dimension
// with a literal compile to array.slab (cells by position) instead of a
// scan of the dimension columns. With index paths off the planner keeps the
// scan, so every statement here runs both ways and must agree bit for bit:
// same rows in the same order, same DML counts, same cells touched.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace engine {
namespace {

// The fixture's arrays: an 8x8 grid (v = 100x + y), one with a descending
// first dimension and an offset second one, and a table for contrast.
const char* const kSetup[] = {
    "CREATE ARRAY grid (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], "
    "v INT DEFAULT 0)",
    "UPDATE grid SET v = x * 100 + y",
    "CREATE ARRAY neg (x INT DIMENSION[10:-2:0], y INT DIMENSION[-3:2:6], "
    "v INT DEFAULT 0)",
    "UPDATE neg SET v = x * 10 + y",
    "CREATE TABLE t (x INT, y INT)",
    "INSERT INTO t VALUES (1, 2), (3, 4)",
};

class DimensionSlabTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = gdk::Controls();
    for (Database* db : {&on_, &off_}) {
      for (const char* sql : kSetup) ASSERT_TRUE(db->Run(sql).ok()) << sql;
    }
  }
  void TearDown() override { gdk::Controls() = saved_; }

  // Run `sql` on the database of the given path with index paths (and so
  // slabs) switched accordingly; renders every row, or the error.
  std::string Run(bool slabs, const std::string& sql) {
    gdk::Controls().use_index_paths = slabs;
    auto rs = (slabs ? on_ : off_).Execute(sql);
    gdk::Controls() = saved_;
    return rs.ok() ? rs->ToString(SIZE_MAX) : "error: " + rs.status().ToString();
  }

  std::string Explain(bool slabs, const std::string& sql) {
    gdk::Controls().use_index_paths = slabs;
    auto plan = on_.ExplainText(sql);
    gdk::Controls() = saved_;
    EXPECT_TRUE(plan.ok()) << sql;
    return plan.ok() ? *plan : "";
  }

  // Both paths, asserting agreement; returns the slab path's rendering.
  std::string Both(const std::string& sql) {
    std::string with = Run(true, sql);
    EXPECT_EQ(with, Run(false, sql)) << sql;
    return with;
  }

  gdk::KernelControls saved_;
  Database on_;
  Database off_;
};

bool Has(const std::string& plan, const std::string& op) {
  return plan.find(op) != std::string::npos;
}

TEST_F(DimensionSlabTest, CellShapesCompileToSlabs) {
  const std::string shapes[] = {
      // The benchmark's cell read (one cell and a 3x3 window) and update.
      "SELECT x, y, v FROM grid WHERE x = 3 AND y = 4",
      "SELECT x, y, v FROM grid WHERE x >= 2 AND x <= 4 AND y >= 5 AND y <= 7",
      "UPDATE grid SET v = 7 WHERE x = 3 AND y = 4",
      "DELETE FROM grid WHERE x = 3 AND y BETWEEN 1 AND 2",
  };
  for (const std::string& sql : shapes) {
    std::string plan = Explain(true, sql);
    EXPECT_TRUE(Has(plan, "array.slab")) << plan;
    for (const char* op : {"batcalc.==", "batcalc.>=", "batcalc.<=",
                           "batcalc.and", "algebra.select"}) {
      EXPECT_FALSE(Has(plan, op)) << op << " in\n" << plan;
    }
    std::string scan = Explain(false, sql);
    EXPECT_FALSE(Has(scan, "array.slab")) << scan;
    EXPECT_TRUE(Has(scan, "algebra.select")) << scan;
  }
  // Conjuncts the slab cannot answer stay a filter over the slab's rows.
  std::string mixed = Explain(true, "SELECT v FROM grid WHERE x = 1 AND v > 3");
  EXPECT_TRUE(Has(mixed, "array.slab"));
  EXPECT_TRUE(Has(mixed, "batcalc.>"));
  // Joins, tables and tiling keep the scan.
  for (const char* sql :
       {"SELECT t.x FROM t WHERE x = 1",
        "SELECT a.v FROM grid AS a, t WHERE a.x = t.x AND a.y = 2",
        "SELECT [x], [y], SUM(v) FROM grid GROUP BY grid[x:x+2][y:y+2] "
        "HAVING x = 1"}) {
    EXPECT_FALSE(Has(Explain(true, sql), "array.slab")) << sql;
  }
}

TEST_F(DimensionSlabTest, ReadsMatchTheScan) {
  const std::string where[] = {
      // Windows clipped at 0 and at n-1, and ones wholly outside.
      "x >= -1 AND x <= 1 AND y >= 6 AND y <= 8",
      "x >= 6 AND y <= 0",
      "x > 7",
      "y < 0",
      "x >= 100 AND x <= 200",
      "x >= 5 AND x <= 4",
      "x = 3 AND x = 4",
      "x = 3 AND x = 3",
      // Literal first, BETWEEN, decimals, NULL and int64 extremes.
      "3 <= x AND 5 > y",
      "2 = y",
      "x BETWEEN 2 AND 3 AND y BETWEEN -5 AND 1",
      "x BETWEEN 3 AND 2",
      "x <= 2.5 AND y > 6.0",
      "x = 2.0",
      "x = 2.5",
      "x = NULL",
      "x > -NULL",
      "y BETWEEN 1 AND NULL",
      "x >= -9223372036854775808",
      "x < 9223372036854775807 AND y > -2147483648",
      "x > 3000000000",
      // Dimension and attribute conjuncts, residual shapes, cell refs.
      "x = 1 AND v > 3",
      "x = 1 AND (y = 2 OR y = 5)",
      "x <> 1 AND y = 2",
      "NOT x BETWEEN 1 AND 6 AND y = 0",
      "x >= 1 AND x <= 2 AND grid[x-1][y] > 100",
      "x = y AND x < 3",
      "x = 1 AND 1 = 1",
      "x = 1 AND 1 = 0",
  };
  for (const std::string& w : where) {
    Both("SELECT x, y, v FROM grid WHERE " + w);
  }
  EXPECT_EQ(Both("SELECT v FROM grid WHERE x = 3 AND x = 4"),
            Run(true, "SELECT v FROM grid WHERE 1 = 0"));
  // Aggregates, ORDER BY, aliases and subqueries over a slab.
  Both("SELECT COUNT(*) AS n, SUM(v) AS s FROM grid WHERE x > 5");
  Both("SELECT y, v FROM grid WHERE x = 2 ORDER BY v DESC LIMIT 3");
  Both("SELECT g.v FROM grid AS g WHERE g.x = 4 AND g.y >= 6");
  Both("SELECT s.v FROM (SELECT v FROM grid WHERE x = 6) AS s WHERE s.v > 603");
  Both("SELECT y, COUNT(*) AS n FROM grid WHERE x < 3 GROUP BY y");
  // Descending and offset dimensions, off-grid values included.
  for (const std::string& w :
       {"x <= 6", "x = 7", "x > 3.5 AND y >= 0", "y = -1", "y = 0",
        "x BETWEEN 4 AND 8 AND y BETWEEN -3 AND 1", "x < 2", "x >= 10"}) {
    Both("SELECT x, y, v FROM neg WHERE " + w);
  }
  EXPECT_EQ(Both("SELECT x, y FROM neg WHERE x <= 6.5 AND x >= 4 AND y = 1"),
            Run(false, "SELECT x, y FROM neg WHERE x IN (6, 4) AND y = 1"));
}

TEST_F(DimensionSlabTest, DmlMatchesTheScan) {
  const std::string stmts[] = {
      "UPDATE grid SET v = -1 WHERE x = 3 AND y = 4",
      "UPDATE grid SET v = v + x WHERE x >= 6 AND y <= 1",
      "UPDATE grid SET v = 0 WHERE x = 2 AND v > 203",
      "UPDATE grid SET v = 1 WHERE x = 3 AND x = 4",
      "UPDATE grid SET v = 2 WHERE x > 100",
      "DELETE FROM grid WHERE x = 0 AND y BETWEEN 2 AND 3",
      "DELETE FROM grid WHERE 7 = x AND v <> 705",
      "DELETE FROM grid WHERE y = NULL",
      "UPDATE neg SET v = 0 WHERE x <= 6.5 AND y > -1",
      "DELETE FROM neg WHERE x = 9",
      "DELETE FROM neg WHERE x = 10 AND y >= 3",
  };
  for (const std::string& sql : stmts) {
    Both(sql);  // same reported count
    // Same cells touched: the arrays agree cell for cell afterwards.
    Both("SELECT x, y, v FROM grid");
    Both("SELECT x, y, v FROM neg");
  }
  // The count is the cells the window holds, holes included.
  auto n = on_.Execute("UPDATE grid SET v = 9 WHERE x = 0 AND y <= 3");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->Value(0, 0).AsInt64(), 4);
}

}  // namespace
}  // namespace engine
}  // namespace sciql
