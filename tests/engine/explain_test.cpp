// EXPLAIN and the MAL optimizer observed through the engine: generated
// plans contain the expected operators, constants fold, duplicate work is
// eliminated, and 3-dimensional arrays compile correctly.

#include <gtest/gtest.h>

#include "src/engine/database.h"

namespace sciql {
namespace engine {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  std::string Explain(const std::string& q) {
    auto r = db_.ExplainText(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    return r.ok() ? *r : "";
  }
  size_t CountLines(const std::string& text, const std::string& needle) {
    size_t count = 0;
    size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      ++count;
      pos += needle.size();
    }
    return count;
  }
  Database db_;
};

TEST_F(ExplainTest, TilingPlanUsesArrayModule) {
  ASSERT_TRUE(db_.Run("CREATE ARRAY g (x INT DIMENSION[0:1:8], "
                      "y INT DIMENSION[0:1:8], v INT DEFAULT 0)")
                  .ok());
  std::string plan = Explain(
      "SELECT [x], [y], AVG(v) FROM g GROUP BY g[x:x+2][y:y+2] "
      "HAVING x MOD 2 = 1 AND y MOD 2 = 1");
  EXPECT_NE(plan.find("array.tileagg"), std::string::npos);
  EXPECT_NE(plan.find("algebra.select"), std::string::npos);
  EXPECT_NE(plan.find("batcalc.%"), std::string::npos);
  // The tile spec is printed in the paper's bracket notation.
  EXPECT_NE(plan.find("[x+0:x+2][y+0:y+2]"), std::string::npos);
}

TEST_F(ExplainTest, ConstantsFoldInPlans) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (v INT)").ok());
  std::string plan = Explain("SELECT v + (1 + 2 + 3) FROM t");
  // The constant subtree collapses: exactly one batcalc.+ remains (v + 6).
  EXPECT_EQ(CountLines(plan, "batcalc.+"), 1u);
  EXPECT_NE(plan.find("6"), std::string::npos);
}

TEST_F(ExplainTest, CommonSubexpressionsShareWork) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (v INT)").ok());
  // v * 7 appears twice in the query but once in the optimized plan.
  std::string plan = Explain("SELECT v * 7 AS a, v * 7 + 1 AS b FROM t");
  EXPECT_EQ(CountLines(plan, "batcalc.*"), 1u);
}

TEST_F(ExplainTest, DeadColumnsAreNotBound) {
  ASSERT_TRUE(
      db_.Run("CREATE TABLE wide (a INT, b INT, c INT, d INT)").ok());
  std::string plan = Explain("SELECT a FROM wide");
  // Only the referenced column is bound after DCE.
  EXPECT_EQ(CountLines(plan, "sql.bind"), 1u);
}

TEST_F(ExplainTest, JoinPlanUsesNJoin) {
  ASSERT_TRUE(db_.Run("CREATE TABLE l (k INT)").ok());
  ASSERT_TRUE(db_.Run("CREATE TABLE r (k INT)").ok());
  std::string plan = Explain("SELECT l.k FROM l JOIN r ON l.k = r.k");
  EXPECT_NE(plan.find("algebra.njoin"), std::string::npos);
  std::string cross =
      Explain("SELECT l.k FROM l, r WHERE l.k < r.k");
  EXPECT_NE(cross.find("algebra.crossjoin"), std::string::npos);
}

TEST_F(ExplainTest, OrderByLimitFusesIntoFirstN) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (k INT, v INT)").ok());
  // ORDER BY + LIMIT compiles to one algebra.firstn — no full sort, no
  // slice pair left in the plan.
  std::string plan = Explain("SELECT k FROM t ORDER BY k LIMIT 5");
  EXPECT_NE(plan.find("algebra.firstn"), std::string::npos);
  EXPECT_EQ(plan.find("algebra.slice"), std::string::npos);
  EXPECT_EQ(plan.find("algebra.sort"), std::string::npos);
  EXPECT_EQ(plan.find("algebra.orderidx"), std::string::npos);
  // Descending and multi-key sorts fuse too.
  std::string desc = Explain("SELECT k, v FROM t ORDER BY k DESC, v LIMIT 3");
  EXPECT_NE(desc.find("algebra.firstn"), std::string::npos);
  EXPECT_EQ(desc.find("algebra.sort"), std::string::npos);
  // Without LIMIT every ORDER BY orders through the keyed persistent index
  // cache — single or multi-key, either direction — never a plain sort.
  std::string plain = Explain("SELECT k FROM t ORDER BY k");
  EXPECT_NE(plain.find("algebra.orderidx"), std::string::npos);
  EXPECT_EQ(plain.find("algebra.firstn"), std::string::npos);
  std::string desc_plain = Explain("SELECT k FROM t ORDER BY k DESC");
  EXPECT_NE(desc_plain.find("algebra.orderidx"), std::string::npos);
  EXPECT_EQ(desc_plain.find("algebra.sort"), std::string::npos);
  std::string multi = Explain("SELECT k, v FROM t ORDER BY k, v DESC");
  EXPECT_NE(multi.find("algebra.orderidx"), std::string::npos);
  EXPECT_EQ(multi.find("algebra.sort"), std::string::npos);
  // LIMIT without ORDER BY stays a plain row-order slice.
  std::string sliced = Explain("SELECT k FROM t LIMIT 5");
  EXPECT_NE(sliced.find("algebra.slice"), std::string::npos);
  EXPECT_EQ(sliced.find("algebra.firstn"), std::string::npos);
}

TEST_F(ExplainTest, CellRefPlanGathersThroughPositions) {
  ASSERT_TRUE(db_.Run("CREATE ARRAY g (x INT DIMENSION[0:1:4], "
                      "y INT DIMENSION[0:1:4], v INT DEFAULT 0)")
                  .ok());
  std::string plan = Explain("SELECT [x], [y], g[x-1][y] FROM g");
  EXPECT_NE(plan.find("array.cellpos"), std::string::npos);
  EXPECT_NE(plan.find("algebra.project"), std::string::npos);
}

TEST_F(ExplainTest, ThreeDimensionalArrays) {
  ASSERT_TRUE(db_.Run("CREATE ARRAY cube (x INT DIMENSION[0:1:3], "
                      "y INT DIMENSION[0:1:4], z INT DIMENSION[0:1:5], "
                      "v INT DEFAULT 1)")
                  .ok());
  auto rs = db_.Query("SELECT COUNT(*) AS n FROM cube");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->Value(0, 0).AsInt64(), 60);

  // 3-D tiling: a 2x2x2 cube tile.
  rs = db_.Query(
      "SELECT [x], [y], [z], SUM(v) AS s FROM cube "
      "GROUP BY cube[x:x+2][y:y+2][z:z+2] HAVING x = 0 AND y = 0 AND z = 0");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->Value(0, 3).AsInt64(), 8);

  // 3-D cell addressing.
  rs = db_.Query(
      "SELECT cube[x][y][z+1] AS up FROM cube "
      "WHERE x = 0 AND y = 0 AND z = 4");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->Value(0, 0).is_null);  // z+1 out of range

  // Update along a plane, then verify a slab count.
  ASSERT_TRUE(db_.Run("UPDATE cube SET v = 0 WHERE z = 2").ok());
  rs = db_.Query("SELECT SUM(v) AS s FROM cube");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->Value(0, 0).AsInt64(), 48);  // 60 - 12 zeroed
}

TEST_F(ExplainTest, ExplainDdlShowsMaterialisation) {
  std::string plan = Explain(
      "CREATE ARRAY cube (a INT DIMENSION[0:1:2], b INT DIMENSION[0:1:3], "
      "c INT DIMENSION[0:1:4], v DOUBLE DEFAULT 0.5)");
  // Repetition factors follow Figure 3's rule generalized to 3-D:
  // a repeats each value 12x, b 4x within 2 groups, c 1x within 6 groups.
  EXPECT_NE(plan.find("array.series(0, 1, 2, 12, 1)"), std::string::npos);
  EXPECT_NE(plan.find("array.series(0, 1, 3, 4, 2)"), std::string::npos);
  EXPECT_NE(plan.find("array.series(0, 1, 4, 1, 6)"), std::string::npos);
  EXPECT_NE(plan.find("array.filler(24, 0.5)"), std::string::npos);
}

TEST_F(ExplainTest, ImpureWritesSurviveOptimization) {
  ASSERT_TRUE(db_.Run("CREATE ARRAY g (x INT DIMENSION[0:1:4], "
                      "v INT DEFAULT 0)")
                  .ok());
  std::string plan = Explain("UPDATE g SET v = x * 2 WHERE x > 1");
  // The dimension predicate selects the cells positionally (array.slab).
  EXPECT_NE(plan.find("array.slab"), std::string::npos);
  EXPECT_NE(plan.find("batcalc.*"), std::string::npos);
  EXPECT_NE(plan.find("__pos"), std::string::npos);
}

TEST_F(ExplainTest, MultiRowInsertPlanIsPinned) {
  ASSERT_TRUE(
      db_.Run("CREATE TABLE t (a INT, b DOUBLE, c VARCHAR, d INT)").ok());
  // Repeated literals share one constant register each, so the repeated
  // 1 / 0 (kept, since it fails at run time) is one instruction; 1.0 and 1,
  // and -0.0 and 0.0, are distinct constants although 1.0 renders as 1.
  // Variables are numbered in the order the compiler makes them.
  std::string plan = Explain(
      "INSERT INTO t VALUES (1 / 0, 2.5, 'a', NULL), (1 / 0, 2.5, 'a', NULL), "
      "(1.0 / 0, -0.0, 'a', 7), (2 / 0, 0.0, 'b', NULL), "
      "(1 / 0, 1.0000001, 'b', 7)");
  EXPECT_EQ(plan,
            "e_0 := batcalc./(1, 0);\n"
            "e_2 := batcalc./(1, 0);\n"
            "e_3 := batcalc./(2, 0);\n"
            "v0_5 := bat.pack(e_0, e_0, e_2, e_3, e_0);\n"
            "v1_6 := bat.pack(2.5, 2.5, -0, 0, 1);\n"
            "v2_7 := bat.pack('a', 'a', 'a', 'b', 'b');\n"
            "v3_8 := bat.pack(null, null, 7, null, 7);\n"
            "io.result(col1=v0_5, col2=v1_6, col3=v2_7, col4=v3_8);\n");
}

}  // namespace
}  // namespace engine
}  // namespace sciql
