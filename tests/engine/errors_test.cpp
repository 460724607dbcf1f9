// Failure injection: every layer must reject malformed input with the right
// status code and a usable message, never crash.

#include <gtest/gtest.h>

#include "src/catalog/persist.h"
#include "src/engine/database.h"

namespace sciql {
namespace engine {
namespace {

class ErrorsTest : public ::testing::Test {
 protected:
  Status::Code CodeOf(const std::string& q) {
    auto r = db_.Execute(q);
    return r.ok() ? Status::Code::kOk : r.status().code();
  }
  Database db_;
};

TEST_F(ErrorsTest, ParseErrors) {
  EXPECT_EQ(CodeOf("SELEC 1"), Status::Code::kParseError);
  EXPECT_EQ(CodeOf("SELECT FROM t"), Status::Code::kParseError);
  EXPECT_EQ(CodeOf("SELECT 1 +"), Status::Code::kParseError);
  EXPECT_EQ(CodeOf("CREATE ARRAY a (x INT DIMENSION[0:1:4)"),
            Status::Code::kParseError);
  EXPECT_EQ(CodeOf("SELECT CASE WHEN 1 = 1 THEN 2"),
            Status::Code::kParseError);  // missing END
  EXPECT_EQ(CodeOf("SELECT 'unterminated"), Status::Code::kParseError);
  EXPECT_EQ(CodeOf("INSERT INTO t"), Status::Code::kParseError);
  EXPECT_EQ(CodeOf(""), Status::Code::kInvalidArgument);
}

TEST_F(ErrorsTest, BindErrors) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT)").ok());
  EXPECT_EQ(CodeOf("SELECT b FROM t"), Status::Code::kBindError);
  EXPECT_EQ(CodeOf("SELECT t.b FROM t"), Status::Code::kBindError);
  EXPECT_EQ(CodeOf("SELECT nosuchfunc(a) FROM t"), Status::Code::kBindError);
  EXPECT_EQ(CodeOf("SELECT a FROM nosuch"), Status::Code::kNotFound);
  EXPECT_EQ(CodeOf("SELECT SUM(a) + a FROM t"), Status::Code::kBindError);
  EXPECT_EQ(CodeOf("SELECT * FROM t WHERE SUM(a) = 1"),
            Status::Code::kBindError);
  EXPECT_EQ(CodeOf("SELECT a FROM t HAVING a > 1"),
            Status::Code::kNotSupported);
}

TEST_F(ErrorsTest, ArrayErrors) {
  ASSERT_TRUE(
      db_.Run("CREATE ARRAY g (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
          .ok());
  // Wrong number of index expressions.
  EXPECT_EQ(CodeOf("SELECT g[x][x] FROM g"), Status::Code::kBindError);
  // Cell access on a table.
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT)").ok());
  EXPECT_EQ(CodeOf("SELECT t[a] FROM t"), Status::Code::kNotFound);
  // ALTER on a missing dimension.
  EXPECT_EQ(CodeOf("ALTER ARRAY g ALTER DIMENSION z SET RANGE [0:1:2]"),
            Status::Code::kNotFound);
  // ALTER on a table.
  EXPECT_EQ(CodeOf("ALTER ARRAY t ALTER DIMENSION a SET RANGE [0:1:2]"),
            Status::Code::kNotFound);
  // UPDATE of a dimension.
  EXPECT_EQ(CodeOf("UPDATE g SET x = 0"), Status::Code::kInvalidArgument);
  // CREATE ARRAY AS SELECT without [dim] projections.
  EXPECT_EQ(CodeOf("CREATE ARRAY g2 AS SELECT v FROM g"),
            Status::Code::kInvalidArgument);
}

TEST_F(ErrorsTest, InsertArityErrors) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT, b INT)").ok());
  EXPECT_EQ(CodeOf("INSERT INTO t VALUES (1)"),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(CodeOf("INSERT INTO t (a) VALUES (1, 2)"),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(CodeOf("INSERT INTO t (a, nosuch) VALUES (1, 2)"),
            Status::Code::kBindError);
  EXPECT_EQ(CodeOf("INSERT INTO nosuch VALUES (1)"),
            Status::Code::kNotFound);
  // VALUES rows of differing arity.
  EXPECT_EQ(CodeOf("INSERT INTO t VALUES (1, 2), (3)"),
            Status::Code::kInvalidArgument);
}

TEST_F(ErrorsTest, ExecErrors) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Run("INSERT INTO t VALUES (2), (0)").ok());
  EXPECT_EQ(CodeOf("SELECT 10 / a FROM t"), Status::Code::kExecError);
  EXPECT_EQ(CodeOf("SELECT 10 % a FROM t"), Status::Code::kExecError);
}

TEST_F(ErrorsTest, TypeErrors) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT, s VARCHAR)").ok());
  ASSERT_TRUE(db_.Run("INSERT INTO t VALUES (1, 'x')").ok());
  EXPECT_EQ(CodeOf("SELECT a + s FROM t"), Status::Code::kExecError);
  EXPECT_EQ(CodeOf("SELECT a = s FROM t"), Status::Code::kExecError);
  EXPECT_EQ(CodeOf("SELECT SUM(s) FROM t"), Status::Code::kExecError);
}

TEST_F(ErrorsTest, DdlErrors) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT)").ok());
  EXPECT_EQ(CodeOf("CREATE TABLE t (b INT)"), Status::Code::kAlreadyExists);
  EXPECT_EQ(CodeOf("CREATE ARRAY t (x INT DIMENSION[0:1:2], v INT)"),
            Status::Code::kAlreadyExists);
  EXPECT_EQ(CodeOf("DROP TABLE nosuch"), Status::Code::kNotFound);
  EXPECT_EQ(CodeOf("CREATE TABLE bad (x INT DIMENSION[0:1:2])"),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(CodeOf("CREATE ARRAY bad (x INT DIMENSION[0:1:2])"),
            Status::Code::kOk);  // arrays may have zero attributes
}

// Dimension values materialize as INT; a range reaching past it used to be
// accepted and read back truncated (2147483648 came back NULL).
TEST_F(ErrorsTest, DimensionValuesMustFitInt) {
  EXPECT_EQ(CodeOf("CREATE ARRAY big (x INT DIMENSION[2147483646:1:2147483650], "
                   "v INT DEFAULT 1)"),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(CodeOf("CREATE ARRAY low (x INT DIMENSION[-2147483648:1:0])"),
            Status::Code::kInvalidArgument);  // INT_MIN is the NULL sentinel
  EXPECT_EQ(CodeOf("CREATE ARRAY edge (x INT DIMENSION[2147483646:1:2147483648], "
                   "v INT DEFAULT 1)"),
            Status::Code::kOk);
  auto rs = db_.Query("SELECT x FROM edge WHERE x > 2147483646");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->NumRows(), 1u);
  EXPECT_EQ(rs->Value(0, 0).AsInt64(), 2147483647);

  ASSERT_TRUE(db_.Run("CREATE ARRAY g (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
                  .ok());
  EXPECT_EQ(CodeOf("ALTER ARRAY g ALTER DIMENSION x SET RANGE "
                   "[0:1000000000:4000000000]"),
            Status::Code::kInvalidArgument);

  // A range derived from BIGINT data by coercion.
  ASSERT_TRUE(db_.Run("CREATE TABLE t (k BIGINT, v INT)").ok());
  ASSERT_TRUE(
      db_.Run("INSERT INTO t VALUES (3000000000, 1), (3000000001, 2)").ok());
  EXPECT_EQ(CodeOf("CREATE ARRAY d AS SELECT [k], v FROM t"),
            Status::Code::kInvalidArgument);

  // A catalog image written before the check: DeclareArray skips
  // validation, standing in for the old engine.
  Database legacy;
  ASSERT_TRUE(legacy.catalog()
                  ->DeclareArray("big", array::ArrayDesc(
                                            {array::DimDesc{
                                                "x",
                                                array::DimRange(2147483646, 1,
                                                                2147483650),
                                                false}},
                                            {}))
                  .ok());
  auto bytes = catalog::SerializeCatalog(*legacy.catalog());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  Database fresh;
  EXPECT_EQ(catalog::DeserializeCatalog(fresh.catalog(), *bytes).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(ErrorsTest, StatementsAfterErrorDoNotRun) {
  ASSERT_TRUE(db_.Run("CREATE TABLE t (a INT)").ok());
  // The second statement fails; the third must not have executed.
  auto r = db_.Execute(
      "INSERT INTO t VALUES (1); SELECT nosuch FROM t; "
      "INSERT INTO t VALUES (2)");
  EXPECT_FALSE(r.ok());
  auto count = db_.Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->Value(0, 0).AsInt64(), 1);
}

TEST_F(ErrorsTest, ErrorsCarryContext) {
  auto r = db_.Execute("SELECT x FROM missing_table");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing_table"), std::string::npos);

  auto r2 = db_.Execute("SELECT unknown_col FROM (SELECT 1 AS one) AS s");
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("unknown_col"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace sciql
