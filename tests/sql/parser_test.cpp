#include "src/sql/parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace sciql {
namespace sql {
namespace {

StatementPtr MustParse(const std::string& text) {
  auto r = ParseOne(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? std::move(r.value()) : nullptr;
}

TEST(ParserTest, PaperCreateArray) {
  auto st = MustParse(
      "CREATE ARRAY matrix (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], "
      "v INT DEFAULT 0)");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->kind, Statement::Kind::kCreateArray);
  ASSERT_EQ(st->columns.size(), 3u);
  EXPECT_TRUE(st->columns[0].is_dimension);
  EXPECT_EQ(st->columns[0].range, array::DimRange(0, 1, 4));
  EXPECT_FALSE(st->columns[2].is_dimension);
  EXPECT_TRUE(st->columns[2].has_default);
  EXPECT_EQ(st->columns[2].default_value.i, 0);
}

TEST(ParserTest, LimitRangeChecked) {
  auto ok = MustParse("SELECT x FROM t ORDER BY x LIMIT 0");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->select->limit, 0);
  // Negative: the '-' lexes as an operator, so the literal is missing.
  auto neg = ParseOne("SELECT x FROM t LIMIT -1");
  EXPECT_FALSE(neg.ok());
  // Beyond int64: strtoll saturates, and the range check rejects it with a
  // real message instead of silently planning a 2^63-row slice.
  auto huge = ParseOne("SELECT x FROM t LIMIT 99999999999999999999");
  EXPECT_FALSE(huge.ok());
  EXPECT_NE(huge.status().ToString().find("out of range"), std::string::npos);
}

TEST(ParserTest, PaperGuardedUpdate) {
  auto st = MustParse(
      "UPDATE matrix SET v = CASE WHEN x > y THEN x + y "
      "WHEN x < y THEN x - y ELSE 0 END");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->kind, Statement::Kind::kUpdate);
  ASSERT_EQ(st->set_clauses.size(), 1u);
  EXPECT_EQ(st->set_clauses[0].second->kind, Expr::Kind::kCase);
}

TEST(ParserTest, PaperInsertSelectWithDimProjections) {
  auto st = MustParse(
      "INSERT INTO matrix SELECT [x], [y], x * y FROM matrix WHERE x = y");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->kind, Statement::Kind::kInsert);
  ASSERT_NE(st->select, nullptr);
  EXPECT_TRUE(st->select->items[0].is_dim);
  EXPECT_TRUE(st->select->items[1].is_dim);
  EXPECT_FALSE(st->select->items[2].is_dim);
}

TEST(ParserTest, PaperDeleteAndAlter) {
  auto del = MustParse("DELETE FROM matrix WHERE x > y");
  ASSERT_NE(del, nullptr);
  EXPECT_EQ(del->kind, Statement::Kind::kDelete);

  auto alt =
      MustParse("ALTER ARRAY matrix ALTER DIMENSION x SET RANGE [-1:1:5]");
  ASSERT_NE(alt, nullptr);
  EXPECT_EQ(alt->kind, Statement::Kind::kAlterArray);
  EXPECT_EQ(alt->new_range, array::DimRange(-1, 1, 5));
}

TEST(ParserTest, PaperTilingQuery) {
  auto st = MustParse(
      "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2] "
      "HAVING x MOD 2 = 1 AND y MOD 2 = 1");
  ASSERT_NE(st, nullptr);
  const SelectStmt& sel = *st->select;
  ASSERT_TRUE(sel.group_by.has_value());
  EXPECT_TRUE(sel.group_by->structural);
  ASSERT_EQ(sel.group_by->patterns.size(), 1u);
  const TilePattern& pat = sel.group_by->patterns[0];
  EXPECT_EQ(pat.array, "matrix");
  ASSERT_EQ(pat.dims.size(), 2u);
  EXPECT_TRUE(pat.dims[0].is_range);
  ASSERT_NE(sel.having, nullptr);
}

TEST(ParserTest, ExplicitCellListTile) {
  auto st = MustParse(
      "SELECT [x], [y], SUM(v) FROM img "
      "GROUP BY img[x][y], img[x-1][y], img[x][y-1]");
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->select->group_by.has_value());
  EXPECT_EQ(st->select->group_by->patterns.size(), 3u);
  EXPECT_FALSE(st->select->group_by->patterns[0].dims[0].is_range);
}

TEST(ParserTest, CellReferenceExpression) {
  auto st = MustParse(
      "SELECT [x], [y], ABS(img[x][y] - img[x-1][y]) FROM img");
  ASSERT_NE(st, nullptr);
  const Expr& e = *st->select->items[2].expr;
  EXPECT_EQ(e.kind, Expr::Kind::kUnary);
  const Expr& sub = *e.children[0];
  EXPECT_EQ(sub.kind, Expr::Kind::kBinary);
  EXPECT_EQ(sub.children[0]->kind, Expr::Kind::kCellRef);
  EXPECT_EQ(sub.children[0]->array_name, "img");
  EXPECT_EQ(sub.children[0]->children.size(), 2u);
}

TEST(ParserTest, ValueGroupByVsStructural) {
  auto st = MustParse("SELECT v, COUNT(*) FROM img GROUP BY v");
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->select->group_by.has_value());
  EXPECT_FALSE(st->select->group_by->structural);
  ASSERT_EQ(st->select->group_by->keys.size(), 1u);
}

TEST(ParserTest, JoinsDesugarToWhere) {
  auto st = MustParse(
      "SELECT a.x FROM t a JOIN s b ON a.x = b.x WHERE a.y > 1");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->select->from.size(), 2u);
  ASSERT_NE(st->select->where, nullptr);
  // ON and WHERE combined with AND.
  EXPECT_EQ(st->select->where->bin_op, gdk::BinOp::kAnd);
}

TEST(ParserTest, OperatorPrecedence) {
  auto st = MustParse("SELECT 1 + 2 * 3");
  const Expr& e = *st->select->items[0].expr;
  ASSERT_EQ(e.kind, Expr::Kind::kBinary);
  EXPECT_EQ(e.bin_op, gdk::BinOp::kAdd);
  EXPECT_EQ(e.children[1]->bin_op, gdk::BinOp::kMul);

  auto cmp = MustParse("SELECT a + 1 > b AND c = 2 OR d < 3");
  const Expr& o = *cmp->select->items[0].expr;
  EXPECT_EQ(o.bin_op, gdk::BinOp::kOr);
  EXPECT_EQ(o.children[0]->bin_op, gdk::BinOp::kAnd);
}

TEST(ParserTest, BetweenInIsNull) {
  auto st = MustParse(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) "
      "AND c IS NOT NULL AND d NOT IN (4)");
  ASSERT_NE(st, nullptr);
}

TEST(ParserTest, OrderLimitDistinctiveClauses) {
  auto st = MustParse("SELECT x FROM t ORDER BY x DESC, y LIMIT 10");
  EXPECT_EQ(st->select->order_by.size(), 2u);
  EXPECT_TRUE(st->select->order_by[0].desc);
  EXPECT_FALSE(st->select->order_by[1].desc);
  EXPECT_EQ(st->select->limit, 10);
}

TEST(ParserTest, InsertValuesMultiRow) {
  auto st = MustParse("INSERT INTO t (x, y) VALUES (1, 2), (3, 4)");
  EXPECT_EQ(st->insert_columns.size(), 2u);
  EXPECT_EQ(st->insert_values.size(), 2u);
}

TEST(ParserTest, CreateAsSelect) {
  auto st = MustParse("CREATE ARRAY a2 AS SELECT [x], v FROM a1");
  EXPECT_EQ(st->kind, Statement::Kind::kCreateArray);
  ASSERT_NE(st->select, nullptr);
}

TEST(ParserTest, SubqueryInFromNeedsAlias) {
  EXPECT_FALSE(ParseOne("SELECT x FROM (SELECT x FROM t)").ok());
  EXPECT_TRUE(ParseOne("SELECT x FROM (SELECT x FROM t) AS s").ok());
}

TEST(ParserTest, MultipleStatements) {
  auto r = Parse("SELECT 1; SELECT 2;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto r = ParseOne("SELECT FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserTest, ErrorOnTrailingGarbage) {
  EXPECT_FALSE(ParseOne("SELECT 1 SELECT 2").ok());
}

TEST(ParserTest, NegativeLiteralsFoldInRangesAndDefaults) {
  auto st = MustParse(
      "CREATE ARRAY a (x INT DIMENSION[-3:2:3], v DOUBLE DEFAULT -1.5)");
  EXPECT_EQ(st->columns[0].range, array::DimRange(-3, 2, 3));
  EXPECT_DOUBLE_EQ(st->columns[1].default_value.d, -1.5);
}

TEST(ParserTest, OutOfRangeIntegerLiteralIsAParseError) {
  // 2^63 without a unary minus does not fit int64; the lexer used to
  // saturate it silently to INT64_MAX.
  auto r = ParseOne("SELECT 9223372036854775808");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("out of range"), std::string::npos)
      << r.status().ToString();
  // Anything past 2^63 is rejected at lex time, minus or not.
  EXPECT_FALSE(ParseOne("SELECT 9223372036854775809").ok());
  EXPECT_FALSE(ParseOne("SELECT -9223372036854775809").ok());
  EXPECT_FALSE(ParseOne("SELECT 99999999999999999999").ok());
}

TEST(ParserTest, Int64MinLiteralRoundTrips) {
  // -9223372036854775808 is exactly INT64_MIN: the magnitude 2^63 is only
  // legal directly under a unary minus, and must fold to the exact value
  // (not saturate to -INT64_MAX).
  auto st = MustParse("SELECT -9223372036854775808");
  ASSERT_NE(st, nullptr);
  const Expr* e = st->select->items[0].expr.get();
  ASSERT_EQ(e->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(e->literal.type, gdk::PhysType::kLng);
  EXPECT_EQ(e->literal.i, std::numeric_limits<int64_t>::min());
  // Also through the VALUES literal path.
  auto ins = MustParse("INSERT INTO t VALUES (-9223372036854775808)");
  ASSERT_NE(ins, nullptr);
  ASSERT_EQ(ins->kind, Statement::Kind::kInsert);
}

TEST(ParserTest, DoubleNegatedInt64MinIsOutOfRange) {
  // -(-9223372036854775808) == 2^63 does not fit: the fold must reject it
  // instead of wrapping silently.
  auto r = ParseOne("SELECT -(-9223372036854775808)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("out of range"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, RoundTripToString) {
  const char* queries[] = {
      "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2] "
      "HAVING x MOD 2 = 1",
      "SELECT x, y, v FROM mtable WHERE x = y ORDER BY x DESC LIMIT 3",
      "UPDATE m SET v = 0 WHERE x > y",
  };
  for (const char* q : queries) {
    auto st = MustParse(q);
    ASSERT_NE(st, nullptr);
    // The rendering must itself re-parse.
    auto again = ParseOne(st->ToString());
    EXPECT_TRUE(again.ok()) << st->ToString() << " -> "
                            << again.status().ToString();
  }
}

TEST(ParserTest, ValuesRowsRenderUnchanged) {
  // Literals, negated literals, NULL, strings with '' escapes, doubles and
  // scalar expressions in one VALUES list; the rendering is pinned.
  auto st = MustParse(
      "INSERT INTO t VALUES (1, -2, NULL, 'a''b', 2.5, -0.0, 1 + 2, ABS(-4), "
      "CASE WHEN 1 < 2 THEN 'x' ELSE 'y' END), (2147483648, -2147483648, "
      "-NULL, '', 1e3, -1.5e-3, -(3), - -4, TRUE), (-9223372036854775808, "
      "9223372036854775807, FALSE, 'it''s', .5, 7 * -2, -x, f(1, -2), "
      "NOT TRUE)");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->ToString(),
            "INSERT INTO t VALUES (1, -2, null, 'a'b', 2.5, -0, (1 + 2), "
            "abs(-4), CASE WHEN (1 < 2) THEN 'x' ELSE 'y' END), (2147483648, "
            "-2147483648, -(null), '', 1000, -0.0015, -3, 4, true), "
            "(-9223372036854775808, 9223372036854775807, false, 'it's', 0.5, "
            "(7 * -2), -(x), f(1, -2), not(true))");
  ASSERT_EQ(st->insert_values.size(), 3u);
  // Integer literals are typed by magnitude, before a unary minus folds in.
  const auto& r0 = st->insert_values[0];
  const auto& r1 = st->insert_values[1];
  const auto& r2 = st->insert_values[2];
  EXPECT_EQ(r0[0]->literal.type, gdk::PhysType::kInt);
  EXPECT_EQ(r0[1]->literal.type, gdk::PhysType::kInt);
  EXPECT_EQ(r0[1]->literal.i, -2);
  EXPECT_TRUE(r0[2]->literal.is_null);
  EXPECT_EQ(r0[3]->literal.s, "a'b");
  EXPECT_TRUE(std::signbit(r0[5]->literal.d));
  EXPECT_EQ(r0[6]->kind, Expr::Kind::kBinary);
  EXPECT_EQ(r1[0]->literal.type, gdk::PhysType::kLng);
  EXPECT_EQ(r1[1]->literal.type, gdk::PhysType::kLng);
  EXPECT_EQ(r1[1]->literal.i, -2147483648LL);
  EXPECT_EQ(r1[2]->kind, Expr::Kind::kUnary);
  EXPECT_EQ(r1[6]->literal.i, -3);
  EXPECT_EQ(r1[7]->literal.i, 4);
  EXPECT_EQ(r2[0]->literal.type, gdk::PhysType::kLng);
  EXPECT_EQ(r2[0]->literal.i, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r2[2]->literal.type, gdk::PhysType::kBit);
}

TEST(ParserTest, LoneLiteralBuildsWhatTheDescentBuilds) {
  // Followed by ',' a literal enters the descent at the unary level;
  // followed by AS it takes the whole descent. Both must build the same node.
  const char* literals[] = {
      "0", "5", "-5", "2147483647", "-2147483647", "2147483648",
      "-2147483648", "-2147483649", "9223372036854775807",
      "-9223372036854775807", "-9223372036854775808", "1.5", "-1.5", "0.0",
      "-0.0", "1e308", "-2.5e-3", ".5", "'s'", "''", "'it''s'", "NULL",
      "TRUE", "FALSE", "-NULL", "- 5", "- -5", "-'s'", "+5"};
  for (const char* lit : literals) {
    std::string shortcut = std::string("SELECT ") + lit + ", 0";
    std::string descent = std::string("SELECT ") + lit + " AS c";
    auto a = MustParse(shortcut);
    auto b = MustParse(descent);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    const Expr& ea = *a->select->items[0].expr;
    const Expr& eb = *b->select->items[0].expr;
    EXPECT_EQ(ea.kind, eb.kind) << lit;
    EXPECT_EQ(ea.ToString(), eb.ToString()) << lit;
    EXPECT_EQ(ea.children.size(), eb.children.size()) << lit;
    EXPECT_EQ(ea.literal.type, eb.literal.type) << lit;
    EXPECT_EQ(ea.literal.is_null, eb.literal.is_null) << lit;
    EXPECT_EQ(ea.literal.i, eb.literal.i) << lit;
    EXPECT_EQ(std::signbit(ea.literal.d), std::signbit(eb.literal.d)) << lit;
    EXPECT_EQ(ea.literal.d, eb.literal.d) << lit;
    EXPECT_EQ(ea.literal.s, eb.literal.s) << lit;
  }
  // 2^63 alone fails the same way on both.
  auto a = ParseOne("SELECT 9223372036854775808, 0");
  auto b = ParseOne("SELECT 9223372036854775808 AS c");
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().ToString(), b.status().ToString());
}

TEST(ParserTest, LexErrorAnywhereFailsTheText) {
  // A malformed token fails the text even after an earlier parse error or
  // a complete statement, as when the text was tokenized before parsing.
  auto late = Parse("SELECT FROM t; SELECT 'oops");
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("unterminated string literal"),
            std::string::npos)
      << late.status().ToString();
  auto trailing = Parse("SELECT 1 @");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("unexpected character '@'"),
            std::string::npos)
      << trailing.status().ToString();
  auto second = Parse("SELECT 1; SELECT 99999999999999999999");
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace sciql
