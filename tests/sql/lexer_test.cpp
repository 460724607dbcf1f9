#include "src/sql/lexer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>

namespace sciql {
namespace sql {
namespace {

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto r = Tokenize("select Select SELECT");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);  // 3 + EOF
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*r)[i].Is(Kw::kSelect));
  }
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto r = Tokenize("MyTable");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*r)[0].text, "MyTable");
}

TEST(LexerTest, Numbers) {
  auto r = Tokenize("42 1.5 2e3 7.25e-1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*r)[0].int_val, 42);
  EXPECT_EQ((*r)[1].type, TokenType::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*r)[1].float_val, 1.5);
  EXPECT_DOUBLE_EQ((*r)[2].float_val, 2000.0);
  EXPECT_DOUBLE_EQ((*r)[3].float_val, 0.725);
}

TEST(LexerTest, StringsWithEscapes) {
  auto r = Tokenize("'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].type, TokenType::kStrLiteral);
  EXPECT_EQ((*r)[0].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, OperatorsIncludingBrackets) {
  auto r = Tokenize("[x:y] <= >= <> != =");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].Is(Op::kLBracket));
  EXPECT_TRUE((*r)[2].Is(Op::kColon));
  EXPECT_TRUE((*r)[4].Is(Op::kRBracket));
  EXPECT_TRUE((*r)[5].Is(Op::kLe));
  EXPECT_TRUE((*r)[6].Is(Op::kGe));
  EXPECT_TRUE((*r)[7].Is(Op::kNe));  // <> normalizes
  EXPECT_TRUE((*r)[8].Is(Op::kNe));
  EXPECT_TRUE((*r)[9].Is(Op::kEq));
}

TEST(LexerTest, CommentsSkipped) {
  auto r = Tokenize("1 -- comment\n2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].int_val, 1);
  EXPECT_EQ((*r)[1].int_val, 2);
}

TEST(LexerTest, LineAndColumnTracking) {
  auto r = Tokenize("a\n  b");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].line, 1u);
  EXPECT_EQ((*r)[1].line, 2u);
  EXPECT_EQ((*r)[1].col, 3u);
}

TEST(LexerTest, StrayCharacterFails) {
  EXPECT_FALSE(Tokenize("select @").ok());
}

TEST(LexerTest, QuotedIdentifier) {
  auto r = Tokenize("\"select\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*r)[0].text, "select");
}

TEST(LexerTest, EveryOperator) {
  auto r = Tokenize("+ - * / % = != <> < <= > >= ( ) [ ] , ; . :");
  ASSERT_TRUE(r.ok());
  const Op expected[] = {
      Op::kPlus,     Op::kMinus,  Op::kStar,      Op::kSlash,  Op::kPercent,
      Op::kEq,       Op::kNe,     Op::kNe,        Op::kLt,     Op::kLe,
      Op::kGt,       Op::kGe,     Op::kLParen,    Op::kRParen, Op::kLBracket,
      Op::kRBracket, Op::kComma,  Op::kSemicolon, Op::kDot,    Op::kColon};
  const char* spelled[] = {"+", "-", "*", "/", "%", "=", "!=", "!=",
                           "<", "<=", ">", ">=", "(", ")", "[", "]",
                           ",", ";", ".", ":"};
  ASSERT_EQ(r->size(), std::size(expected) + 1);
  for (size_t i = 0; i < std::size(expected); ++i) {
    const Token& t = (*r)[i];
    EXPECT_EQ(t.type, TokenType::kOperator) << i;
    EXPECT_TRUE(t.Is(expected[i])) << i;
    EXPECT_EQ(t.kw, Kw::kNone) << i;
    EXPECT_TRUE(t.text.empty()) << i;
    EXPECT_STREQ(OpText(t.op), spelled[i]);
    EXPECT_EQ(t.Describe(), std::string("'") + spelled[i] + "'");
  }
  EXPECT_EQ(r->back().type, TokenType::kEof);
  // Operators need no surrounding spaces; a lone '!' is not one.
  auto packed = Tokenize("a<>b<=c");
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(packed->size(), 6u);
  EXPECT_TRUE((*packed)[1].Is(Op::kNe));
  EXPECT_TRUE((*packed)[3].Is(Op::kLe));
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

TEST(LexerTest, TwoCharacterOperatorAtEndOfInput) {
  for (const char* text : {"x <=", "x >=", "x <>", "x !="}) {
    auto r = Tokenize(text);
    ASSERT_TRUE(r.ok()) << text;
    ASSERT_EQ(r->size(), 3u) << text;
    EXPECT_EQ((*r)[1].type, TokenType::kOperator) << text;
    EXPECT_EQ((*r)[1].offset, 2u) << text;
    EXPECT_EQ((*r)[2].type, TokenType::kEof) << text;
    EXPECT_EQ((*r)[2].offset, 4u) << text;
  }
  auto lt = Tokenize("x <");
  ASSERT_TRUE(lt.ok());
  EXPECT_TRUE((*lt)[1].Is(Op::kLt));
  EXPECT_FALSE(Tokenize("x !").ok());
}

TEST(LexerTest, CommentAtEndOfInput) {
  auto r = Tokenize("1 -- no newline after this");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].int_val, 1);
  EXPECT_EQ((*r)[1].type, TokenType::kEof);
  auto only = Tokenize("--");
  ASSERT_TRUE(only.ok());
  ASSERT_EQ(only->size(), 1u);
  EXPECT_EQ((*only)[0].type, TokenType::kEof);
}

TEST(LexerTest, KeywordsAreCodesWithoutText) {
  auto r = Tokenize("values Null tRUE dimension");
  ASSERT_TRUE(r.ok());
  const Kw expected[] = {Kw::kValues, Kw::kNull, Kw::kTrue, Kw::kDimension};
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ((*r)[i].type, TokenType::kKeyword);
    EXPECT_TRUE((*r)[i].Is(expected[i]));
    EXPECT_EQ((*r)[i].op, Op::kNone);
    EXPECT_TRUE((*r)[i].text.empty());
  }
  EXPECT_EQ((*r)[0].Describe(), "keyword VALUES");
  // Longer than any keyword, or a keyword's prefix: identifiers.
  auto ids = Tokenize("dimensions selec");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ((*ids)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*ids)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*ids)[1].text, "selec");
}

TEST(LexerTest, TwoToTheSixtyThreeAloneAndUnderMinus) {
  // The digits lex unsigned; 2^63 is tagged, since only unary minus makes
  // it fit (the parser folds -9223372036854775808 to INT64_MIN).
  auto alone = Tokenize("9223372036854775808");
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ((*alone)[0].type, TokenType::kIntLiteral);
  EXPECT_TRUE((*alone)[0].int_min_magnitude);
  EXPECT_EQ((*alone)[0].int_val, std::numeric_limits<int64_t>::min());
  EXPECT_EQ((*alone)[0].text, "9223372036854775808");

  auto neg = Tokenize("-9223372036854775808");
  ASSERT_TRUE(neg.ok());
  ASSERT_EQ(neg->size(), 3u);
  EXPECT_TRUE((*neg)[0].Is(Op::kMinus));
  EXPECT_TRUE((*neg)[1].int_min_magnitude);

  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_FALSE((*max)[0].int_min_magnitude);
  EXPECT_EQ((*max)[0].int_val, std::numeric_limits<int64_t>::max());

  for (const char* text : {"9223372036854775809", "18446744073709551616",
                           "99999999999999999999999"}) {
    auto r = Tokenize(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
  }
  // A float spelling never range-checks its integer part.
  auto f = Tokenize("99999999999999999999.5");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)[0].type, TokenType::kFloatLiteral);
}

TEST(LexerTest, QuoteEscapes) {
  struct Case {
    const char* text;
    const char* value;
  };
  for (const Case& c : {Case{"''", ""}, Case{"''''", "'"},
                        Case{"'a''''b'", "a''b"}, Case{"'''x'''", "'x'"}}) {
    auto r = Tokenize(c.text);
    ASSERT_TRUE(r.ok()) << c.text;
    ASSERT_EQ(r->size(), 2u) << c.text;
    EXPECT_EQ((*r)[0].type, TokenType::kStrLiteral);
    EXPECT_EQ((*r)[0].text, c.value) << c.text;
  }
  // In ''' the third quote opens an escape that never closes.
  EXPECT_FALSE(Tokenize("'''").ok());
}

TEST(LexerTest, PullsOneTokenAtATime) {
  std::string sql = "a 'b' @";
  Lexer lexer(sql);
  Token t;
  ASSERT_TRUE(lexer.Next(&t).ok());
  EXPECT_EQ(t.text, "a");
  ASSERT_TRUE(lexer.Next(&t).ok());
  EXPECT_EQ(t.type, TokenType::kStrLiteral);
  EXPECT_EQ(t.text, "b");
  // The stray character fails once; the lexer then stands at the end.
  EXPECT_FALSE(lexer.Next(&t).ok());
  ASSERT_TRUE(lexer.Next(&t).ok());
  EXPECT_EQ(t.type, TokenType::kEof);
  ASSERT_TRUE(lexer.Next(&t).ok());
  EXPECT_EQ(t.type, TokenType::kEof);
}

}  // namespace
}  // namespace sql
}  // namespace sciql
