// SQL/SciQL lexer. Keywords are case-insensitive; SciQL adds the bracket
// tokens used for dimension projections, cell references and tile patterns.
//
// The lexer pulls one token at a time (Lexer::Next), so the parser never
// holds the whole token stream. Keywords and operators are small codes
// (Kw, Op) compared as integers; only identifiers, string literals and
// number spellings carry text.

#ifndef SCIQL_SQL_LEXER_H_
#define SCIQL_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace sciql {
namespace sql {

enum class TokenType : uint8_t {
  kEof,
  kIdentifier,   // foo, "quoted"
  kKeyword,      // Token::kw
  kIntLiteral,   // 123
  kFloatLiteral, // 1.5, 2e3
  kStrLiteral,   // 'abc' (text holds the unescaped value)
  kOperator,     // Token::op
};

// Every reserved word, as (enumerator, upper-case spelling).
#define SCIQL_SQL_KEYWORDS(X)                                              \
  X(kSelect, "SELECT") X(kFrom, "FROM") X(kWhere, "WHERE")                 \
  X(kGroup, "GROUP") X(kBy, "BY") X(kHaving, "HAVING") X(kOrder, "ORDER")  \
  X(kAsc, "ASC") X(kDesc, "DESC") X(kLimit, "LIMIT") X(kAs, "AS")          \
  X(kCreate, "CREATE") X(kTable, "TABLE") X(kArray, "ARRAY")               \
  X(kDimension, "DIMENSION") X(kDefault, "DEFAULT") X(kInt, "INT")         \
  X(kInteger, "INTEGER") X(kBigint, "BIGINT") X(kSmallint, "SMALLINT")     \
  X(kLong, "LONG") X(kDouble, "DOUBLE") X(kFloat, "FLOAT") X(kReal, "REAL") \
  X(kBoolean, "BOOLEAN") X(kBool, "BOOL") X(kVarchar, "VARCHAR")           \
  X(kString, "STRING") X(kText, "TEXT") X(kChar, "CHAR")                   \
  X(kInsert, "INSERT") X(kInto, "INTO") X(kValues, "VALUES")               \
  X(kUpdate, "UPDATE") X(kSet, "SET") X(kDelete, "DELETE") X(kDrop, "DROP") \
  X(kAlter, "ALTER") X(kRange, "RANGE") X(kCase, "CASE") X(kWhen, "WHEN")  \
  X(kThen, "THEN") X(kElse, "ELSE") X(kEnd, "END") X(kNull, "NULL")        \
  X(kIs, "IS") X(kNot, "NOT") X(kIn, "IN") X(kBetween, "BETWEEN")          \
  X(kAnd, "AND") X(kOr, "OR") X(kMod, "MOD") X(kDistinct, "DISTINCT")      \
  X(kCount, "COUNT") X(kSum, "SUM") X(kAvg, "AVG") X(kMin, "MIN")          \
  X(kMax, "MAX") X(kAbs, "ABS") X(kJoin, "JOIN") X(kInner, "INNER")        \
  X(kOn, "ON") X(kTrue, "TRUE") X(kFalse, "FALSE") X(kExplain, "EXPLAIN")  \
  X(kAnalyze, "ANALYZE")

/// \brief A reserved word; kNone on every token that is not a keyword.
enum class Kw : uint8_t {
  kNone,
#define SCIQL_KW_ENUM(id, text) id,
  SCIQL_SQL_KEYWORDS(SCIQL_KW_ENUM)
#undef SCIQL_KW_ENUM
};

/// \brief An operator or punctuation mark; kNone on every token that is not
/// an operator. `<>` lexes as kNe, like `!=`.
enum class Op : uint8_t {
  kNone,
  kPlus,       // +
  kMinus,      // -
  kStar,       // *
  kSlash,      // /
  kPercent,    // %
  kEq,         // =
  kNe,         // != <>
  kLt,         // <
  kLe,         // <=
  kGt,         // >
  kGe,         // >=
  kLParen,     // (
  kRParen,     // )
  kLBracket,   // [
  kRBracket,   // ]
  kComma,      // ,
  kSemicolon,  // ;
  kDot,        // .
  kColon,      // :
};

/// \brief Upper-case spelling of a keyword ("" for kNone).
const char* KwText(Kw kw);
/// \brief Spelling of an operator; kNe spells "!=" ("" for kNone).
const char* OpText(Op op);

struct Token {
  TokenType type = TokenType::kEof;
  Kw kw = Kw::kNone;  ///< the keyword, when type == kKeyword
  Op op = Op::kNone;  ///< the operator, when type == kOperator
  // True for the literal 9223372036854775808 (magnitude 2^63): one past
  // INT64_MAX, but exactly -INT64_MIN. int_val then holds INT64_MIN and the
  // parser only accepts the token directly under unary minus.
  bool int_min_magnitude = false;
  /// Identifier as written, string literal's unescaped value, or number as
  /// spelled; empty for keywords, operators and end of input.
  std::string text;
  int64_t int_val = 0;
  double float_val = 0.0;
  size_t line = 1;
  size_t col = 1;
  size_t offset = 0;  ///< byte offset of the token's first character

  bool Is(Kw k) const { return kw == k; }
  bool Is(Op o) const { return op == o; }
  std::string Describe() const;
};

/// \brief Pull lexer over `sql`, which must outlive it.
class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) {}
  explicit Lexer(std::string&&) = delete;  // would outlive a temporary

  /// \brief Lex the next token into `*t` (overwriting all of it); at the end
  /// of input, and on every call after it, `*t` is kEof. Fails with
  /// ParseError on malformed input (unterminated strings or quoted
  /// identifiers, out-of-range integers, stray characters), after which the
  /// lexer stands at the end of input.
  Status Next(Token* t);

 private:
  const std::string& sql_;
  size_t i_ = 0;
  size_t line_ = 1;
  size_t line_start_ = 0;
};

/// \brief Tokenize all of `sql`, ending with a kEof token; fails with the
/// first lexing error.
Result<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace sql
}  // namespace sciql

#endif  // SCIQL_SQL_LEXER_H_
