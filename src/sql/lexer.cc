#include "src/sql/lexer.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "src/common/string_util.h"

namespace sciql {
namespace sql {

namespace {

struct KeywordEntry {
  const char* text;
  Kw kw;
};

constexpr KeywordEntry kKeywords[] = {
#define SCIQL_KW_ENTRY(id, text) {text, Kw::id},
    SCIQL_SQL_KEYWORDS(SCIQL_KW_ENTRY)
#undef SCIQL_KW_ENTRY
};
constexpr size_t kNumKeywords = sizeof(kKeywords) / sizeof(kKeywords[0]);

/// LookupKeyword uppercases a word into a buffer of this many characters
/// and a terminator; a longer word is never a keyword.
constexpr size_t kMaxKeywordLen = 15;

constexpr bool KeywordsFitLookupBuffer() {
  for (const KeywordEntry& e : kKeywords) {
    if (std::char_traits<char>::length(e.text) > kMaxKeywordLen) return false;
  }
  return true;
}
static_assert(KeywordsFitLookupBuffer(),
              "a keyword is longer than kMaxKeywordLen");

/// The keywords sorted by spelling.
struct KeywordIndex {
  KeywordEntry sorted[kNumKeywords];
};

const KeywordIndex& Keywords() {
  static const KeywordIndex index = [] {
    KeywordIndex k;
    std::copy(std::begin(kKeywords), std::end(kKeywords), k.sorted);
    std::sort(std::begin(k.sorted), std::end(k.sorted),
              [](const KeywordEntry& a, const KeywordEntry& b) {
                return std::strcmp(a.text, b.text) < 0;
              });
    return k;
  }();
  return index;
}

/// The keyword spelled by sql[start, start+len) in any case, or kNone.
Kw LookupKeyword(const std::string& sql, size_t start, size_t len) {
  char upper[kMaxKeywordLen + 1];
  if (len >= sizeof(upper)) return Kw::kNone;
  for (size_t j = 0; j < len; ++j) {
    upper[j] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[start + j])));
  }
  upper[len] = '\0';
  const KeywordIndex& k = Keywords();
  const KeywordEntry* end = k.sorted + kNumKeywords;
  const KeywordEntry* it = std::lower_bound(
      k.sorted, end, upper, [](const KeywordEntry& e, const char* w) {
        return std::strcmp(e.text, w) < 0;
      });
  return it != end && std::strcmp(it->text, upper) == 0 ? it->kw : Kw::kNone;
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

}  // namespace

const char* KwText(Kw kw) {
  switch (kw) {
#define SCIQL_KW_CASE(id, text) \
  case Kw::id:                  \
    return text;
    SCIQL_SQL_KEYWORDS(SCIQL_KW_CASE)
#undef SCIQL_KW_CASE
    case Kw::kNone:
      break;
  }
  return "";
}

const char* OpText(Op op) {
  switch (op) {
    case Op::kPlus: return "+";
    case Op::kMinus: return "-";
    case Op::kStar: return "*";
    case Op::kSlash: return "/";
    case Op::kPercent: return "%";
    case Op::kEq: return "=";
    case Op::kNe: return "!=";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kLParen: return "(";
    case Op::kRParen: return ")";
    case Op::kLBracket: return "[";
    case Op::kRBracket: return "]";
    case Op::kComma: return ",";
    case Op::kSemicolon: return ";";
    case Op::kDot: return ".";
    case Op::kColon: return ":";
    case Op::kNone: break;
  }
  return "";
}

std::string Token::Describe() const {
  switch (type) {
    case TokenType::kEof:
      return "end of input";
    case TokenType::kIdentifier:
      return "identifier '" + text + "'";
    case TokenType::kKeyword:
      return std::string("keyword ") + KwText(kw);
    case TokenType::kIntLiteral:
    case TokenType::kFloatLiteral:
      return "number '" + text + "'";
    case TokenType::kStrLiteral:
      return "string literal";
    case TokenType::kOperator:
      return std::string("'") + OpText(op) + "'";
  }
  return "?";
}

Status Lexer::Next(Token* t) {
  const std::string& sql = sql_;
  const size_t n = sql.size();
  size_t i = i_;
  // After an error the lexer stands at the end of input.
  auto fail = [&](Status st) {
    i_ = n;
    return st;
  };
  // Whitespace and comments (-- to end of line).
  while (i < n) {
    char c = sql[i];
    if (c == '\n') {
      ++line_;
      ++i;
      line_start_ = i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
    } else {
      break;
    }
  }

  t->kw = Kw::kNone;
  t->op = Op::kNone;
  t->int_min_magnitude = false;
  t->text.clear();
  t->int_val = 0;
  t->float_val = 0.0;
  t->line = line_;
  t->col = i - line_start_ + 1;
  t->offset = i;
  if (i >= n) {
    t->type = TokenType::kEof;
    i_ = i;
    return Status::OK();
  }

  const char c = sql[i];
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    size_t start = i;
    while (i < n &&
           (std::isalnum(static_cast<unsigned char>(sql[i])) || sql[i] == '_')) {
      ++i;
    }
    t->kw = LookupKeyword(sql, start, i - start);
    if (t->kw != Kw::kNone) {
      t->type = TokenType::kKeyword;
    } else {
      t->type = TokenType::kIdentifier;
      t->text.assign(sql, start, i - start);
    }
    i_ = i;
    return Status::OK();
  }

  if (c == '"') {
    // Quoted identifier.
    size_t start = ++i;
    while (i < n && sql[i] != '"') ++i;
    if (i >= n) {
      return fail(Status::ParseError(
          StrFormat("unterminated quoted identifier at line %zu", line_)));
    }
    t->type = TokenType::kIdentifier;
    t->text.assign(sql, start, i - start);
    i_ = i + 1;
    return Status::OK();
  }

  if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql[i + 1]))) {
    // The digits are lexed unsigned (a leading '-' is the unary-minus
    // operator), and the magnitude is range-checked explicitly. The
    // magnitude 2^63 is one past INT64_MAX but exactly -INT64_MIN: it is
    // tagged rather than rejected so the parser can accept it under unary
    // minus (-9223372036854775808 round-trips to INT64_MIN) and reject it
    // everywhere else.
    constexpr uint64_t kMinMagnitude = 9223372036854775808ULL;
    size_t start = i;
    bool is_float = false;
    bool too_big = false;
    uint64_t mag = 0;
    while (i < n && IsDigit(sql[i])) {
      // Checked before the multiply, so mag never wraps; once past 2^63
      // the literal is out of range whatever digits follow.
      uint64_t d = static_cast<uint64_t>(sql[i] - '0');
      if (too_big || mag > (kMinMagnitude - d) / 10) {
        too_big = true;
      } else {
        mag = mag * 10 + d;
      }
      ++i;
    }
    if (i < n && sql[i] == '.') {
      is_float = true;
      ++i;
      while (i < n && IsDigit(sql[i])) ++i;
    }
    if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
      size_t save = i;
      ++i;
      if (i < n && (sql[i] == '+' || sql[i] == '-')) ++i;
      if (i < n && IsDigit(sql[i])) {
        is_float = true;
        while (i < n && IsDigit(sql[i])) ++i;
      } else {
        i = save;  // not an exponent; leave 'e' for the next token
      }
    }
    t->text.assign(sql, start, i - start);
    if (is_float) {
      t->type = TokenType::kFloatLiteral;
      t->float_val = std::strtod(t->text.c_str(), nullptr);
    } else {
      t->type = TokenType::kIntLiteral;
      if (too_big) {
        return fail(Status::ParseError(StrFormat(
            "integer literal '%s' is out of range at line %zu column %zu",
            t->text.c_str(), line_, t->col)));
      }
      if (mag == kMinMagnitude) {
        t->int_min_magnitude = true;
        t->int_val = std::numeric_limits<int64_t>::min();
      } else {
        t->int_val = static_cast<int64_t>(mag);
      }
    }
    i_ = i;
    return Status::OK();
  }

  if (c == '\'') {
    ++i;
    while (i < n) {
      if (sql[i] == '\'') {
        if (i + 1 < n && sql[i + 1] == '\'') {
          t->text.push_back('\'');  // '' escape
          i += 2;
          continue;
        }
        t->type = TokenType::kStrLiteral;
        i_ = i + 1;
        return Status::OK();
      }
      t->text.push_back(sql[i]);
      ++i;
    }
    return fail(Status::ParseError(
        StrFormat("unterminated string literal at line %zu", line_)));
  }

  const char next = i + 1 < n ? sql[i + 1] : '\0';
  Op op = Op::kNone;
  size_t len = 1;
  switch (c) {
    case '+': op = Op::kPlus; break;
    case '-': op = Op::kMinus; break;
    case '*': op = Op::kStar; break;
    case '/': op = Op::kSlash; break;
    case '%': op = Op::kPercent; break;
    case '=': op = Op::kEq; break;
    case '(': op = Op::kLParen; break;
    case ')': op = Op::kRParen; break;
    case '[': op = Op::kLBracket; break;
    case ']': op = Op::kRBracket; break;
    case ',': op = Op::kComma; break;
    case ';': op = Op::kSemicolon; break;
    case '.': op = Op::kDot; break;
    case ':': op = Op::kColon; break;
    case '<':
      op = next == '=' ? Op::kLe : next == '>' ? Op::kNe : Op::kLt;
      break;
    case '>':
      op = next == '=' ? Op::kGe : Op::kGt;
      break;
    case '!':
      if (next == '=') op = Op::kNe;
      break;
    default:
      break;
  }
  if (op == Op::kNone) {
    return fail(Status::ParseError(StrFormat(
        "unexpected character '%c' at line %zu column %zu", c, line_, t->col)));
  }
  if (op == Op::kLe || op == Op::kGe || op == Op::kNe) len = 2;
  t->type = TokenType::kOperator;
  t->op = op;
  i_ = i + len;
  return Status::OK();
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  Lexer lexer(sql);
  do {
    out.emplace_back();
    SCIQL_RETURN_NOT_OK(lexer.Next(&out.back()));
  } while (out.back().type != TokenType::kEof);
  return out;
}

}  // namespace sql
}  // namespace sciql
