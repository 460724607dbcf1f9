#include "src/sql/parser.h"

#include "src/common/string_util.h"
#include "src/sql/lexer.h"

namespace sciql {
namespace sql {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) { Lex(&ring_[0]); }

  Result<std::vector<StatementPtr>> ParseStatements(const std::string& text) {
    std::vector<StatementPtr> out;
    while (!AtEof()) {
      if (AcceptOp(Op::kSemicolon)) continue;
      size_t begin = Cur().offset;
      SCIQL_ASSIGN_OR_RETURN(StatementPtr s, ParseStatement());
      // Cur() is now the terminating ';' (or eof), so [begin, Cur().offset)
      // spans exactly this statement's text.
      s->source = Trim(text.substr(begin, Cur().offset - begin));
      out.push_back(std::move(s));
      if (!AtEof()) {
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kSemicolon));
      }
    }
    return out;
  }

  /// \brief The first lexing error in the whole text, or OK. Lexes whatever
  /// the parse left unread.
  Status LexError() {
    Token rest;
    do {
      Lex(&rest);
    } while (rest.type != TokenType::kEof);
    return lex_status_;
  }

 private:
  /// Cur() plus up to two tokens of lookahead.
  static constexpr size_t kRing = 3;

  /// Lex the next token into `*t`. A lexing error is kept for LexError()
  /// and reads as the end of input (the lexer stops there).
  void Lex(Token* t) {
    Status st = lexer_.Next(t);
    if (!st.ok()) {
      if (lex_status_.ok()) lex_status_ = std::move(st);
      t->type = TokenType::kEof;
    }
  }

  bool AtEof() const { return Cur().type == TokenType::kEof; }

  const Token& Cur() const { return ring_[head_]; }
  /// The token `ahead` (1 or 2) places after Cur(); kEof past the end.
  const Token& Peek(size_t ahead = 1) {
    while (ahead_ < ahead) {
      ++ahead_;
      Lex(&ring_[(head_ + ahead_) % kRing]);
    }
    return ring_[(head_ + ahead) % kRing];
  }
  void Advance() {
    if (AtEof()) return;
    head_ = (head_ + 1) % kRing;
    if (ahead_ > 0) {
      --ahead_;
    } else {
      Lex(&ring_[head_]);
    }
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(StrFormat("%s at line %zu column %zu (near %s)",
                                        msg.c_str(), Cur().line, Cur().col,
                                        Cur().Describe().c_str()));
  }

  bool AcceptOp(Op op) {
    if (Cur().Is(op)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKw(Kw kw) {
    if (Cur().Is(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectOp(Op op) {
    if (!AcceptOp(op)) return Err(StrFormat("expected '%s'", OpText(op)));
    return Status::OK();
  }
  Status ExpectKw(Kw kw) {
    if (!AcceptKw(kw)) return Err(StrFormat("expected %s", KwText(kw)));
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Cur().type != TokenType::kIdentifier) {
      return Err("expected an identifier");
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  // -------------------------------------------------------------------------
  // Statements
  // -------------------------------------------------------------------------

  Result<StatementPtr> ParseStatement() {
    if (Cur().Is(Kw::kExplain)) {
      Advance();
      auto st = std::make_unique<Statement>();
      st->kind = Statement::Kind::kExplain;
      st->analyze = AcceptKw(Kw::kAnalyze);
      SCIQL_ASSIGN_OR_RETURN(st->inner, ParseStatement());
      return st;
    }
    if (Cur().Is(Kw::kSelect)) {
      auto st = std::make_unique<Statement>();
      st->kind = Statement::Kind::kSelect;
      SCIQL_ASSIGN_OR_RETURN(st->select, ParseSelect());
      return st;
    }
    if (Cur().Is(Kw::kCreate)) return ParseCreate();
    if (Cur().Is(Kw::kDrop)) return ParseDrop();
    if (Cur().Is(Kw::kAlter)) return ParseAlter();
    if (Cur().Is(Kw::kInsert)) return ParseInsert();
    if (Cur().Is(Kw::kUpdate)) return ParseUpdate();
    if (Cur().Is(Kw::kDelete)) return ParseDelete();
    return Err("expected a statement");
  }

  Result<StatementPtr> ParseCreate() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kCreate));
    bool is_array;
    if (AcceptKw(Kw::kArray)) {
      is_array = true;
    } else if (AcceptKw(Kw::kTable)) {
      is_array = false;
    } else {
      return Err("expected TABLE or ARRAY after CREATE");
    }
    auto st = std::make_unique<Statement>();
    st->kind = is_array ? Statement::Kind::kCreateArray
                        : Statement::Kind::kCreateTable;
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    if (AcceptKw(Kw::kAs)) {
      if (!Cur().Is(Kw::kSelect)) {
        return Err("expected SELECT after AS");
      }
      SCIQL_ASSIGN_OR_RETURN(st->select, ParseSelect());
      return st;
    }
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLParen));
    while (true) {
      SCIQL_ASSIGN_OR_RETURN(ColumnDef col, ParseColumnDef());
      st->columns.push_back(std::move(col));
      if (AcceptOp(Op::kComma)) continue;
      break;
    }
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
    return st;
  }

  Result<ColumnDef> ParseColumnDef() {
    ColumnDef col;
    SCIQL_ASSIGN_OR_RETURN(col.name, ExpectIdent());
    SCIQL_ASSIGN_OR_RETURN(col.type, ParseType());
    while (true) {
      if (AcceptKw(Kw::kDimension)) {
        col.is_dimension = true;
        if (Cur().Is(Op::kLBracket)) {
          SCIQL_ASSIGN_OR_RETURN(col.range, ParseRangeLiteral());
          col.has_range = true;
        }
        continue;
      }
      if (AcceptKw(Kw::kDefault)) {
        SCIQL_ASSIGN_OR_RETURN(col.default_value, ParseLiteralValue());
        col.has_default = true;
        continue;
      }
      break;
    }
    return col;
  }

  Result<StatementPtr> ParseDrop() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kDrop));
    auto st = std::make_unique<Statement>();
    st->kind = Statement::Kind::kDrop;
    if (AcceptKw(Kw::kArray)) {
      st->drop_is_array = true;
    } else if (!AcceptKw(Kw::kTable)) {
      return Err("expected TABLE or ARRAY after DROP");
    }
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    return st;
  }

  Result<StatementPtr> ParseAlter() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kAlter));
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kArray));
    auto st = std::make_unique<Statement>();
    st->kind = Statement::Kind::kAlterArray;
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kAlter));
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kDimension));
    SCIQL_ASSIGN_OR_RETURN(st->dim_name, ExpectIdent());
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kSet));
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kRange));
    SCIQL_ASSIGN_OR_RETURN(st->new_range, ParseRangeLiteral());
    return st;
  }

  Result<StatementPtr> ParseInsert() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kInsert));
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kInto));
    auto st = std::make_unique<Statement>();
    st->kind = Statement::Kind::kInsert;
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    // Optional column list. Disambiguate from INSERT INTO t (SELECT ...).
    if (Cur().Is(Op::kLParen) && !Peek().Is(Kw::kSelect)) {
      Advance();
      while (true) {
        SCIQL_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        st->insert_columns.push_back(std::move(col));
        if (AcceptOp(Op::kComma)) continue;
        break;
      }
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
    }
    if (AcceptKw(Kw::kValues)) {
      while (true) {
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLParen));
        std::vector<ExprPtr> row;
        if (!st->insert_values.empty()) {
          row.reserve(st->insert_values[0].size());
        }
        while (true) {
          SCIQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          row.push_back(std::move(e));
          if (AcceptOp(Op::kComma)) continue;
          break;
        }
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
        st->insert_values.push_back(std::move(row));
        if (AcceptOp(Op::kComma)) continue;
        break;
      }
      return st;
    }
    bool paren = AcceptOp(Op::kLParen);
    if (!Cur().Is(Kw::kSelect)) {
      return Err("expected VALUES or SELECT in INSERT");
    }
    SCIQL_ASSIGN_OR_RETURN(st->select, ParseSelect());
    if (paren) SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
    return st;
  }

  Result<StatementPtr> ParseUpdate() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kUpdate));
    auto st = std::make_unique<Statement>();
    st->kind = Statement::Kind::kUpdate;
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kSet));
    while (true) {
      SCIQL_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kEq));
      SCIQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      st->set_clauses.emplace_back(std::move(col), std::move(e));
      if (AcceptOp(Op::kComma)) continue;
      break;
    }
    if (AcceptKw(Kw::kWhere)) {
      SCIQL_ASSIGN_OR_RETURN(st->where, ParseExpr());
    }
    return st;
  }

  Result<StatementPtr> ParseDelete() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kDelete));
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kFrom));
    auto st = std::make_unique<Statement>();
    st->kind = Statement::Kind::kDelete;
    SCIQL_ASSIGN_OR_RETURN(st->object_name, ExpectIdent());
    if (AcceptKw(Kw::kWhere)) {
      SCIQL_ASSIGN_OR_RETURN(st->where, ParseExpr());
    }
    return st;
  }

  // -------------------------------------------------------------------------
  // SELECT
  // -------------------------------------------------------------------------

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kSelect));
    auto sel = std::make_unique<SelectStmt>();
    if (AcceptKw(Kw::kDistinct)) sel->distinct = true;
    while (true) {
      SelectItem item;
      if (Cur().Is(Op::kStar)) {
        Advance();
        item.is_star = true;
      } else if (Cur().Is(Op::kLBracket)) {
        Advance();
        SCIQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRBracket));
        item.is_dim = true;
      } else {
        SCIQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      }
      if (AcceptKw(Kw::kAs)) {
        SCIQL_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      } else if (Cur().type == TokenType::kIdentifier) {
        item.alias = Cur().text;
        Advance();
      }
      sel->items.push_back(std::move(item));
      if (AcceptOp(Op::kComma)) continue;
      break;
    }

    if (AcceptKw(Kw::kFrom)) {
      SCIQL_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
      sel->from.push_back(std::move(first));
      while (true) {
        if (AcceptOp(Op::kComma)) {
          SCIQL_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
          sel->from.push_back(std::move(ref));
          continue;
        }
        if (AcceptKw(Kw::kInner) || Cur().Is(Kw::kJoin)) {
          SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kJoin));
          SCIQL_ASSIGN_OR_RETURN(TableRef ref2, ParseTableRef());
          sel->from.push_back(std::move(ref2));
          SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kOn));
          SCIQL_ASSIGN_OR_RETURN(ExprPtr on, ParseExpr());
          // JOIN ... ON desugars to a where conjunct.
          if (sel->where == nullptr) {
            sel->where = std::move(on);
          } else {
            sel->where = Expr::Bin(gdk::BinOp::kAnd, std::move(sel->where),
                                   std::move(on));
          }
          continue;
        }
        break;
      }
    }

    if (AcceptKw(Kw::kWhere)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr w, ParseExpr());
      if (sel->where == nullptr) {
        sel->where = std::move(w);
      } else {
        sel->where =
            Expr::Bin(gdk::BinOp::kAnd, std::move(sel->where), std::move(w));
      }
    }

    if (AcceptKw(Kw::kGroup)) {
      SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kBy));
      GroupBy gb;
      // Structural grouping: identifier immediately followed by '['.
      if (Cur().type == TokenType::kIdentifier && Peek().Is(Op::kLBracket)) {
        gb.structural = true;
        while (true) {
          TilePattern pat;
          SCIQL_ASSIGN_OR_RETURN(pat.array, ExpectIdent());
          while (Cur().Is(Op::kLBracket)) {
            Advance();
            TileDim td;
            SCIQL_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
            if (AcceptOp(Op::kColon)) {
              td.is_range = true;
              td.lo = std::move(first);
              SCIQL_ASSIGN_OR_RETURN(td.hi, ParseExpr());
            } else {
              td.single = std::move(first);
            }
            SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRBracket));
            pat.dims.push_back(std::move(td));
          }
          if (pat.dims.empty()) {
            return Err("tile pattern needs at least one [..] group");
          }
          gb.patterns.push_back(std::move(pat));
          if (AcceptOp(Op::kComma)) continue;
          break;
        }
      } else {
        while (true) {
          SCIQL_ASSIGN_OR_RETURN(ExprPtr k, ParseExpr());
          gb.keys.push_back(std::move(k));
          if (AcceptOp(Op::kComma)) continue;
          break;
        }
      }
      sel->group_by = std::move(gb);
    }

    if (AcceptKw(Kw::kHaving)) {
      SCIQL_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }

    if (AcceptKw(Kw::kOrder)) {
      SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kBy));
      while (true) {
        OrderItem oi;
        SCIQL_ASSIGN_OR_RETURN(oi.expr, ParseExpr());
        if (AcceptKw(Kw::kDesc)) {
          oi.desc = true;
        } else {
          AcceptKw(Kw::kAsc);
        }
        sel->order_by.push_back(std::move(oi));
        if (AcceptOp(Op::kComma)) continue;
        break;
      }
    }

    if (AcceptKw(Kw::kLimit)) {
      if (Cur().type != TokenType::kIntLiteral) {
        return Err("expected an integer after LIMIT");
      }
      // The lexer clamps overflowing literals to INT64_MAX (strtoll), and
      // the planner folds the limit into slice/firstn row counts; cap it
      // well below the clamp so an out-of-range literal is a parse error
      // with a real message instead of a silently saturated bound.
      constexpr int64_t kMaxLimit = int64_t{1} << 62;
      if (Cur().int_val < 0 || Cur().int_val > kMaxLimit) {
        return Err(StrFormat("LIMIT value %s is out of range (0 .. 2^62)",
                             Cur().text.c_str()));
      }
      sel->limit = Cur().int_val;
      Advance();
    }
    return sel;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (AcceptOp(Op::kLParen)) {
      SCIQL_ASSIGN_OR_RETURN(ref.subquery, ParseSelect());
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
    } else {
      SCIQL_ASSIGN_OR_RETURN(ref.name, ExpectIdent());
    }
    if (AcceptKw(Kw::kAs)) {
      SCIQL_ASSIGN_OR_RETURN(ref.alias, ExpectIdent());
    } else if (Cur().type == TokenType::kIdentifier) {
      ref.alias = Cur().text;
      Advance();
    }
    if (ref.subquery != nullptr && ref.alias.empty()) {
      return Err("a subquery in FROM requires an alias");
    }
    return ref;
  }

  // -------------------------------------------------------------------------
  // Expressions (precedence climbing)
  // -------------------------------------------------------------------------

  Result<ExprPtr> ParseExpr() {
    if (AtLoneLiteral()) return ParseUnaryExpr();
    return ParseOr();
  }

  /// Whether the next tokens are a literal that is a whole expression: a
  /// literal token, or a number under one unary minus, directly followed by
  /// ',' or ')'. No level between ParseOr and ParseUnaryExpr extends such a
  /// literal, so VALUES rows and argument lists enter the descent there.
  bool AtLoneLiteral() {
    const bool neg = Cur().Is(Op::kMinus);
    const Token& t = neg ? Peek(1) : Cur();
    const Token& follow = Peek(neg ? 2 : 1);
    if (!follow.Is(Op::kComma) && !follow.Is(Op::kRParen)) return false;
    if (t.type == TokenType::kIntLiteral || t.type == TokenType::kFloatLiteral) {
      return true;
    }
    return !neg && (t.type == TokenType::kStrLiteral || t.Is(Kw::kNull) ||
                    t.Is(Kw::kTrue) || t.Is(Kw::kFalse));
  }

  /// An integer literal's value: INT when it fits in 32 bits, else BIGINT.
  static gdk::ScalarValue IntLiteralValue(int64_t v) {
    if (v >= std::numeric_limits<int32_t>::min() &&
        v <= std::numeric_limits<int32_t>::max()) {
      return gdk::ScalarValue::Int(static_cast<int32_t>(v));
    }
    return gdk::ScalarValue::Lng(v);
  }

  Result<ExprPtr> ParseOr() {
    SCIQL_ASSIGN_OR_RETURN(ExprPtr l, ParseAnd());
    while (AcceptKw(Kw::kOr)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr r, ParseAnd());
      l = Expr::Bin(gdk::BinOp::kOr, std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseAnd() {
    SCIQL_ASSIGN_OR_RETURN(ExprPtr l, ParseNot());
    while (Cur().Is(Kw::kAnd)) {
      Advance();
      SCIQL_ASSIGN_OR_RETURN(ExprPtr r, ParseNot());
      l = Expr::Bin(gdk::BinOp::kAnd, std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKw(Kw::kNot)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kUnary;
      out->un_op = gdk::UnOp::kNot;
      out->children.push_back(std::move(e));
      return out;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    SCIQL_ASSIGN_OR_RETURN(ExprPtr l, ParseAdditive());
    if (Cur().Is(Op::kEq) || Cur().Is(Op::kNe) || Cur().Is(Op::kLt) ||
        Cur().Is(Op::kLe) || Cur().Is(Op::kGt) || Cur().Is(Op::kGe)) {
      gdk::BinOp op;
      if (Cur().Is(Op::kEq)) op = gdk::BinOp::kEq;
      else if (Cur().Is(Op::kNe)) op = gdk::BinOp::kNe;
      else if (Cur().Is(Op::kLt)) op = gdk::BinOp::kLt;
      else if (Cur().Is(Op::kLe)) op = gdk::BinOp::kLe;
      else if (Cur().Is(Op::kGt)) op = gdk::BinOp::kGt;
      else op = gdk::BinOp::kGe;
      Advance();
      SCIQL_ASSIGN_OR_RETURN(ExprPtr r, ParseAdditive());
      return Expr::Bin(op, std::move(l), std::move(r));
    }
    if (Cur().Is(Kw::kIs)) {
      Advance();
      bool negated = AcceptKw(Kw::kNot);
      SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kNull));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kIsNull;
      out->negated = negated;
      out->children.push_back(std::move(l));
      return out;
    }
    bool negated = false;
    if (Cur().Is(Kw::kNot) &&
        (Peek().Is(Kw::kBetween) || Peek().Is(Kw::kIn))) {
      negated = true;
      Advance();
    }
    if (AcceptKw(Kw::kBetween)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kAnd));
      SCIQL_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kBetween;
      out->negated = negated;
      out->children.push_back(std::move(l));
      out->children.push_back(std::move(lo));
      out->children.push_back(std::move(hi));
      return out;
    }
    if (AcceptKw(Kw::kIn)) {
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLParen));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kIn;
      out->negated = negated;
      out->children.push_back(std::move(l));
      while (true) {
        SCIQL_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        out->children.push_back(std::move(item));
        if (AcceptOp(Op::kComma)) continue;
        break;
      }
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
      return out;
    }
    return l;
  }

  Result<ExprPtr> ParseAdditive() {
    SCIQL_ASSIGN_OR_RETURN(ExprPtr l, ParseMultiplicative());
    while (Cur().Is(Op::kPlus) || Cur().Is(Op::kMinus)) {
      gdk::BinOp op = Cur().Is(Op::kPlus) ? gdk::BinOp::kAdd : gdk::BinOp::kSub;
      Advance();
      SCIQL_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
      l = Expr::Bin(op, std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseMultiplicative() {
    SCIQL_ASSIGN_OR_RETURN(ExprPtr l, ParseUnaryExpr());
    while (Cur().Is(Op::kStar) || Cur().Is(Op::kSlash) || Cur().Is(Op::kPercent) ||
           Cur().Is(Kw::kMod)) {
      gdk::BinOp op;
      if (Cur().Is(Op::kStar)) op = gdk::BinOp::kMul;
      else if (Cur().Is(Op::kSlash)) op = gdk::BinOp::kDiv;
      else op = gdk::BinOp::kMod;
      Advance();
      SCIQL_ASSIGN_OR_RETURN(ExprPtr r, ParseUnaryExpr());
      l = Expr::Bin(op, std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseUnaryExpr() {
    if (AcceptOp(Op::kMinus)) {
      // -9223372036854775808: the magnitude-2^63 literal is only legal here,
      // where the pair folds to INT64_MIN (the lexer already stored it).
      if (Cur().type == TokenType::kIntLiteral && Cur().int_min_magnitude) {
        int64_t v = Cur().int_val;
        Advance();
        return Expr::Lit(gdk::ScalarValue::Lng(v));
      }
      SCIQL_ASSIGN_OR_RETURN(ExprPtr e, ParseUnaryExpr());
      // Fold negation of numeric literals immediately.
      if (e->kind == Expr::Kind::kLiteral && !e->literal.is_null) {
        if (e->literal.type == gdk::PhysType::kDbl) {
          e->literal.d = -e->literal.d;
          return e;
        }
        if (e->literal.type == gdk::PhysType::kInt ||
            e->literal.type == gdk::PhysType::kLng) {
          // -(-9223372036854775808) would be 2^63, one past INT64_MAX.
          if (e->literal.i == std::numeric_limits<int64_t>::min()) {
            return Err("negated integer literal is out of range");
          }
          e->literal.i = -e->literal.i;
          return e;
        }
      }
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kUnary;
      out->un_op = gdk::UnOp::kNeg;
      out->children.push_back(std::move(e));
      return out;
    }
    if (AcceptOp(Op::kPlus)) return ParseUnaryExpr();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        if (t.int_min_magnitude) {
          // 2^63 without a directly preceding unary minus does not fit.
          return Err(StrFormat("integer literal '%s' is out of range",
                               t.text.c_str()));
        }
        int64_t v = t.int_val;
        Advance();
        return Expr::Lit(IntLiteralValue(v));
      }
      case TokenType::kFloatLiteral: {
        double v = t.float_val;
        Advance();
        return Expr::Lit(gdk::ScalarValue::Dbl(v));
      }
      case TokenType::kStrLiteral: {
        std::string v = t.text;
        Advance();
        return Expr::Lit(gdk::ScalarValue::Str(std::move(v)));
      }
      default:
        break;
    }

    if (AcceptKw(Kw::kNull)) {
      return Expr::Lit(gdk::ScalarValue::Null(gdk::PhysType::kInt));
    }
    if (AcceptKw(Kw::kTrue)) return Expr::Lit(gdk::ScalarValue::Bit(true));
    if (AcceptKw(Kw::kFalse)) return Expr::Lit(gdk::ScalarValue::Bit(false));

    if (Cur().Is(Kw::kCase)) return ParseCase();

    // Aggregates and ABS are keywords.
    if (Cur().Is(Kw::kCount) || Cur().Is(Kw::kSum) ||
        Cur().Is(Kw::kAvg) || Cur().Is(Kw::kMin) ||
        Cur().Is(Kw::kMax)) {
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kAggregate;
      if (Cur().Is(Kw::kCount)) out->agg_op = gdk::AggOp::kCount;
      else if (Cur().Is(Kw::kSum)) out->agg_op = gdk::AggOp::kSum;
      else if (Cur().Is(Kw::kAvg)) out->agg_op = gdk::AggOp::kAvg;
      else if (Cur().Is(Kw::kMin)) out->agg_op = gdk::AggOp::kMin;
      else out->agg_op = gdk::AggOp::kMax;
      Advance();
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLParen));
      if (Cur().Is(Op::kStar)) {
        if (out->agg_op != gdk::AggOp::kCount) {
          return Err("only COUNT can take *");
        }
        out->agg_op = gdk::AggOp::kCountStar;
        out->star = true;
        Advance();
      } else {
        SCIQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        out->children.push_back(std::move(arg));
      }
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
      return out;
    }
    if (Cur().Is(Kw::kAbs)) {
      Advance();
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLParen));
      SCIQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kUnary;
      out->un_op = gdk::UnOp::kAbs;
      out->children.push_back(std::move(arg));
      return out;
    }

    if (AcceptOp(Op::kLParen)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
      return e;
    }

    if (Cur().type == TokenType::kIdentifier) {
      std::string name = Cur().text;
      Advance();
      // Cell reference: name[expr][expr]...(.attr)?
      if (Cur().Is(Op::kLBracket)) {
        auto out = std::make_unique<Expr>();
        out->kind = Expr::Kind::kCellRef;
        out->array_name = name;
        while (AcceptOp(Op::kLBracket)) {
          SCIQL_ASSIGN_OR_RETURN(ExprPtr idx, ParseExpr());
          out->children.push_back(std::move(idx));
          SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRBracket));
        }
        if (AcceptOp(Op::kDot)) {
          SCIQL_ASSIGN_OR_RETURN(out->attr_name, ExpectIdent());
        }
        return out;
      }
      // Scalar function call: name(args).
      if (Cur().Is(Op::kLParen)) {
        Advance();
        auto out = std::make_unique<Expr>();
        out->kind = Expr::Kind::kFunc;
        out->func_name = ToLower(name);
        if (!Cur().Is(Op::kRParen)) {
          while (true) {
            SCIQL_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            out->children.push_back(std::move(arg));
            if (AcceptOp(Op::kComma)) continue;
            break;
          }
        }
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
        return out;
      }
      // Qualified column: table.column.
      if (AcceptOp(Op::kDot)) {
        SCIQL_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        return Expr::Col(name, col);
      }
      return Expr::Col("", name);
    }

    return Err("expected an expression");
  }

  Result<ExprPtr> ParseCase() {
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kCase));
    auto out = std::make_unique<Expr>();
    out->kind = Expr::Kind::kCase;
    if (!Cur().Is(Kw::kWhen)) {
      return Err("only searched CASE (CASE WHEN ...) is supported");
    }
    while (AcceptKw(Kw::kWhen)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kThen));
      SCIQL_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
      out->children.push_back(std::move(cond));
      out->children.push_back(std::move(val));
    }
    if (AcceptKw(Kw::kElse)) {
      SCIQL_ASSIGN_OR_RETURN(ExprPtr val, ParseExpr());
      out->children.push_back(std::move(val));
      out->has_else = true;
    }
    SCIQL_RETURN_NOT_OK(ExpectKw(Kw::kEnd));
    return out;
  }

  // -------------------------------------------------------------------------
  // Shared helpers
  // -------------------------------------------------------------------------

  Result<gdk::PhysType> ParseType() {
    auto match = [&](std::initializer_list<Kw> kws,
                     gdk::PhysType t) -> std::optional<gdk::PhysType> {
      for (Kw kw : kws) {
        if (AcceptKw(kw)) return t;
      }
      return std::nullopt;
    };
    if (auto t = match({Kw::kInt, Kw::kInteger, Kw::kSmallint}, gdk::PhysType::kInt)) {
      return *t;
    }
    if (auto t = match({Kw::kBigint, Kw::kLong}, gdk::PhysType::kLng)) return *t;
    if (auto t = match({Kw::kDouble, Kw::kFloat, Kw::kReal}, gdk::PhysType::kDbl)) {
      return *t;
    }
    if (auto t = match({Kw::kBoolean, Kw::kBool}, gdk::PhysType::kBit)) return *t;
    if (auto t = match({Kw::kVarchar, Kw::kString, Kw::kText, Kw::kChar},
                       gdk::PhysType::kStr)) {
      // Optional length, ignored: VARCHAR(32).
      if (AcceptOp(Op::kLParen)) {
        if (Cur().type == TokenType::kIntLiteral) Advance();
        SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRParen));
      }
      return *t;
    }
    return Err("expected a type name");
  }

  Result<int64_t> ParseSignedInt() {
    bool neg = AcceptOp(Op::kMinus);
    if (Cur().type != TokenType::kIntLiteral) {
      return Err("expected an integer");
    }
    if (Cur().int_min_magnitude) {
      // int_val already holds INT64_MIN; legal only under the minus.
      if (!neg) {
        return Err(StrFormat("integer literal '%s' is out of range",
                             Cur().text.c_str()));
      }
      int64_t v = Cur().int_val;
      Advance();
      return v;
    }
    int64_t v = Cur().int_val;
    Advance();
    return neg ? -v : v;
  }

  Result<array::DimRange> ParseRangeLiteral() {
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kLBracket));
    array::DimRange r;
    SCIQL_ASSIGN_OR_RETURN(r.start, ParseSignedInt());
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kColon));
    SCIQL_ASSIGN_OR_RETURN(r.step, ParseSignedInt());
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kColon));
    SCIQL_ASSIGN_OR_RETURN(r.stop, ParseSignedInt());
    SCIQL_RETURN_NOT_OK(ExpectOp(Op::kRBracket));
    SCIQL_RETURN_NOT_OK(r.Validate());
    return r;
  }

  Result<gdk::ScalarValue> ParseLiteralValue() {
    bool neg = AcceptOp(Op::kMinus);
    const Token& t = Cur();
    if (t.type == TokenType::kIntLiteral) {
      if (t.int_min_magnitude && !neg) {
        return Err(StrFormat("integer literal '%s' is out of range",
                             t.text.c_str()));
      }
      int64_t v = t.int_min_magnitude ? t.int_val : (neg ? -t.int_val : t.int_val);
      Advance();
      return IntLiteralValue(v);
    }
    if (t.type == TokenType::kFloatLiteral) {
      double v = neg ? -t.float_val : t.float_val;
      Advance();
      return gdk::ScalarValue::Dbl(v);
    }
    if (neg) return Err("expected a number after '-'");
    if (t.type == TokenType::kStrLiteral) {
      std::string v = t.text;
      Advance();
      return gdk::ScalarValue::Str(std::move(v));
    }
    if (AcceptKw(Kw::kNull)) return gdk::ScalarValue::Null(gdk::PhysType::kInt);
    if (AcceptKw(Kw::kTrue)) return gdk::ScalarValue::Bit(true);
    if (AcceptKw(Kw::kFalse)) return gdk::ScalarValue::Bit(false);
    return Err("expected a literal value");
  }

  Lexer lexer_;
  Status lex_status_;
  Token ring_[kRing];
  size_t head_ = 0;   ///< ring slot of Cur()
  size_t ahead_ = 0;  ///< tokens lexed past Cur()
};

}  // namespace

Result<std::vector<StatementPtr>> Parse(const std::string& text) {
  Parser parser(text);
  Result<std::vector<StatementPtr>> stmts = parser.ParseStatements(text);
  // A malformed token anywhere fails the whole text, whatever the parse
  // made of the tokens before it.
  SCIQL_RETURN_NOT_OK(parser.LexError());
  return stmts;
}

Result<StatementPtr> ParseOne(const std::string& text) {
  SCIQL_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, Parse(text));
  if (stmts.size() != 1) {
    return Status::ParseError(
        StrFormat("expected exactly one statement, got %zu", stmts.size()));
  }
  return std::move(stmts[0]);
}

}  // namespace sql
}  // namespace sciql
