// The seeded grammar: catalog-driven random generation of schemas, data and
// queries (docs/fuzzing.md). Every draw comes from one common/rng.h stream,
// so a seed fully determines the case on every platform.
//
// The grammar deliberately steers toward the engine's redundant physical
// paths (equi-joins on indexable keys, ORDER BY + LIMIT, BETWEEN ranges,
// low-cardinality group keys) and toward numeric edge values (INT64_MIN /
// INT64_MAX literals, wraparound arithmetic). A few constructions are
// avoided on purpose because their cross-path difference is *specified*
// behavior, not a bug — see the comments at kJoinSafeAggs and the LIMIT /
// DISTINCT item rules.

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/fuzz/fuzz.h"

namespace sciql {
namespace fuzz {
namespace {

// Expression types the generator tracks: enough to keep comparisons and
// aggregates well-typed. kNum covers INT/BIGINT; kDbl is numeric too but
// flagged so order-sensitive float aggregation can be kept off join sources.
enum class ETy { kNum, kDbl, kStr, kBool };

struct GenExpr {
  std::string sql;
  ETy ty = ETy::kNum;
};

// Fixed column shape for every generated table: a low-cardinality INT join /
// group key, a BIGINT with extreme values, a DOUBLE, a VARCHAR and a
// BOOLEAN. Fixed names keep join and qualification logic simple; variety
// comes from the data and the query shapes.
struct TableInfo {
  std::string name;
  size_t rows = 0;
};

// One generated dimension: `n` values start, start + step, ...
struct DimInfo {
  int64_t start = 0;
  int64_t step = 1;
  int64_t n = 0;

  int64_t Value(int64_t i) const { return start + i * step; }
};

struct ArrayInfo {
  std::string name;
  DimInfo x;
  DimInfo y;
};

class Generator {
 public:
  Generator(uint64_t seed, const GeneratorOptions& opts)
      : rng_(seed), opts_(opts) {}

  FuzzCase Generate() {
    FuzzCase fc;
    fc.seed = rng_.Next();  // mixed; the raw seed is kept by the caller
    GenSchema(&fc);
    size_t nq = opts_.queries_per_case;
    for (size_t i = 0; i < nq; ++i) {
      FuzzStatement q;
      q.kind = FuzzStatement::Kind::kQuery;
      if (!arrays_.empty() && rng_.Chance(0.25)) {
        GenArrayQuery(&q);
      } else if (rng_.Chance(0.4)) {
        GenAggQuery(&q);
      } else {
        GenPlainQuery(&q);
      }
      fc.stmts.push_back(std::move(q));
    }
    return fc;
  }

 private:
  // ---------------------------------------------------------------- schema
  void GenSchema(FuzzCase* fc) {
    for (int t = 0; t < 2; ++t) {
      TableInfo ti;
      ti.name = StrFormat("t%d", t);
      ti.rows = static_cast<size_t>(rng_.Range(1, (int64_t)opts_.max_rows));
      Setup(fc, StrFormat("CREATE TABLE %s (k INT, a BIGINT, d DOUBLE, "
                          "s VARCHAR, p BOOLEAN)",
                          ti.name.c_str()));
      // Batched inserts; each batch is one statement (and one WAL record on
      // the reopen path).
      size_t done = 0;
      while (done < ti.rows) {
        size_t n = std::min<size_t>(ti.rows - done, 15);
        std::string sql = "INSERT INTO " + ti.name + " VALUES ";
        for (size_t r = 0; r < n; ++r) {
          if (r > 0) sql += ", ";
          sql += RowLiteral();
        }
        Setup(fc, sql);
        done += n;
      }
      if (rng_.Chance(0.4)) {
        Setup(fc, StrFormat("UPDATE %s SET a = a + %lld WHERE k = %lld",
                            ti.name.c_str(), (long long)rng_.Range(-3, 3),
                            (long long)rng_.Range(-5, 15)));
      }
      if (rng_.Chance(0.3)) {
        Setup(fc, StrFormat("DELETE FROM %s WHERE k = %lld", ti.name.c_str(),
                            (long long)rng_.Range(-5, 15)));
      }
      tables_.push_back(ti);
      // Warm statements: ORDER BY without LIMIT builds and caches the
      // order index for the column (and one multi-key spec), which the
      // warm-index oracle path replays ahead of the queries.
      for (const char* c : {"k", "a", "d", "s"}) {
        fc->warm.push_back(
            StrFormat("SELECT %s FROM %s ORDER BY %s", c, ti.name.c_str(), c));
      }
      fc->warm.push_back(
          StrFormat("SELECT k, a FROM %s ORDER BY k, a", ti.name.c_str()));
    }
    if (opts_.arrays && rng_.Chance(0.7)) {
      ArrayInfo ai;
      ai.name = "g0";
      ai.x = GenDim();
      ai.y = GenDim();
      auto range = [](const DimInfo& d) {
        return StrFormat("[%lld:%lld:%lld]", (long long)d.start,
                         (long long)d.step, (long long)d.Value(d.n));
      };
      Setup(fc, StrFormat("CREATE ARRAY %s (x INT DIMENSION%s, "
                          "y INT DIMENSION%s, v INT DEFAULT 0)",
                          ai.name.c_str(), range(ai.x).c_str(),
                          range(ai.y).c_str()));
      const char* fills[] = {"x * 7 + y", "x - y", "(x + y) MOD 3",
                             "x * y - 2"};
      Setup(fc, StrFormat("UPDATE %s SET v = %s", ai.name.c_str(),
                          fills[rng_.Below(4)]));
      if (rng_.Chance(0.5)) {
        Setup(fc, StrFormat("UPDATE %s SET v = v + %lld WHERE x = %lld",
                            ai.name.c_str(), (long long)rng_.Range(1, 9),
                            (long long)DimLiteral(ai.x)));
      }
      // Window DML: cell-range updates and hole punching.
      if (rng_.Chance(0.4)) {
        Setup(fc, StrFormat("UPDATE %s SET v = v * 2 WHERE %s",
                            ai.name.c_str(), WindowPredicate(ai).c_str()));
      }
      if (rng_.Chance(0.3)) {
        Setup(fc, StrFormat("DELETE FROM %s WHERE %s", ai.name.c_str(),
                            WindowPredicate(ai).c_str()));
      }
      arrays_.push_back(ai);
    }
  }

  // Mostly the classic 0-based unit grid; otherwise an offset start, step 2
  // or a descending step (DIMENSION[10:-2:0]).
  DimInfo GenDim() {
    DimInfo d;
    d.n = rng_.Range(2, 6);
    switch (rng_.Below(5)) {
      case 0:
        d.start = rng_.Range(-4, 4);
        break;
      case 1:
        d.start = rng_.Range(-3, 3);
        d.step = 2;
        break;
      case 2:
        d.start = 10;
        d.step = -2;
        break;
      default:
        break;
    }
    return d;
  }

  // A value near the dimension: on its grid, just off it, or past an end.
  int64_t DimLiteral(const DimInfo& d) {
    int64_t v = d.Value(rng_.Range(-1, d.n));
    return rng_.Chance(0.2) ? v + 1 : v;
  }

  // One conjunct bounding dimension `var`: the shapes a slab answers
  // (either operand order, BETWEEN, decimal, NULL, far and extreme bounds).
  std::string DimConjunct(const char* var, const DimInfo& d) {
    long long a = (long long)DimLiteral(d);
    long long b = (long long)DimLiteral(d);
    static const char* kCmp[] = {"=", "<", "<=", ">", ">="};
    const char* cmp = kCmp[rng_.Below(5)];
    switch (rng_.Below(9)) {
      case 0:
        return StrFormat("%s BETWEEN %lld AND %lld", var, std::min(a, b),
                         std::max(a, b));
      case 1:
        return StrFormat("%lld %s %s", a, cmp, var);
      case 2:
        return StrFormat("%s %s %lld.5", var, cmp, a);
      case 3:
        return rng_.Chance(0.5) ? StrFormat("%s = NULL", var)
                                : StrFormat("%s BETWEEN %lld AND NULL", var, a);
      case 4: {
        static const char* kFar[] = {"1000", "-1000", "3000000000",
                                     "-9223372036854775808",
                                     "9223372036854775807", "-2147483648"};
        return StrFormat("%s %s %s", var, cmp, kFar[rng_.Below(6)]);
      }
      default:
        return StrFormat("%s %s %lld", var, cmp, a);
    }
  }

  // A WHERE over the array's cells: one or two bounds per dimension, at
  // times joined by an attribute conjunct the slab leaves as a filter.
  std::string WindowPredicate(const ArrayInfo& a) {
    std::vector<std::string> parts;
    if (rng_.Chance(0.8)) parts.push_back(DimConjunct("x", a.x));
    if (rng_.Chance(0.3)) parts.push_back(DimConjunct("x", a.x));
    if (parts.empty() || rng_.Chance(0.6)) {
      parts.push_back(DimConjunct("y", a.y));
    }
    if (rng_.Chance(0.35)) {
      switch (rng_.Below(3)) {
        case 0:
          parts.push_back(StrFormat("v > %lld", (long long)rng_.Range(-5, 20)));
          break;
        case 1:
          parts.push_back(StrFormat("v <> %lld", (long long)rng_.Range(-5, 20)));
          break;
        default:
          parts.push_back(StrFormat("(y = %lld OR x = %lld)",
                                    (long long)DimLiteral(a.y),
                                    (long long)DimLiteral(a.x)));
          break;
      }
    }
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += " AND ";
      out += parts[i];
    }
    return out;
  }

  // `var` shifted by k grid steps, as a tile or cell-reference index.
  static std::string Shift(const char* var, const DimInfo& d, int64_t k) {
    int64_t off = k * d.step;
    if (off == 0) return var;
    return StrFormat("%s%s%lld", var, off > 0 ? "+" : "-",
                     (long long)(off > 0 ? off : -off));
  }

  void Setup(FuzzCase* fc, std::string sql) {
    FuzzStatement st;
    st.kind = FuzzStatement::Kind::kSetup;
    st.sql = std::move(sql);
    fc->stmts.push_back(std::move(st));
  }

  // One `(k, a, d, s, p)` tuple. BIGINT values mix small integers with the
  // int64 extremes — including the INT64_MIN literal, which must round-trip
  // through the lexer (docs/fuzzing.md, integer-literal satellite).
  std::string RowLiteral() {
    std::string k =
        rng_.Chance(0.12) ? "NULL" : std::to_string(rng_.Range(-5, 15));
    std::string a = BigintLiteral();
    std::string d = rng_.Chance(0.15) ? "NULL" : DoubleLiteral();
    std::string s = rng_.Chance(0.12) ? "NULL" : "'" + StrValue() + "'";
    const char* pv[] = {"TRUE", "FALSE", "NULL"};
    std::string p = pv[rng_.Below(3)];
    return "(" + k + ", " + a + ", " + d + ", " + s + ", " + p + ")";
  }

  std::string BigintLiteral() {
    if (rng_.Chance(0.12)) return "NULL";
    if (rng_.Chance(0.25)) {
      static const char* kExtremes[] = {
          "9223372036854775807",  "-9223372036854775808", "2147483647",
          "-2147483648",          "4611686018427387904",  "-4611686018427387903",
          "9223372036854775806",
      };
      return kExtremes[rng_.Below(7)];
    }
    return std::to_string(rng_.Range(-1000, 1000));
  }

  // Short exact decimals only: no exponents (lexer-portable) and no 0.0/-0.0
  // pair — negative zero compares equal to zero but differs bitwise, which
  // would make ORDER BY ... LIMIT tie-breaking legitimately path-dependent.
  std::string DoubleLiteral() {
    static const char* kPool[] = {"0.5",   "-0.5",  "1.5",   "3.25",
                                  "100.25", "-2.75", "0.125", "12.5"};
    return kPool[rng_.Below(8)];
  }

  std::string StrValue() {
    static const char* kPool[] = {"a", "b", "c", "aa", "zz", "", "mango"};
    return kPool[rng_.Below(7)];
  }

  // ---------------------------------------------------------------- source
  struct Source {
    bool join = false;
    std::string sql;     // the FROM clause body
    std::string qual[2]; // column qualifiers ("" or "t0.")
    int ntabs = 1;
  };

  Source GenSource() {
    Source s;
    if (tables_.size() >= 2 && rng_.Chance(0.45)) {
      s.join = true;
      s.ntabs = 2;
      const char* keys[] = {"k", "a", "s"};
      const char* jc = keys[rng_.Below(3)];
      const std::string& l = tables_[0].name;
      const std::string& r = tables_[1].name;
      s.sql = StrFormat("%s JOIN %s ON %s.%s = %s.%s", l.c_str(), r.c_str(),
                        l.c_str(), jc, r.c_str(), jc);
      s.qual[0] = l + ".";
      s.qual[1] = r + ".";
    } else {
      const TableInfo& t = tables_[rng_.Below(tables_.size())];
      s.sql = t.name;
      s.qual[0] = "";
      s.ntabs = 1;
    }
    return s;
  }

  std::string Qual(const Source& src) {
    return src.qual[rng_.Below((uint64_t)src.ntabs)];
  }

  // ----------------------------------------------------------- expressions
  GenExpr ColRef(const Source& src) {
    struct {
      const char* name;
      ETy ty;
    } cols[] = {{"k", ETy::kNum}, {"a", ETy::kNum}, {"d", ETy::kDbl},
                {"s", ETy::kStr}, {"p", ETy::kBool}};
    auto& c = cols[rng_.Below(5)];
    return {Qual(src) + c.name, c.ty};
  }

  GenExpr NumColRef(const Source& src) {
    const char* names[] = {"k", "a", "d"};
    uint64_t i = rng_.Below(3);
    return {Qual(src) + names[i], i == 2 ? ETy::kDbl : ETy::kNum};
  }

  GenExpr NumLit() {
    if (rng_.Chance(0.2)) return {DoubleLiteral(), ETy::kDbl};
    if (rng_.Chance(0.2)) return {BigintLiteral(), ETy::kNum};  // may be NULL
    return {std::to_string(rng_.Range(-20, 20)), ETy::kNum};
  }

  GenExpr NumExpr(const Source& src, int depth) {
    if (depth <= 0 || rng_.Chance(0.35)) {
      return rng_.Chance(0.65) ? NumColRef(src) : NumLit();
    }
    switch (rng_.Below(8)) {
      case 0:
      case 1: {
        GenExpr a = NumExpr(src, depth - 1);
        GenExpr b = NumExpr(src, depth - 1);
        const char* ops[] = {"+", "-", "*"};
        ETy t = (a.ty == ETy::kDbl || b.ty == ETy::kDbl) ? ETy::kDbl
                                                         : ETy::kNum;
        return {"(" + a.sql + " " + ops[rng_.Below(3)] + " " + b.sql + ")", t};
      }
      case 2: {  // division / modulo by a nonzero literal (usually)
        GenExpr a = NumExpr(src, depth - 1);
        const char* op = rng_.Chance(0.5) ? "/" : "MOD";
        std::string b;
        ETy t = a.ty;
        if (rng_.Chance(0.85)) {
          static const char* kDivisors[] = {"2", "3", "7", "-1", "-3", "11"};
          b = kDivisors[rng_.Below(6)];
        } else {
          GenExpr bc = NumColRef(src);  // may be zero: a consistent ExecError
          b = bc.sql;
          if (bc.ty == ETy::kDbl) t = ETy::kDbl;
        }
        return {"(" + a.sql + " " + op + " " + b + ")", t};
      }
      case 3: {
        GenExpr a = NumExpr(src, depth - 1);
        return {"(-" + a.sql + ")", a.ty};
      }
      case 4: {
        GenExpr a = NumExpr(src, depth - 1);
        return {"ABS(" + a.sql + ")", a.ty};
      }
      case 5: {
        std::string pred = Pred(src, depth - 1);
        GenExpr a = NumExpr(src, depth - 1);
        GenExpr b = NumExpr(src, depth - 1);
        ETy t = (a.ty == ETy::kDbl || b.ty == ETy::kDbl) ? ETy::kDbl
                                                         : ETy::kNum;
        return {"CASE WHEN " + pred + " THEN " + a.sql + " ELSE " + b.sql +
                    " END",
                t};
      }
      default:
        return NumColRef(src);
    }
  }

  std::string Pred(const Source& src, int depth) {
    if (depth > 0 && rng_.Chance(0.35)) {
      std::string a = Pred(src, depth - 1);
      std::string b = Pred(src, depth - 1);
      const char* ops[] = {"AND", "OR"};
      std::string out = "(" + a + " " + ops[rng_.Below(2)] + " " + b + ")";
      if (rng_.Chance(0.2)) out = "NOT " + out;
      return out;
    }
    switch (rng_.Below(6)) {
      case 0: {  // numeric comparison
        GenExpr a = NumExpr(src, depth);
        GenExpr b = rng_.Chance(0.6) ? NumLit() : NumColRef(src);
        static const char* kCmp[] = {"=", "<>", "<", "<=", ">", ">="};
        return a.sql + " " + kCmp[rng_.Below(6)] + " " + b.sql;
      }
      case 1: {  // string comparison
        std::string c = Qual(src) + "s";
        static const char* kCmp[] = {"=", "<>", "<", ">="};
        return c + " " + kCmp[rng_.Below(4)] + " '" + StrValue() + "'";
      }
      case 2: {  // IS [NOT] NULL
        GenExpr c = ColRef(src);
        return c.sql + (rng_.Chance(0.5) ? " IS NULL" : " IS NOT NULL");
      }
      case 3: {  // BETWEEN steers RangeSelect (index window vs scan)
        GenExpr c = NumColRef(src);
        int64_t lo = rng_.Range(-10, 10);
        int64_t hi = lo + rng_.Range(0, 12);
        return c.sql + StrFormat(" BETWEEN %lld AND %lld", (long long)lo,
                                 (long long)hi);
      }
      case 4: {  // IN list
        if (rng_.Chance(0.5)) {
          std::string c = Qual(src) + "k";
          return c + StrFormat(" IN (%lld, %lld, %lld)",
                               (long long)rng_.Range(-5, 15),
                               (long long)rng_.Range(-5, 15),
                               (long long)rng_.Range(-5, 15));
        }
        std::string c = Qual(src) + "s";
        return c + " IN ('" + StrValue() + "', '" + StrValue() + "')";
      }
      default: {  // boolean column
        std::string c = Qual(src) + "p";
        return c + (rng_.Chance(0.5) ? " = TRUE" : " = FALSE");
      }
    }
  }

  // -------------------------------------------------------------- queries
  struct Item {
    std::string sql;
    ETy ty;
  };

  // ORDER BY / LIMIT tail over the aliased select list. The LIMIT rule: a
  // LIMIT is only attached when the ORDER BY covers *every* output column,
  // so the top-k multiset is uniquely determined and firstn vs sort+slice
  // vs index-window must agree exactly. `allow_limit` additionally requires
  // no double item (0.0 vs -0.0 ties are bitwise-distinct yet equal keys).
  void OrderLimitTail(const std::vector<Item>& items, bool allow_limit,
                      size_t source_rows, std::string* sql, FuzzStatement* q) {
    bool want_limit = allow_limit && rng_.Chance(0.4);
    if (!want_limit && !rng_.Chance(0.75)) return;
    std::vector<int> perm;
    for (size_t i = 0; i < items.size(); ++i) perm.push_back((int)i);
    // Fisher-Yates over the rng stream.
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng_.Below(i)]);
    }
    size_t n = want_limit ? perm.size()
                          : 1 + rng_.Below((uint64_t)perm.size());
    *sql += " ORDER BY ";
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) *sql += ", ";
      bool desc = rng_.Chance(0.4);
      *sql += StrFormat("c%d%s", perm[i], desc ? " DESC" : "");
      q->order_cols.push_back(perm[i]);
      q->order_desc.push_back(desc);
    }
    if (want_limit) {
      *sql += StrFormat(" LIMIT %lld",
                        (long long)rng_.Below((uint64_t)source_rows + 6));
    }
  }

  void GenPlainQuery(FuzzStatement* q) {
    Source src = GenSource();
    size_t n = 1 + rng_.Below(4);
    std::vector<Item> items;
    bool has_dbl = false;
    for (size_t i = 0; i < n; ++i) {
      GenExpr e;
      double roll = rng_.NextDouble();
      if (roll < 0.6) {
        e = NumExpr(src, 2);
      } else if (roll < 0.8) {
        e = ColRef(src);
      } else {
        e = {Qual(src) + "s", ETy::kStr};
      }
      has_dbl = has_dbl || e.ty == ETy::kDbl;
      items.push_back({e.sql, e.ty});
    }
    // DISTINCT only without double items: a computed -0.0 equals 0.0 as a
    // group key, so the surviving representative would depend on encounter
    // order — legitimately different after a reordering join path.
    bool distinct = !has_dbl && rng_.Chance(0.15);
    std::string sql = std::string("SELECT ") + (distinct ? "DISTINCT " : "");
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) sql += ", ";
      sql += items[i].sql + StrFormat(" AS c%d", (int)i);
    }
    sql += " FROM " + src.sql;
    if (rng_.Chance(0.7)) sql += " WHERE " + Pred(src, 2);
    OrderLimitTail(items, !has_dbl, MaxRows(src), &sql, q);
    q->sql = std::move(sql);
  }

  void GenAggQuery(FuzzStatement* q) {
    Source src = GenSource();
    // Low-cardinality group keys only (k, s, p): every path groups the same
    // multiset; double group keys are avoided entirely.
    const char* kGroupable[] = {"k", "s", "p"};
    size_t ng = 1 + rng_.Below(2);
    std::vector<std::string> gcols;
    for (size_t i = 0; i < ng; ++i) {
      std::string c = Qual(src) + kGroupable[rng_.Below(3)];
      bool dup = false;
      for (auto& g : gcols) dup = dup || g == c;
      if (!dup) gcols.push_back(c);
    }
    std::vector<Item> items;
    std::string sql = "SELECT ";
    for (size_t i = 0; i < gcols.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += gcols[i] + StrFormat(" AS c%d", (int)i);
      items.push_back({gcols[i], ETy::kNum});
    }
    // Float accumulation is order-sensitive, and the indexed-probe join
    // emits probe-side pair order (a *documented* difference) — so AVG and
    // SUM/aggregated doubles are only generated over single-table sources,
    // where candidate row order is path-invariant. Integer SUM wraps mod
    // 2^64 (associative), MIN/MAX/COUNT are order-free: safe after joins.
    bool join_safe_only = src.join;
    size_t na = 1 + rng_.Below(3);
    for (size_t i = 0; i < na; ++i) {
      std::string agg;
      uint64_t pick = rng_.Below(join_safe_only ? 4u : 6u);
      GenExpr arg = NumColRef(src);
      switch (pick) {
        case 0:
          agg = "COUNT(*)";
          break;
        case 1:
          agg = "COUNT(" + ColRef(src).sql + ")";
          break;
        case 2:
          agg = (rng_.Chance(0.5) ? "MIN(" : "MAX(") + ColRef(src).sql + ")";
          break;
        case 3: {  // integer SUM: wraparound, order-free
          const char* ic[] = {"k", "a"};
          agg = "SUM(" + Qual(src) + ic[rng_.Below(2)] + ")";
          break;
        }
        case 4:
          agg = "SUM(" + arg.sql + ")";
          break;
        default:
          agg = "AVG(" + arg.sql + ")";
          break;
      }
      size_t idx = items.size();
      sql += ", " + agg + StrFormat(" AS c%d", (int)idx);
      items.push_back({agg, ETy::kNum});
    }
    sql += " FROM " + src.sql;
    if (rng_.Chance(0.5)) sql += " WHERE " + Pred(src, 2);
    sql += " GROUP BY ";
    for (size_t i = 0; i < gcols.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += gcols[i];
    }
    if (rng_.Chance(0.3)) {
      sql += StrFormat(" HAVING COUNT(*) > %lld", (long long)rng_.Below(3));
    }
    OrderLimitTail(items, true, MaxRows(src), &sql, q);
    q->sql = std::move(sql);
  }

  void GenArrayQuery(FuzzStatement* q) {
    const ArrayInfo& a = arrays_[rng_.Below(arrays_.size())];
    double pick = rng_.NextDouble();
    if (pick < 0.45) {
      // Structural (tiling) aggregation; the tile is anchored per cell, so
      // the result is cell-aligned and order-free across paths. Tile
      // offsets are whole grid steps.
      static const char* kAggs[] = {"SUM", "MIN", "MAX", "COUNT", "AVG"};
      const char* agg = kAggs[rng_.Below(5)];
      int kx = (int)rng_.Range(1, 3);
      int ky = (int)rng_.Range(1, 3);
      bool anchored = rng_.Chance(0.4);  // [x-1:x+k] style neighbourhoods
      int lo = anchored ? -1 : 0;
      std::string tile = StrFormat(
          "%s[%s:%s][%s:%s]", a.name.c_str(), Shift("x", a.x, lo).c_str(),
          Shift("x", a.x, kx).c_str(), Shift("y", a.y, lo).c_str(),
          Shift("y", a.y, ky).c_str());
      std::string sql = StrFormat(
          "SELECT [x], [y], %s(v) AS c0 FROM %s GROUP BY %s", agg,
          a.name.c_str(), tile.c_str());
      if (rng_.Chance(0.6)) {
        switch (rng_.Below(3)) {
          case 0:
            sql += StrFormat(" HAVING x MOD 2 = %lld", (long long)rng_.Below(2));
            break;
          case 1:
            sql += StrFormat(" HAVING x = %lld AND y = %lld",
                             (long long)DimLiteral(a.x),
                             (long long)DimLiteral(a.y));
            break;
          default:
            sql += StrFormat(" HAVING y > %lld", (long long)DimLiteral(a.y));
            break;
        }
      }
      if (rng_.Chance(0.5)) {
        sql += rng_.Chance(0.5) ? " ORDER BY x DESC" : " ORDER BY x, y";
      }
      q->sql = std::move(sql);
    } else if (pick < 0.65) {
      // Relative cell references (shift-style neighbour access).
      std::string cell =
          rng_.Chance(0.5)
              ? StrFormat("%s[%s][y]", a.name.c_str(),
                          Shift("x", a.x, -1).c_str())
              : StrFormat("%s[x][%s]", a.name.c_str(),
                          Shift("y", a.y, -1).c_str());
      std::string sql = StrFormat(
          "SELECT [x], [y], v - %s AS c0 FROM %s WHERE x %s %lld",
          cell.c_str(), a.name.c_str(), rng_.Chance(0.5) ? ">" : "=",
          (long long)DimLiteral(a.x));
      q->sql = std::move(sql);
    } else {
      // Dimension windows: cell reads and cut-outs the planner answers by
      // position (array.slab) except on the index-free path.
      std::string where = WindowPredicate(a);
      q->sql = rng_.Chance(0.25)
                   ? StrFormat("SELECT COUNT(*) AS c0, SUM(v) AS c1 FROM %s "
                               "WHERE %s",
                               a.name.c_str(), where.c_str())
                   : StrFormat("SELECT x, y, v FROM %s WHERE %s",
                               a.name.c_str(), where.c_str());
    }
  }

  size_t MaxRows(const Source& src) {
    size_t n = 0;
    for (const auto& t : tables_) n = std::max(n, t.rows);
    return src.join ? n * n : n;
  }

  Rng rng_;
  GeneratorOptions opts_;
  std::vector<TableInfo> tables_;
  std::vector<ArrayInfo> arrays_;
};

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const GeneratorOptions& opts) {
  Generator g(seed, opts);
  FuzzCase fc = g.Generate();
  fc.seed = seed;
  fc.name = StrFormat("fuzz_%llu", (unsigned long long)seed);
  return fc;
}

}  // namespace fuzz
}  // namespace sciql
