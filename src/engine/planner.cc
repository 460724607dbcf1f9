#include "src/engine/planner.h"

#include <algorithm>

#include "src/array/tiling.h"
#include "src/common/string_util.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace engine {

using gdk::ScalarValue;
using sql::Expr;

PlannerControls& GetPlannerControls() {
  static PlannerControls c;
  return c;
}

namespace {

// Output column name for an unaliased select item.
std::string DeriveName(const Expr& e, size_t index) {
  if (e.kind == Expr::Kind::kColumn) return ToLower(e.column);
  if (e.kind == Expr::Kind::kAggregate) {
    std::string arg = e.star ? "*" : e.children[0]->ToString();
    return ToLower(std::string(gdk::AggOpName(e.agg_op)) + "_" + arg);
  }
  return StrFormat("col%zu", index + 1);
}

// True if every column referenced by `e` resolves within `env`.
bool BindsWithin(const Expr& e, const Env& env) {
  std::vector<std::pair<std::string, std::string>> cols;
  ExprCompiler::CollectColumns(e, &cols);
  if (cols.empty()) return false;  // constant: not anchored to either side
  for (const auto& [qual, name] : cols) {
    if (!env.CanResolve(qual, name)) return false;
  }
  return true;
}

// Extract the anchor-relative offset of a tile index expression, which must
// be the dimension variable itself or dimvar +/- <integer literal>.
Result<int64_t> AnchorOffset(const Expr& e, const std::string& dim_name) {
  if (e.kind == Expr::Kind::kColumn) {
    if (!EqualsIgnoreCase(e.column, dim_name)) {
      return Status::BindError(
          StrFormat("tile slice over dimension %s must use variable %s",
                    dim_name.c_str(), dim_name.c_str()));
    }
    return int64_t{0};
  }
  if (e.kind == Expr::Kind::kBinary &&
      (e.bin_op == gdk::BinOp::kAdd || e.bin_op == gdk::BinOp::kSub)) {
    const Expr& l = *e.children[0];
    const Expr& r = *e.children[1];
    if (l.kind == Expr::Kind::kColumn && r.kind == Expr::Kind::kLiteral &&
        !r.literal.is_null && EqualsIgnoreCase(l.column, dim_name)) {
      int64_t off = r.literal.AsInt64();
      return e.bin_op == gdk::BinOp::kAdd ? off : -off;
    }
  }
  return Status::BindError(StrFormat(
      "tile cell denotation must be '%s' plus/minus an integer literal, got %s",
      dim_name.c_str(), e.ToString().c_str()));
}

// The dimension a column reference names in `env`, or "" when `e` is not a
// dimension column.
std::string DimensionOf(const Expr& e, const Env& env) {
  if (e.kind != Expr::Kind::kColumn) return "";
  auto idx = env.Resolve(e.table, e.column);
  if (!idx.ok() || !env.cols[static_cast<size_t>(*idx)].is_dim) return "";
  return env.cols[static_cast<size_t>(*idx)].name;
}

// A bound array.slab accepts: a numeric literal or NULL. The parser folds
// the negation of a numeric literal, so a unary minus survives only over
// NULL, which it leaves NULL.
bool SlabBound(const Expr& e, ScalarValue* out) {
  const Expr* lit = &e;
  if (e.kind == Expr::Kind::kUnary && e.un_op == gdk::UnOp::kNeg) {
    lit = e.children[0].get();
  }
  if (lit->kind != Expr::Kind::kLiteral) return false;
  const ScalarValue& v = lit->literal;
  if (v.type != gdk::PhysType::kInt && v.type != gdk::PhysType::kLng &&
      v.type != gdk::PhysType::kDbl) {
    return false;
  }
  if (lit != &e && !v.is_null) return false;
  *out = v;
  return true;
}

// The comparison array.slab evaluates for `dim op bound`, or nullptr.
// `mirrored` reads the conjunct as `bound op dim`.
const char* SlabCmp(gdk::BinOp op, bool mirrored) {
  switch (op) {
    case gdk::BinOp::kEq:
      return "==";
    case gdk::BinOp::kLt:
      return mirrored ? ">" : "<";
    case gdk::BinOp::kLe:
      return mirrored ? ">=" : "<=";
    case gdk::BinOp::kGt:
      return mirrored ? "<" : ">";
    case gdk::BinOp::kGe:
      return mirrored ? "<=" : ">=";
    default:
      return nullptr;
  }
}

}  // namespace

Result<Env> SelectCompiler::ScanObject(const std::string& name,
                                       const std::string& alias) {
  std::string qual = ToLower(alias.empty() ? name : alias);
  Env env;
  auto bind_col = [&](const std::string& col, bool is_dim) {
    int reg = prog_->EmitR(
        "sql", "bind",
        {prog_->Const(ScalarValue::Str(ToLower(name))),
         prog_->Const(ScalarValue::Str(ToLower(col)))},
        ToLower(col));
    env.cols.push_back(EnvCol{qual, ToLower(col), is_dim, reg});
  };
  if (cat_->IsArray(name)) {
    SCIQL_ASSIGN_OR_RETURN(auto arr, cat_->GetArray(name));
    for (const auto& d : arr->desc.dims()) bind_col(d.name, true);
    for (const auto& a : arr->desc.attrs()) bind_col(a.name, false);
    return env;
  }
  SCIQL_ASSIGN_OR_RETURN(auto tab, cat_->GetTable(name));
  for (const auto& c : tab->columns) bind_col(c.name, false);
  return env;
}

Result<int> SelectCompiler::ApplyFilter(Env* env, int bits_reg,
                                        bool bits_scalar,
                                        std::vector<int>* extra_aligned) {
  int bits = bits_reg;
  if (bits_scalar) {
    // Broadcast a constant predicate over the current row set.
    SCIQL_ASSIGN_OR_RETURN(int any, env->AnyReg());
    int cnt = prog_->EmitR("bat", "count", {any}, "n");
    bits = prog_->EmitR("batcalc", "const", {bits, cnt}, "p");
  }
  int cands = prog_->EmitR("algebra", "select", {bits}, "cand");
  for (EnvCol& c : env->cols) {
    c.reg = prog_->EmitR("algebra", "project", {c.reg, cands}, c.name);
  }
  if (extra_aligned != nullptr) {
    for (int& r : *extra_aligned) {
      r = prog_->EmitR("algebra", "project", {r, cands}, "agg");
    }
  }
  return cands;
}

Result<int> SelectCompiler::CompileSlab(
    const std::string& object, const Env& env,
    const std::vector<const Expr*>& conjuncts,
    std::vector<const Expr*>* residual) {
  std::vector<int> args = {prog_->Const(ScalarValue::Str(object))};
  auto add = [&](const std::string& dim, const char* cmp,
                 const ScalarValue& bound) {
    args.push_back(prog_->Const(ScalarValue::Str(dim)));
    args.push_back(prog_->Const(ScalarValue::Str(cmp)));
    args.push_back(prog_->Const(bound));
  };
  for (const Expr* c : conjuncts) {
    ScalarValue lo, hi;
    if (c->kind == Expr::Kind::kBetween && !c->negated) {
      std::string dim = DimensionOf(*c->children[0], env);
      if (!dim.empty() && SlabBound(*c->children[1], &lo) &&
          SlabBound(*c->children[2], &hi)) {
        add(dim, ">=", lo);
        add(dim, "<=", hi);
        continue;
      }
    } else if (c->kind == Expr::Kind::kBinary &&
               SlabCmp(c->bin_op, false) != nullptr) {
      const Expr& l = *c->children[0];
      const Expr& r = *c->children[1];
      std::string dim = DimensionOf(l, env);
      if (!dim.empty() && SlabBound(r, &lo)) {
        add(dim, SlabCmp(c->bin_op, false), lo);
        continue;
      }
      dim = DimensionOf(r, env);
      if (!dim.empty() && SlabBound(l, &lo)) {
        add(dim, SlabCmp(c->bin_op, true), lo);
        continue;
      }
    }
    residual->push_back(c);
  }
  if (args.size() == 1) return -1;
  return prog_->EmitR("array", "slab", args, "slab");
}

Status SelectCompiler::CompileWhere(const std::string& object,
                                    const std::vector<const Expr*>& conjuncts,
                                    Env* env, int* pos) {
  std::vector<const Expr*> residual;
  int slab = -1;
  if (!object.empty() && gdk::Controls().use_index_paths &&
      cat_->IsArray(object)) {
    SCIQL_ASSIGN_OR_RETURN(slab,
                           CompileSlab(object, *env, conjuncts, &residual));
  } else {
    residual = conjuncts;
  }
  if (slab >= 0) {
    for (EnvCol& c : env->cols) {
      c.reg = prog_->EmitR("algebra", "project", {c.reg, slab}, c.name);
    }
  }
  int cands = -1;
  if (!residual.empty()) {
    ExprCompiler comp(prog_, cat_, env);
    int acc = -1;
    bool acc_scalar = true;
    for (const Expr* c : residual) {
      if (ExprCompiler::ContainsAggregate(*c)) {
        return Status::BindError("aggregates are not allowed in WHERE");
      }
      SCIQL_ASSIGN_OR_RETURN(int r, comp.Compile(*c));
      acc = acc < 0 ? r : prog_->EmitR("batcalc", "and", {acc, r}, "p");
      acc_scalar = acc_scalar && ExprCompiler::IsScalarExpr(*c);
    }
    SCIQL_ASSIGN_OR_RETURN(cands, ApplyFilter(env, acc, acc_scalar, nullptr));
  }
  if (pos != nullptr) {
    // The residual selects among the slab's rows: compose to scan row ids.
    *pos = slab < 0    ? cands
           : cands < 0 ? slab
                       : prog_->EmitR("algebra", "project", {slab, cands},
                                      "pos");
  }
  return Status::OK();
}

Result<Env> SelectCompiler::CompileFrom(const sql::SelectStmt& sel,
                                        std::vector<const sql::Expr*>* residual) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(sel.where.get(), &conjuncts);

  Env acc;
  bool first = true;
  for (const sql::TableRef& ref : sel.from) {
    Env next;
    if (ref.subquery != nullptr) {
      SelectCompiler sub(prog_, cat_);
      SCIQL_ASSIGN_OR_RETURN(next, sub.Compile(*ref.subquery));
      for (EnvCol& c : next.cols) c.qual = ToLower(ref.alias);
    } else {
      SCIQL_ASSIGN_OR_RETURN(next, ScanObject(ref.name, ref.alias));
    }
    if (first) {
      acc = std::move(next);
      first = false;
      continue;
    }

    // Find equi-join conjuncts separable across acc/next.
    std::vector<size_t> used;
    std::vector<const Expr*> lexprs, rexprs;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const Expr* c = conjuncts[i];
      if (c == nullptr || c->kind != Expr::Kind::kBinary ||
          c->bin_op != gdk::BinOp::kEq) {
        continue;
      }
      const Expr* l = c->children[0].get();
      const Expr* r = c->children[1].get();
      if (ExprCompiler::ContainsAggregate(*l) ||
          ExprCompiler::ContainsAggregate(*r)) {
        continue;
      }
      if (BindsWithin(*l, acc) && BindsWithin(*r, next)) {
        lexprs.push_back(l);
        rexprs.push_back(r);
        used.push_back(i);
      } else if (BindsWithin(*r, acc) && BindsWithin(*l, next)) {
        lexprs.push_back(r);
        rexprs.push_back(l);
        used.push_back(i);
      }
    }

    int lo, ro;
    if (!lexprs.empty()) {
      ExprCompiler lcomp(prog_, cat_, &acc);
      ExprCompiler rcomp(prog_, cat_, &next);
      std::vector<int> args = {
          prog_->Const(ScalarValue::Lng(static_cast<int64_t>(lexprs.size())))};
      for (const Expr* e : lexprs) {
        SCIQL_ASSIGN_OR_RETURN(int r, lcomp.Compile(*e));
        args.push_back(r);
      }
      for (const Expr* e : rexprs) {
        SCIQL_ASSIGN_OR_RETURN(int r, rcomp.Compile(*e));
        args.push_back(r);
      }
      lo = prog_->NewReg("lo");
      ro = prog_->NewReg("ro");
      prog_->Emit("algebra", "njoin", {lo, ro}, args);
      for (size_t i : used) conjuncts[i] = nullptr;
    } else {
      SCIQL_ASSIGN_OR_RETURN(int lreg, acc.AnyReg());
      SCIQL_ASSIGN_OR_RETURN(int rreg, next.AnyReg());
      int ln = prog_->EmitR("bat", "count", {lreg}, "nl");
      int rn = prog_->EmitR("bat", "count", {rreg}, "nr");
      lo = prog_->NewReg("lo");
      ro = prog_->NewReg("ro");
      prog_->Emit("algebra", "crossjoin", {lo, ro}, {ln, rn});
    }

    Env merged;
    for (const EnvCol& c : acc.cols) {
      int r = prog_->EmitR("algebra", "project", {c.reg, lo}, c.name);
      merged.cols.push_back(EnvCol{c.qual, c.name, c.is_dim, r});
    }
    for (const EnvCol& c : next.cols) {
      int r = prog_->EmitR("algebra", "project", {c.reg, ro}, c.name);
      merged.cols.push_back(EnvCol{c.qual, c.name, c.is_dim, r});
    }
    acc = std::move(merged);
  }

  for (const Expr* c : conjuncts) {
    if (c != nullptr) residual->push_back(c);
  }
  return acc;
}

Status SelectCompiler::CompileTiling(const sql::SelectStmt& sel,
                                     const Env& env,
                                     const std::vector<const Expr*>& aggs,
                                     std::map<const Expr*, int>* agg_map) {
  const sql::GroupBy& gb = *sel.group_by;
  if (sel.from.size() != 1 || sel.from[0].subquery != nullptr) {
    return Status::BindError(
        "structural grouping requires a single array in FROM");
  }
  const std::string base_name = ToLower(sel.from[0].name);
  if (!cat_->IsArray(base_name)) {
    return Status::BindError(
        StrFormat("structural grouping target %s is not an array",
                  base_name.c_str()));
  }
  SCIQL_ASSIGN_OR_RETURN(auto arr, cat_->GetArray(base_name));
  const array::ArrayDesc& desc = arr->desc;
  const std::string qual =
      ToLower(sel.from[0].alias.empty() ? sel.from[0].name : sel.from[0].alias);

  // Build the tile spec from the patterns (offsets in index space).
  bool single_full_range =
      gb.patterns.size() == 1 &&
      std::all_of(gb.patterns[0].dims.begin(), gb.patterns[0].dims.end(),
                  [](const sql::TileDim& d) { return d.is_range; });
  array::TileSpec spec;
  if (single_full_range) {
    const sql::TilePattern& pat = gb.patterns[0];
    if (pat.dims.size() != desc.ndims()) {
      return Status::BindError("tile pattern dimensionality mismatch");
    }
    std::vector<std::pair<int64_t, int64_t>> ranges;
    for (size_t d = 0; d < pat.dims.size(); ++d) {
      const std::string& dname = desc.dims()[d].name;
      int64_t step = desc.dims()[d].range.step;
      SCIQL_ASSIGN_OR_RETURN(int64_t lo, AnchorOffset(*pat.dims[d].lo, dname));
      SCIQL_ASSIGN_OR_RETURN(int64_t hi, AnchorOffset(*pat.dims[d].hi, dname));
      if (lo % step != 0 || hi % step != 0) {
        return Status::BindError(
            "tile offsets must be multiples of the dimension step");
      }
      ranges.emplace_back(lo / step, hi / step);
    }
    SCIQL_ASSIGN_OR_RETURN(spec, array::TileSpec::FromRanges(ranges));
  } else {
    // Union of explicit cells (ranges within a pattern expand).
    std::vector<std::vector<int64_t>> cells;
    for (const sql::TilePattern& pat : gb.patterns) {
      if (!EqualsIgnoreCase(pat.array, base_name) &&
          !EqualsIgnoreCase(pat.array, qual)) {
        return Status::BindError(
            StrFormat("tile pattern over %s but FROM binds %s",
                      pat.array.c_str(), base_name.c_str()));
      }
      if (pat.dims.size() != desc.ndims()) {
        return Status::BindError("tile pattern dimensionality mismatch");
      }
      std::vector<std::vector<int64_t>> axes;  // per-dim candidate offsets
      for (size_t d = 0; d < pat.dims.size(); ++d) {
        const std::string& dname = desc.dims()[d].name;
        int64_t step = desc.dims()[d].range.step;
        std::vector<int64_t> offs;
        if (pat.dims[d].is_range) {
          SCIQL_ASSIGN_OR_RETURN(int64_t lo,
                                 AnchorOffset(*pat.dims[d].lo, dname));
          SCIQL_ASSIGN_OR_RETURN(int64_t hi,
                                 AnchorOffset(*pat.dims[d].hi, dname));
          if (lo % step != 0 || hi % step != 0) {
            return Status::BindError(
                "tile offsets must be multiples of the dimension step");
          }
          for (int64_t o = lo / step; o < hi / step; ++o) offs.push_back(o);
        } else {
          SCIQL_ASSIGN_OR_RETURN(int64_t o,
                                 AnchorOffset(*pat.dims[d].single, dname));
          if (o % step != 0) {
            return Status::BindError(
                "tile offsets must be multiples of the dimension step");
          }
          offs.push_back(o / step);
        }
        axes.push_back(std::move(offs));
      }
      // Cartesian product of the axes.
      std::vector<std::vector<int64_t>> expanded{{}};
      for (const auto& axis : axes) {
        std::vector<std::vector<int64_t>> next;
        for (const auto& prefix : expanded) {
          for (int64_t o : axis) {
            auto cell = prefix;
            cell.push_back(o);
            next.push_back(std::move(cell));
          }
        }
        expanded = std::move(next);
      }
      for (auto& c : expanded) cells.push_back(std::move(c));
    }
    SCIQL_ASSIGN_OR_RETURN(spec, array::TileSpec::FromCells(std::move(cells)));
  }

  auto desc_obj = std::make_shared<array::ArrayDesc>(desc);
  auto spec_obj = std::make_shared<array::TileSpec>(spec);
  int desc_reg = prog_->Obj(desc_obj, "arraydesc", "@" + base_name);
  int spec_reg =
      prog_->Obj(spec_obj, "tilespec", base_name + spec.ToString(desc));

  ExprCompiler comp(prog_, cat_, &env);
  for (const Expr* agg : aggs) {
    int vals;
    if (agg->star) {
      // COUNT(*) over a tile counts its non-hole cells: use the first
      // attribute as the existence witness.
      if (desc.nattrs() == 0) {
        return Status::BindError("COUNT(*) over an array without attributes");
      }
      SCIQL_ASSIGN_OR_RETURN(int idx, env.Resolve(qual, desc.attrs()[0].name));
      vals = env.cols[static_cast<size_t>(idx)].reg;
    } else {
      SCIQL_ASSIGN_OR_RETURN(vals, comp.Compile(*agg->children[0]));
    }
    std::string opname = agg->star ? "count" : gdk::AggOpName(agg->agg_op);
    int out = prog_->EmitR("array", "tileagg",
                           {desc_reg, spec_reg,
                            prog_->Const(ScalarValue::Str(opname)), vals},
                           "tile");
    (*agg_map)[agg] = out;
  }
  return Status::OK();
}

Result<Env> SelectCompiler::Compile(const sql::SelectStmt& sel) {
  if (sel.items.empty()) return Status::BindError("empty select list");

  // Collect aggregates from select items and HAVING.
  std::vector<const Expr*> aggs;
  for (const auto& item : sel.items) {
    if (item.expr != nullptr) ExprCompiler::CollectAggregates(*item.expr, &aggs);
  }
  if (sel.having != nullptr) ExprCompiler::CollectAggregates(*sel.having, &aggs);
  for (const auto& o : sel.order_by) {
    ExprCompiler::CollectAggregates(*o.expr, &aggs);
  }

  bool structural = sel.group_by.has_value() && sel.group_by->structural;
  bool value_group = sel.group_by.has_value() && !sel.group_by->structural;

  std::vector<const Expr*> residual;
  Env env;
  if (!sel.from.empty()) {
    SCIQL_ASSIGN_OR_RETURN(env, CompileFrom(sel, &residual));
  } else if (sel.where != nullptr) {
    return Status::BindError("WHERE requires a FROM clause");
  }

  std::map<const Expr*, int> agg_map;
  std::vector<int> agg_regs;  // aligned with env rows (tiling) for filtering

  if (structural) {
    // Tiles see the full array; WHERE then filters anchors (below).
    SCIQL_RETURN_NOT_OK(CompileTiling(sel, env, aggs, &agg_map));
    for (const Expr* a : aggs) agg_regs.push_back(agg_map[a]);

    // WHERE as anchor filter.
    if (!residual.empty()) {
      ExprCompiler comp(prog_, cat_, &env);
      comp.set_agg_map(&agg_map);
      int acc = -1;
      bool acc_scalar = true;
      for (const Expr* c : residual) {
        SCIQL_ASSIGN_OR_RETURN(int r, comp.Compile(*c));
        acc = acc < 0 ? r : prog_->EmitR("batcalc", "and", {acc, r}, "p");
        acc_scalar = acc_scalar && ExprCompiler::IsScalarExpr(*c);
      }
      SCIQL_RETURN_NOT_OK(
          ApplyFilter(&env, acc, acc_scalar, &agg_regs).status());
      for (size_t i = 0; i < aggs.size(); ++i) agg_map[aggs[i]] = agg_regs[i];
    }
  } else {
    // Plain WHERE filter; over a single base array, dimension conjuncts
    // become a slab (joins and subqueries have no cell geometry to use).
    bool base_array = sel.from.size() == 1 && sel.from[0].subquery == nullptr;
    SCIQL_RETURN_NOT_OK(CompileWhere(base_array ? ToLower(sel.from[0].name) : "",
                                     residual, &env, nullptr));

    if (value_group) {
      const auto& keys = sel.group_by->keys;
      if (keys.empty()) return Status::BindError("empty GROUP BY");
      ExprCompiler comp(prog_, cat_, &env);
      // Grouping chain.
      int groups = -1, extents = -1, ngroups = -1;
      std::vector<int> key_regs;
      for (size_t k = 0; k < keys.size(); ++k) {
        SCIQL_ASSIGN_OR_RETURN(int kr, comp.Compile(*keys[k]));
        key_regs.push_back(kr);
        int g = prog_->NewReg("groups");
        int x = prog_->NewReg("extents");
        int n = prog_->NewReg("ngroups");
        if (groups < 0) {
          prog_->Emit("group", "group", {g, x, n}, {kr});
        } else {
          prog_->Emit("group", "subgroup", {g, x, n}, {kr, groups, ngroups});
        }
        groups = g;
        extents = x;
        ngroups = n;
      }
      // Aggregates over the pre-group environment.
      for (const Expr* agg : aggs) {
        int out;
        if (agg->star) {
          out = prog_->EmitR("aggr", "count_star", {groups, ngroups}, "agg");
        } else {
          SCIQL_ASSIGN_OR_RETURN(int arg, comp.Compile(*agg->children[0]));
          out = prog_->EmitR("aggr", gdk::AggOpName(agg->agg_op),
                             {arg, groups, ngroups}, "agg");
        }
        agg_map[agg] = out;
      }
      // New environment: group keys projected through the extents.
      Env genv;
      for (size_t k = 0; k < keys.size(); ++k) {
        int kout = prog_->EmitR("algebra", "project",
                                {key_regs[k], extents}, "key");
        std::string name = keys[k]->kind == Expr::Kind::kColumn
                               ? ToLower(keys[k]->column)
                               : ToLower(keys[k]->ToString());
        std::string qual = keys[k]->kind == Expr::Kind::kColumn
                               ? ToLower(keys[k]->table)
                               : "";
        bool is_dim = false;
        if (keys[k]->kind == Expr::Kind::kColumn) {
          auto idx = env.Resolve(keys[k]->table, keys[k]->column);
          if (idx.ok()) is_dim = env.cols[static_cast<size_t>(*idx)].is_dim;
        }
        genv.cols.push_back(EnvCol{qual, name, is_dim, kout});
      }
      env = std::move(genv);
    } else if (!aggs.empty()) {
      // Whole-input aggregation (no GROUP BY): scalar aggregates.
      ExprCompiler comp(prog_, cat_, &env);
      for (const Expr* agg : aggs) {
        int out;
        if (agg->star) {
          SCIQL_ASSIGN_OR_RETURN(int any, env.AnyReg());
          out = prog_->EmitR("bat", "count", {any}, "agg");
        } else {
          SCIQL_ASSIGN_OR_RETURN(int arg, comp.Compile(*agg->children[0]));
          out = prog_->EmitR("aggr",
                             std::string(gdk::AggOpName(agg->agg_op)) + "_all",
                             {arg}, "agg");
        }
        agg_map[agg] = out;
      }
      env = Env{};  // non-grouped columns are out of scope
    }
  }

  // HAVING: filter groups/anchors.
  if (sel.having != nullptr) {
    if (!sel.group_by.has_value()) {
      return Status::NotSupported("HAVING requires a GROUP BY clause");
    }
    ExprCompiler comp(prog_, cat_, &env);
    comp.set_agg_map(&agg_map);
    SCIQL_ASSIGN_OR_RETURN(int bits, comp.Compile(*sel.having));
    bool scalar = ExprCompiler::IsScalarExpr(*sel.having);
    if (!env.cols.empty() || !agg_regs.empty()) {
      std::vector<int> aligned;
      for (const Expr* a : aggs) aligned.push_back(agg_map[a]);
      // In the value-group case agg outputs are aligned with groups (the
      // current env); in the tiling case with anchors (also the env).
      SCIQL_RETURN_NOT_OK(ApplyFilter(&env, bits, scalar, &aligned).status());
      for (size_t i = 0; i < aggs.size(); ++i) agg_map[aggs[i]] = aligned[i];
    }
  }

  // Select items.
  Env out;
  ExprCompiler comp(prog_, cat_, &env);
  comp.set_agg_map(&agg_map);
  for (size_t i = 0; i < sel.items.size(); ++i) {
    const sql::SelectItem& item = sel.items[i];
    if (item.is_star) {
      for (const EnvCol& c : env.cols) {
        out.cols.push_back(EnvCol{"", c.name, c.is_dim, c.reg});
      }
      continue;
    }
    // A select item that syntactically matches a GROUP BY key expression
    // refers to the key's (projected) register.
    int reg = -1;
    if (item.expr->kind != Expr::Kind::kColumn) {
      std::string repr = ToLower(item.expr->ToString());
      for (const EnvCol& c : env.cols) {
        if (c.name == repr) {
          reg = c.reg;
          break;
        }
      }
    }
    if (reg < 0) {
      SCIQL_ASSIGN_OR_RETURN(reg, comp.Compile(*item.expr));
    }
    std::string name =
        item.alias.empty() ? DeriveName(*item.expr, i) : ToLower(item.alias);
    // A constant item (SELECT 14 AS c0 FROM t) compiles to a scalar
    // register; broadcast it against any row-aligned column so the output
    // has one value per row and ORDER BY/LIMIT over the alias works. With
    // no row source (SELECT 14, or whole-input aggregation) the scalar is
    // already the single-row answer.
    if (ExprCompiler::IsScalarExpr(*item.expr)) {
      if (auto ref = env.AnyReg(); ref.ok()) {
        reg = prog_->EmitR("bat", "broadcast", {reg, *ref}, name);
      }
    }
    out.cols.push_back(EnvCol{"", name, item.is_dim, reg});
  }

  // DISTINCT: group over all output columns, keep one representative row.
  if (sel.distinct) {
    if (out.cols.empty()) {
      return Status::BindError("DISTINCT over an empty select list");
    }
    int groups = -1, extents = -1, ngroups = -1;
    for (const EnvCol& c : out.cols) {
      int g = prog_->NewReg("dgroups");
      int x = prog_->NewReg("dextents");
      int n = prog_->NewReg("dn");
      if (groups < 0) {
        prog_->Emit("group", "group", {g, x, n}, {c.reg});
      } else {
        prog_->Emit("group", "subgroup", {g, x, n}, {c.reg, groups, ngroups});
      }
      groups = g;
      extents = x;
      ngroups = n;
    }
    for (EnvCol& c : out.cols) {
      c.reg = prog_->EmitR("algebra", "project", {c.reg, extents}, c.name);
    }
  }

  // ORDER BY over output aliases or the post-group environment.
  if (!sel.order_by.empty()) {
    std::vector<int> sort_args;
    for (const auto& oi : sel.order_by) {
      int key = -1;
      if (oi.expr->kind == Expr::Kind::kColumn && oi.expr->table.empty()) {
        for (const EnvCol& c : out.cols) {
          if (EqualsIgnoreCase(c.name, oi.expr->column)) {
            key = c.reg;
            break;
          }
        }
      }
      if (key < 0) {
        if (sel.distinct) {
          // After DISTINCT only the output columns are row-aligned.
          return Status::BindError(
              "ORDER BY with DISTINCT must reference select-list columns");
        }
        SCIQL_ASSIGN_OR_RETURN(key, comp.Compile(*oi.expr));
      }
      sort_args.push_back(key);
      sort_args.push_back(prog_->Const(ScalarValue::Lng(oi.desc ? 1 : 0)));
    }
    int idx;
    const bool fuse_firstn = sel.limit >= 0 && GetPlannerControls().fuse_firstn;
    if (fuse_firstn) {
      // ORDER BY + LIMIT fuses into top-k: algebra.firstn computes only the
      // first k index entries (bounded per-morsel heaps; an existing order
      // index short-circuits to an O(k) window copy), so the sort + slice
      // pair below never materializes the full permutation.
      std::vector<int> args = {prog_->Const(ScalarValue::Lng(sel.limit))};
      args.insert(args.end(), sort_args.begin(), sort_args.end());
      idx = prog_->EmitR("algebra", "firstn", args, "topk");
    } else {
      // Every ORDER BY without LIMIT orders through the keyed persistent
      // index cache (algebra.orderidx): single or multi-key, either
      // direction. The canonical (primary-ascending) index is built once
      // and cached on the first key column; the exact spec reuses it and
      // the negated spec (e.g. ORDER BY x DESC after ORDER BY x) is served
      // by run reversal — never a second sort.
      idx = prog_->EmitR("algebra", "orderidx", sort_args, "ord");
    }
    for (EnvCol& c : out.cols) {
      c.reg = prog_->EmitR("algebra", "project", {c.reg, idx}, c.name);
    }
    if (sel.limit >= 0 && !fuse_firstn) {
      // Fusion disabled (differential testing): materialize the full sort
      // and slice its prefix — the pipeline algebra.firstn must match
      // bit-for-bit.
      int lo = prog_->Const(ScalarValue::Lng(0));
      int hi = prog_->Const(ScalarValue::Lng(sel.limit));
      for (EnvCol& c : out.cols) {
        c.reg = prog_->EmitR("algebra", "slice", {c.reg, lo, hi}, c.name);
      }
    }
  } else if (sel.limit >= 0) {
    // LIMIT without ORDER BY keeps the row-order prefix: a plain slice.
    int lo = prog_->Const(ScalarValue::Lng(0));
    int hi = prog_->Const(ScalarValue::Lng(sel.limit));
    for (EnvCol& c : out.cols) {
      c.reg = prog_->EmitR("algebra", "slice", {c.reg, lo, hi}, c.name);
    }
  }
  return out;
}

}  // namespace engine
}  // namespace sciql
