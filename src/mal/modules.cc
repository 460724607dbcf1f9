// The MAL op table: every module.fn the engine knows (bat, algebra, batcalc,
// group, aggr, array, sql), each row holding its signatures beside its
// kernel. The verifier and the interpreter both read these rows.
//
// The array module provides the paper's new primitives (array.series,
// array.filler — Sec. 3) plus the cell-addressing and tiling operations the
// SciQL compiler emits.

#include <type_traits>
#include <unordered_map>

#include "src/array/series.h"
#include "src/array/tiling.h"
#include "src/common/string_util.h"
#include "src/gdk/kernels.h"
#include "src/mal/interpreter.h"

namespace sciql {
namespace mal {

using gdk::AggOp;
using gdk::BAT;
using gdk::BATPtr;
using gdk::BinOp;
using gdk::PhysType;
using gdk::ScalarValue;
using gdk::UnOp;

namespace {

constexpr AK kVal = AK::kVal;
constexpr AK kBat = AK::kBat;
constexpr AK kScalar = AK::kScalar;
constexpr AK kNum = AK::kNum;
constexpr AK kStr = AK::kStr;
constexpr AK kObjArray = AK::kObjArray;
constexpr AK kObjTile = AK::kObjTile;

/// Exactly `args`, returning `rets`.
OpSig Fixed(std::vector<AK> args, std::vector<AK> rets) {
  return OpSig{std::move(args), {}, std::move(rets)};
}

/// `fixed`, then one or more repetitions of `group`, returning `rets`.
OpSig Variadic(std::vector<AK> fixed, std::vector<AK> group,
               std::vector<AK> rets) {
  return OpSig{std::move(fixed), std::move(group), std::move(rets)};
}

/// `nargs` BAT-or-scalar operands, one result shaped like them (batcalc).
OpSig Poly(size_t nargs) {
  return OpSig{std::vector<AK>(nargs, kVal), {}, {}, /*poly_ret=*/true};
}

Result<BATPtr> BatArg(MalContext* ctx, const MalInstr& in, size_t i) {
  const MalValue& v = ctx->Reg(in.args[i]);
  if (!v.IsBat()) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a BAT", in.name.c_str(), i));
  }
  return v.bat;
}

Result<ScalarValue> ScalarArg(MalContext* ctx, const MalInstr& in, size_t i) {
  const MalValue& v = ctx->Reg(in.args[i]);
  if (!v.IsScalar()) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a scalar", in.name.c_str(), i));
  }
  return v.scalar;
}

Result<int64_t> LngArg(MalContext* ctx, const MalInstr& in, size_t i) {
  SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, i));
  if (v.is_null || (!gdk::IsNumeric(v.type) && v.type != PhysType::kOid)) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not an integer", in.name.c_str(), i));
  }
  return v.AsInt64();
}

/// A row or group count: an integer argument that must not be negative
/// (cast to size_t, -1 would ask for 2^64 - 1 entries).
Result<size_t> CountArg(MalContext* ctx, const MalInstr& in, size_t i) {
  SCIQL_ASSIGN_OR_RETURN(int64_t n, LngArg(ctx, in, i));
  if (n < 0) {
    return Status::InvalidArgument(
        StrFormat("%s: argument %zu is a negative count (%lld)",
                  in.name.c_str(), i, static_cast<long long>(n)));
  }
  return static_cast<size_t>(n);
}

Result<std::string> StrArg(MalContext* ctx, const MalInstr& in, size_t i) {
  SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, i));
  if (v.is_null || v.type != PhysType::kStr) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a string", in.name.c_str(), i));
  }
  return v.s;
}

void SetRet(MalContext* ctx, const MalInstr& in, size_t i, MalValue v) {
  ctx->Var(in.rets[i]) = std::move(v);
}

Result<AggOp> AggOpFromName(const std::string& s) {
  if (s == "sum") return AggOp::kSum;
  if (s == "avg") return AggOp::kAvg;
  if (s == "min") return AggOp::kMin;
  if (s == "max") return AggOp::kMax;
  if (s == "count") return AggOp::kCount;
  if (s == "count_star") return AggOp::kCountStar;
  return Status::Internal("unknown aggregate: " + s);
}

Result<gdk::CmpOp> CmpOpFromName(const std::string& op) {
  if (op == "==") return gdk::CmpOp::kEq;
  if (op == "!=") return gdk::CmpOp::kNe;
  if (op == "<") return gdk::CmpOp::kLt;
  if (op == "<=") return gdk::CmpOp::kLe;
  if (op == ">") return gdk::CmpOp::kGt;
  if (op == ">=") return gdk::CmpOp::kGe;
  return Status::Internal("bad comparison op " + op);
}

/// The (key, desc) pairs of algebra.orderidx / algebra.firstn, from argument
/// `first` on.
Status KeySpecArgs(MalContext* ctx, const MalInstr& in, size_t first,
                   std::vector<BATPtr>* keys, std::vector<bool>* desc) {
  for (size_t i = first; i < in.args.size(); i += 2) {
    SCIQL_ASSIGN_OR_RETURN(BATPtr k, BatArg(ctx, in, i));
    SCIQL_ASSIGN_OR_RETURN(int64_t d, LngArg(ctx, in, i + 1));
    keys->push_back(std::move(k));
    desc->push_back(d != 0);
  }
  return Status::OK();
}

template <BinOp kOp>
Status Binary(MalContext* ctx, const MalInstr& in) {
  const MalValue& l = ctx->Reg(in.args[0]);
  const MalValue& r = ctx->Reg(in.args[1]);
  if (l.IsScalar() && r.IsScalar()) {
    SCIQL_ASSIGN_OR_RETURN(ScalarValue out,
                           gdk::CalcBinaryScalar(kOp, l.scalar, r.scalar));
    SetRet(ctx, in, 0, MalValue::Of(out));
    return Status::OK();
  }
  const BAT* lb = l.IsBat() ? l.bat.get() : nullptr;
  const BAT* rb = r.IsBat() ? r.bat.get() : nullptr;
  const ScalarValue* ls = l.IsScalar() ? &l.scalar : nullptr;
  const ScalarValue* rs = r.IsScalar() ? &r.scalar : nullptr;
  if ((lb == nullptr && ls == nullptr) || (rb == nullptr && rs == nullptr)) {
    return Status::Internal("batcalc operand is neither BAT nor scalar");
  }
  SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::CalcBinary(kOp, lb, ls, rb, rs));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

template <UnOp kOp>
Status Unary(MalContext* ctx, const MalInstr& in) {
  const MalValue& v = ctx->Reg(in.args[0]);
  if (v.IsScalar()) {
    SCIQL_ASSIGN_OR_RETURN(ScalarValue out,
                           gdk::CalcUnaryScalar(kOp, v.scalar));
    SetRet(ctx, in, 0, MalValue::Of(out));
    return Status::OK();
  }
  if (!v.IsBat()) return Status::Internal("batcalc operand invalid");
  SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::CalcUnary(kOp, *v.bat));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

/// aggr.<op>(vals, groups, ngroups) -> one value per group.
template <AggOp kOp>
Status GroupedAggregate(MalContext* ctx, const MalInstr& in) {
  SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 0));
  SCIQL_ASSIGN_OR_RETURN(BATPtr groups, BatArg(ctx, in, 1));
  SCIQL_ASSIGN_OR_RETURN(size_t ng, CountArg(ctx, in, 2));
  SCIQL_ASSIGN_OR_RETURN(BATPtr out,
                         gdk::GroupedAggregate(kOp, vals.get(), *groups, ng));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

/// aggr.<op>_all(vals) -> one scalar over the whole input.
template <AggOp kOp>
Status WholeAggregate(MalContext* ctx, const MalInstr& in) {
  SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 0));
  SCIQL_ASSIGN_OR_RETURN(ScalarValue out, gdk::Aggregate(kOp, *vals));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

/// bat.pack's fill of a BAT of numeric type `t`: values already of type `t`
/// go straight onto its tail `out`; NULLs and narrower values take
/// BAT::Append's nil and widening rules.
template <typename T>
Status PackTyped(MalContext* ctx, const MalInstr& in, PhysType t, BAT* b,
                 std::vector<T>* out) {
  for (int a : in.args) {
    const ScalarValue& v = ctx->Reg(a).scalar;
    if (v.is_null || v.type != t) {
      SCIQL_RETURN_NOT_OK(b->Append(v));
    } else if constexpr (std::is_same_v<T, double>) {
      out->push_back(v.d);
    } else {
      out->push_back(static_cast<T>(v.i));
    }
  }
  return Status::OK();
}

/// group.group(b) / group.subgroup(b, prev, nprev) ->
/// (groups, extents, ngroups).
void SetGroupRets(MalContext* ctx, const MalInstr& in,
                  const gdk::GroupResult& gr) {
  SetRet(ctx, in, 0, MalValue::Of(gr.groups));
  SetRet(ctx, in, 1, MalValue::Of(gr.extents));
  SetRet(ctx, in, 2,
         MalValue::Of(ScalarValue::Lng(static_cast<int64_t>(gr.ngroups))));
}

std::vector<OpDef> BuildOps() {
  return {
      // ---------------------------------------------------------------------
      // bat
      // ---------------------------------------------------------------------
      {"bat", "count", {Fixed({kBat}, {kNum})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
         SetRet(ctx, in, 0,
                MalValue::Of(
                    ScalarValue::Lng(static_cast<int64_t>(b->Count()))));
         return Status::OK();
       }},

      {"bat", "dense", {Fixed({kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(size_t n, CountArg(ctx, in, 0));
         SetRet(ctx, in, 0, MalValue::Of(BAT::MakeDense(0, n)));
         return Status::OK();
       }},

      // bat.pack(v1, v2, ...) -> BAT of the scalars, typed by the *widest*
      // non-null value (bit < int < lng < dbl). Typing by the first value
      // loses later wider literals: INSERT ... VALUES (5),
      // (9223372036854775807) would pack an int BAT and reject the lng row
      // even though the target column is BIGINT. Non-numeric values keep the
      // first non-null type and let Append report the mismatch.
      {"bat", "pack", {Variadic({}, {kScalar}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         auto rank = [](PhysType t) {
           switch (t) {
             case PhysType::kBit: return 1;
             case PhysType::kInt: return 2;
             case PhysType::kLng: return 3;
             case PhysType::kDbl: return 4;
             default: return 0;  // non-numeric: no widening
           }
         };
         PhysType t = PhysType::kInt;
         bool seen = false;
         for (int a : in.args) {
           const MalValue& v = ctx->Reg(a);
           if (!v.IsScalar()) {
             return Status::Internal("bat.pack expects scalars");
           }
           if (v.scalar.is_null) continue;
           if (!seen) {
             t = v.scalar.type;
             seen = true;
           } else if (rank(v.scalar.type) > rank(t) && rank(t) > 0) {
             t = v.scalar.type;
           }
         }
         auto b = BAT::Make(t);
         b->Reserve(in.args.size());
         switch (t) {
           case PhysType::kInt:
             SCIQL_RETURN_NOT_OK(PackTyped(ctx, in, t, b.get(), &b->ints()));
             break;
           case PhysType::kLng:
             SCIQL_RETURN_NOT_OK(PackTyped(ctx, in, t, b.get(), &b->lngs()));
             break;
           case PhysType::kDbl:
             SCIQL_RETURN_NOT_OK(PackTyped(ctx, in, t, b.get(), &b->dbls()));
             break;
           default:
             for (int a : in.args) {
               SCIQL_RETURN_NOT_OK(b->Append(ctx->Reg(a).scalar));
             }
             break;
         }
         SetRet(ctx, in, 0, MalValue::Of(b));
         return Status::OK();
       }},

      // bat.broadcast(v, ref) -> BAT of ref's length filled with the scalar
      // v. A BAT first argument passes through untouched, so the planner can
      // emit this unconditionally for select items it cannot prove are
      // row-aligned.
      {"bat", "broadcast", {Fixed({kVal, kBat}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         const MalValue& v = ctx->Reg(in.args[0]);
         if (v.IsBat()) {
           SetRet(ctx, in, 0, v);
           return Status::OK();
         }
         if (!v.IsScalar()) {
           return Status::Internal("bat.broadcast expects a scalar");
         }
         SCIQL_ASSIGN_OR_RETURN(BATPtr ref, BatArg(ctx, in, 1));
         auto b = BAT::Make(v.scalar.type);
         b->Reserve(ref->Count());
         for (size_t i = 0; i < ref->Count(); ++i) {
           SCIQL_RETURN_NOT_OK(b->Append(v.scalar));
         }
         SetRet(ctx, in, 0, MalValue::Of(b));
         return Status::OK();
       }},

      // ---------------------------------------------------------------------
      // algebra
      // ---------------------------------------------------------------------
      // algebra.select(bits [, candidates]) -> positions of true bits.
      {"algebra",
       "select",
       {Fixed({kBat}, {kBat}), Fixed({kBat, kBat}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr bits, BatArg(ctx, in, 0));
         BATPtr cands;
         if (in.args.size() == 2) {
           SCIQL_ASSIGN_OR_RETURN(cands, BatArg(ctx, in, 1));
         }
         SCIQL_ASSIGN_OR_RETURN(BATPtr out,
                                gdk::BoolSelect(*bits, cands.get()));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      {"algebra", "project", {Fixed({kBat, kBat}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(BATPtr pos, BatArg(ctx, in, 1));
         SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::Project(*b, *pos));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      // algebra.njoin(nkeys, l1..lk, r1..rk) -> (lo, ro)
      {"algebra", "njoin", {Variadic({kNum}, {kBat, kBat}, {kBat, kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(int64_t nkeys, LngArg(ctx, in, 0));
         // A negative count cast to size_t can wrap 1 + 2k to the real
         // argument count, so it is refused before the comparison.
         size_t k = static_cast<size_t>(nkeys);
         if (nkeys < 1 || in.args.size() != 1 + 2 * k) {
           return Status::Internal("algebra.njoin argument count");
         }
         std::vector<BATPtr> keep;
         std::vector<const BAT*> lk, rk;
         for (size_t i = 0; i < k; ++i) {
           SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 1 + i));
           keep.push_back(b);
           lk.push_back(keep.back().get());
         }
         for (size_t i = 0; i < k; ++i) {
           SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 1 + k + i));
           keep.push_back(b);
           rk.push_back(keep.back().get());
         }
         SCIQL_ASSIGN_OR_RETURN(gdk::JoinResult jr,
                                gdk::HashJoinMulti(lk, rk));
         SetRet(ctx, in, 0, MalValue::Of(jr.left));
         SetRet(ctx, in, 1, MalValue::Of(jr.right));
         return Status::OK();
       }},

      {"algebra", "crossjoin", {Fixed({kNum, kNum}, {kBat, kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(size_t nl, CountArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(size_t nr, CountArg(ctx, in, 1));
         gdk::JoinResult jr = gdk::CrossJoin(nl, nr);
         SetRet(ctx, in, 0, MalValue::Of(jr.left));
         SetRet(ctx, in, 1, MalValue::Of(jr.right));
         return Status::OK();
       }},

      {"algebra", "slice", {Fixed({kBat, kNum, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(int64_t lo, LngArg(ctx, in, 1));
         SCIQL_ASSIGN_OR_RETURN(int64_t hi, LngArg(ctx, in, 2));
         // A negative bound cast to size_t would wrap to a huge offset;
         // reject it here instead of relying on Slice's clamping (which only
         // bounds the upper end to Count()).
         if (lo < 0 || hi < 0) {
           return Status::InvalidArgument(StrFormat(
               "algebra.slice: negative bounds [%lld, %lld)",
               static_cast<long long>(lo), static_cast<long long>(hi)));
         }
         SetRet(ctx, in, 0,
                MalValue::Of(b->Slice(static_cast<size_t>(lo),
                                      static_cast<size_t>(hi))));
         return Status::OK();
       }},

      // algebra.firstn(k, key0, desc0, key1, desc1, ...) -> the first k
      // entries of the stable order index, computed with bounded per-morsel
      // heaps (an existing persistent index short-circuits to a window copy).
      // Emitted by the planner for ORDER BY ... LIMIT k in place of a sort +
      // slice pair.
      {"algebra", "firstn", {Variadic({kNum}, {kBat, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(int64_t k, LngArg(ctx, in, 0));
         if (k < 0) {
           return Status::InvalidArgument(
               StrFormat("algebra.firstn: negative row count %lld",
                         static_cast<long long>(k)));
         }
         std::vector<BATPtr> keys;
         std::vector<bool> desc;
         SCIQL_RETURN_NOT_OK(KeySpecArgs(ctx, in, 1, &keys, &desc));
         std::vector<const BAT*> raw;
         for (const BATPtr& key : keys) raw.push_back(key.get());
         SCIQL_ASSIGN_OR_RETURN(
             BATPtr idx, gdk::FirstN(raw, desc, static_cast<size_t>(k)));
         SetRet(ctx, in, 0, MalValue::Of(idx));
         return Status::OK();
       }},

      // algebra.orderidx(key0, desc0, key1, desc1, ...) -> the stable order
      // index for the spec, served from the keyed persistent cache on the
      // first key column: the canonical (primary ascending) index is built
      // once; exact specs reuse it, negated specs (e.g. single-key DESC)
      // derive from it by run reversal — no second sort.
      {"algebra", "orderidx", {Variadic({}, {kBat, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         std::vector<BATPtr> keys;
         std::vector<bool> desc;
         SCIQL_RETURN_NOT_OK(KeySpecArgs(ctx, in, 0, &keys, &desc));
         SCIQL_ASSIGN_OR_RETURN(gdk::OrderIndexPtr idx,
                                gdk::EnsureOrderIndexSpec(keys, desc));
         auto out = BAT::Make(PhysType::kOid);
         out->oids() = *idx;
         SetRet(ctx, in, 0, MalValue::Of(std::move(out)));
         return Status::OK();
       }},

      // ---------------------------------------------------------------------
      // batcalc: shape-polymorphic over scalars and BATs
      // ---------------------------------------------------------------------
      {"batcalc", "+", {Poly(2)}, &Binary<BinOp::kAdd>},
      {"batcalc", "-", {Poly(2)}, &Binary<BinOp::kSub>},
      {"batcalc", "*", {Poly(2)}, &Binary<BinOp::kMul>},
      {"batcalc", "/", {Poly(2)}, &Binary<BinOp::kDiv>},
      {"batcalc", "%", {Poly(2)}, &Binary<BinOp::kMod>},
      {"batcalc", "==", {Poly(2)}, &Binary<BinOp::kEq>},
      {"batcalc", "!=", {Poly(2)}, &Binary<BinOp::kNe>},
      {"batcalc", "<", {Poly(2)}, &Binary<BinOp::kLt>},
      {"batcalc", "<=", {Poly(2)}, &Binary<BinOp::kLe>},
      {"batcalc", ">", {Poly(2)}, &Binary<BinOp::kGt>},
      {"batcalc", ">=", {Poly(2)}, &Binary<BinOp::kGe>},
      {"batcalc", "and", {Poly(2)}, &Binary<BinOp::kAnd>},
      {"batcalc", "or", {Poly(2)}, &Binary<BinOp::kOr>},
      {"batcalc", "not", {Poly(1)}, &Unary<UnOp::kNot>},
      {"batcalc", "neg", {Poly(1)}, &Unary<UnOp::kNeg>},
      {"batcalc", "abs", {Poly(1)}, &Unary<UnOp::kAbs>},
      {"batcalc", "isnil", {Poly(1)}, &Unary<UnOp::kIsNull>},

      {"batcalc", "ifthenelse", {Poly(3)},
       [](MalContext* ctx, const MalInstr& in) {
         const MalValue& c = ctx->Reg(in.args[0]);
         const MalValue& t = ctx->Reg(in.args[1]);
         const MalValue& el = ctx->Reg(in.args[2]);
         BATPtr cond = c.IsBat() ? c.bat : nullptr;
         if (c.IsScalar()) {
           // Scalar condition over scalar arms: pick the arm directly.
           const MalValue* bat_arm =
               t.IsBat() ? &t : el.IsBat() ? &el : nullptr;
           if (bat_arm == nullptr) {
             SetRet(ctx, in, 0, c.scalar.IsTrue() ? t : el);
             return Status::OK();
           }
           // A BAT arm makes the result row-aligned with it, whichever arm
           // is chosen: broadcast the condition to the BAT's length, so the
           // chosen arm is broadcast and typed exactly as under a BAT
           // condition.
           cond = BAT::MakeConst(ScalarValue::Bit(c.scalar.IsTrue()),
                                 bat_arm->bat->Count());
         }
         if (cond == nullptr) return Status::Internal("bad CASE condition");
         SCIQL_ASSIGN_OR_RETURN(
             BATPtr out,
             gdk::IfThenElse(*cond, t.IsBat() ? t.bat.get() : nullptr,
                             t.IsScalar() ? &t.scalar : nullptr,
                             el.IsBat() ? el.bat.get() : nullptr,
                             el.IsScalar() ? &el.scalar : nullptr));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      {"batcalc", "const", {Fixed({kScalar, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(size_t n, CountArg(ctx, in, 1));
         SetRet(ctx, in, 0, MalValue::Of(BAT::MakeConst(v, n)));
         return Status::OK();
       }},

      // ---------------------------------------------------------------------
      // group / aggr
      // ---------------------------------------------------------------------
      {"group", "group", {Fixed({kBat}, {kBat, kBat, kNum})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(gdk::GroupResult gr,
                                gdk::Group(*b, nullptr, 0));
         SetGroupRets(ctx, in, gr);
         return Status::OK();
       }},

      {"group", "subgroup",
       {Fixed({kBat, kBat, kNum}, {kBat, kBat, kNum})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(BATPtr prev, BatArg(ctx, in, 1));
         SCIQL_ASSIGN_OR_RETURN(size_t ng, CountArg(ctx, in, 2));
         SCIQL_ASSIGN_OR_RETURN(gdk::GroupResult gr,
                                gdk::Group(*b, prev.get(), ng));
         SetGroupRets(ctx, in, gr);
         return Status::OK();
       }},

      {"aggr", "sum", {Fixed({kBat, kBat, kNum}, {kBat})},
       &GroupedAggregate<AggOp::kSum>},
      {"aggr", "avg", {Fixed({kBat, kBat, kNum}, {kBat})},
       &GroupedAggregate<AggOp::kAvg>},
      {"aggr", "min", {Fixed({kBat, kBat, kNum}, {kBat})},
       &GroupedAggregate<AggOp::kMin>},
      {"aggr", "max", {Fixed({kBat, kBat, kNum}, {kBat})},
       &GroupedAggregate<AggOp::kMax>},
      {"aggr", "count", {Fixed({kBat, kBat, kNum}, {kBat})},
       &GroupedAggregate<AggOp::kCount>},

      {"aggr", "count_star", {Fixed({kBat, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(BATPtr groups, BatArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(size_t ng, CountArg(ctx, in, 1));
         SCIQL_ASSIGN_OR_RETURN(
             BATPtr out,
             gdk::GroupedAggregate(AggOp::kCountStar, nullptr, *groups, ng));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      {"aggr", "sum_all", {Fixed({kBat}, {kScalar})},
       &WholeAggregate<AggOp::kSum>},
      {"aggr", "avg_all", {Fixed({kBat}, {kScalar})},
       &WholeAggregate<AggOp::kAvg>},
      {"aggr", "min_all", {Fixed({kBat}, {kScalar})},
       &WholeAggregate<AggOp::kMin>},
      {"aggr", "max_all", {Fixed({kBat}, {kScalar})},
       &WholeAggregate<AggOp::kMax>},
      {"aggr", "count_all", {Fixed({kBat}, {kScalar})},
       &WholeAggregate<AggOp::kCount>},

      // ---------------------------------------------------------------------
      // array
      // ---------------------------------------------------------------------
      {"array", "series", {Fixed({kNum, kNum, kNum, kNum, kNum}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(int64_t start, LngArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(int64_t step, LngArg(ctx, in, 1));
         SCIQL_ASSIGN_OR_RETURN(int64_t stop, LngArg(ctx, in, 2));
         SCIQL_ASSIGN_OR_RETURN(size_t n, CountArg(ctx, in, 3));
         SCIQL_ASSIGN_OR_RETURN(size_t m, CountArg(ctx, in, 4));
         array::DimRange r(start, step, stop);
         SCIQL_RETURN_NOT_OK(r.Validate());
         SetRet(ctx, in, 0, MalValue::Of(array::Series(r, n, m)));
         return Status::OK();
       }},

      {"array", "filler", {Fixed({kNum, kScalar}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(size_t cnt, CountArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, 1));
         SetRet(ctx, in, 0, MalValue::Of(array::Filler(cnt, v)));
         return Status::OK();
       }},

      // array.cellpos(desc, d1, ..., dk) -> the cell position of each
      // row's dimension values.
      {"array", "cellpos", {Variadic({kObjArray}, {kBat}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         const auto* desc =
             ctx->Reg(in.args[0]).As<array::ArrayDesc>("arraydesc");
         if (desc == nullptr) {
           return Status::Internal("array.cellpos: bad descriptor");
         }
         std::vector<BATPtr> keep;
         std::vector<const BAT*> dims;
         for (size_t i = 1; i < in.args.size(); ++i) {
           SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, i));
           keep.push_back(b);
           dims.push_back(keep.back().get());
         }
         SCIQL_ASSIGN_OR_RETURN(BATPtr out, array::CellPositions(*desc, dims));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      // array.slab(name, (dim, cmp, bound)*): the cells of the named array
      // whose dimension values satisfy every `dim cmp bound`, by index
      // arithmetic. Reads the descriptor from the statement's catalog
      // snapshot, as sql.bind reads the columns the positions index.
      {"array", "slab", {Variadic({kStr}, {kStr, kStr, kScalar}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(std::string name, StrArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(auto arr, ctx->catalog->GetArray(name));
         std::vector<array::DimBound> bounds;
         for (size_t i = 1; i < in.args.size(); i += 3) {
           SCIQL_ASSIGN_OR_RETURN(std::string dim, StrArg(ctx, in, i));
           SCIQL_ASSIGN_OR_RETURN(std::string op, StrArg(ctx, in, i + 1));
           array::DimBound b;
           int d = arr->desc.DimIndex(dim);
           if (d < 0) return Status::NotFound("no dimension " + dim);
           b.dim = static_cast<size_t>(d);
           SCIQL_ASSIGN_OR_RETURN(b.op, CmpOpFromName(op));
           SCIQL_ASSIGN_OR_RETURN(b.bound, ScalarArg(ctx, in, i + 2));
           bounds.push_back(std::move(b));
         }
         SCIQL_ASSIGN_OR_RETURN(BATPtr out,
                                array::SlabPositions(arr->desc, bounds));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      {"array", "tileagg",
       {Fixed({kObjArray, kObjTile, kStr, kBat}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         const auto* desc =
             ctx->Reg(in.args[0]).As<array::ArrayDesc>("arraydesc");
         const auto* spec =
             ctx->Reg(in.args[1]).As<array::TileSpec>("tilespec");
         if (desc == nullptr || spec == nullptr) {
           return Status::Internal("array.tileagg: bad plan objects");
         }
         SCIQL_ASSIGN_OR_RETURN(std::string opname, StrArg(ctx, in, 2));
         SCIQL_ASSIGN_OR_RETURN(AggOp op, AggOpFromName(opname));
         SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 3));
         SCIQL_ASSIGN_OR_RETURN(
             BATPtr out, array::TileAggregate(*desc, *vals, *spec, op));
         SetRet(ctx, in, 0, MalValue::Of(out));
         return Status::OK();
       }},

      // ---------------------------------------------------------------------
      // sql: catalog reads against the statement's snapshot. Writes are not
      // ops: the executor applies them through the versioned catalog.
      // ---------------------------------------------------------------------
      {"sql", "bind", {Fixed({kStr, kStr}, {kBat})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(std::string obj, StrArg(ctx, in, 0));
         SCIQL_ASSIGN_OR_RETURN(std::string col, StrArg(ctx, in, 1));
         if (ctx->catalog->IsArray(obj)) {
           SCIQL_ASSIGN_OR_RETURN(auto arr, ctx->catalog->GetArray(obj));
           int d = arr->desc.DimIndex(col);
           if (d >= 0) {
             SetRet(ctx, in, 0,
                    MalValue::Of(arr->dim_bats[static_cast<size_t>(d)]));
             return Status::OK();
           }
           int a = arr->desc.AttrIndex(col);
           if (a < 0) return Status::NotFound("no column " + col);
           SetRet(ctx, in, 0,
                  MalValue::Of(arr->attr_bats[static_cast<size_t>(a)]));
           return Status::OK();
         }
         SCIQL_ASSIGN_OR_RETURN(auto tab, ctx->catalog->GetTable(obj));
         int c = tab->ColumnIndex(col);
         if (c < 0) return Status::NotFound("no column " + col);
         SetRet(ctx, in, 0, MalValue::Of(tab->bats[static_cast<size_t>(c)]));
         return Status::OK();
       }},

      {"sql", "count", {Fixed({kStr}, {kNum})},
       [](MalContext* ctx, const MalInstr& in) {
         SCIQL_ASSIGN_OR_RETURN(std::string obj, StrArg(ctx, in, 0));
         size_t n;
         if (ctx->catalog->IsArray(obj)) {
           SCIQL_ASSIGN_OR_RETURN(auto arr, ctx->catalog->GetArray(obj));
           n = arr->CellCount();
         } else {
           SCIQL_ASSIGN_OR_RETURN(auto tab, ctx->catalog->GetTable(obj));
           n = tab->RowCount();
         }
         SetRet(ctx, in, 0,
                MalValue::Of(ScalarValue::Lng(static_cast<int64_t>(n))));
         return Status::OK();
       }},

      // sql.ddl(text): the display-only line EXPLAIN renders for DDL; no
      // kernel, so running it fails.
      {"sql", "ddl", {Fixed({kStr}, {})}, nullptr},
  };
}

struct Ops {
  std::vector<OpDef> table;
  std::unordered_map<std::string, const OpDef*> by_name;
};

const Ops& GetOps() {
  static const Ops* ops = [] {
    auto* o = new Ops{BuildOps(), {}};
    for (const OpDef& op : o->table) {
      o->by_name.emplace(op.module + "." + op.fn, &op);
    }
    return o;
  }();
  return *ops;
}

}  // namespace

const std::vector<OpDef>& OpTable() { return GetOps().table; }

const OpDef* FindOp(const std::string& name) {
  const auto& by_name = GetOps().by_name;
  auto it = by_name.find(name);
  return it == by_name.end() ? nullptr : it->second;
}

}  // namespace mal
}  // namespace sciql
