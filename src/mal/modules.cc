// Registration of all MAL modules: algebra, batcalc, group, aggr, array, sql.
//
// The array module provides the paper's new primitives (array.series,
// array.filler — Sec. 3) plus the cell-addressing and tiling operations the
// SciQL compiler emits.

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

Status CheckArity(const MalInstr& in, size_t nargs, size_t nrets) {
  if (in.args.size() != nargs || in.rets.size() != nrets) {
    return Status::Internal(
        StrFormat("%s: expected %zu args / %zu rets, got %zu / %zu",
                  in.Name().c_str(), nargs, nrets, in.args.size(),
                  in.rets.size()));
  }
  return Status::OK();
}

Result<BATPtr> BatArg(MalContext* ctx, const MalInstr& in, size_t i) {
  const MalValue& v = ctx->Reg(in.args[i]);
  if (!v.IsBat()) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a BAT", in.Name().c_str(), i));
  }
  return v.bat;
}

Result<ScalarValue> ScalarArg(MalContext* ctx, const MalInstr& in, size_t i) {
  const MalValue& v = ctx->Reg(in.args[i]);
  if (!v.IsScalar()) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a scalar", in.Name().c_str(), i));
  }
  return v.scalar;
}

Result<int64_t> LngArg(MalContext* ctx, const MalInstr& in, size_t i) {
  SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, i));
  if (v.is_null || (!gdk::IsNumeric(v.type) && v.type != PhysType::kOid)) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not an integer", in.Name().c_str(), i));
  }
  return v.AsInt64();
}

Result<std::string> StrArg(MalContext* ctx, const MalInstr& in, size_t i) {
  SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, i));
  if (v.is_null || v.type != PhysType::kStr) {
    return Status::Internal(
        StrFormat("%s: argument %zu is not a string", in.Name().c_str(), i));
  }
  return v.s;
}

void SetRet(MalContext* ctx, const MalInstr& in, size_t i, MalValue v) {
  ctx->Reg(in.rets[i]) = std::move(v);
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

// ---------------------------------------------------------------------------
// algebra
// ---------------------------------------------------------------------------

void RegisterBat(MalEngine* e) {
  e->Register("bat.count",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SetRet(ctx, in, 0,
                       MalValue::Of(ScalarValue::Lng(
                           static_cast<int64_t>(b->Count()))));
                return Status::OK();
              });

  e->Register("bat.dense",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t n, LngArg(ctx, in, 0));
                SetRet(ctx, in, 0,
                       MalValue::Of(BAT::MakeDense(0, static_cast<size_t>(n))));
                return Status::OK();
              });

  // bat.pack(v1, v2, ...) -> BAT of the scalars, typed by the *widest*
  // non-null value (bit < int < lng < dbl). Typing by the first value
  // loses later wider literals: INSERT ... VALUES (5), (9223372036854775807)
  // would pack an int BAT and reject the lng row even though the target
  // column is BIGINT. Non-numeric values keep the first non-null type and
  // let Append report the mismatch.
  e->Register("bat.pack",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.empty() || in.rets.size() != 1) {
                  return Status::Internal("bat.pack arity");
                }
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
                for (int a : in.args) {
                  SCIQL_RETURN_NOT_OK(b->Append(ctx->Reg(a).scalar));
                }
                SetRet(ctx, in, 0, MalValue::Of(b));
                return Status::OK();
              });

  // bat.broadcast(v, ref) -> BAT of ref's length filled with the scalar v.
  // A BAT first argument passes through untouched, so the planner can emit
  // this unconditionally for select items it cannot prove are row-aligned.
  e->Register("bat.broadcast",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
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
              });

  e->Register("bat.clone",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SetRet(ctx, in, 0, MalValue::Of(b->CloneData()));
                return Status::OK();
              });
}

void RegisterAlgebra(MalEngine* e) {
  e->Register("algebra.select",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.empty() || in.args.size() > 2 ||
                    in.rets.size() != 1) {
                  return Status::Internal("algebra.select arity");
                }
                SCIQL_ASSIGN_OR_RETURN(BATPtr bits, BatArg(ctx, in, 0));
                BATPtr cands;
                if (in.args.size() == 2) {
                  SCIQL_ASSIGN_OR_RETURN(cands, BatArg(ctx, in, 1));
                }
                SCIQL_ASSIGN_OR_RETURN(BATPtr out,
                                       gdk::BoolSelect(*bits, cands.get()));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  e->Register("algebra.thetaselect",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(std::string op, StrArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, 2));
                SCIQL_ASSIGN_OR_RETURN(gdk::CmpOp cmp, CmpOpFromName(op));
                SCIQL_ASSIGN_OR_RETURN(
                    BATPtr out, gdk::ThetaSelect(*b, nullptr, cmp, v));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  e->Register("algebra.project",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(BATPtr pos, BatArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::Project(*b, *pos));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  e->Register("algebra.join",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 2));
                SCIQL_ASSIGN_OR_RETURN(BATPtr l, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(BATPtr r, BatArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(gdk::JoinResult jr, gdk::HashJoin(*l, *r));
                SetRet(ctx, in, 0, MalValue::Of(jr.left));
                SetRet(ctx, in, 1, MalValue::Of(jr.right));
                return Status::OK();
              });

  // algebra.njoin(nkeys, l1..lk, r1..rk) -> (lo, ro)
  e->Register("algebra.njoin",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.size() < 3 || in.rets.size() != 2) {
                  return Status::Internal("algebra.njoin arity");
                }
                SCIQL_ASSIGN_OR_RETURN(int64_t nkeys, LngArg(ctx, in, 0));
                size_t k = static_cast<size_t>(nkeys);
                if (in.args.size() != 1 + 2 * k) {
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
              });

  e->Register("algebra.crossjoin",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 2));
                SCIQL_ASSIGN_OR_RETURN(int64_t nl, LngArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(int64_t nr, LngArg(ctx, in, 1));
                gdk::JoinResult jr = gdk::CrossJoin(static_cast<size_t>(nl),
                                                    static_cast<size_t>(nr));
                SetRet(ctx, in, 0, MalValue::Of(jr.left));
                SetRet(ctx, in, 1, MalValue::Of(jr.right));
                return Status::OK();
              });

  e->Register("algebra.slice",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(int64_t lo, LngArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t hi, LngArg(ctx, in, 2));
                // A negative bound cast to size_t would wrap to a huge
                // offset; reject it here instead of relying on Slice's
                // clamping (which only bounds the upper end to Count()).
                if (lo < 0 || hi < 0) {
                  return Status::InvalidArgument(StrFormat(
                      "algebra.slice: negative bounds [%lld, %lld)",
                      static_cast<long long>(lo),
                      static_cast<long long>(hi)));
                }
                SetRet(ctx, in, 0,
                       MalValue::Of(b->Slice(static_cast<size_t>(lo),
                                             static_cast<size_t>(hi))));
                return Status::OK();
              });

  // algebra.sort(key0, desc0, key1, desc1, ...) -> order index
  e->Register("algebra.sort",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.empty() || in.args.size() % 2 != 0 ||
                    in.rets.size() != 1) {
                  return Status::Internal("algebra.sort arity");
                }
                std::vector<BATPtr> keep;
                std::vector<const BAT*> keys;
                std::vector<bool> desc;
                for (size_t i = 0; i < in.args.size(); i += 2) {
                  SCIQL_ASSIGN_OR_RETURN(BATPtr k, BatArg(ctx, in, i));
                  SCIQL_ASSIGN_OR_RETURN(int64_t d, LngArg(ctx, in, i + 1));
                  keep.push_back(k);
                  keys.push_back(keep.back().get());
                  desc.push_back(d != 0);
                }
                SCIQL_ASSIGN_OR_RETURN(BATPtr idx, gdk::OrderIndex(keys, desc));
                SetRet(ctx, in, 0, MalValue::Of(idx));
                return Status::OK();
              });

  // algebra.firstn(k, key0, desc0, key1, desc1, ...) -> the first k entries
  // of the stable order index, computed with bounded per-morsel heaps (an
  // existing persistent index short-circuits to a window copy). Emitted by
  // the planner for ORDER BY ... LIMIT k in place of a sort + slice pair.
  e->Register("algebra.firstn",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.size() < 3 || in.args.size() % 2 != 1 ||
                    in.rets.size() != 1) {
                  return Status::Internal("algebra.firstn arity");
                }
                SCIQL_ASSIGN_OR_RETURN(int64_t k, LngArg(ctx, in, 0));
                if (k < 0) {
                  return Status::InvalidArgument(StrFormat(
                      "algebra.firstn: negative row count %lld",
                      static_cast<long long>(k)));
                }
                std::vector<BATPtr> keep;
                std::vector<const BAT*> keys;
                std::vector<bool> desc;
                for (size_t i = 1; i < in.args.size(); i += 2) {
                  SCIQL_ASSIGN_OR_RETURN(BATPtr key, BatArg(ctx, in, i));
                  SCIQL_ASSIGN_OR_RETURN(int64_t d, LngArg(ctx, in, i + 1));
                  keep.push_back(key);
                  keys.push_back(keep.back().get());
                  desc.push_back(d != 0);
                }
                SCIQL_ASSIGN_OR_RETURN(
                    BATPtr idx,
                    gdk::FirstN(keys, desc, static_cast<size_t>(k)));
                SetRet(ctx, in, 0, MalValue::Of(idx));
                return Status::OK();
              });

  // algebra.orderidx(key) or algebra.orderidx(key0, desc0, key1, desc1, ...)
  // -> the stable order index for the spec, served from the keyed
  // persistent cache on the first key column: the canonical (primary
  // ascending) index is built once; exact specs reuse it, negated specs
  // (e.g. single-key DESC) derive from it by run reversal — no second sort.
  e->Register("algebra.orderidx",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.rets.size() != 1 ||
                    (in.args.size() != 1 && in.args.size() % 2 != 0)) {
                  return Status::Internal("algebra.orderidx arity");
                }
                std::vector<BATPtr> keys;
                std::vector<bool> desc;
                if (in.args.size() == 1) {
                  // Legacy single-ascending-key form.
                  SCIQL_ASSIGN_OR_RETURN(BATPtr k, BatArg(ctx, in, 0));
                  keys.push_back(std::move(k));
                  desc.push_back(false);
                } else {
                  for (size_t i = 0; i < in.args.size(); i += 2) {
                    SCIQL_ASSIGN_OR_RETURN(BATPtr k, BatArg(ctx, in, i));
                    SCIQL_ASSIGN_OR_RETURN(int64_t d, LngArg(ctx, in, i + 1));
                    keys.push_back(std::move(k));
                    desc.push_back(d != 0);
                  }
                }
                SCIQL_ASSIGN_OR_RETURN(gdk::OrderIndexPtr idx,
                                       gdk::EnsureOrderIndexSpec(keys, desc));
                auto out = BAT::Make(PhysType::kOid);
                out->oids() = *idx;
                SetRet(ctx, in, 0, MalValue::Of(std::move(out)));
                return Status::OK();
              });
}

// ---------------------------------------------------------------------------
// batcalc
// ---------------------------------------------------------------------------

Status RunBinary(BinOp op, MalContext* ctx, const MalInstr& in) {
  SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
  const MalValue& l = ctx->Reg(in.args[0]);
  const MalValue& r = ctx->Reg(in.args[1]);
  if (l.IsScalar() && r.IsScalar()) {
    SCIQL_ASSIGN_OR_RETURN(ScalarValue out,
                           gdk::CalcBinaryScalar(op, l.scalar, r.scalar));
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
  SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::CalcBinary(op, lb, ls, rb, rs));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

Status RunUnary(UnOp op, MalContext* ctx, const MalInstr& in) {
  SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
  const MalValue& v = ctx->Reg(in.args[0]);
  if (v.IsScalar()) {
    SCIQL_ASSIGN_OR_RETURN(ScalarValue out, gdk::CalcUnaryScalar(op, v.scalar));
    SetRet(ctx, in, 0, MalValue::Of(out));
    return Status::OK();
  }
  if (!v.IsBat()) return Status::Internal("batcalc operand invalid");
  SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::CalcUnary(op, *v.bat));
  SetRet(ctx, in, 0, MalValue::Of(out));
  return Status::OK();
}

void RegisterBatcalc(MalEngine* e) {
  const std::pair<const char*, BinOp> bins[] = {
      {"+", BinOp::kAdd},  {"-", BinOp::kSub},  {"*", BinOp::kMul},
      {"/", BinOp::kDiv},  {"%", BinOp::kMod},  {"==", BinOp::kEq},
      {"!=", BinOp::kNe},  {"<", BinOp::kLt},   {"<=", BinOp::kLe},
      {">", BinOp::kGt},   {">=", BinOp::kGe},  {"and", BinOp::kAnd},
      {"or", BinOp::kOr},
  };
  for (const auto& [name, op] : bins) {
    BinOp captured = op;
    e->Register(std::string("batcalc.") + name,
                [captured](MalContext* ctx, const MalProgram&,
                           const MalInstr& in) {
                  return RunBinary(captured, ctx, in);
                });
  }
  const std::pair<const char*, UnOp> uns[] = {
      {"not", UnOp::kNot},
      {"neg", UnOp::kNeg},
      {"abs", UnOp::kAbs},
      {"isnil", UnOp::kIsNull},
  };
  for (const auto& [name, op] : uns) {
    UnOp captured = op;
    e->Register(std::string("batcalc.") + name,
                [captured](MalContext* ctx, const MalProgram&,
                           const MalInstr& in) {
                  return RunUnary(captured, ctx, in);
                });
  }

  e->Register("batcalc.ifthenelse",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 1));
                const MalValue& c = ctx->Reg(in.args[0]);
                const MalValue& t = ctx->Reg(in.args[1]);
                const MalValue& el = ctx->Reg(in.args[2]);
                if (c.IsScalar()) {
                  // Fully scalar condition: pick the arm directly.
                  SetRet(ctx, in, 0, c.scalar.IsTrue() ? t : el);
                  return Status::OK();
                }
                if (!c.IsBat()) return Status::Internal("bad CASE condition");
                SCIQL_ASSIGN_OR_RETURN(
                    BATPtr out,
                    gdk::IfThenElse(*c.bat, t.IsBat() ? t.bat.get() : nullptr,
                                    t.IsScalar() ? &t.scalar : nullptr,
                                    el.IsBat() ? el.bat.get() : nullptr,
                                    el.IsScalar() ? &el.scalar : nullptr));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  e->Register("batcalc.const",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
                SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(int64_t n, LngArg(ctx, in, 1));
                SetRet(ctx, in, 0,
                       MalValue::Of(BAT::MakeConst(v, static_cast<size_t>(n))));
                return Status::OK();
              });

  const std::pair<const char*, PhysType> casts[] = {
      {"cast_bit", PhysType::kBit},
      {"cast_int", PhysType::kInt},
      {"cast_lng", PhysType::kLng},
      {"cast_dbl", PhysType::kDbl},
  };
  for (const auto& [name, ty] : casts) {
    PhysType to = ty;
    e->Register(std::string("batcalc.") + name,
                [to](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                  SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
                  const MalValue& v = ctx->Reg(in.args[0]);
                  if (v.IsScalar()) {
                    SCIQL_ASSIGN_OR_RETURN(ScalarValue out,
                                           gdk::CastScalar(v.scalar, to));
                    SetRet(ctx, in, 0, MalValue::Of(out));
                    return Status::OK();
                  }
                  if (!v.IsBat()) return Status::Internal("bad cast operand");
                  SCIQL_ASSIGN_OR_RETURN(BATPtr out, gdk::CastBat(*v.bat, to));
                  SetRet(ctx, in, 0, MalValue::Of(out));
                  return Status::OK();
                });
  }
}

// ---------------------------------------------------------------------------
// group / aggr
// ---------------------------------------------------------------------------

void RegisterGroupAggr(MalEngine* e) {
  e->Register("group.group",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 3));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(gdk::GroupResult gr,
                                       gdk::Group(*b, nullptr, 0));
                SetRet(ctx, in, 0, MalValue::Of(gr.groups));
                SetRet(ctx, in, 1, MalValue::Of(gr.extents));
                SetRet(ctx, in, 2,
                       MalValue::Of(ScalarValue::Lng(
                           static_cast<int64_t>(gr.ngroups))));
                return Status::OK();
              });

  e->Register("group.subgroup",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 3));
                SCIQL_ASSIGN_OR_RETURN(BATPtr b, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(BATPtr prev, BatArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t ng, LngArg(ctx, in, 2));
                SCIQL_ASSIGN_OR_RETURN(
                    gdk::GroupResult gr,
                    gdk::Group(*b, prev.get(), static_cast<size_t>(ng)));
                SetRet(ctx, in, 0, MalValue::Of(gr.groups));
                SetRet(ctx, in, 1, MalValue::Of(gr.extents));
                SetRet(ctx, in, 2,
                       MalValue::Of(ScalarValue::Lng(
                           static_cast<int64_t>(gr.ngroups))));
                return Status::OK();
              });

  const char* grouped[] = {"sum", "avg", "min", "max", "count"};
  for (const char* name : grouped) {
    std::string n = name;
    e->Register("aggr." + n,
                [n](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                  SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 1));
                  SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 0));
                  SCIQL_ASSIGN_OR_RETURN(BATPtr groups, BatArg(ctx, in, 1));
                  SCIQL_ASSIGN_OR_RETURN(int64_t ng, LngArg(ctx, in, 2));
                  SCIQL_ASSIGN_OR_RETURN(AggOp op, AggOpFromName(n));
                  SCIQL_ASSIGN_OR_RETURN(
                      BATPtr out,
                      gdk::GroupedAggregate(op, vals.get(), *groups,
                                            static_cast<size_t>(ng)));
                  SetRet(ctx, in, 0, MalValue::Of(out));
                  return Status::OK();
                });
  }

  e->Register("aggr.count_star",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
                SCIQL_ASSIGN_OR_RETURN(BATPtr groups, BatArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(int64_t ng, LngArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(
                    BATPtr out,
                    gdk::GroupedAggregate(AggOp::kCountStar, nullptr, *groups,
                                          static_cast<size_t>(ng)));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  const char* whole[] = {"sum", "avg", "min", "max", "count"};
  for (const char* name : whole) {
    std::string n = name;
    e->Register("aggr." + n + "_all",
                [n](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                  SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
                  SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 0));
                  SCIQL_ASSIGN_OR_RETURN(AggOp op, AggOpFromName(n));
                  SCIQL_ASSIGN_OR_RETURN(ScalarValue out,
                                         gdk::Aggregate(op, *vals));
                  SetRet(ctx, in, 0, MalValue::Of(out));
                  return Status::OK();
                });
  }
}

// ---------------------------------------------------------------------------
// array
// ---------------------------------------------------------------------------

void RegisterArray(MalEngine* e) {
  e->Register("array.series",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 5, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t start, LngArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(int64_t step, LngArg(ctx, in, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t stop, LngArg(ctx, in, 2));
                SCIQL_ASSIGN_OR_RETURN(int64_t n, LngArg(ctx, in, 3));
                SCIQL_ASSIGN_OR_RETURN(int64_t m, LngArg(ctx, in, 4));
                array::DimRange r(start, step, stop);
                SCIQL_RETURN_NOT_OK(r.Validate());
                SetRet(ctx, in, 0,
                       MalValue::Of(array::Series(r, static_cast<size_t>(n),
                                                  static_cast<size_t>(m))));
                return Status::OK();
              });

  e->Register("array.filler",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
                SCIQL_ASSIGN_OR_RETURN(int64_t cnt, LngArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(ScalarValue v, ScalarArg(ctx, in, 1));
                SetRet(ctx, in, 0,
                       MalValue::Of(
                           array::Filler(static_cast<size_t>(cnt), v)));
                return Status::OK();
              });

  e->Register("array.cellpos",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.size() < 2 || in.rets.size() != 1) {
                  return Status::Internal("array.cellpos arity");
                }
                const auto* desc = ctx->Reg(in.args[0])
                                       .As<array::ArrayDesc>("arraydesc");
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
                SCIQL_ASSIGN_OR_RETURN(BATPtr out,
                                       array::CellPositions(*desc, dims));
                SetRet(ctx, in, 0, MalValue::Of(out));
                return Status::OK();
              });

  // array.slab(name, (dim, cmp, bound)*): the cells of the named array whose
  // dimension values satisfy every `dim cmp bound`, by index arithmetic.
  // Reads the descriptor from the statement's catalog snapshot, as sql.bind
  // reads the columns the positions index.
  e->Register("array.slab",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                if (in.args.empty() || (in.args.size() - 1) % 3 != 0 ||
                    in.rets.size() != 1) {
                  return Status::Internal("array.slab arity");
                }
                SCIQL_ASSIGN_OR_RETURN(std::string name, StrArg(ctx, in, 0));
                SCIQL_ASSIGN_OR_RETURN(auto arr, ctx->catalog->GetArray(name));
                std::vector<array::DimBound> bounds;
                for (size_t i = 1; i < in.args.size(); i += 3) {
                  SCIQL_ASSIGN_OR_RETURN(std::string dim, StrArg(ctx, in, i));
                  SCIQL_ASSIGN_OR_RETURN(std::string op,
                                         StrArg(ctx, in, i + 1));
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
              });

  e->Register("array.tileagg",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 4, 1));
                const auto* desc = ctx->Reg(in.args[0])
                                       .As<array::ArrayDesc>("arraydesc");
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
              });

  e->Register(
      "array.scatter",
      [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
        SCIQL_RETURN_NOT_OK(CheckArity(in, 4, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string arr, StrArg(ctx, in, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string attr, StrArg(ctx, in, 1));
        SCIQL_ASSIGN_OR_RETURN(BATPtr pos, BatArg(ctx, in, 2));
        SCIQL_ASSIGN_OR_RETURN(auto obj, ctx->catalog->GetArray(arr));
        int ai = obj->desc.AttrIndex(attr);
        if (ai < 0) return Status::NotFound("no attribute " + attr);
        const MalValue& v = ctx->Reg(in.args[3]);
        if (v.IsScalar()) {
          return array::ScatterConstIntoAttr(
              obj->attr_bats[static_cast<size_t>(ai)].get(), *pos, v.scalar);
        }
        if (!v.IsBat()) return Status::Internal("scatter: bad values");
        return array::ScatterIntoAttr(
            obj->attr_bats[static_cast<size_t>(ai)].get(), *pos, *v.bat);
      },
      /*pure=*/false);
}

// ---------------------------------------------------------------------------
// sql (catalog access + table DML)
// ---------------------------------------------------------------------------

void RegisterSql(MalEngine* e) {
  e->Register("sql.bind",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 1));
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
                SetRet(ctx, in, 0,
                       MalValue::Of(tab->bats[static_cast<size_t>(c)]));
                return Status::OK();
              });

  e->Register("sql.count",
              [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
                SCIQL_RETURN_NOT_OK(CheckArity(in, 1, 1));
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
              });

  e->Register(
      "sql.append",
      [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
        SCIQL_RETURN_NOT_OK(CheckArity(in, 3, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string obj, StrArg(ctx, in, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string col, StrArg(ctx, in, 1));
        SCIQL_ASSIGN_OR_RETURN(BATPtr vals, BatArg(ctx, in, 2));
        SCIQL_ASSIGN_OR_RETURN(auto tab, ctx->catalog->GetTable(obj));
        int c = tab->ColumnIndex(col);
        if (c < 0) return Status::NotFound("no column " + col);
        return tab->bats[static_cast<size_t>(c)]->AppendBat(*vals);
      },
      /*pure=*/false);

  e->Register(
      "sql.replace",
      [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
        SCIQL_RETURN_NOT_OK(CheckArity(in, 4, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string obj, StrArg(ctx, in, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string col, StrArg(ctx, in, 1));
        SCIQL_ASSIGN_OR_RETURN(BATPtr pos, BatArg(ctx, in, 2));
        SCIQL_ASSIGN_OR_RETURN(auto tab, ctx->catalog->GetTable(obj));
        int c = tab->ColumnIndex(col);
        if (c < 0) return Status::NotFound("no column " + col);
        BAT* target = tab->bats[static_cast<size_t>(c)].get();
        const MalValue& v = ctx->Reg(in.args[3]);
        for (size_t i = 0; i < pos->Count(); ++i) {
          gdk::oid_t p = pos->oids()[i];
          if (p == gdk::kOidNil) continue;
          ScalarValue sv = v.IsBat() ? v.bat->GetScalar(i) : v.scalar;
          SCIQL_RETURN_NOT_OK(target->Set(p, sv));
        }
        return Status::OK();
      },
      /*pure=*/false);

  e->Register(
      "sql.delete_rows",
      [](MalContext* ctx, const MalProgram&, const MalInstr& in) {
        SCIQL_RETURN_NOT_OK(CheckArity(in, 2, 0));
        SCIQL_ASSIGN_OR_RETURN(std::string obj, StrArg(ctx, in, 0));
        SCIQL_ASSIGN_OR_RETURN(BATPtr pos, BatArg(ctx, in, 1));
        SCIQL_ASSIGN_OR_RETURN(auto tab, ctx->catalog->GetTable(obj));
        return tab->DeleteRows(*pos);
      },
      /*pure=*/false);
}

}  // namespace

void RegisterAllModules(MalEngine* engine) {
  RegisterBat(engine);
  RegisterAlgebra(engine);
  RegisterBatcalc(engine);
  RegisterGroupAggr(engine);
  RegisterArray(engine);
  RegisterSql(engine);
}

}  // namespace mal
}  // namespace sciql
