#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace gdk {

namespace {

// Emit the absolute oid for aligned position i: either i itself or an
// indirect lookup through the candidate list.
inline oid_t ResolveOid(const BAT* cands, size_t i) {
  return cands == nullptr ? static_cast<oid_t>(i) : cands->oids()[i];
}

// Morsel-parallel filter: emit ResolveOid(cands, i) for every row i in
// [0, n) where pred(i) holds. Each morsel collects into a local vector;
// the locals are concatenated in morsel order, so the output is identical
// to a sequential scan at any thread count. A single-threaded pool takes
// the direct single-pass path (same oids, no intermediate copies).
template <typename RowPred>
BATPtr FilterSelect(size_t n, const BAT* cands, RowPred pred) {
  auto out = BAT::Make(PhysType::kOid);
  size_t nmorsels = MorselCount(n, kMorselRows);
  if (nmorsels <= 1 || ThreadPool::Get().thread_count() <= 1) {
    out->Reserve(n / 4);
    auto& oids = out->oids();
    for (size_t i = 0; i < n; ++i) {
      if (pred(i)) oids.push_back(ResolveOid(cands, i));
    }
    return out;
  }
  std::vector<std::vector<oid_t>> parts(nmorsels);
  ThreadPool::Get().ParallelFor(
      n, kMorselRows, [&](size_t m, size_t begin, size_t end) {
        auto& p = parts[m];
        p.reserve((end - begin) / 4);
        for (size_t i = begin; i < end; ++i) {
          if (pred(i)) p.push_back(ResolveOid(cands, i));
        }
      });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out->Reserve(total);
  auto& oids = out->oids();
  for (const auto& p : parts) oids.insert(oids.end(), p.begin(), p.end());
  return out;
}

template <typename T, typename Pred>
BATPtr ScanSelect(const std::vector<T>& data, const BAT* cands, Pred pred) {
  return FilterSelect(data.size(), cands, [&data, pred](size_t i) {
    const T& v = data[i];
    return !TypeTraits<T>::IsNil(v) && pred(v);
  });
}

template <typename T>
bool ApplyCmp(CmpOp op, const T& a, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<BATPtr> BoolSelect(const BAT& bits, const BAT* cands) {
  if (bits.type() != PhysType::kBit) {
    return Status::TypeMismatch("BoolSelect expects a bit BAT");
  }
  if (cands != nullptr && cands->Count() != bits.Count()) {
    return Status::Internal(
        StrFormat("BoolSelect: candidate count %zu != bits count %zu",
                  cands->Count(), bits.Count()));
  }
  const auto& v = bits.bits();
  return FilterSelect(v.size(), cands, [&v](size_t i) { return v[i] == 1; });
}

Result<BATPtr> ThetaSelect(const BAT& b, const BAT* cands, CmpOp op,
                           const ScalarValue& sv) {
  if (cands != nullptr && cands->Count() != b.Count()) {
    return Status::Internal("ThetaSelect: candidates misaligned with input");
  }
  if (sv.is_null) {
    // Comparison with NULL never matches.
    return BAT::Make(PhysType::kOid);
  }
  switch (b.type()) {
    case PhysType::kInt: {
      SCIQL_ASSIGN_OR_RETURN(ScalarValue c, CastScalar(sv, PhysType::kInt));
      int32_t x = static_cast<int32_t>(c.i);
      return ScanSelect(b.ints(), cands,
                        [op, x](int32_t v) { return ApplyCmp(op, v, x); });
    }
    case PhysType::kLng: {
      SCIQL_ASSIGN_OR_RETURN(ScalarValue c, CastScalar(sv, PhysType::kLng));
      int64_t x = c.i;
      return ScanSelect(b.lngs(), cands,
                        [op, x](int64_t v) { return ApplyCmp(op, v, x); });
    }
    case PhysType::kDbl: {
      SCIQL_ASSIGN_OR_RETURN(ScalarValue c, CastScalar(sv, PhysType::kDbl));
      double x = c.d;
      return ScanSelect(b.dbls(), cands,
                        [op, x](double v) { return ApplyCmp(op, v, x); });
    }
    case PhysType::kBit: {
      SCIQL_ASSIGN_OR_RETURN(ScalarValue c, CastScalar(sv, PhysType::kBit));
      uint8_t x = static_cast<uint8_t>(c.i);
      return ScanSelect(b.bits(), cands,
                        [op, x](uint8_t v) { return ApplyCmp(op, v, x); });
    }
    case PhysType::kOid: {
      oid_t x = static_cast<oid_t>(sv.i);
      return ScanSelect(b.oids(), cands,
                        [op, x](oid_t v) { return ApplyCmp(op, v, x); });
    }
    case PhysType::kStr: {
      if (sv.type != PhysType::kStr) {
        return Status::TypeMismatch("string theta-select needs a str scalar");
      }
      const ScalarValue* pv = &sv;
      return FilterSelect(b.Count(), cands, [&b, op, pv](size_t i) {
        if (b.IsNullAt(i)) return false;
        return ApplyCmp(op, b.GetStr(i), std::string_view(pv->s));
      });
    }
  }
  return Status::Internal("unreachable theta-select type");
}

namespace {

// Binary-search the value window over a live order index (any cached spec
// whose primary key is the column: its primary direction is always
// ascending, nils first) and emit the matching row ids re-sorted ascending —
// the same oid set in the same row order a full scan produces, in
// O(log n + k log k). `below_lo` / `within_hi` are *typed* predicates on the
// tail values (never a double round-trip), each monotone along the index so
// partition_point applies; nil rows sit in the index prefix and never match.
// Returns null when the window is so wide that re-sorting k ≈ n oids would
// cost more than the O(n) scan; the caller falls through to the scan path.
template <typename T, typename BelowLo, typename WithinHi>
BATPtr RangeSelectViaIndex(const std::vector<T>& data,
                           const std::vector<oid_t>& ord, BelowLo below_lo,
                           WithinHi within_hi) {
  auto lb = std::partition_point(ord.begin(), ord.end(), [&](oid_t row) {
    const T& v = data[row];
    return TypeTraits<T>::IsNil(v) || below_lo(v);
  });
  auto ub = std::partition_point(ord.begin(), ord.end(), [&](oid_t row) {
    const T& v = data[row];
    return TypeTraits<T>::IsNil(v) || within_hi(v);
  });
  size_t k = ub > lb ? static_cast<size_t>(ub - lb) : 0;
  if (k * 8 > ord.size()) return nullptr;  // unselective: scan is cheaper
  auto out = BAT::Make(PhysType::kOid);
  if (k > 0) {
    out->oids().assign(lb, ub);
    std::sort(out->oids().begin(), out->oids().end());
  }
  return out;
}

// 2^63 as a double (exactly representable). Doubles at or beyond this lie
// outside the int64 range.
constexpr double kTwo63 = 9223372036854775808.0;

}  // namespace

bool LowerBoundLng(const ScalarValue& bound, bool incl, int64_t* out) {
  if (bound.type != PhysType::kDbl) {
    int64_t v = bound.AsInt64();
    if (incl) {
      *out = v;
      return true;
    }
    if (v == std::numeric_limits<int64_t>::max()) return false;
    *out = v + 1;
    return true;
  }
  double d = bound.d;
  if (std::isnan(d)) return false;  // NaN bound matches nothing
  if (d >= kTwo63) return false;    // above every int64
  if (d < -kTwo63) {
    *out = std::numeric_limits<int64_t>::min();
    return true;
  }
  // d in [-2^63, 2^63): ceil(d) is an exact double strictly below 2^63
  // (doubles this close to the range edge are >= 1024 apart), so the cast
  // cannot overflow.
  double c = std::ceil(d);
  int64_t v = static_cast<int64_t>(c);
  if (!incl && c == d) {
    if (v == std::numeric_limits<int64_t>::max()) return false;
    ++v;
  }
  *out = v;
  return true;
}

bool UpperBoundLng(const ScalarValue& bound, bool incl, int64_t* out) {
  if (bound.type != PhysType::kDbl) {
    int64_t v = bound.AsInt64();
    if (incl) {
      *out = v;
      return true;
    }
    if (v == std::numeric_limits<int64_t>::min()) return false;
    *out = v - 1;
    return true;
  }
  double d = bound.d;
  if (std::isnan(d)) return false;
  if (d < -kTwo63) return false;  // below every int64
  if (d >= kTwo63) {
    *out = std::numeric_limits<int64_t>::max();
    return true;
  }
  double f = std::floor(d);
  int64_t v = static_cast<int64_t>(f);
  if (!incl && f == d) {
    if (v == std::numeric_limits<int64_t>::min()) return false;
    --v;
  }
  *out = v;
  return true;
}

Result<BATPtr> RangeSelect(const BAT& b, const BAT* cands,
                           const ScalarValue& lo, const ScalarValue& hi,
                           bool lo_incl, bool hi_incl) {
  if (!IsNumeric(b.type())) {
    return Status::TypeMismatch("RangeSelect expects a numeric BAT");
  }
  if (lo.is_null || hi.is_null) return BAT::Make(PhysType::kOid);

  // Index route: any cached spec led by this column serves the window.
  OrderIndexPtr ord = cands == nullptr && Controls().use_index_paths
                          ? FindPrimaryOrderIndex(b)
                          : nullptr;

  if (b.type() == PhysType::kDbl) {
    double l = lo.AsDouble();
    double h = hi.AsDouble();
    auto below_lo = [l, lo_incl](double v) { return lo_incl ? v < l : v <= l; };
    auto within_hi = [h, hi_incl](double v) { return hi_incl ? v <= h : v < h; };
    if (ord != nullptr) {
      BATPtr via = RangeSelectViaIndex(b.dbls(), *ord, below_lo, within_hi);
      if (via != nullptr) return via;
    }
    return ScanSelect(b.dbls(), cands, [below_lo, within_hi](double v) {
      return !below_lo(v) && within_hi(v);
    });
  }

  // Integer family (bit/int/lng): normalize to exact inclusive int64 bounds
  // once, then compare values as int64 — no precision loss for kLng values
  // beyond 2^53.
  int64_t l64, h64;
  if (!LowerBoundLng(lo, lo_incl, &l64) || !UpperBoundLng(hi, hi_incl, &h64) ||
      l64 > h64) {
    return BAT::Make(PhysType::kOid);
  }
  auto below_lo = [l64](int64_t v) { return v < l64; };
  auto within_hi = [h64](int64_t v) { return v <= h64; };
  auto match = [l64, h64](int64_t v) { return v >= l64 && v <= h64; };
  switch (b.type()) {
    case PhysType::kInt: {
      if (ord != nullptr) {
        BATPtr via = RangeSelectViaIndex(
            b.ints(), *ord,
            [&](int32_t v) { return below_lo(v); },
            [&](int32_t v) { return within_hi(v); });
        if (via != nullptr) return via;
      }
      return ScanSelect(b.ints(), cands,
                        [match](int32_t v) { return match(v); });
    }
    case PhysType::kLng: {
      if (ord != nullptr) {
        BATPtr via =
            RangeSelectViaIndex(b.lngs(), *ord, below_lo, within_hi);
        if (via != nullptr) return via;
      }
      return ScanSelect(b.lngs(), cands, match);
    }
    case PhysType::kBit: {
      if (ord != nullptr) {
        BATPtr via = RangeSelectViaIndex(
            b.bits(), *ord,
            [&](uint8_t v) { return below_lo(v); },
            [&](uint8_t v) { return within_hi(v); });
        if (via != nullptr) return via;
      }
      return ScanSelect(b.bits(), cands,
                        [match](uint8_t v) { return match(v); });
    }
    default:
      return Status::TypeMismatch("RangeSelect: unsupported type");
  }
}

Result<BATPtr> NullSelect(const BAT& b, const BAT* cands, bool select_null) {
  if (cands != nullptr && cands->Count() != b.Count()) {
    return Status::Internal("NullSelect: candidates misaligned with input");
  }
  return FilterSelect(b.Count(), cands, [&b, select_null](size_t i) {
    return b.IsNullAt(i) == select_null;
  });
}

}  // namespace gdk
}  // namespace sciql
