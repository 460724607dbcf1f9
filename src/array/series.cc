#include "src/array/series.h"

#include <algorithm>
#include <limits>

#include "src/common/string_util.h"

namespace sciql {
namespace array {

using gdk::BAT;
using gdk::BATPtr;
using gdk::PhysType;
using gdk::ScalarValue;

BATPtr Series(const DimRange& range, size_t repeat_each, size_t repeat_group) {
  // Validated ranges (DimRange::Validate) hold only INT values, so the
  // narrowing below is exact.
  auto out = BAT::Make(PhysType::kInt);
  size_t nvals = range.Size();
  auto& v = out->ints();
  v.reserve(nvals * repeat_each * repeat_group);
  for (size_t g = 0; g < repeat_group; ++g) {
    for (size_t i = 0; i < nvals; ++i) {
      int32_t val = static_cast<int32_t>(range.ValueAt(i));
      v.insert(v.end(), repeat_each, val);
    }
  }
  return out;
}

BATPtr Filler(size_t count, const ScalarValue& v) {
  return BAT::MakeConst(v, count);
}

BATPtr MaterializeDim(const ArrayDesc& desc, size_t d) {
  // N = product of the sizes of the dimensions declared after d,
  // M = product of the sizes of the dimensions declared before d.
  size_t repeat_each = 1;
  for (size_t i = d + 1; i < desc.ndims(); ++i) {
    repeat_each *= desc.dims()[i].range.Size();
  }
  size_t repeat_group = 1;
  for (size_t i = 0; i < d; ++i) {
    repeat_group *= desc.dims()[i].range.Size();
  }
  return Series(desc.dims()[d].range, repeat_each, repeat_group);
}

Result<gdk::BATPtr> CellPositions(
    const ArrayDesc& desc, const std::vector<const gdk::BAT*>& dim_vals) {
  if (dim_vals.size() != desc.ndims()) {
    return Status::Internal(
        StrFormat("CellPositions: %zu value columns for %zu dimensions",
                  dim_vals.size(), desc.ndims()));
  }
  size_t n = desc.ndims() == 0 ? 0 : dim_vals[0]->Count();
  for (const gdk::BAT* b : dim_vals) {
    if (b->Count() != n) {
      return Status::Internal("CellPositions: misaligned dimension columns");
    }
    if (b->type() != PhysType::kInt && b->type() != PhysType::kLng) {
      return Status::TypeMismatch("dimension values must be integers");
    }
  }
  std::vector<size_t> strides = desc.Strides();
  auto out = BAT::Make(PhysType::kOid);
  auto& pos = out->oids();
  pos.assign(n, gdk::kOidNil);
  for (size_t r = 0; r < n; ++r) {
    int64_t p = 0;
    bool ok = true;
    for (size_t d = 0; d < desc.ndims(); ++d) {
      const gdk::BAT* b = dim_vals[d];
      int64_t v;
      if (b->type() == PhysType::kInt) {
        int32_t x = b->ints()[r];
        if (x == gdk::kIntNil) {
          ok = false;
          break;
        }
        v = x;
      } else {
        int64_t x = b->lngs()[r];
        if (x == gdk::kLngNil) {
          ok = false;
          break;
        }
        v = x;
      }
      int64_t idx = desc.dims()[d].range.IndexOfOrNeg(v);
      if (idx < 0) {
        ok = false;
        break;
      }
      p += idx * static_cast<int64_t>(strides[d]);
    }
    if (ok) pos[r] = static_cast<gdk::oid_t>(p);
  }
  return out;
}

namespace {

// The inclusive int64 interval of values v with `v op bound`; false when no
// int64 satisfies it.
bool ValueInterval(gdk::CmpOp op, const ScalarValue& bound, int64_t* lo,
                   int64_t* hi) {
  *lo = std::numeric_limits<int64_t>::min();
  *hi = std::numeric_limits<int64_t>::max();
  // A comparison with NULL never holds. The calc kernels read an operand
  // equal to its type's nil sentinel (INT_MIN, BIGINT_MIN) as NULL too; a
  // NaN double bound fails the rounding below.
  if (bound.is_null ||
      (bound.type == PhysType::kInt && bound.i == gdk::kIntNil) ||
      (bound.type == PhysType::kLng && bound.i == gdk::kLngNil)) {
    return false;
  }
  switch (op) {
    case gdk::CmpOp::kEq:
      return gdk::LowerBoundLng(bound, true, lo) &&
             gdk::UpperBoundLng(bound, true, hi);
    case gdk::CmpOp::kLt:
      return gdk::UpperBoundLng(bound, false, hi);
    case gdk::CmpOp::kLe:
      return gdk::UpperBoundLng(bound, true, hi);
    case gdk::CmpOp::kGt:
      return gdk::LowerBoundLng(bound, false, lo);
    case gdk::CmpOp::kGe:
      return gdk::LowerBoundLng(bound, true, lo);
    case gdk::CmpOp::kNe:
      break;
  }
  return false;
}

// Narrow the index interval [*ilo, *ihi] of `range` (size n > 0) to the
// positions whose values lie in [lo, hi]. False when it becomes empty.
bool NarrowIndexInterval(const DimRange& range, size_t n, int64_t lo,
                         int64_t hi, size_t* ilo, size_t* ihi) {
  int64_t first = range.start;
  int64_t last = range.ValueAt(n - 1);
  // Clamp to the values the dimension holds: every difference below is
  // then non-negative and within INT's span (DimRange::Validate).
  lo = std::max(lo, std::min(first, last));
  hi = std::min(hi, std::max(first, last));
  if (lo > hi) return false;
  uint64_t st = range.step > 0 ? static_cast<uint64_t>(range.step)
                               : ~static_cast<uint64_t>(range.step) + 1;
  // Values ascend with the index for a positive step, descend otherwise.
  auto near = static_cast<uint64_t>(range.step > 0 ? lo - first : first - hi);
  auto far = static_cast<uint64_t>(range.step > 0 ? hi - first : first - lo);
  size_t a = static_cast<size_t>(near / st + (near % st != 0 ? 1 : 0));  // ceil
  size_t b = static_cast<size_t>(far / st);                              // floor
  *ilo = std::max(*ilo, a);
  *ihi = std::min(*ihi, b);
  return *ilo <= *ihi;
}

// Typed scatter: same physical type on both sides writes directly into the
// dense array, skipping per-row scalar boxing.
template <typename T>
Status ScatterTyped(gdk::BAT* attr, const gdk::BAT& positions,
                    const gdk::BAT& values) {
  auto& dst = attr->Data<T>();
  const auto& src = values.Data<T>();
  const auto& pos = positions.oids();
  size_t limit = dst.size();
  for (size_t i = 0; i < pos.size(); ++i) {
    gdk::oid_t p = pos[i];
    if (p == gdk::kOidNil) continue;
    if (p >= limit) {
      return Status::OutOfRange(
          StrFormat("scatter position %llu beyond array size %zu",
                    static_cast<unsigned long long>(p), limit));
    }
    dst[p] = src[i];
  }
  return Status::OK();
}

}  // namespace

Result<gdk::BATPtr> SlabPositions(const ArrayDesc& desc,
                                  const std::vector<DimBound>& bounds) {
  gdk::Telemetry().dim_slab_selects++;
  auto out = BAT::Make(PhysType::kOid);
  size_t nd = desc.ndims();
  std::vector<size_t> size(nd), lo(nd, 0), hi(nd, 0);
  for (size_t d = 0; d < nd; ++d) {
    const DimRange& r = desc.dims()[d].range;
    SCIQL_RETURN_NOT_OK(r.Validate());
    size[d] = r.Size();
    if (size[d] == 0) return out;
    hi[d] = size[d] - 1;
  }
  if (nd == 0) return out;
  for (const DimBound& b : bounds) {
    if (b.dim >= nd || b.op == gdk::CmpOp::kNe) {
      return Status::Internal("SlabPositions: bad dimension bound");
    }
    if (!b.bound.is_null && !gdk::IsNumeric(b.bound.type)) {
      return Status::TypeMismatch("slab bounds must be numeric");
    }
    int64_t vlo, vhi;
    if (!ValueInterval(b.op, b.bound, &vlo, &vhi) ||
        !NarrowIndexInterval(desc.dims()[b.dim].range, size[b.dim], vlo,
                             vhi, &lo[b.dim], &hi[b.dim])) {
      return out;
    }
  }
  // Row-major walk: the last dimension varies fastest, so emitting each
  // innermost run in index order yields ascending oids — a scan's order.
  std::vector<size_t> strides = desc.Strides();
  size_t total = 1;
  for (size_t d = 0; d < nd; ++d) total *= hi[d] - lo[d] + 1;
  auto& oids = out->oids();
  oids.reserve(total);
  std::vector<size_t> idx = lo;
  size_t inner = nd - 1;
  while (true) {
    size_t base = 0;
    for (size_t d = 0; d < inner; ++d) base += idx[d] * strides[d];
    for (size_t i = lo[inner]; i <= hi[inner]; ++i) {
      oids.push_back(static_cast<gdk::oid_t>(base + i * strides[inner]));
    }
    size_t d = inner;
    while (d > 0 && idx[d - 1] == hi[d - 1]) {
      idx[d - 1] = lo[d - 1];
      --d;
    }
    if (d == 0) break;
    ++idx[d - 1];
  }
  return out;
}

Status ScatterIntoAttr(gdk::BAT* attr, const gdk::BAT& positions,
                       const gdk::BAT& values) {
  if (positions.type() != PhysType::kOid) {
    return Status::TypeMismatch("scatter expects oid positions");
  }
  if (positions.Count() != values.Count()) {
    return Status::Internal("scatter: positions misaligned with values");
  }
  if (attr->type() == values.type() && attr->type() != PhysType::kStr) {
    switch (attr->type()) {
      case PhysType::kBit:
        return ScatterTyped<uint8_t>(attr, positions, values);
      case PhysType::kInt:
        return ScatterTyped<int32_t>(attr, positions, values);
      case PhysType::kLng:
        return ScatterTyped<int64_t>(attr, positions, values);
      case PhysType::kDbl:
        return ScatterTyped<double>(attr, positions, values);
      case PhysType::kOid:
        return ScatterTyped<uint64_t>(attr, positions, values);
      default:
        break;
    }
  }
  size_t limit = attr->Count();
  for (size_t i = 0; i < positions.Count(); ++i) {
    gdk::oid_t p = positions.oids()[i];
    if (p == gdk::kOidNil) continue;
    if (p >= limit) {
      return Status::OutOfRange(
          StrFormat("scatter position %llu beyond array size %zu",
                    static_cast<unsigned long long>(p), limit));
    }
    SCIQL_RETURN_NOT_OK(attr->Set(p, values.GetScalar(i)));
  }
  return Status::OK();
}

Status ScatterConstIntoAttr(gdk::BAT* attr, const gdk::BAT& positions,
                            const gdk::ScalarValue& v) {
  size_t limit = attr->Count();
  for (size_t i = 0; i < positions.Count(); ++i) {
    gdk::oid_t p = positions.oids()[i];
    if (p == gdk::kOidNil) continue;
    if (p >= limit) {
      return Status::OutOfRange("scatter position beyond array size");
    }
    SCIQL_RETURN_NOT_OK(attr->Set(p, v));
  }
  return Status::OK();
}

}  // namespace array
}  // namespace sciql
