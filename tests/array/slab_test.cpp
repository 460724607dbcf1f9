// SlabPositions (array.slab's kernel) against the scan it replaces: every
// bound set must select exactly the oids, in the same order, that comparing
// the materialized dimension columns and AND-ing the bits selects.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/array/series.h"
#include "src/common/rng.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace array {
namespace {

using gdk::BAT;
using gdk::BATPtr;
using gdk::BinOp;
using gdk::CmpOp;
using gdk::PhysType;
using gdk::ScalarValue;

ArrayDesc Desc(const std::vector<DimRange>& ranges) {
  std::vector<DimDesc> dims;
  for (size_t d = 0; d < ranges.size(); ++d) {
    dims.push_back(DimDesc{std::string(1, static_cast<char>('x' + d)),
                           ranges[d], false});
  }
  return ArrayDesc(std::move(dims), {});
}

BinOp ToBinOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return BinOp::kEq;
    case CmpOp::kLt: return BinOp::kLt;
    case CmpOp::kLe: return BinOp::kLe;
    case CmpOp::kGt: return BinOp::kGt;
    case CmpOp::kGe: return BinOp::kGe;
    case CmpOp::kNe: break;
  }
  return BinOp::kNe;
}

// The scan pipeline: batcalc comparison per bound, AND chain, select.
std::vector<gdk::oid_t> ScanOids(const ArrayDesc& desc,
                                 const std::vector<DimBound>& bounds) {
  std::vector<BATPtr> dims;
  for (size_t d = 0; d < desc.ndims(); ++d) {
    dims.push_back(MaterializeDim(desc, d));
  }
  BATPtr acc;
  for (const DimBound& b : bounds) {
    auto bits = gdk::CalcBinary(ToBinOp(b.op), dims[b.dim].get(), nullptr,
                                nullptr, &b.bound);
    EXPECT_TRUE(bits.ok()) << bits.status().ToString();
    if (acc == nullptr) {
      acc = *bits;
      continue;
    }
    auto both = gdk::CalcBinary(BinOp::kAnd, acc.get(), nullptr, bits->get(),
                                nullptr);
    EXPECT_TRUE(both.ok());
    acc = *both;
  }
  if (acc == nullptr) {
    std::vector<gdk::oid_t> all(desc.CellCount());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  }
  auto sel = gdk::BoolSelect(*acc, nullptr);
  EXPECT_TRUE(sel.ok());
  return (*sel)->oids();
}

std::vector<gdk::oid_t> SlabOids(const ArrayDesc& desc,
                                 const std::vector<DimBound>& bounds) {
  auto r = SlabPositions(desc, bounds);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? (*r)->oids() : std::vector<gdk::oid_t>{};
}

DimBound B(size_t dim, CmpOp op, ScalarValue v) {
  DimBound b;
  b.dim = dim;
  b.op = op;
  b.bound = std::move(v);
  return b;
}

TEST(SlabTest, WindowMatchesScan) {
  ArrayDesc desc = Desc({DimRange(0, 1, 16), DimRange(0, 1, 16)});
  std::vector<DimBound> w = {B(0, CmpOp::kGe, ScalarValue::Int(4)),
                             B(0, CmpOp::kLe, ScalarValue::Int(6)),
                             B(1, CmpOp::kGe, ScalarValue::Int(9)),
                             B(1, CmpOp::kLe, ScalarValue::Int(11))};
  std::vector<gdk::oid_t> got = SlabOids(desc, w);
  EXPECT_EQ(got, (std::vector<gdk::oid_t>{73, 74, 75, 89, 90, 91, 105, 106,
                                          107}));
  EXPECT_EQ(got, ScanOids(desc, w));
}

TEST(SlabTest, EdgeCases) {
  ArrayDesc neg = Desc({DimRange(10, -2, 0), DimRange(-3, 1, 2)});
  // Negative step: x holds 10, 8, 6, 4, 2.
  for (const std::vector<DimBound>& bounds :
       std::vector<std::vector<DimBound>>{
           {B(0, CmpOp::kLe, ScalarValue::Dbl(6.5))},       // decimal
           {B(0, CmpOp::kEq, ScalarValue::Int(7))},         // off grid
           {B(0, CmpOp::kEq, ScalarValue::Dbl(8.0))},       // exact double
           {B(0, CmpOp::kGt, ScalarValue::Int(100))},       // past the end
           {B(1, CmpOp::kLt, ScalarValue::Int(-100))},      // before start
           {B(0, CmpOp::kEq, ScalarValue::Null(PhysType::kInt))},
           {B(0, CmpOp::kEq, ScalarValue::Int(4)),
            B(0, CmpOp::kEq, ScalarValue::Int(6))},         // contradiction
           // Operands equal to a nil sentinel compare as NULL in the scan.
           {B(1, CmpOp::kGe, ScalarValue::Lng(INT64_MIN))},
           {B(1, CmpOp::kGt, ScalarValue::Int(INT32_MIN))},
           {B(1, CmpOp::kLe, ScalarValue::Lng(INT64_MAX))},
           {B(1, CmpOp::kLt, ScalarValue::Lng(INT64_MIN))},
           {B(1, CmpOp::kGt, ScalarValue::Lng(INT64_MAX))},
           {B(1, CmpOp::kGt, ScalarValue::Dbl(1e300))},
           {B(1, CmpOp::kGt, ScalarValue::Dbl(-1e300))},
           {B(0, CmpOp::kGt, ScalarValue::Dbl(2.0)),
            B(1, CmpOp::kLt, ScalarValue::Dbl(-0.5))},
           {},
       }) {
    EXPECT_EQ(SlabOids(neg, bounds), ScanOids(neg, bounds));
  }
  EXPECT_TRUE(SlabOids(neg, {B(0, CmpOp::kEq, ScalarValue::Int(7))}).empty());
}

TEST(SlabTest, RandomBoundsMatchScan) {
  Rng rng(20131022);
  const DimRange ranges[] = {
      DimRange(0, 1, 7),        DimRange(10, -2, 0),   DimRange(-5, 3, 9),
      DimRange(3, 1, 4),        DimRange(0, 2, 1),     DimRange(7, -3, -9),
      DimRange(2147483640, 1, 2147483648),
      DimRange(-2147483647, 5, -2147483630),
  };
  const size_t nranges = sizeof(ranges) / sizeof(ranges[0]);
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                       CmpOp::kGe};
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<DimRange> dims;
    size_t nd = 1 + rng.Below(3);
    for (size_t d = 0; d < nd; ++d) dims.push_back(ranges[rng.Below(nranges)]);
    ArrayDesc desc = Desc(dims);
    std::vector<DimBound> bounds;
    size_t nb = rng.Below(5);
    for (size_t i = 0; i < nb; ++i) {
      size_t d = rng.Below(nd);
      // Bounds near the dimension's values, with some far away.
      int64_t v = dims[d].start + rng.Range(-12, 12);
      ScalarValue bound;
      switch (rng.Below(5)) {
        case 0:
          bound = ScalarValue::Dbl(static_cast<double>(v) + 0.5);
          break;
        case 1:
          bound = ScalarValue::Lng(v);
          break;
        case 2: {
          const ScalarValue extremes[] = {
              ScalarValue::Null(PhysType::kInt), ScalarValue::Lng(INT64_MAX),
              ScalarValue::Lng(INT64_MIN), ScalarValue::Lng(INT64_MIN + 1),
              ScalarValue::Int(INT32_MIN), ScalarValue::Dbl(-1e300)};
          bound = extremes[rng.Below(6)];
          break;
        }
        default:
          bound = v >= INT32_MIN + 1 && v <= INT32_MAX
                      ? ScalarValue::Int(static_cast<int32_t>(v))
                      : ScalarValue::Lng(v);
          break;
      }
      bounds.push_back(B(d, ops[rng.Below(5)], bound));
    }
    ASSERT_EQ(SlabOids(desc, bounds), ScanOids(desc, bounds))
        << "iteration " << iter;
  }
}

TEST(SlabTest, RejectsBadBounds) {
  ArrayDesc desc = Desc({DimRange(0, 1, 4)});
  EXPECT_FALSE(SlabPositions(desc, {B(1, CmpOp::kEq, ScalarValue::Int(0))}).ok());
  EXPECT_FALSE(SlabPositions(desc, {B(0, CmpOp::kNe, ScalarValue::Int(0))}).ok());
  EXPECT_FALSE(
      SlabPositions(desc, {B(0, CmpOp::kEq, ScalarValue::Str("a"))}).ok());
  // Steps of any magnitude, including INT64_MIN, around a single value.
  for (int64_t step : {INT64_MIN, INT64_MAX}) {
    ArrayDesc one = Desc({DimRange(0, step, step > 0 ? 1 : -1)});
    EXPECT_EQ(SlabOids(one, {B(0, CmpOp::kGe, ScalarValue::Int(0))}),
              std::vector<gdk::oid_t>{0});
    EXPECT_TRUE(SlabOids(one, {B(0, CmpOp::kGt, ScalarValue::Int(0))}).empty());
  }
  // A range whose values leave INT is refused, never walked.
  ArrayDesc wide = Desc({DimRange(0, 1, INT64_MAX)});
  EXPECT_FALSE(SlabPositions(wide, {}).ok());
}

TEST(SlabTest, CountsTelemetry) {
  ArrayDesc desc = Desc({DimRange(0, 1, 4)});
  gdk::TelemetryProbe probe;
  ASSERT_TRUE(SlabPositions(desc, {B(0, CmpOp::kEq, ScalarValue::Int(1))}).ok());
  EXPECT_EQ(probe.delta().dim_slab_selects, 1u);
}

}  // namespace
}  // namespace array
}  // namespace sciql
