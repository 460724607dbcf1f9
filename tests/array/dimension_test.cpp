#include "src/array/dimension.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/array/descriptor.h"

namespace sciql {
namespace array {
namespace {

TEST(DimRangeTest, SizeRightOpen) {
  EXPECT_EQ(DimRange(0, 1, 4).Size(), 4u);
  EXPECT_EQ(DimRange(0, 2, 5).Size(), 3u);  // 0,2,4
  EXPECT_EQ(DimRange(-1, 1, 5).Size(), 6u);
  EXPECT_EQ(DimRange(3, 1, 3).Size(), 0u);
  EXPECT_EQ(DimRange(5, 1, 3).Size(), 0u);
}

TEST(DimRangeTest, NegativeStep) {
  DimRange r(10, -2, 4);  // 10, 8, 6
  EXPECT_EQ(r.Size(), 3u);
  EXPECT_EQ(r.ValueAt(0), 10);
  EXPECT_EQ(r.ValueAt(2), 6);
  EXPECT_TRUE(r.Contains(8));
  EXPECT_FALSE(r.Contains(4));  // stop is exclusive
  EXPECT_FALSE(r.Contains(7));  // off-grid
}

TEST(DimRangeTest, ContainsAndIndexOf) {
  DimRange r(0, 2, 10);
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(8));
  EXPECT_FALSE(r.Contains(10));
  EXPECT_FALSE(r.Contains(3));
  EXPECT_FALSE(r.Contains(-2));
  ASSERT_TRUE(r.IndexOf(6).ok());
  EXPECT_EQ(r.IndexOf(6).value(), 3u);
  EXPECT_FALSE(r.IndexOf(7).ok());
  EXPECT_EQ(r.IndexOfOrNeg(7), -1);
}

TEST(DimRangeTest, ZeroStepInvalid) {
  EXPECT_FALSE(DimRange(0, 0, 4).Validate().ok());
  EXPECT_TRUE(DimRange(0, 1, 4).Validate().ok());
}

TEST(DimRangeTest, FarOutOfRangeValuesDoNotOverflow) {
  // v - start would overflow int64 here; the range check must come first.
  EXPECT_EQ(DimRange(2, 1, 10).IndexOfOrNeg(-9223372036854775807), -1);
  EXPECT_EQ(DimRange(2, 1, 10).IndexOfOrNeg(INT64_MIN), -1);
  EXPECT_EQ(DimRange(-2, -1, -10).IndexOfOrNeg(INT64_MAX), -1);
  // Extreme but valid geometry: distances beyond INT64_MAX stay exact.
  DimRange wide(INT64_MIN, 1, INT64_MAX);
  EXPECT_EQ(wide.IndexOfOrNeg(INT64_MIN + 5), 5);
  EXPECT_EQ(wide.IndexOfOrNeg(INT64_MAX), -1);  // stop is exclusive
  EXPECT_EQ(DimRange(INT64_MAX, INT64_MIN, INT64_MIN).IndexOfOrNeg(-1), 1);
  EXPECT_EQ(DimRange(0, INT64_MAX, INT64_MAX).Size(), 1u);
  EXPECT_EQ(DimRange(INT64_MAX, INT64_MIN, INT64_MIN).Size(), 2u);
}

TEST(DimRangeTest, ValuesMustFitInt) {
  // Dimension values materialize as INT; INT_MIN is the NULL sentinel.
  EXPECT_TRUE(DimRange(2147483646, 1, 2147483648).Validate().ok());
  EXPECT_FALSE(DimRange(2147483646, 1, 2147483650).Validate().ok());
  EXPECT_EQ(DimRange(2147483646, 1, 2147483650).Validate().code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(DimRange(-2147483647, 1, 0).Validate().ok());
  EXPECT_FALSE(DimRange(-2147483648, 1, 0).Validate().ok());
  EXPECT_TRUE(DimRange(0, -1, -2147483648).Validate().ok());
  EXPECT_FALSE(DimRange(0, -1, -2147483649).Validate().ok());
  // A stride may step past INT as long as no value lands there.
  EXPECT_TRUE(DimRange(0, 3000000000, 1).Validate().ok());
  EXPECT_FALSE(DimRange(0, 3000000000, 3000000001).Validate().ok());
  EXPECT_TRUE(DimRange(0, INT64_MAX, INT64_MAX).Validate().ok());
  // Empty ranges have no values to check.
  EXPECT_TRUE(DimRange(5000000000, 1, 0).Validate().ok());
}

TEST(DimRangeTest, ToStringMatchesDdl) {
  EXPECT_EQ(DimRange(-1, 1, 5).ToString(), "[-1:1:5]");
}

TEST(ArrayDescTest, Fig3Linearisation) {
  // The paper's 4x4 matrix: first dimension (x) varies slowest.
  ArrayDesc desc({DimDesc{"x", DimRange(0, 1, 4), false},
                  DimDesc{"y", DimRange(0, 1, 4), false}},
                 {AttrDesc{"v", gdk::PhysType::kInt,
                           gdk::ScalarValue::Int(0)}});
  EXPECT_EQ(desc.CellCount(), 16u);
  EXPECT_EQ(desc.Strides(), (std::vector<size_t>{4, 1}));
  EXPECT_EQ(desc.LinearIndex({0, 3}), 3u);
  EXPECT_EQ(desc.LinearIndex({1, 0}), 4u);
  EXPECT_EQ(desc.CoordsOf(5), (std::vector<size_t>{1, 1}));
  EXPECT_EQ(desc.CellPosOfValues({2, 3}), 11);
  EXPECT_EQ(desc.CellPosOfValues({4, 0}), -1);
}

TEST(ArrayDescTest, NameLookupIsCaseInsensitive) {
  ArrayDesc desc({DimDesc{"x", DimRange(0, 1, 2), false}},
                 {AttrDesc{"v", gdk::PhysType::kInt,
                           gdk::ScalarValue::Null(gdk::PhysType::kInt)}});
  EXPECT_EQ(desc.DimIndex("X"), 0);
  EXPECT_EQ(desc.AttrIndex("V"), 0);
  EXPECT_EQ(desc.DimIndex("z"), -1);
}

TEST(ArrayDescTest, ThreeDimensionalStrides) {
  ArrayDesc desc({DimDesc{"a", DimRange(0, 1, 2), false},
                  DimDesc{"b", DimRange(0, 1, 3), false},
                  DimDesc{"c", DimRange(0, 1, 5), false}},
                 {});
  EXPECT_EQ(desc.CellCount(), 30u);
  EXPECT_EQ(desc.Strides(), (std::vector<size_t>{15, 5, 1}));
  EXPECT_EQ(desc.CoordsOf(22), (std::vector<size_t>{1, 1, 2}));
}

}  // namespace
}  // namespace array
}  // namespace sciql
