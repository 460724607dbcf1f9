#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"

#include "tests/support/telemetry_probe.h"

namespace sciql {
namespace gdk {
namespace {

BATPtr IntBat(std::initializer_list<int32_t> vals) {
  auto b = BAT::Make(PhysType::kInt);
  for (int32_t v : vals) b->ints().push_back(v);
  return b;
}

TEST(GroupTest, SingleColumn) {
  auto b = IntBat({7, 8, 7, 9, 8});
  auto g = Group(*b, nullptr, 0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ngroups, 3u);
  EXPECT_EQ(g->groups->oids(), (std::vector<oid_t>{0, 1, 0, 2, 1}));
  EXPECT_EQ(g->extents->oids(), (std::vector<oid_t>{0, 1, 3}));
}

TEST(GroupTest, NullsFormOneGroup) {
  auto b = IntBat({kIntNil, 1, kIntNil});
  auto g = Group(*b, nullptr, 0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ngroups, 2u);
  EXPECT_EQ(g->groups->oids()[0], g->groups->oids()[2]);
}

TEST(GroupTest, RefinementSplitsGroups) {
  auto a = IntBat({1, 1, 2, 2});
  auto b = IntBat({5, 6, 5, 5});
  auto g1 = Group(*a, nullptr, 0);
  ASSERT_TRUE(g1.ok());
  auto g2 = Group(*b, g1->groups.get(), g1->ngroups);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->ngroups, 3u);  // (1,5), (1,6), (2,5)
}

TEST(GroupTest, StringGrouping) {
  auto s = BAT::Make(PhysType::kStr);
  ASSERT_TRUE(s->Append(ScalarValue::Str("a")).ok());
  ASSERT_TRUE(s->Append(ScalarValue::Str("b")).ok());
  ASSERT_TRUE(s->Append(ScalarValue::Str("a")).ok());
  auto g = Group(*s, nullptr, 0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ngroups, 2u);
}

// First-encounter grouping reference: every (previous group, value or
// NULL) pair gets the next id when first seen, and its first row is the
// extent.
struct RefGroups {
  std::vector<oid_t> groups;
  std::vector<oid_t> extents;
};

template <typename T>
RefGroups ReferenceGroup(const std::vector<T>& v,
                         const std::vector<oid_t>* prev) {
  std::map<std::pair<oid_t, std::optional<T>>, oid_t> ids;
  RefGroups r;
  for (size_t i = 0; i < v.size(); ++i) {
    std::optional<T> key;
    if (!TypeTraits<T>::IsNil(v[i])) key = v[i];
    auto [it, added] = ids.emplace(
        std::make_pair(prev == nullptr ? 0 : (*prev)[i], key),
        static_cast<oid_t>(ids.size()));
    if (added) r.extents.push_back(i);
    r.groups.push_back(it->second);
  }
  return r;
}

template <typename T>
BATPtr Column(std::vector<T> vals) {
  auto b = BAT::Make(TypeTraits<T>::kType);
  b->template Data<T>() = std::move(vals);
  return b;
}

// Groups `b` (refining `prev` if given) and checks the result against the
// reference, field by field.
template <typename T>
void ExpectMatchesReference(const BAT& b, const GroupResult* prev) {
  auto g = Group(b, prev == nullptr ? nullptr : prev->groups.get(),
                 prev == nullptr ? 0 : prev->ngroups);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  RefGroups ref = ReferenceGroup(
      b.template Data<T>(), prev == nullptr ? nullptr : &prev->groups->oids());
  EXPECT_EQ(g->ngroups, ref.extents.size());
  EXPECT_EQ(g->groups->oids(), ref.groups);
  EXPECT_EQ(g->extents->oids(), ref.extents);
}

constexpr int32_t kIntMax = std::numeric_limits<int32_t>::max();
constexpr int64_t kLngMax = std::numeric_limits<int64_t>::max();

TEST(DenseGroupTest, IntNullsAndNegatives) {
  // Span 8 plus the NULL slot: 10 slots for 10 rows.
  auto b = Column<int32_t>({-3, kIntNil, 5, -3, 0, kIntNil, 5, 2, -1, 0});
  ExpectMatchesReference<int32_t>(*b, nullptr);
  // All NULL, and a single value.
  ExpectMatchesReference<int32_t>(*Column<int32_t>({kIntNil, kIntNil}),
                                  nullptr);
  ExpectMatchesReference<int32_t>(*Column<int32_t>({42, 42, 42}), nullptr);
}

TEST(DenseGroupTest, IntExtremes) {
  // Narrow domains at either end of INT32, with the NULL sentinel
  // (INT32_MIN) one below the smallest value.
  ExpectMatchesReference<int32_t>(
      *Column<int32_t>({kIntMax, kIntMax - 1, kIntNil, kIntMax, kIntNil}),
      nullptr);
  ExpectMatchesReference<int32_t>(
      *Column<int32_t>({kIntNil + 2, kIntNil, kIntNil + 1, kIntNil + 2}),
      nullptr);
  // Both ends at once: too wide, grouped by hash.
  ExpectMatchesReference<int32_t>(
      *Column<int32_t>({kIntMax, kIntNil + 1, kIntNil, kIntMax, 0}), nullptr);
}

TEST(DenseGroupTest, BitAndOidKeys) {
  ExpectMatchesReference<uint8_t>(
      *Column<uint8_t>({1, 0, kBitNil, 1, 0, 0, kBitNil}), nullptr);
  // oid values just under the NULL sentinel (UINT64_MAX).
  ExpectMatchesReference<uint64_t>(
      *Column<uint64_t>({kOidNil - 1, kOidNil, kOidNil - 3, kOidNil - 1,
                         kOidNil}),
      nullptr);
  ExpectMatchesReference<uint64_t>(*Column<uint64_t>({7, 5, 7, 6, 5, 5}),
                                   nullptr);
}

TEST(DenseGroupTest, LngSpanningInt64FallsBack) {
  // max - min = 2^64 - 2: the width in signed (or +2 unsigned) arithmetic
  // would overflow; the kernel must take the hash path instead.
  auto b = Column<int64_t>({kLngNil + 1, kLngMax, kLngNil, kLngMax, 0,
                            kLngNil + 1, kLngNil});
  ExpectMatchesReference<int64_t>(*b, nullptr);
  // A narrow lng domain far from zero stays dense.
  ExpectMatchesReference<int64_t>(
      *Column<int64_t>({kLngMax, kLngMax - 2, kLngNil, kLngMax - 1, kLngMax}),
      nullptr);
}

TEST(DenseGroupTest, WidthAtTheRowCountBoundary) {
  // Span 3: width 5 slots. Five rows are dense-eligible, four are not; both
  // must give the reference grouping.
  ExpectMatchesReference<int32_t>(*Column<int32_t>({10, 13, kIntNil, 10, 11}),
                                  nullptr);
  ExpectMatchesReference<int32_t>(*Column<int32_t>({10, 13, kIntNil, 10}),
                                  nullptr);
}

TEST(DenseGroupTest, RefinementThroughPrev) {
  auto a = Column<int32_t>({1, 1, 2, 2, kIntNil, 1, 2, kIntNil, 1, 2, 1, 2});
  auto b = Column<int32_t>({5, 6, 5, 5, 6, kIntNil, 6, 6, 5, kIntNil, 6, 5});
  auto g1 = Group(*a, nullptr, 0);
  ASSERT_TRUE(g1.ok());
  ExpectMatchesReference<int32_t>(*b, &*g1);
  // Refining by a bit key too.
  auto c = Column<uint8_t>({1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1});
  ExpectMatchesReference<uint8_t>(*c, &*g1);
}

TEST(DenseGroupTest, LargeInputMatchesReferenceAtAnyThreadCount) {
  constexpr size_t kN = 3 * kMorselRows + 77;
  Rng rng(91);
  std::vector<int32_t> vals(kN);
  for (auto& v : vals) {
    v = rng.Below(50) == 0 ? kIntNil
                           : static_cast<int32_t>(rng.Below(1001)) - 500;
  }
  auto b = Column<int32_t>(vals);
  auto& pool = ThreadPool::Get();
  for (int threads : {1, 4}) {
    pool.SetThreadCount(threads);
    ExpectMatchesReference<int32_t>(*b, nullptr);
  }
  pool.SetThreadCount(1);
}

TEST(DenseGroupTest, SameIdsAsTheHashPath) {
  // A DOUBLE column always groups by hash; holding the same integers (NaN
  // for NULL), it must get exactly the ids the dense INT grouping gets.
  Rng rng(92);
  constexpr size_t kN = 2 * kMorselRows + 5;
  auto ints = BAT::Make(PhysType::kInt);
  auto dbls = BAT::Make(PhysType::kDbl);
  for (size_t i = 0; i < kN; ++i) {
    bool nil = rng.Below(20) == 0;
    int32_t v = static_cast<int32_t>(rng.Below(300)) - 150;
    ints->ints().push_back(nil ? kIntNil : v);
    dbls->dbls().push_back(nil ? DblNil() : static_cast<double>(v));
  }
  auto& pool = ThreadPool::Get();
  for (int threads : {1, 4}) {
    pool.SetThreadCount(threads);
    auto dense = Group(*ints, nullptr, 0);
    auto hashed = Group(*dbls, nullptr, 0);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(hashed.ok());
    EXPECT_EQ(dense->ngroups, hashed->ngroups);
    EXPECT_EQ(dense->groups->oids(), hashed->groups->oids());
    EXPECT_EQ(dense->extents->oids(), hashed->extents->oids());
  }
  pool.SetThreadCount(1);
}

TEST(DenseGroupTest, BadPreviousGroupingIsAStatus) {
  // Two previous groups times width 3: six slots for six rows, dense.
  auto b = Column<int32_t>({1, 2, 1, 2, 1, 2});
  // A previous group id not below the previous group count.
  auto prev = Column<uint64_t>({0, 1, 2, 0, 1, 0});
  auto g = Group(*b, prev.get(), 2);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), Status::Code::kInvalidArgument)
      << g.status().ToString();
  // A previous grouping that is not an oid BAT.
  auto not_oid = Column<int32_t>({0, 1, 0, 1, 0, 1});
  auto g2 = Group(*b, not_oid.get(), 2);
  ASSERT_FALSE(g2.ok());
  EXPECT_EQ(g2.status().code(), Status::Code::kInvalidArgument)
      << g2.status().ToString();
}

TEST(AggrTest, GroupIdAtOrAboveTheCountIsAStatus) {
  auto v = IntBat({1, 2, 3, 4, 5});
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 2, 1, 0, 1};  // 2 is not below ngroups = 2
  for (AggOp op : {AggOp::kCountStar, AggOp::kCount, AggOp::kSum,
                   AggOp::kAvg, AggOp::kMin, AggOp::kMax}) {
    auto r = GroupedAggregate(op, v.get(), *groups, 2);
    ASSERT_FALSE(r.ok()) << AggOpName(op);
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument)
        << r.status().ToString();
  }
  auto s = BAT::Make(PhysType::kStr);
  for (const char* x : {"a", "b", "c", "d", "e"}) {
    ASSERT_TRUE(s->Append(ScalarValue::Str(x)).ok());
  }
  EXPECT_FALSE(GroupedAggregate(AggOp::kMin, s.get(), *groups, 2).ok());
  // The per-morsel path checks too: one bad id in the middle of a morsel,
  // then one among the last rows.
  constexpr size_t kN = 2 * kMorselRows + 3;
  auto big = BAT::Make(PhysType::kInt);
  big->ints().assign(kN, 1);
  ThreadPool::Get().SetThreadCount(4);
  for (size_t bad_row : {kMorselRows + 4097, kN - 1}) {
    auto big_groups = BAT::Make(PhysType::kOid);
    big_groups->oids().assign(kN, 0);
    big_groups->oids()[bad_row] = 5;
    for (AggOp op : {AggOp::kCountStar, AggOp::kCount, AggOp::kSum}) {
      EXPECT_FALSE(GroupedAggregate(op, big.get(), *big_groups, 3).ok())
          << AggOpName(op) << " row " << bad_row;
    }
  }
  ThreadPool::Get().SetThreadCount(1);
}

TEST(AggrTest, SumWidensToLng) {
  auto v = IntBat({1, 2, 3, 4});
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 0, 1, 1};
  auto r = GroupedAggregate(AggOp::kSum, v.get(), *groups, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), PhysType::kLng);
  EXPECT_EQ((*r)->lngs(), (std::vector<int64_t>{3, 7}));
}

TEST(AggrTest, AvgIgnoresNulls) {
  auto v = IntBat({4, kIntNil, 2});
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 0, 0};
  auto r = GroupedAggregate(AggOp::kAvg, v.get(), *groups, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ((*r)->dbls()[0], 3.0);
}

TEST(AggrTest, EmptyGroupYieldsNullButCountZero) {
  auto v = IntBat({1});
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {1};  // group 0 stays empty
  auto sum = GroupedAggregate(AggOp::kSum, v.get(), *groups, 2);
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE((*sum)->IsNullAt(0));
  EXPECT_EQ((*sum)->lngs()[1], 1);
  auto cnt = GroupedAggregate(AggOp::kCount, v.get(), *groups, 2);
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ((*cnt)->lngs()[0], 0);
}

TEST(AggrTest, MinMaxKeepOrderAndSkipNulls) {
  auto v = IntBat({5, kIntNil, -2, 9});
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 0, 0, 1};
  auto mn = GroupedAggregate(AggOp::kMin, v.get(), *groups, 2);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ((*mn)->GetScalar(0).AsInt64(), -2);
  auto mx = GroupedAggregate(AggOp::kMax, v.get(), *groups, 2);
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ((*mx)->GetScalar(0).AsInt64(), 5);
  EXPECT_EQ((*mx)->GetScalar(1).AsInt64(), 9);
}

TEST(AggrTest, CountStar) {
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 1, 1, 1};
  auto r = GroupedAggregate(AggOp::kCountStar, nullptr, *groups, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->lngs(), (std::vector<int64_t>{1, 3}));
}

TEST(AggrTest, DoubleSum) {
  auto v = BAT::Make(PhysType::kDbl);
  v->dbls() = {1.5, 2.5};
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 0};
  auto r = GroupedAggregate(AggOp::kSum, v.get(), *groups, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->type(), PhysType::kDbl);
  EXPECT_DOUBLE_EQ((*r)->dbls()[0], 4.0);
}

TEST(AggrTest, StringMinMax) {
  auto s = BAT::Make(PhysType::kStr);
  ASSERT_TRUE(s->Append(ScalarValue::Str("pear")).ok());
  ASSERT_TRUE(s->Append(ScalarValue::Str("apple")).ok());
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids() = {0, 0};
  auto mn = GroupedAggregate(AggOp::kMin, s.get(), *groups, 1);
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ((*mn)->GetScalar(0).s, "apple");
}

TEST(AggrTest, WholeBatAggregate) {
  auto v = IntBat({1, 2, 3});
  auto r = Aggregate(AggOp::kSum, *v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsInt64(), 6);
  auto e = BAT::Make(PhysType::kInt);
  auto rn = Aggregate(AggOp::kSum, *e);
  ASSERT_TRUE(rn.ok());
  EXPECT_TRUE(rn->is_null);
}

// MIN/MAX over doubles must be a pure function of the value multiset: a NaN
// (the dbl nil sentinel) must produce the same result wherever it sits in
// the row order — including at row 0, where a NaN-unsafe `<` chain would
// let it poison the accumulator, and at morsel boundaries, where the
// parallel partials merge. Every rotation of the input must agree.
TEST(AggrTest, DoubleMinMaxNaNPositionInvariant) {
  const std::vector<double> base = {3.5,      -1.25, DblNil(), 7.0,
                                    DblNil(), 0.0,   -0.0,     2.5};
  for (size_t rot = 0; rot < base.size(); ++rot) {
    auto v = BAT::Make(PhysType::kDbl);
    v->dbls() = base;
    std::rotate(v->dbls().begin(), v->dbls().begin() + rot, v->dbls().end());
    auto mn = Aggregate(AggOp::kMin, *v);
    ASSERT_TRUE(mn.ok());
    EXPECT_FALSE(mn->is_null) << "rotation " << rot;
    EXPECT_EQ(mn->d, -1.25) << "rotation " << rot;
    auto mx = Aggregate(AggOp::kMax, *v);
    ASSERT_TRUE(mx.ok());
    EXPECT_EQ(mx->d, 7.0) << "rotation " << rot;
  }
  // All-NaN input is NULL regardless of length.
  auto all_nan = BAT::Make(PhysType::kDbl);
  all_nan->dbls() = {DblNil(), DblNil(), DblNil()};
  auto mn = Aggregate(AggOp::kMin, *all_nan);
  ASSERT_TRUE(mn.ok());
  EXPECT_TRUE(mn->is_null);
}

// The same invariance across morsel boundaries: big input, NaNs moved
// between the first and the last morsel, grouped and ungrouped results
// must not change.
TEST(AggrTest, DoubleMinMaxNaNAcrossMorsels) {
  constexpr size_t kN = 200000;  // several 64K morsels
  auto make = [&](size_t nan_at) {
    auto v = BAT::Make(PhysType::kDbl);
    v->dbls().resize(kN);
    for (size_t i = 0; i < kN; ++i) {
      v->dbls()[i] = static_cast<double>((i * 37) % 1000) - 500.0;
    }
    v->dbls()[nan_at] = DblNil();
    return v;
  };
  for (size_t nan_at : {size_t{0}, size_t{70000}, kN - 1}) {
    auto v = make(nan_at);
    auto mn = Aggregate(AggOp::kMin, *v);
    auto mx = Aggregate(AggOp::kMax, *v);
    ASSERT_TRUE(mn.ok());
    ASSERT_TRUE(mx.ok());
    EXPECT_EQ(mn->d, -500.0) << "nan at " << nan_at;
    EXPECT_EQ(mx->d, 499.0) << "nan at " << nan_at;
  }
}

// Ungrouped MIN/MAX with a live order index reads the index endpoints (nil
// prefix skipped) instead of scanning; without one it scans as before.
TEST(AggrTest, IndexBackedMinMax) {
  auto v = IntBat({5, kIntNil, -2, 9, kIntNil, 7});
  testsupport::TestProbe().Rebase();
  auto scan_mn = Aggregate(AggOp::kMin, *v);
  auto scan_mx = Aggregate(AggOp::kMax, *v);
  ASSERT_TRUE(scan_mn.ok());
  ASSERT_TRUE(scan_mx.ok());
  EXPECT_EQ(testsupport::TestProbe().delta().minmax_index, 0u);
  ASSERT_TRUE(EnsureOrderIndex(*v).ok());
  testsupport::TestProbe().Rebase();
  auto idx_mn = Aggregate(AggOp::kMin, *v);
  auto idx_mx = Aggregate(AggOp::kMax, *v);
  ASSERT_TRUE(idx_mn.ok());
  ASSERT_TRUE(idx_mx.ok());
  EXPECT_EQ(testsupport::TestProbe().delta().minmax_index, 2u);
  EXPECT_EQ(idx_mn->AsInt64(), scan_mn->AsInt64());
  EXPECT_EQ(idx_mx->AsInt64(), scan_mx->AsInt64());
  EXPECT_EQ(idx_mn->AsInt64(), -2);
  EXPECT_EQ(idx_mx->AsInt64(), 9);
  // Mutation drops the index; the next aggregate scans the new values.
  ASSERT_TRUE(v->Set(0, ScalarValue::Int(-100)).ok());
  testsupport::TestProbe().Rebase();
  auto after = Aggregate(AggOp::kMin, *v);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(testsupport::TestProbe().delta().minmax_index, 0u);
  EXPECT_EQ(after->AsInt64(), -100);
}

// The scan path keeps the first-arriving row among ties; the index path
// must pick the same representative or cached-index state would change the
// bit pattern of MAX over mixed -0.0/0.0.
TEST(AggrTest, IndexBackedMinMaxTieRepresentativeMatchesScan) {
  auto v = BAT::Make(PhysType::kDbl);
  v->dbls() = {0.0, 3.5, -0.0, 3.5, DblNil(), -2.0, -0.0, 0.0, -2.0};
  auto scan_mn = Aggregate(AggOp::kMin, *v);
  auto scan_mx = Aggregate(AggOp::kMax, *v);
  ASSERT_TRUE(scan_mn.ok());
  ASSERT_TRUE(scan_mx.ok());
  ASSERT_TRUE(EnsureOrderIndex(*v).ok());
  auto idx_mn = Aggregate(AggOp::kMin, *v);
  auto idx_mx = Aggregate(AggOp::kMax, *v);
  ASSERT_TRUE(idx_mn.ok());
  ASSERT_TRUE(idx_mx.ok());
  EXPECT_EQ(std::signbit(idx_mn->d), std::signbit(scan_mn->d));
  EXPECT_EQ(idx_mn->d, scan_mn->d);
  EXPECT_EQ(std::signbit(idx_mx->d), std::signbit(scan_mx->d));
  EXPECT_EQ(idx_mx->d, scan_mx->d);

  // Zero-only column: MAX ties across +0.0/-0.0; scan keeps row 0's -0.0.
  auto z = BAT::Make(PhysType::kDbl);
  z->dbls() = {-0.0, 0.0, -0.0};
  auto zscan = Aggregate(AggOp::kMax, *z);
  ASSERT_TRUE(zscan.ok());
  ASSERT_TRUE(EnsureOrderIndex(*z).ok());
  auto zidx = Aggregate(AggOp::kMax, *z);
  ASSERT_TRUE(zidx.ok());
  EXPECT_EQ(std::signbit(zidx->d), std::signbit(zscan->d));
}

TEST(AggrTest, IndexBackedMinMaxAllNullAndString) {
  auto nulls = IntBat({kIntNil, kIntNil});
  ASSERT_TRUE(EnsureOrderIndex(*nulls).ok());
  auto mn = Aggregate(AggOp::kMin, *nulls);
  ASSERT_TRUE(mn.ok());
  EXPECT_TRUE(mn->is_null);

  auto s = BAT::Make(PhysType::kStr);
  ASSERT_TRUE(s->Append(ScalarValue::Str("pear")).ok());
  ASSERT_TRUE(s->Append(ScalarValue::Null(PhysType::kStr)).ok());
  ASSERT_TRUE(s->Append(ScalarValue::Str("apple")).ok());
  ASSERT_TRUE(EnsureOrderIndex(*s).ok());
  testsupport::TestProbe().Rebase();
  auto smn = Aggregate(AggOp::kMin, *s);
  auto smx = Aggregate(AggOp::kMax, *s);
  ASSERT_TRUE(smn.ok());
  ASSERT_TRUE(smx.ok());
  EXPECT_EQ(testsupport::TestProbe().delta().minmax_index, 2u);
  EXPECT_EQ(smn->s, "apple");
  EXPECT_EQ(smx->s, "pear");
}

}  // namespace
}  // namespace gdk
}  // namespace sciql
