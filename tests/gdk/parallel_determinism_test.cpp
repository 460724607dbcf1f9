// Determinism suite for the morsel-parallel kernels: every parallelized
// kernel must produce bit-identical BATs at 1 thread and at 8 threads.
// Inputs are sized to span several morsels (kMorselRows = 64K rows), so the
// parallel path is genuinely exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/array/tiling.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/gdk/kernels.h"

namespace sciql {
namespace gdk {
namespace {

using array::ArrayDesc;
using array::AttrDesc;
using array::DimDesc;
using array::DimRange;
using array::TileSpec;

constexpr size_t kRows = 3 * kMorselRows + 1234;  // several morsels

// Bytewise equality of the tail vectors (NaN-safe, unlike operator==).
template <typename T>
bool VecBytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

::testing::AssertionResult BatsBitIdentical(const BAT& a, const BAT& b) {
  if (a.type() != b.type()) {
    return ::testing::AssertionFailure()
           << "type mismatch: " << PhysTypeName(a.type()) << " vs "
           << PhysTypeName(b.type());
  }
  if (a.Count() != b.Count()) {
    return ::testing::AssertionFailure()
           << "count mismatch: " << a.Count() << " vs " << b.Count();
  }
  bool eq = false;
  switch (a.type()) {
    case PhysType::kBit:
      eq = VecBytesEqual(a.bits(), b.bits());
      break;
    case PhysType::kInt:
      eq = VecBytesEqual(a.ints(), b.ints());
      break;
    case PhysType::kLng:
      eq = VecBytesEqual(a.lngs(), b.lngs());
      break;
    case PhysType::kDbl:
      eq = VecBytesEqual(a.dbls(), b.dbls());
      break;
    case PhysType::kOid:
      eq = VecBytesEqual(a.oids(), b.oids());
      break;
    case PhysType::kStr: {
      // Offsets are heap-relative; compare decoded strings row by row.
      eq = true;
      for (size_t i = 0; i < a.Count() && eq; ++i) {
        if (a.IsNullAt(i) != b.IsNullAt(i)) eq = false;
        else if (!a.IsNullAt(i) && a.GetStr(i) != b.GetStr(i)) eq = false;
      }
      break;
    }
  }
  if (!eq) return ::testing::AssertionFailure() << "tail bytes differ";
  return ::testing::AssertionSuccess();
}

// Run `fn` at 1 thread and at 8 threads and assert bit-identical results.
template <typename Fn>
void ExpectDeterministic(Fn fn) {
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  BATPtr seq = fn();
  ASSERT_NE(seq, nullptr);
  pool.SetThreadCount(8);
  BATPtr par = fn();
  pool.SetThreadCount(1);
  ASSERT_NE(par, nullptr);
  EXPECT_TRUE(BatsBitIdentical(*seq, *par));
}

BATPtr IntColumn(size_t n, uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kInt);
  b->ints().resize(n);
  for (auto& v : b->ints()) {
    if (with_nulls && rng.Below(37) == 0) {
      v = kIntNil;
    } else {
      v = static_cast<int32_t>(rng.Below(1000)) - 500;
    }
  }
  return b;
}

BATPtr DblColumn(size_t n, uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kDbl);
  b->dbls().resize(n);
  for (auto& v : b->dbls()) {
    if (with_nulls && rng.Below(37) == 0) {
      v = DblNil();
    } else {
      v = static_cast<double>(rng.Below(1000000)) / 997.0 - 300.0;
    }
  }
  return b;
}

BATPtr StrColumn(size_t n, uint64_t seed, uint64_t domain = 200) {
  Rng rng(seed);
  auto b = BAT::Make(PhysType::kStr);
  b->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.Below(domain);
    Status st = k == 0 ? b->Append(ScalarValue::Null(PhysType::kStr))
                       : b->Append(ScalarValue::Str(
                             "key" + std::to_string(k)));
    EXPECT_TRUE(st.ok());
  }
  return b;
}

TEST(ParallelDeterminism, BoolSelect) {
  Rng rng(1);
  auto bits = BAT::Make(PhysType::kBit);
  bits->bits().resize(kRows);
  for (auto& v : bits->bits()) {
    uint64_t k = rng.Below(5);
    v = k == 0 ? kBitNil : static_cast<uint8_t>(k % 2);
  }
  ExpectDeterministic([&] { return BoolSelect(*bits, nullptr).take(); });
}

TEST(ParallelDeterminism, ThetaSelectIntThroughCandidates) {
  auto b = IntColumn(kRows, 2, true);
  auto cands = BAT::MakeDense(1000, kRows);
  ExpectDeterministic([&] {
    return ThetaSelect(*b, cands.get(), CmpOp::kGt, ScalarValue::Int(120))
        .take();
  });
}

TEST(ParallelDeterminism, ThetaSelectStr) {
  auto b = StrColumn(kRows, 3);
  ExpectDeterministic([&] {
    return ThetaSelect(*b, nullptr, CmpOp::kGe, ScalarValue::Str("key50"))
        .take();
  });
}

TEST(ParallelDeterminism, RangeSelect) {
  auto b = DblColumn(kRows, 4, true);
  ExpectDeterministic([&] {
    return RangeSelect(*b, nullptr, ScalarValue::Dbl(-10.0),
                       ScalarValue::Dbl(200.0), true, false)
        .take();
  });
}

TEST(ParallelDeterminism, NullSelect) {
  auto b = IntColumn(kRows, 5, true);
  ExpectDeterministic([&] { return NullSelect(*b, nullptr, true).take(); });
}

TEST(ParallelDeterminism, CalcBinaryDblAdd) {
  auto l = DblColumn(kRows, 6, true);
  auto r = DblColumn(kRows, 7, true);
  ExpectDeterministic([&] {
    return CalcBinary(BinOp::kAdd, l.get(), nullptr, r.get(), nullptr).take();
  });
}

TEST(ParallelDeterminism, CalcBinaryIntCmpScalar) {
  auto l = IntColumn(kRows, 8, true);
  ScalarValue s = ScalarValue::Int(3);
  ExpectDeterministic([&] {
    return CalcBinary(BinOp::kLt, l.get(), nullptr, nullptr, &s).take();
  });
}

TEST(ParallelDeterminism, CalcBinaryBoolAnd) {
  Rng rng(9);
  auto mk = [&] {
    auto b = BAT::Make(PhysType::kBit);
    b->bits().resize(kRows);
    for (auto& v : b->bits()) {
      uint64_t k = rng.Below(5);
      v = k == 0 ? kBitNil : static_cast<uint8_t>(k % 2);
    }
    return b;
  };
  auto l = mk();
  auto r = mk();
  ExpectDeterministic([&] {
    return CalcBinary(BinOp::kAnd, l.get(), nullptr, r.get(), nullptr).take();
  });
}

TEST(ParallelDeterminism, CalcUnaryNegAndIsNull) {
  auto b = DblColumn(kRows, 10, true);
  ExpectDeterministic([&] { return CalcUnary(UnOp::kNeg, *b).take(); });
  ExpectDeterministic([&] { return CalcUnary(UnOp::kIsNull, *b).take(); });
}

TEST(ParallelDeterminism, CastBatBothWays) {
  auto i = IntColumn(kRows, 11, true);
  ExpectDeterministic([&] { return CastBat(*i, PhysType::kDbl).take(); });
  auto d = DblColumn(kRows, 12, true);
  ExpectDeterministic([&] { return CastBat(*d, PhysType::kInt).take(); });
}

TEST(ParallelDeterminism, IfThenElse) {
  Rng rng(13);
  auto cond = BAT::Make(PhysType::kBit);
  cond->bits().resize(kRows);
  for (auto& v : cond->bits()) {
    uint64_t k = rng.Below(5);
    v = k == 0 ? kBitNil : static_cast<uint8_t>(k % 2);
  }
  auto t = IntColumn(kRows, 14, false);
  auto e = DblColumn(kRows, 15, false);
  ExpectDeterministic([&] {
    return IfThenElse(*cond, t.get(), nullptr, e.get(), nullptr).take();
  });
}

TEST(ParallelDeterminism, Project) {
  Rng rng(16);
  auto src = DblColumn(kRows, 17, true);
  auto pos = BAT::Make(PhysType::kOid);
  pos->oids().resize(kRows);
  for (auto& p : pos->oids()) {
    p = rng.Below(50) == 0 ? kOidNil : rng.Below(kRows);
  }
  ExpectDeterministic([&] { return Project(*src, *pos).take(); });
}

TEST(ParallelDeterminism, ProjectStr) {
  Rng rng(18);
  auto src = StrColumn(kMorselRows / 16, 19);
  auto pos = BAT::Make(PhysType::kOid);
  pos->oids().resize(kRows);
  for (auto& p : pos->oids()) {
    p = rng.Below(50) == 0 ? kOidNil : rng.Below(src->Count());
  }
  ExpectDeterministic([&] { return Project(*src, *pos).take(); });
}

template <typename Fn>
void ExpectJoinDeterministic(Fn fn) {
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  auto seq = fn();
  pool.SetThreadCount(8);
  auto par = fn();
  pool.SetThreadCount(1);
  EXPECT_TRUE(BatsBitIdentical(*seq.left, *par.left));
  EXPECT_TRUE(BatsBitIdentical(*seq.right, *par.right));
}

TEST(ParallelDeterminism, HashJoinInt) {
  // Skewed keys so some probe rows have multi-match chains, but a domain
  // wide enough to keep the output cardinality around a million pairs.
  Rng rng(20);
  auto mk = [&](size_t n) {
    auto b = BAT::Make(PhysType::kInt);
    b->ints().resize(n);
    for (auto& v : b->ints()) {
      v = rng.Below(43) == 0 ? kIntNil
                             : static_cast<int32_t>(rng.Below(20000));
    }
    return b;
  };
  auto l = mk(kRows / 2);
  auto r = mk(kRows);
  ExpectJoinDeterministic([&] { return HashJoin(*l, *r).take(); });
}

TEST(ParallelDeterminism, HashJoinDbl) {
  auto l = DblColumn(8192, 21, true);
  auto r = DblColumn(2 * kMorselRows + 999, 22, true);
  // Quantize so equal keys (including +/-0.0) actually collide.
  for (auto* b : {l.get(), r.get()}) {
    for (auto& v : b->dbls()) {
      if (!IsDblNil(v)) v = std::floor(v);
    }
  }
  l->dbls()[0] = 0.0;
  r->dbls()[0] = -0.0;  // must match 0.0 on the other side
  ExpectJoinDeterministic([&] { return HashJoin(*l, *r).take(); });
}

TEST(ParallelDeterminism, HashJoinStrAcrossHeaps) {
  auto l = StrColumn(8192, 23, 2000);
  auto r = StrColumn(kRows, 24, 2000);  // different heap
  ExpectJoinDeterministic([&] { return HashJoin(*l, *r).take(); });
}

TEST(ParallelDeterminism, HashJoinMulti) {
  auto lx = IntColumn(kRows / 2, 25, true);
  auto ly = IntColumn(kRows / 2, 26, true);
  auto rx = IntColumn(kRows, 27, true);
  auto ry = IntColumn(kRows, 28, true);
  // Narrow the domain so multi-key matches actually occur.
  for (auto* b : {lx.get(), ly.get(), rx.get(), ry.get()}) {
    for (auto& v : b->ints()) {
      if (v != kIntNil) v = ((v % 200) + 200) % 200;
    }
  }
  ExpectJoinDeterministic([&] {
    return HashJoinMulti({lx.get(), ly.get()}, {rx.get(), ry.get()}).take();
  });
}

TEST(ParallelDeterminism, GroupAndRefinement) {
  auto a = IntColumn(kRows, 29, true);
  auto b = IntColumn(kRows, 30, true);
  for (auto* c : {a.get(), b.get()}) {
    for (auto& v : c->ints()) {
      if (v != kIntNil) v = v % 64;
    }
  }
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  auto g1s = Group(*a, nullptr, 0).take();
  auto g2s = Group(*b, g1s.groups.get(), g1s.ngroups).take();
  pool.SetThreadCount(8);
  auto g1p = Group(*a, nullptr, 0).take();
  auto g2p = Group(*b, g1p.groups.get(), g1p.ngroups).take();
  pool.SetThreadCount(1);
  EXPECT_EQ(g1s.ngroups, g1p.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*g1s.groups, *g1p.groups));
  EXPECT_TRUE(BatsBitIdentical(*g1s.extents, *g1p.extents));
  EXPECT_EQ(g2s.ngroups, g2p.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*g2s.groups, *g2p.groups));
  EXPECT_TRUE(BatsBitIdentical(*g2s.extents, *g2p.extents));
}

TEST(ParallelDeterminism, GroupedAggregates) {
  auto vals = DblColumn(kRows, 31, true);
  Rng rng(32);
  size_t ngroups = 97;
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids().resize(kRows);
  for (auto& g : groups->oids()) g = rng.Below(ngroups);
  for (AggOp op : {AggOp::kCountStar, AggOp::kCount, AggOp::kSum, AggOp::kAvg,
                   AggOp::kMin, AggOp::kMax}) {
    ExpectDeterministic([&] {
      return GroupedAggregate(op, vals.get(), *groups, ngroups).take();
    });
  }
}

TEST(ParallelDeterminism, GroupedAggregateIntSum) {
  auto vals = IntColumn(kRows, 33, true);
  auto groups = BAT::Make(PhysType::kOid);
  groups->oids().assign(kRows, 0);
  ExpectDeterministic([&] {
    return GroupedAggregate(AggOp::kSum, vals.get(), *groups, 1).take();
  });
}

// --------------------------------------------------------------------------
// Parallel sort / order-index / partitioned group
// --------------------------------------------------------------------------

TEST(ParallelDeterminism, OrderIndexIntDuplicateHeavy) {
  // Narrow domain: long runs of ties exercise the stable tie-break through
  // the merge tree. Invalidate the cache each run so the 8-thread pass
  // really re-sorts instead of reusing the 1-thread build.
  auto b = IntColumn(kRows, 40, true);
  for (auto& v : b->ints()) {
    if (v != kIntNil) v = v % 7;
  }
  ExpectDeterministic([&] {
    b->InvalidateOrderIndex();
    return OrderIndex({b.get()}, {false}).take();
  });
}

TEST(ParallelDeterminism, OrderIndexIntDesc) {
  auto b = IntColumn(kRows, 41, true);
  ExpectDeterministic([&] { return OrderIndex({b.get()}, {true}).take(); });
}

TEST(ParallelDeterminism, OrderIndexDblWithNulls) {
  auto b = DblColumn(kRows, 42, true);
  b->dbls()[17] = 0.0;
  b->dbls()[kRows - 3] = -0.0;  // must tie with 0.0, stability decides
  ExpectDeterministic([&] {
    b->InvalidateOrderIndex();
    return OrderIndex({b.get()}, {false}).take();
  });
  ExpectDeterministic([&] { return OrderIndex({b.get()}, {true}).take(); });
}

TEST(ParallelDeterminism, OrderIndexStr) {
  auto b = StrColumn(kRows, 43);  // domain 200: duplicate-heavy, has nils
  ExpectDeterministic([&] {
    b->InvalidateOrderIndex();
    return OrderIndex({b.get()}, {false}).take();
  });
}

TEST(ParallelDeterminism, OrderIndexMultiKey) {
  auto k1 = IntColumn(kRows, 44, true);
  for (auto& v : k1->ints()) {
    if (v != kIntNil) v = v % 16;
  }
  auto k2 = DblColumn(kRows, 45, true);
  ExpectDeterministic([&] {
    return OrderIndex({k1.get(), k2.get()}, {false, true}).take();
  });
}

TEST(ParallelDeterminism, SortBatMaterialized) {
  auto b = IntColumn(kRows, 46, true);
  ExpectDeterministic([&] {
    b->InvalidateOrderIndex();
    return SortBat(*b, /*desc=*/false).take();
  });
  auto s = StrColumn(kRows, 47);
  ExpectDeterministic([&] {
    s->InvalidateOrderIndex();
    return SortBat(*s, /*desc=*/false).take();
  });
}

TEST(ParallelDeterminism, OrderIndexThreadSweep128) {
  // The acceptance contract verbatim: bit-identical at 1, 2 and 8 threads.
  auto b = IntColumn(kRows, 50, true);
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  b->InvalidateOrderIndex();
  auto t1 = OrderIndex({b.get()}, {false}).take();
  pool.SetThreadCount(2);
  b->InvalidateOrderIndex();
  auto t2 = OrderIndex({b.get()}, {false}).take();
  pool.SetThreadCount(8);
  b->InvalidateOrderIndex();
  auto t8 = OrderIndex({b.get()}, {false}).take();
  pool.SetThreadCount(1);
  EXPECT_TRUE(BatsBitIdentical(*t1, *t2));
  EXPECT_TRUE(BatsBitIdentical(*t1, *t8));
}

TEST(ParallelDeterminism, FirstNEqualsSortThenSliceAtAnyThreadCount) {
  // The ISSUE acceptance contract verbatim: FirstN must be bit-identical to
  // the full sort followed by a slice, at 1, 2 and 8 threads, on a
  // multi-morsel input with duplicates and NULLs.
  auto b = IntColumn(kRows, 60, true);
  for (auto& v : b->ints()) {
    if (v != kIntNil) v = v % 97;  // duplicate-heavy: ties cross morsels
  }
  auto& pool = ThreadPool::Get();
  for (size_t k : {size_t{1}, size_t{100}, size_t{4096}}) {
    b->InvalidateOrderIndex();
    pool.SetThreadCount(1);
    auto full = OrderIndex({b.get()}, {false}).take();
    auto expect = full->Slice(0, k);
    for (int threads : {1, 2, 8}) {
      pool.SetThreadCount(threads);
      b->InvalidateOrderIndex();  // force the bounded-heap path
      auto topk = FirstN({b.get()}, {false}, k).take();
      EXPECT_TRUE(BatsBitIdentical(*expect, *topk))
          << "k=" << k << " threads=" << threads;
    }
  }
  // Descending keys: with the order index cached, a window of its run
  // reversal.
  pool.SetThreadCount(1);
  auto full_desc = OrderIndex({b.get()}, {true}).take();
  auto expect_desc = full_desc->Slice(0, 100);
  for (int threads : {1, 2, 8}) {
    pool.SetThreadCount(threads);
    auto topk = FirstN({b.get()}, {true}, 100).take();
    EXPECT_TRUE(BatsBitIdentical(*expect_desc, *topk)) << threads;
  }

  // DOUBLE keys through the heap path, which encodes each key on read: NaN
  // (the DOUBLE NULL) must sort first ascending and last descending, and
  // -0.0 must tie 0.0 (the row id decides), exactly as in the full sort's
  // encoded keys. `sparse` puts NaN on every 5000th row and alternating
  // -0.0/0.0 on every 1000th; `dense_nan` is NaN on all but every 20th
  // row, so a descending k reaches past the values into the NaN tail.
  auto sparse = DblColumn(kRows, 61, false);
  auto dense_nan = DblColumn(kRows, 62, false);
  for (size_t i = 0; i < kRows; ++i) {
    double& v = sparse->dbls()[i];
    v = std::fabs(v);
    if (i % 1000 == 0) v = (i / 1000) % 2 == 0 ? -0.0 : 0.0;
    if (i % 5000 == 7) v = DblNil();
    double& w = dense_nan->dbls()[i];
    if (i % 20 != 0) w = DblNil();
    if (i % 400 == 0) w = (i / 400) % 2 == 0 ? 0.0 : -0.0;
  }
  struct DblCase {
    BAT* col;
    bool desc;
    size_t k;
  };
  std::vector<DblCase> dbl_cases = {
      {sparse.get(), false, 1},      {sparse.get(), false, 100},
      {sparse.get(), false, 4096},   {sparse.get(), true, 100},
      {dense_nan.get(), true, 12000}, {dense_nan.get(), false, 100},
  };
  for (const DblCase& c : dbl_cases) {
    pool.SetThreadCount(1);
    c.col->InvalidateOrderIndex();
    auto expect = OrderIndex({c.col}, {c.desc}).take()->Slice(0, c.k);
    for (int threads : {1, 4}) {
      pool.SetThreadCount(threads);
      c.col->InvalidateOrderIndex();  // force the bounded-heap path
      uint64_t heaps = Telemetry().firstn_heap.load();
      auto topk = FirstN({c.col}, {c.desc}, c.k).take();
      EXPECT_EQ(Telemetry().firstn_heap.load(), heaps + 1);
      EXPECT_TRUE(BatsBitIdentical(*expect, *topk))
          << "desc=" << c.desc << " k=" << c.k << " threads=" << threads;
    }
  }
  pool.SetThreadCount(1);
}

TEST(ParallelDeterminism, PartitionedHashGroupAndRefinement) {
  // DOUBLE keys and a wide-range lng key always group by hash, so at 8
  // threads these run the partitioned build and its morsel-order merge.
  auto a = DblColumn(kRows, 63, true);
  for (auto& v : a->dbls()) {
    if (!std::isnan(v)) v = std::floor(v / 7.0);
  }
  auto b = BAT::Make(PhysType::kLng);
  Rng rng(64);
  for (size_t i = 0; i < kRows; ++i) {
    int64_t v = static_cast<int64_t>(rng.Below(50)) << 40;
    b->lngs().push_back(rng.Below(41) == 0 ? kLngNil : v);
  }
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  auto g1s = Group(*a, nullptr, 0).take();
  auto g2s = Group(*b, g1s.groups.get(), g1s.ngroups).take();
  pool.SetThreadCount(8);
  auto g1p = Group(*a, nullptr, 0).take();
  auto g2p = Group(*b, g1p.groups.get(), g1p.ngroups).take();
  pool.SetThreadCount(1);
  EXPECT_EQ(g1s.ngroups, g1p.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*g1s.groups, *g1p.groups));
  EXPECT_TRUE(BatsBitIdentical(*g1s.extents, *g1p.extents));
  EXPECT_EQ(g2s.ngroups, g2p.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*g2s.groups, *g2p.groups));
  EXPECT_TRUE(BatsBitIdentical(*g2s.extents, *g2p.extents));
}

TEST(ParallelDeterminism, PartitionedGroupDuplicateHeavy) {
  // Three distinct values plus NULL: every morsel dictionary contains every
  // group, so the merge pass dedups heavily.
  auto b = IntColumn(kRows, 48, true);
  for (auto& v : b->ints()) {
    if (v != kIntNil) v = ((v % 3) + 3) % 3;
  }
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  auto seq = Group(*b, nullptr, 0).take();
  pool.SetThreadCount(8);
  auto par = Group(*b, nullptr, 0).take();
  pool.SetThreadCount(1);
  EXPECT_EQ(seq.ngroups, par.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*seq.groups, *par.groups));
  EXPECT_TRUE(BatsBitIdentical(*seq.extents, *par.extents));
}

TEST(ParallelDeterminism, PartitionedGroupManyGroups) {
  // More groups than rows per morsel: most keys are unique to few morsels.
  auto b = IntColumn(kRows, 49, true);
  for (auto& v : b->ints()) {
    if (v != kIntNil) v = ((v * 131) % 100000 + 100000) % 100000;
  }
  auto& pool = ThreadPool::Get();
  pool.SetThreadCount(1);
  auto seq = Group(*b, nullptr, 0).take();
  pool.SetThreadCount(8);
  auto par = Group(*b, nullptr, 0).take();
  pool.SetThreadCount(1);
  EXPECT_EQ(seq.ngroups, par.ngroups);
  EXPECT_TRUE(BatsBitIdentical(*seq.groups, *par.groups));
  EXPECT_TRUE(BatsBitIdentical(*seq.extents, *par.extents));
}

ArrayDesc Desc2D(size_t nx, size_t ny) {
  return ArrayDesc(
      {DimDesc{"x", DimRange(0, 1, static_cast<int64_t>(nx)), false},
       DimDesc{"y", DimRange(0, 1, static_cast<int64_t>(ny)), false}},
      {AttrDesc{"v", PhysType::kInt, ScalarValue::Int(0)}});
}

TEST(ParallelDeterminism, TileAggregates) {
  constexpr size_t kSide = 512;  // 262144 cells: several anchor morsels
  ArrayDesc desc = Desc2D(kSide, kSide);
  auto vals = DblColumn(kSide * kSide, 34, true);
  auto spec = TileSpec::FromRanges({{-1, 2}, {-1, 2}});
  ASSERT_TRUE(spec.ok());
  for (AggOp op : {AggOp::kCount, AggOp::kSum, AggOp::kAvg, AggOp::kMin,
                   AggOp::kMax}) {
    ExpectDeterministic([&] {
      return array::NaiveTileAggregate(desc, *vals, *spec, op).take();
    });
    ExpectDeterministic([&] {
      return array::SlidingTileAggregate(desc, *vals, *spec, op).take();
    });
  }
}

// Naive and sliding engines agree on a rectangular tile when run under the
// pool. Integer values keep every aggregate exact, so the comparison is
// bit-identical (avg is an exact ratio of exact sums in both engines).
TEST(ParallelDeterminism, NaiveVsSlidingUnderPool) {
  constexpr size_t kSide = 384;
  ArrayDesc desc = Desc2D(kSide, kSide);
  Rng rng(35);
  auto vals = BAT::Make(PhysType::kInt);
  vals->ints().resize(kSide * kSide);
  for (auto& v : vals->ints()) {
    v = rng.Below(29) == 0 ? kIntNil : static_cast<int32_t>(rng.Below(256));
  }
  auto spec = TileSpec::FromRanges({{0, 3}, {0, 3}});
  ASSERT_TRUE(spec.ok());
  ThreadPool::Get().SetThreadCount(8);
  for (AggOp op : {AggOp::kCount, AggOp::kSum, AggOp::kAvg, AggOp::kMin,
                   AggOp::kMax}) {
    auto naive = array::NaiveTileAggregate(desc, *vals, *spec, op);
    auto sliding = array::SlidingTileAggregate(desc, *vals, *spec, op);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(sliding.ok());
    EXPECT_TRUE(BatsBitIdentical(**naive, **sliding));
  }
  ThreadPool::Get().SetThreadCount(1);
}

}  // namespace
}  // namespace gdk
}  // namespace sciql
