// MAL operation coverage beyond the basics: bat.* helpers, algebra.orderidx
// / slice / njoin, catalog-backed sql.* ops, the array module through the
// interpreter, the arity check dispatch makes for every op-table row, and
// the count check of every count-taking kernel.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/array/tiling.h"
#include "src/mal/interpreter.h"
#include "src/mal/program.h"
#include "src/mal/verify.h"

namespace sciql {
namespace mal {
namespace {

using gdk::ScalarValue;

int SeriesReg(MalProgram* p, int64_t start, int64_t step, int64_t stop) {
  return p->EmitR("array", "series",
                  {p->Const(ScalarValue::Lng(start)),
                   p->Const(ScalarValue::Lng(step)),
                   p->Const(ScalarValue::Lng(stop)),
                   p->Const(ScalarValue::Lng(1)),
                   p->Const(ScalarValue::Lng(1))},
                  "s");
}

TEST(MalModulesTest, BatHelpers) {
  MalProgram prog;
  int s = SeriesReg(&prog, 0, 1, 5);
  int n = prog.EmitR("bat", "count", {s}, "n");
  int d = prog.EmitR("bat", "dense", {n}, "d");
  int packed = prog.EmitR("bat", "pack",
                          {prog.Const(ScalarValue::Int(3)),
                           prog.Const(ScalarValue::Null(gdk::PhysType::kInt)),
                           prog.Const(ScalarValue::Int(5))},
                          "p");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(n).scalar.AsInt64(), 5);
  EXPECT_EQ(ctx.Reg(d).bat->Count(), 5u);
  EXPECT_EQ(ctx.Reg(d).bat->oids()[4], 4u);
  EXPECT_EQ(ctx.Reg(packed).bat->Count(), 3u);
  EXPECT_TRUE(ctx.Reg(packed).bat->IsNullAt(1));
}

TEST(MalModulesTest, OrderIdxAndSlice) {
  MalProgram prog;
  int s = SeriesReg(&prog, 10, -2, 0);  // 10 8 6 4 2
  int idx = prog.EmitR("algebra", "orderidx",
                       {s, prog.Const(ScalarValue::Lng(0))}, "idx");
  int sorted = prog.EmitR("algebra", "project", {s, idx}, "sorted");
  int sliced = prog.EmitR("algebra", "slice",
                          {sorted, prog.Const(ScalarValue::Lng(1)),
                           prog.Const(ScalarValue::Lng(3))},
                          "sl");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(sorted).bat->ints(),
            (std::vector<int32_t>{2, 4, 6, 8, 10}));
  EXPECT_EQ(ctx.Reg(sliced).bat->ints(), (std::vector<int32_t>{4, 6}));
}

TEST(MalModulesTest, SliceRejectsNegativeBoundsAndClampsHigh) {
  // Negative bounds would wrap to huge size_t offsets; the handler errors.
  for (auto [lo, hi] : {std::pair<int64_t, int64_t>{-1, 3},
                        std::pair<int64_t, int64_t>{0, -2}}) {
    MalProgram prog;
    int s = SeriesReg(&prog, 0, 1, 5);
    prog.EmitR("algebra", "slice",
               {s, prog.Const(ScalarValue::Lng(lo)),
                prog.Const(ScalarValue::Lng(hi))},
               "sl");
    MalContext ctx(nullptr);
    Status st = MalEngine::Global().Run(prog, &ctx);
    EXPECT_FALSE(st.ok()) << "lo=" << lo << " hi=" << hi;
  }
  // hi beyond the row count clamps (BAT::Slice), lo > count yields empty.
  MalProgram prog;
  int s = SeriesReg(&prog, 0, 1, 5);
  int clamped = prog.EmitR("algebra", "slice",
                           {s, prog.Const(ScalarValue::Lng(3)),
                            prog.Const(ScalarValue::Lng(100))},
                           "sl");
  int empty = prog.EmitR("algebra", "slice",
                         {s, prog.Const(ScalarValue::Lng(50)),
                          prog.Const(ScalarValue::Lng(60))},
                         "sl2");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(clamped).bat->ints(), (std::vector<int32_t>{3, 4}));
  EXPECT_EQ(ctx.Reg(empty).bat->Count(), 0u);
}

TEST(MalModulesTest, FirstNThroughInterpreter) {
  MalProgram prog;
  int s = SeriesReg(&prog, 10, -2, 0);  // 10 8 6 4 2
  int idx = prog.EmitR("algebra", "firstn",
                       {prog.Const(ScalarValue::Lng(2)), s,
                        prog.Const(ScalarValue::Lng(0))},
                       "idx");
  int top = prog.EmitR("algebra", "project", {s, idx}, "top");
  int desc = prog.EmitR("algebra", "firstn",
                        {prog.Const(ScalarValue::Lng(2)), s,
                         prog.Const(ScalarValue::Lng(1))},
                        "idxd");
  int topd = prog.EmitR("algebra", "project", {s, desc}, "topd");
  int zero = prog.EmitR("algebra", "firstn",
                        {prog.Const(ScalarValue::Lng(0)), s,
                         prog.Const(ScalarValue::Lng(0))},
                        "z");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(top).bat->ints(), (std::vector<int32_t>{2, 4}));
  EXPECT_EQ(ctx.Reg(topd).bat->ints(), (std::vector<int32_t>{10, 8}));
  EXPECT_EQ(ctx.Reg(zero).bat->Count(), 0u);

  // A negative k is an execution error, not a wrap-around.
  MalProgram bad;
  int s2 = SeriesReg(&bad, 0, 1, 5);
  bad.EmitR("algebra", "firstn",
            {bad.Const(ScalarValue::Lng(-3)), s2,
             bad.Const(ScalarValue::Lng(0))},
            "neg");
  MalContext ctx2(nullptr);
  EXPECT_FALSE(MalEngine::Global().Run(bad, &ctx2).ok());
}

TEST(MalModulesTest, NJoinThroughInterpreter) {
  MalProgram prog;
  int l = SeriesReg(&prog, 0, 1, 4);   // 0 1 2 3
  int r = SeriesReg(&prog, 2, 1, 6);   // 2 3 4 5
  int lo = prog.NewReg("lo");
  int ro = prog.NewReg("ro");
  prog.Emit("algebra", "njoin", {lo, ro},
            {prog.Const(ScalarValue::Lng(1)), l, r});
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(lo).bat->Count(), 2u);  // 2 and 3 match

  // The key count must match the key columns. 2^63 + 1 as a key count
  // wraps 1 + 2k to 3, the real argument count, and must still be refused.
  for (int64_t nkeys : {int64_t{2}, int64_t{0}, int64_t{-1},
                        INT64_MIN + 1}) {
    MalProgram bad;
    int bl = SeriesReg(&bad, 0, 1, 4);
    int br = SeriesReg(&bad, 2, 1, 6);
    bad.Emit("algebra", "njoin", {bad.NewReg("lo"), bad.NewReg("ro")},
             {bad.Const(ScalarValue::Lng(nkeys)), bl, br});
    MalContext bad_ctx(nullptr);
    Status st = MalEngine::Global().Run(bad, &bad_ctx);
    EXPECT_FALSE(st.ok()) << "nkeys=" << nkeys;
  }
}

TEST(MalModulesTest, SqlBindAgainstCatalog) {
  catalog::Catalog cat;
  ASSERT_TRUE(cat.CreateArray(
                     "a", array::ArrayDesc(
                              {array::DimDesc{"x", array::DimRange(0, 1, 3),
                                              false}},
                              {array::AttrDesc{"v", gdk::PhysType::kInt,
                                               ScalarValue::Int(7)}}))
                  .ok());
  MalProgram prog;
  int x = prog.EmitR("sql", "bind",
                     {prog.Const(ScalarValue::Str("a")),
                      prog.Const(ScalarValue::Str("x"))},
                     "x");
  int v = prog.EmitR("sql", "bind",
                     {prog.Const(ScalarValue::Str("a")),
                      prog.Const(ScalarValue::Str("v"))},
                     "v");
  int n = prog.EmitR("sql", "count",
                     {prog.Const(ScalarValue::Str("a"))}, "n");
  catalog::CatalogVersionPtr snap = cat.Pin();
  MalContext ctx(snap.get());
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(x).bat->ints(), (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(ctx.Reg(v).bat->ints(), (std::vector<int32_t>{7, 7, 7}));
  EXPECT_EQ(ctx.Reg(n).scalar.AsInt64(), 3);

  // Binding a missing column fails with context.
  MalProgram bad;
  bad.EmitR("sql", "bind",
            {bad.Const(ScalarValue::Str("a")),
             bad.Const(ScalarValue::Str("nope"))},
            "z");
  MalContext ctx2(snap.get());
  EXPECT_FALSE(MalEngine::Global().Run(bad, &ctx2).ok());
}

TEST(MalModulesTest, TileAggThroughInterpreter) {
  array::ArrayDesc desc(
      {array::DimDesc{"x", array::DimRange(0, 1, 4), false}},
      {array::AttrDesc{"v", gdk::PhysType::kInt, ScalarValue::Int(0)}});
  auto spec = array::TileSpec::FromRanges({{0, 2}});
  ASSERT_TRUE(spec.ok());

  MalProgram prog;
  int vals = SeriesReg(&prog, 1, 1, 5);  // 1 2 3 4
  int desc_reg = prog.Obj(std::make_shared<array::ArrayDesc>(desc),
                          "arraydesc", "@a");
  int spec_reg = prog.Obj(std::make_shared<array::TileSpec>(*spec),
                          "tilespec", "a[x+0:x+2]");
  int agg = prog.EmitR("array", "tileagg",
                       {desc_reg, spec_reg,
                        prog.Const(ScalarValue::Str("sum")), vals},
                       "agg");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(agg).bat->lngs(), (std::vector<int64_t>{3, 5, 7, 4}));
}

TEST(MalModulesTest, ObjRegistersSurviveOptimization) {
  // Objects are opaque to the optimizer; the tileagg instruction keeps its
  // descriptor even after CSE/DCE rounds.
  array::ArrayDesc desc(
      {array::DimDesc{"x", array::DimRange(0, 1, 2), false}},
      {array::AttrDesc{"v", gdk::PhysType::kInt, ScalarValue::Int(0)}});
  auto spec = array::TileSpec::FromRanges({{0, 1}});
  ASSERT_TRUE(spec.ok());
  MalProgram prog;
  int vals = SeriesReg(&prog, 0, 1, 2);
  int agg = prog.EmitR(
      "array", "tileagg",
      {prog.Obj(std::make_shared<array::ArrayDesc>(desc), "arraydesc", "@a"),
       prog.Obj(std::make_shared<array::TileSpec>(*spec), "tilespec", "t"),
       prog.Const(ScalarValue::Str("count")), vals},
      "agg");
  prog.AddResult("agg", agg, false);
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(agg).bat->lngs(), (std::vector<int64_t>{1, 1}));
}

// Dispatch checks each instruction's shape against its op-table row before
// the kernel runs, so no kernel repeats an arity check. With the verifier
// off, every executable row must refuse one argument too few or too many
// (and one return too many) through Run, with a status naming the op —
// never by reaching a kernel that indexes past its arguments or, for the
// sql.* ops, dereferences the null catalog below.
TEST(MalModulesTest, DispatchRejectsWrongArityForEveryOp) {
  VerifyControls saved = GetVerifyControls();
  GetVerifyControls().enabled = false;
  auto run_fails_naming = [](const OpDef& op, size_t nargs, size_t nrets) {
    const std::string name = op.module + "." + op.fn;
    MalProgram prog;
    std::vector<int> args(nargs, prog.Const(ScalarValue::Lng(1)));
    std::vector<int> rets;
    for (size_t r = 0; r < nrets; ++r) rets.push_back(prog.NewReg("r"));
    prog.Emit(op.module, op.fn, rets, args);
    MalContext ctx(nullptr);
    Status st = MalEngine::Global().Run(prog, &ctx);
    EXPECT_FALSE(st.ok()) << name << " with " << nargs << " args, " << nrets
                          << " rets";
    EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
  };

  for (const OpDef& op : OpTable()) {
    if (op.kernel == nullptr) continue;
    int cases = 0;
    for (const OpSig& sig : op.sigs) {
      // The shortest arity the signature accepts, one below and one above.
      size_t n = sig.fixed.size() + sig.group.size();
      for (size_t nargs : {n - 1, n + 1}) {
        if (nargs > n + 1 || op.ShapeOk(nargs, sig.RetCount())) continue;
        run_fails_naming(op, nargs, sig.RetCount());
        ++cases;
      }
      run_fails_naming(op, n, sig.RetCount() + 1);
    }
    EXPECT_GT(cases, 0) << op.module << "." << op.fn
                        << " has no wrong argument count";
  }

  // The display-only sql.ddl row has no kernel: Run refuses it.
  const OpDef* ddl = FindOp("sql.ddl");
  ASSERT_NE(ddl, nullptr);
  EXPECT_EQ(ddl->kernel, nullptr);
  MalProgram prog;
  prog.Emit("sql", "ddl", {}, {prog.Const(ScalarValue::Str("DROP TABLE t"))});
  MalContext ctx(nullptr);
  Status st = MalEngine::Global().Run(prog, &ctx);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sql.ddl"), std::string::npos) << st.ToString();

  GetVerifyControls() = saved;
}

// Every count-taking kernel refuses a negative count with a status naming
// the op. Cast to size_t, -1 would ask for 2^64 - 1 entries and throw
// std::length_error out of Run (or wrap to a huge loop bound).
TEST(MalModulesTest, NegativeCountsFailWithStatus) {
  VerifyControls saved = GetVerifyControls();
  GetVerifyControls().enabled = false;
  struct Case {
    std::string op;
    std::function<void(MalProgram*)> emit;
  };
  auto lng = [](MalProgram* p, int64_t v) {
    return p->Const(ScalarValue::Lng(v));
  };
  auto bats = [](MalProgram* p) { return SeriesReg(p, 0, 1, 3); };
  std::vector<Case> cases = {
      {"bat.dense",
       [&](MalProgram* p) { p->EmitR("bat", "dense", {lng(p, -1)}, "r"); }},
      {"algebra.crossjoin",
       [&](MalProgram* p) {
         p->Emit("algebra", "crossjoin", {p->NewReg("l"), p->NewReg("r")},
                 {lng(p, -1), lng(p, 2)});
       }},
      {"algebra.crossjoin",
       [&](MalProgram* p) {
         p->Emit("algebra", "crossjoin", {p->NewReg("l"), p->NewReg("r")},
                 {lng(p, 2), lng(p, -1)});
       }},
      {"batcalc.const",
       [&](MalProgram* p) {
         p->EmitR("batcalc", "const", {lng(p, 7), lng(p, -1)}, "r");
       }},
      {"group.subgroup",
       [&](MalProgram* p) {
         int b = bats(p);
         p->Emit("group", "subgroup",
                 {p->NewReg("g"), p->NewReg("e"), p->NewReg("n")},
                 {b, b, lng(p, -1)});
       }},
      {"aggr.count_star",
       [&](MalProgram* p) {
         p->EmitR("aggr", "count_star", {bats(p), lng(p, -1)}, "r");
       }},
      {"array.series",
       [&](MalProgram* p) {
         p->EmitR("array", "series",
                  {lng(p, 0), lng(p, 1), lng(p, 3), lng(p, -1), lng(p, 1)},
                  "r");
       }},
      {"array.series",
       [&](MalProgram* p) {
         p->EmitR("array", "series",
                  {lng(p, 0), lng(p, 1), lng(p, 3), lng(p, 1), lng(p, -1)},
                  "r");
       }},
      {"array.filler",
       [&](MalProgram* p) {
         p->EmitR("array", "filler", {lng(p, -1), lng(p, 0)}, "r");
       }},
  };
  for (const char* fn : {"sum", "avg", "min", "max", "count"}) {
    cases.push_back({std::string("aggr.") + fn, [&, fn](MalProgram* p) {
                       int b = bats(p);
                       p->EmitR("aggr", fn, {b, b, lng(p, -1)}, "r");
                     }});
  }
  for (const Case& c : cases) {
    MalProgram prog;
    c.emit(&prog);
    MalContext ctx(nullptr);
    Status st = MalEngine::Global().Run(prog, &ctx);
    ASSERT_FALSE(st.ok()) << c.op;
    EXPECT_NE(st.message().find(c.op), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find("negative count"), std::string::npos)
        << st.ToString();
  }
  GetVerifyControls() = saved;
}

// Hand-built plans that hand the group and aggregate kernels inconsistent
// inputs get a status naming the op: a non-oid previous grouping used to
// throw std::bad_variant_access out of Run, and a group id at or above the
// group count indexed past the aggregate's accumulators.
TEST(MalModulesTest, BadGroupIdsFailWithStatus) {
  VerifyControls saved = GetVerifyControls();
  GetVerifyControls().enabled = false;
  struct Case {
    std::string op;
    std::string says;
    std::function<void(MalProgram*)> emit;
  };
  auto lng = [](MalProgram* p, int64_t v) {
    return p->Const(ScalarValue::Lng(v));
  };
  auto vals = [](MalProgram* p) { return SeriesReg(p, 0, 1, 3); };
  // Group ids 0, 1, 2 against a group count of 2.
  auto gids = [&](MalProgram* p) {
    return p->EmitR("bat", "dense", {lng(p, 3)}, "g");
  };
  std::vector<Case> cases = {
      {"group.subgroup", "not oid",
       [&](MalProgram* p) {
         int b = vals(p);
         p->Emit("group", "subgroup",
                 {p->NewReg("g"), p->NewReg("e"), p->NewReg("n")},
                 {b, b, lng(p, 3)});
       }},
      {"aggr.count_star", "group id",
       [&](MalProgram* p) {
         p->EmitR("aggr", "count_star", {gids(p), lng(p, 2)}, "r");
       }},
  };
  for (const char* fn : {"sum", "avg", "min", "max", "count"}) {
    cases.push_back({std::string("aggr.") + fn, "group id",
                     [&, fn](MalProgram* p) {
                       p->EmitR("aggr", fn, {vals(p), gids(p), lng(p, 2)},
                                "r");
                     }});
  }
  for (const Case& c : cases) {
    MalProgram prog;
    c.emit(&prog);
    MalContext ctx(nullptr);
    Status st = MalEngine::Global().Run(prog, &ctx);
    ASSERT_FALSE(st.ok()) << c.op;
    EXPECT_NE(st.message().find(c.op), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find(c.says), std::string::npos) << st.ToString();
  }
  GetVerifyControls() = saved;
}

// A scalar CASE condition with a BAT arm yields a BAT row-aligned with the
// arm, whichever arm the condition picks.
TEST(MalModulesTest, ScalarConditionBroadcastsTheChosenArm) {
  for (bool pick_then : {true, false}) {
    MalProgram prog;
    int col = SeriesReg(&prog, 10, 1, 14);  // 10 11 12 13
    int out = prog.EmitR("batcalc", "ifthenelse",
                         {prog.Const(ScalarValue::Bit(pick_then)), col,
                          prog.Const(ScalarValue::Lng(7))},
                         "r");
    MalContext ctx(nullptr);
    ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
    ASSERT_TRUE(ctx.Reg(out).IsBat()) << pick_then;
    const gdk::BAT& b = *ctx.Reg(out).bat;
    ASSERT_EQ(b.Count(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(b.GetScalar(i).AsInt64(),
                pick_then ? static_cast<int64_t>(10 + i) : 7);
    }
  }
}

// Without the verifier, an instruction whose result register is a constant
// or an object fails at dispatch instead of writing over the program.
TEST(MalModulesTest, ResultsMustBeVariables) {
  VerifyControls saved = GetVerifyControls();
  GetVerifyControls().enabled = false;
  MalProgram prog;
  int seven = prog.Const(ScalarValue::Lng(7));
  prog.Emit("bat", "dense", {seven}, {prog.Const(ScalarValue::Lng(3))});
  MalContext ctx(nullptr);
  Status st = MalEngine::Global().Run(prog, &ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bat.dense"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(prog.ConstValue(seven).i, 7);
  GetVerifyControls() = saved;
}

}  // namespace
}  // namespace mal
}  // namespace sciql
