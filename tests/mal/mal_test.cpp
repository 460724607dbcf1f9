#include <gtest/gtest.h>

#include <cmath>

#include "src/mal/interpreter.h"
#include "src/mal/optimizer.h"
#include "src/mal/program.h"

namespace sciql {
namespace mal {
namespace {

using gdk::ScalarValue;

TEST(MalProgramTest, TextualRenderingMatchesPaperStyle) {
  MalProgram prog;
  int x = prog.NewReg("x");
  prog.Emit("array", "series", {x},
            {prog.Const(ScalarValue::Int(0)), prog.Const(ScalarValue::Int(1)),
             prog.Const(ScalarValue::Int(4)), prog.Const(ScalarValue::Int(4)),
             prog.Const(ScalarValue::Int(1))});
  std::string text = prog.ToString();
  EXPECT_NE(text.find("x_0 := array.series(0, 1, 4, 4, 1);"),
            std::string::npos);
}

TEST(MalProgramTest, ConstantsShareRegistersOnlyWhenIdentical) {
  MalProgram prog;
  // Both render as 1 under %.6g; they must not collapse into one register.
  int a = prog.Const(ScalarValue::Dbl(1.0000001));
  int b = prog.Const(ScalarValue::Dbl(1.00000015));
  EXPECT_NE(a, b);
  EXPECT_EQ(prog.Const(ScalarValue::Dbl(1.0000001)), a);
  // 0.0 == -0.0 as doubles, and a NaN is not a NULL.
  EXPECT_NE(prog.Const(ScalarValue::Dbl(0.0)),
            prog.Const(ScalarValue::Dbl(-0.0)));
  EXPECT_NE(prog.Const(ScalarValue::Dbl(std::nan(""))),
            prog.Const(ScalarValue::Null(gdk::PhysType::kDbl)));
  EXPECT_EQ(prog.Const(ScalarValue::Null(gdk::PhysType::kDbl)),
            prog.Const(ScalarValue::Null(gdk::PhysType::kDbl)));
  // Type still separates equal payloads.
  EXPECT_NE(prog.Const(ScalarValue::Int(7)), prog.Const(ScalarValue::Lng(7)));
  EXPECT_EQ(prog.Const(ScalarValue::Str("x")),
            prog.Const(ScalarValue::Str("x")));
}

TEST(MalInterpreterTest, RunsSeriesAndFiller) {
  MalProgram prog;
  int x = prog.EmitR("array", "series",
                     {prog.Const(ScalarValue::Lng(0)),
                      prog.Const(ScalarValue::Lng(1)),
                      prog.Const(ScalarValue::Lng(4)),
                      prog.Const(ScalarValue::Lng(4)),
                      prog.Const(ScalarValue::Lng(1))},
                     "x");
  int v = prog.EmitR("array", "filler",
                     {prog.Const(ScalarValue::Lng(16)),
                      prog.Const(ScalarValue::Int(0))},
                     "v");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  ASSERT_TRUE(ctx.Reg(x).IsBat());
  EXPECT_EQ(ctx.Reg(x).bat->Count(), 16u);
  EXPECT_EQ(ctx.Reg(v).bat->Count(), 16u);
}

TEST(MalInterpreterTest, BatcalcChain) {
  MalProgram prog;
  int a = prog.EmitR("array", "series",
                     {prog.Const(ScalarValue::Lng(0)),
                      prog.Const(ScalarValue::Lng(1)),
                      prog.Const(ScalarValue::Lng(5)),
                      prog.Const(ScalarValue::Lng(1)),
                      prog.Const(ScalarValue::Lng(1))},
                     "a");
  int b = prog.EmitR("batcalc", "*", {a, prog.Const(ScalarValue::Int(3))},
                     "b");
  int c = prog.EmitR("batcalc", "+", {b, prog.Const(ScalarValue::Int(1))},
                     "c");
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(c).bat->ints(), (std::vector<int32_t>{1, 4, 7, 10, 13}));
}

TEST(MalInterpreterTest, UnknownOperationFails) {
  MalProgram prog;
  prog.EmitR("nosuch", "op", {}, "z");
  MalContext ctx(nullptr);
  Status st = MalEngine::Global().Run(prog, &ctx);
  EXPECT_FALSE(st.ok());
}

TEST(MalInterpreterTest, ErrorsCarryOperationName) {
  MalProgram prog;
  int a = prog.EmitR("array", "filler",
                     {prog.Const(ScalarValue::Lng(3)),
                      prog.Const(ScalarValue::Int(1))},
                     "a");
  prog.EmitR("batcalc", "/", {a, prog.Const(ScalarValue::Int(0))}, "d");
  MalContext ctx(nullptr);
  Status st = MalEngine::Global().Run(prog, &ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("batcalc./"), std::string::npos);
}

TEST(OptimizerTest, ConstantFolding) {
  MalProgram prog;
  int c = prog.EmitR("batcalc", "+",
                     {prog.Const(ScalarValue::Int(2)),
                      prog.Const(ScalarValue::Int(40))},
                     "c");
  prog.AddResult("c", c, false);
  OptimizerStats stats;
  ASSERT_TRUE(Optimize(&prog, &stats).ok());
  EXPECT_GE(stats.folded, 1u);
  EXPECT_TRUE(prog.instrs().empty());
  EXPECT_TRUE(prog.IsConst(c));
  EXPECT_EQ(prog.ConstValue(c).i, 42);
}

TEST(OptimizerTest, DeadCodeElimination) {
  MalProgram prog;
  int used = prog.EmitR("array", "filler",
                        {prog.Const(ScalarValue::Lng(3)),
                         prog.Const(ScalarValue::Int(1))},
                        "used");
  prog.EmitR("array", "filler",
             {prog.Const(ScalarValue::Lng(99)),
              prog.Const(ScalarValue::Int(2))},
             "unused");
  prog.AddResult("out", used, false);
  OptimizerStats stats;
  ASSERT_TRUE(Optimize(&prog, &stats).ok());
  EXPECT_EQ(stats.dead_removed, 1u);
  ASSERT_EQ(prog.instrs().size(), 1u);
}

TEST(OptimizerTest, CommonSubexpressionElimination) {
  MalProgram prog;
  int a = prog.EmitR("array", "series",
                     {prog.Const(ScalarValue::Lng(0)),
                      prog.Const(ScalarValue::Lng(1)),
                      prog.Const(ScalarValue::Lng(4)),
                      prog.Const(ScalarValue::Lng(1)),
                      prog.Const(ScalarValue::Lng(1))},
                     "a");
  int one = prog.Const(ScalarValue::Int(1));
  int b1 = prog.EmitR("batcalc", "+", {a, one}, "b1");
  int b2 = prog.EmitR("batcalc", "+", {a, one}, "b2");
  int c = prog.EmitR("batcalc", "*", {b1, b2}, "c");
  prog.AddResult("c", c, false);
  OptimizerStats stats;
  ASSERT_TRUE(Optimize(&prog, &stats).ok());
  EXPECT_EQ(stats.cse_removed, 1u);
  MalContext ctx(nullptr);
  ASSERT_TRUE(MalEngine::Global().Run(prog, &ctx).ok());
  EXPECT_EQ(ctx.Reg(c).bat->ints(), (std::vector<int32_t>{1, 4, 9, 16}));
}

TEST(OptimizerTest, FoldingKeepsFailingInstructions) {
  MalProgram prog;
  int d = prog.EmitR("batcalc", "/",
                     {prog.Const(ScalarValue::Int(1)),
                      prog.Const(ScalarValue::Int(0))},
                     "d");
  prog.AddResult("d", d, false);
  OptimizerStats stats;
  ASSERT_TRUE(Optimize(&prog, &stats).ok());
  // Division by zero is not folded away; it must fail at run time.
  ASSERT_EQ(prog.instrs().size(), 1u);
  MalContext ctx(nullptr);
  EXPECT_FALSE(MalEngine::Global().Run(prog, &ctx).ok());
}

}  // namespace
}  // namespace mal
}  // namespace sciql
