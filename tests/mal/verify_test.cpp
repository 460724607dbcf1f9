// Tests for the MAL plan verifier (src/mal/verify.h): hand-corrupted
// programs must each produce their named diagnostic, planner-emitted
// programs for a battery of real SQL must all verify, and a fixed-seed
// 200-case generated sweep must never trip the verifier.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/planner.h"
#include "src/fuzz/fuzz.h"
#include "src/mal/program.h"
#include "src/mal/verify.h"

namespace sciql {
namespace mal {
namespace {

using gdk::ScalarValue;

// Scoped verifier enable: these tests must behave identically in Debug
// (where the flag defaults on) and optimized builds.
class VerifyScope {
 public:
  VerifyScope() : saved_(GetVerifyControls()) {
    GetVerifyControls().enabled = true;
  }
  ~VerifyScope() { GetVerifyControls() = saved_; }

 private:
  VerifyControls saved_;
};

// The check names of every diagnostic a program produces, in order.
std::vector<std::string> Checks(const MalProgram& prog) {
  std::vector<std::string> out;
  for (const VerifyDiag& d : VerifyProgramDiags(prog)) out.push_back(d.check);
  return out;
}

// A small valid program: x := array.series(...); y := batcalc.*(x, 2);
// s := aggr.sum_all(y), with s as the result column.
MalProgram ValidProgram() {
  MalProgram prog;
  auto lng = [&prog](int64_t v) { return prog.Const(ScalarValue::Lng(v)); };
  int x = prog.EmitR("array", "series",
                     {lng(0), lng(1), lng(8), lng(8), lng(1)}, "x");
  int y = prog.EmitR("batcalc", "*", {x, prog.Const(ScalarValue::Int(2))},
                     "y");
  int s = prog.EmitR("aggr", "sum_all", {y}, "s");
  prog.AddResult("s", s, false);
  return prog;
}

TEST(MalVerifyTest, ValidProgramHasNoDiagnostics) {
  MalProgram prog = ValidProgram();
  EXPECT_TRUE(Checks(prog).empty());
  EXPECT_TRUE(VerifyProgram(prog).ok());
}

TEST(MalVerifyTest, UseBeforeDef) {
  MalProgram prog;
  int ghost = prog.NewReg("ghost");  // never assigned
  prog.EmitR("batcalc", "+", {ghost, prog.Const(ScalarValue::Int(1))}, "y");
  std::vector<std::string> checks = Checks(prog);
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(checks[0], "use-before-def");
  Status st = VerifyProgram(prog);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("use-before-def"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("ghost"), std::string::npos) << st.ToString();
}

TEST(MalVerifyTest, DoubleAssign) {
  MalProgram prog;
  int x = prog.EmitR("bat", "dense", {prog.Const(ScalarValue::Lng(4))}, "x");
  // Re-assign x: single assignment is violated.
  prog.Emit("bat", "dense", {x}, {prog.Const(ScalarValue::Lng(5))});
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"double-assign"});
}

TEST(MalVerifyTest, ConstAssign) {
  MalProgram prog;
  int c = prog.Const(ScalarValue::Lng(4));
  prog.Emit("bat", "dense", {c}, {prog.Const(ScalarValue::Lng(5))});
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"const-assign"});
}

TEST(MalVerifyTest, ArityMismatch) {
  MalProgram prog;
  // array.series takes exactly 5 numeric scalars; give it 3.
  prog.EmitR("array", "series",
             {prog.Const(ScalarValue::Lng(0)), prog.Const(ScalarValue::Lng(1)),
              prog.Const(ScalarValue::Lng(4))},
             "x");
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"arity-mismatch"});
}

TEST(MalVerifyTest, VariadicArityMismatch) {
  MalProgram prog;
  int x = prog.EmitR("bat", "dense", {prog.Const(ScalarValue::Lng(4))}, "x");
  // algebra.firstn takes k, then (bat, direction) pairs; a dangling odd
  // argument breaks the group shape.
  prog.EmitR("algebra", "firstn",
             {prog.Const(ScalarValue::Lng(2)), x,
              prog.Const(ScalarValue::Int(0)), x},
             "top");
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"arity-mismatch"});
}

TEST(MalVerifyTest, TypeMismatch) {
  MalProgram prog;
  // bat.count needs a BAT argument; a numeric constant is not one.
  prog.EmitR("bat", "count", {prog.Const(ScalarValue::Lng(7))}, "n");
  std::vector<std::string> checks = Checks(prog);
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(checks[0], "type-mismatch");
}

TEST(MalVerifyTest, UnknownOp) {
  MalProgram prog;
  prog.EmitR("nosuch", "op", {prog.Const(ScalarValue::Int(1))}, "x");
  std::vector<std::string> checks = Checks(prog);
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(checks[0], "unknown-op");
}

TEST(MalVerifyTest, BadRegister) {
  MalProgram prog;
  // A register index pointing past the register file (a corrupted plan).
  prog.EmitR("bat", "count", {9999}, "n");
  std::vector<std::string> checks = Checks(prog);
  ASSERT_FALSE(checks.empty());
  EXPECT_EQ(checks[0], "bad-register");
}

TEST(MalVerifyTest, ResultUndefined) {
  MalProgram prog = ValidProgram();
  int dangling = prog.NewReg("dangling");
  prog.AddResult("c1", dangling, false);
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"result-undefined"});
}

TEST(MalVerifyTest, RejectionBumpsCounterAndNamesInstruction) {
  MalProgram prog;
  int ghost = prog.NewReg("g");
  prog.EmitR("batcalc", "+", {ghost, prog.Const(ScalarValue::Int(1))}, "y");
  uint64_t rejected_before = VerifyStats().programs_rejected.load();
  Status st = VerifyProgram(prog);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(VerifyStats().programs_rejected.load(), rejected_before + 1);
  // The diagnostic names the offending instruction index and renders it.
  EXPECT_NE(st.message().find("at #0"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("batcalc.+"), std::string::npos)
      << st.ToString();
}

// Planner integration: a battery of real SQL across every plan shape the
// compiler emits (scans, selections, joins, grouping, ordering, limits,
// arrays, tiling, DML) must produce verifier-clean programs, in both
// firstn-fusion modes. With the verifier forced on, any rejection would
// fail the statement itself; the counters prove verification actually ran.
TEST(MalVerifyTest, PlannerProgramsVerifyClean) {
  VerifyScope verify_on;
  uint64_t verified_before = VerifyStats().programs_verified.load();
  uint64_t rejected_before = VerifyStats().programs_rejected.load();

  for (bool fuse : {true, false}) {
    engine::GetPlannerControls().fuse_firstn = fuse;
    engine::Database db;
    auto run = [&db](const std::string& sql) {
      Status st = db.Run(sql);
      ASSERT_TRUE(st.ok()) << sql << " -> " << st.ToString();
    };
    run("CREATE TABLE t (a INT, b DOUBLE, s VARCHAR)");
    run("INSERT INTO t VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), "
        "(3, 3.5, 'three'), (4, 4.5, 'four')");
    run("CREATE TABLE u (a INT, c INT)");
    run("INSERT INTO u VALUES (2, 20), (3, 30), (5, 50)");
    run("SELECT a, b FROM t WHERE a > 1 AND b < 4.0");
    run("SELECT t.a, t.s, u.c FROM t, u WHERE t.a = u.a");
    run("SELECT a, SUM(b) AS sb, COUNT(*) AS n FROM t GROUP BY a "
        "HAVING COUNT(*) > 0");
    run("SELECT MAX(b) AS mx FROM t");
    run("SELECT a, b FROM t ORDER BY b DESC, a LIMIT 2");
    run("SELECT s FROM t WHERE s <> 'two' ORDER BY s");
    run("UPDATE t SET b = b + 1.0 WHERE a = 2");
    run("DELETE FROM t WHERE a = 4");
    run("CREATE ARRAY g (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], "
        "v INT DEFAULT 0)");
    run("UPDATE g SET v = x + y");
    run("SELECT x, y, v FROM g WHERE v > 2");
    run("SELECT [x], [y], AVG(v) FROM g GROUP BY g[x:x+2][y:y+2]");
  }
  engine::GetPlannerControls().Reset();

  EXPECT_GT(VerifyStats().programs_verified.load(), verified_before);
  EXPECT_EQ(VerifyStats().programs_rejected.load(), rejected_before);
}

// Fixed-seed generated sweep: 200 fuzz cases through a verify-enabled
// in-memory database. The generator emits only well-formed SQL, so every
// compiled program must verify — the rejected counter staying flat is the
// assertion (execution outcomes are the differential oracle's business,
// not this test's).
// Dimension-predicate slabs: array.slab(name, (dim, cmp, bound)*) plans from
// reads and DML verify clean; a slab missing its bound is an arity error.
TEST(MalVerifyTest, SlabPlansVerify) {
  VerifyScope verify_on;
  uint64_t rejected_before = VerifyStats().programs_rejected.load();
  engine::Database db;
  ASSERT_TRUE(db.Run("CREATE ARRAY g (x INT DIMENSION[0:1:4], "
                     "y INT DIMENSION[6:-2:0], v INT DEFAULT 0)")
                  .ok());
  for (const char* sql :
       {"SELECT x, y, v FROM g WHERE x >= 1 AND x <= 2 AND 4 > y",
        "SELECT v FROM g WHERE x = NULL AND y BETWEEN 1 AND 4.5",
        "SELECT v FROM g WHERE x = 1 AND v > 0", "UPDATE g SET v = x WHERE x = 1",
        "DELETE FROM g WHERE y = 2 AND v = 1"}) {
    auto plan = db.ExplainText(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    EXPECT_NE(plan->find("array.slab"), std::string::npos) << *plan;
    EXPECT_TRUE(db.Execute(sql).ok()) << sql;
  }
  EXPECT_EQ(VerifyStats().programs_rejected.load(), rejected_before);

  MalProgram prog;
  auto str = [&prog](const char* v) { return prog.Const(ScalarValue::Str(v)); };
  int slab = prog.EmitR("array", "slab", {str("g"), str("x"), str("==")}, "s");
  prog.AddResult("s", slab, false);
  EXPECT_EQ(Checks(prog), std::vector<std::string>{"arity-mismatch"});
}

TEST(MalVerifyTest, TwoHundredGeneratedCasesVerifyClean) {
  VerifyScope verify_on;
  uint64_t rejected_before = VerifyStats().programs_rejected.load();
  uint64_t verified_before = VerifyStats().programs_verified.load();

  fuzz::GeneratorOptions gen;
  gen.queries_per_case = 3;
  gen.max_rows = 30;  // keep tier-1 wall time bounded
  constexpr uint64_t kSeed = 20130622;  // same vintage as the fuzz smoke test
  for (uint64_t i = 0; i < 200; ++i) {
    fuzz::FuzzCase fc = fuzz::GenerateCase(kSeed + i, gen);
    engine::Database db;
    for (const fuzz::FuzzStatement& st : fc.stmts) {
      // Setup statements must succeed; generated queries may legitimately
      // fail (division by zero, overflow guards) — but never because the
      // verifier rejected the plan, which the counter check below proves.
      (void)db.Run(st.sql);
    }
  }

  EXPECT_EQ(VerifyStats().programs_rejected.load(), rejected_before);
  EXPECT_GT(VerifyStats().programs_verified.load(), verified_before + 200);
}

}  // namespace
}  // namespace mal
}  // namespace sciql
