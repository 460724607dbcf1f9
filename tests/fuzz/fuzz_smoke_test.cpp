// Tier-1 smoke sweep of the differential fuzzer (src/fuzz/,
// docs/fuzzing.md): a fixed seed, ~200 generated queries, every query run
// down all eight oracle paths with zero tolerated diffs. The accumulated
// kernel telemetry is then asserted per path, so this test also *proves*
// the path matrix exercises what it claims to: the noindex path must never
// touch an index-aware kernel, the sortslice path must never run firstn,
// the warm path must actually take merge/probe joins, and the reopen path
// must adopt persisted order indexes from disk.
//
// The seed is fixed: a failure here is deterministic, and the printed
// repro(s) can be replayed with `fuzz_runner --replay`.

#include <gtest/gtest.h>

#include "src/fuzz/fuzz.h"

namespace sciql {
namespace fuzz {
namespace {

constexpr uint64_t kSmokeSeed = 20130622;  // fixed: SIGMOD'13 vintage

TEST(FuzzSmoke, TwoHundredQueriesZeroDiffs) {
  SweepOptions opts;
  opts.query_target = 200;
  opts.gen.queries_per_case = 5;
  opts.gen.max_rows = 60;  // keep tier-1 wall time bounded

  SweepReport rep = RunSweep(kSmokeSeed, opts, DefaultPaths());
  EXPECT_GE(rep.queries, opts.query_target);
  if (!rep.failing_seeds.empty()) {
    std::string seeds;
    for (uint64_t s : rep.failing_seeds) seeds += " " + std::to_string(s);
    ADD_FAILURE() << "cross-path diffs for case seed(s):" << seeds;
    for (const std::string& r : rep.repros) {
      ADD_FAILURE() << "shrunken repro:\n" << r;
    }
  }

  // Path-coverage proofs over the summed telemetry.
  const gdk::TelemetrySnapshot& noindex = rep.telemetry["noindex-1t"];
  EXPECT_EQ(noindex.joins_merge, 0u) << "kill switch leaked a merge join";
  EXPECT_EQ(noindex.joins_indexed_probe, 0u);
  EXPECT_EQ(noindex.firstn_index_window, 0u);
  EXPECT_EQ(noindex.minmax_index, 0u);
  EXPECT_GT(noindex.joins_hash, 0u) << "sweep generated no joins at all?";

  // Dimension-predicate slabs ride the index-path switch: the scan
  // pipeline is the reference every other path's slabs are diffed against.
  EXPECT_EQ(noindex.dim_slab_selects, 0u) << "kill switch leaked a slab";
  for (const PathConfig& p : DefaultPaths()) {
    if (p.use_index_paths) {
      EXPECT_GT(rep.telemetry[p.name].dim_slab_selects, 0u)
          << p.name << " never answered a dimension window by position";
    }
  }

  const gdk::TelemetrySnapshot& sortslice = rep.telemetry["sortslice-1t"];
  EXPECT_EQ(sortslice.firstn_heap, 0u)
      << "fuse_firstn=false still compiled a firstn";
  EXPECT_EQ(sortslice.firstn_index_window, 0u);
  EXPECT_EQ(sortslice.firstn_sort_fallback, 0u);

  const gdk::TelemetrySnapshot& base = rep.telemetry["mem-1t"];
  EXPECT_GT(base.firstn_heap + base.firstn_sort_fallback +
                base.firstn_index_window,
            0u)
      << "sweep generated no LIMIT queries?";

  const gdk::TelemetrySnapshot& warm = rep.telemetry["warm-1t"];
  EXPECT_GT(warm.joins_merge + warm.joins_indexed_probe, 0u)
      << "warmed indexes never steered a join off the hash path";
  EXPECT_GT(warm.order_index_built, 0u);

  const gdk::TelemetrySnapshot& reopen = rep.telemetry["reopen-1t"];
  EXPECT_GT(reopen.order_index_loaded, 0u)
      << "reopen path never adopted a persisted order index";
}

// The generator is a pure function of (seed, options): byte-identical SQL
// on every platform, which is what makes `fuzz_runner --seed N` repro lines
// from CI meaningful locally.
TEST(FuzzSmoke, GeneratorIsDeterministic) {
  GeneratorOptions opts;
  FuzzCase a = GenerateCase(12345, opts);
  FuzzCase b = GenerateCase(12345, opts);
  ASSERT_EQ(a.stmts.size(), b.stmts.size());
  for (size_t i = 0; i < a.stmts.size(); ++i) {
    EXPECT_EQ(a.stmts[i].sql, b.stmts[i].sql) << "statement " << i;
  }
  ASSERT_EQ(a.warm, b.warm);
  FuzzCase c = GenerateCase(54321, opts);
  bool any_differs = a.stmts.size() != c.stmts.size();
  for (size_t i = 0; !any_differs && i < a.stmts.size(); ++i) {
    any_differs = a.stmts[i].sql != c.stmts[i].sql;
  }
  EXPECT_TRUE(any_differs) << "different seeds produced identical cases";
}

// ShrinkCase on a hand-made failing case (an expected-rows mismatch) must
// cut it down to the failing query plus the setup it depends on.
TEST(FuzzSmoke, ShrinkReducesToMinimalStatements) {
  FuzzCase fc;
  fc.name = "shrink_probe";
  auto setup = [&](const char* sql) {
    FuzzStatement st;
    st.kind = FuzzStatement::Kind::kSetup;
    st.sql = sql;
    fc.stmts.push_back(st);
  };
  setup("CREATE TABLE keep (k INT)");
  setup("CREATE TABLE noise (z INT)");
  setup("INSERT INTO keep VALUES (1), (2)");
  setup("INSERT INTO noise VALUES (9)");
  FuzzStatement good;
  good.kind = FuzzStatement::Kind::kQuery;
  good.sql = "SELECT z AS c0 FROM noise";
  fc.stmts.push_back(good);
  FuzzStatement bad;
  bad.kind = FuzzStatement::Kind::kQuery;
  bad.sql = "SELECT k AS c0 FROM keep";
  bad.has_expected = true;
  bad.sort_expected = true;
  bad.expected = {"1", "2", "3"};  // wrong on purpose: 3 never exists
  fc.stmts.push_back(bad);

  std::vector<PathConfig> paths = {{"mem-1t", 1, true, true, false, false}};
  ASSERT_FALSE(RunCase(fc, paths).diffs.empty());
  FuzzCase small = ShrinkCase(fc, paths);
  ASSERT_FALSE(RunCase(small, paths).diffs.empty());
  // Minimal: CREATE keep + the failing query. Even the INSERT goes — an
  // empty table still mismatches the expected rows — and the noise table
  // and passing query certainly do.
  EXPECT_EQ(small.stmts.size(), 2u);
  for (const FuzzStatement& st : small.stmts) {
    EXPECT_EQ(st.sql.find("noise"), std::string::npos) << st.sql;
  }
}

}  // namespace
}  // namespace fuzz
}  // namespace sciql
