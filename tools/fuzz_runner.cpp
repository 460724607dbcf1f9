// Command-line driver for the differential fuzzer (src/fuzz/,
// docs/fuzzing.md).
//
//   fuzz_runner --seed 42 --count 200          # sweep: generate + diff
//   fuzz_runner --seed 42 --shrink-out DIR     # also write repro files
//   fuzz_runner --replay tests/fuzz/corpus/x.sql [more.sql ...]
//
// Exit status: 0 when every query agreed across every path, 1 on any diff,
// 2 on usage / I/O errors. The seed is always echoed so a CI log line is
// enough to reproduce a failure locally.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/fuzz/fuzz.h"

namespace {

using sciql::fuzz::CaseResult;
using sciql::fuzz::DefaultPaths;
using sciql::fuzz::FuzzCase;
using sciql::fuzz::LoadCorpus;
using sciql::fuzz::RunCase;
using sciql::fuzz::RunSweep;
using sciql::fuzz::SweepOptions;
using sciql::fuzz::SweepReport;

void PrintTelemetry(const SweepReport& rep) {
  std::printf("path coverage (summed kernel telemetry):\n");
  for (const auto& kv : rep.telemetry) {
    const auto& t = kv.second;
    std::printf(
        "  %-14s joins hash=%llu probe=%llu merge=%llu | firstn "
        "window=%llu heap=%llu sort=%llu | minmax_idx=%llu | ordidx "
        "built=%llu loaded=%llu reused=%llu | slabs=%llu\n",
        kv.first.c_str(), (unsigned long long)t.joins_hash,
        (unsigned long long)t.joins_indexed_probe,
        (unsigned long long)t.joins_merge,
        (unsigned long long)t.firstn_index_window,
        (unsigned long long)t.firstn_heap,
        (unsigned long long)t.firstn_sort_fallback,
        (unsigned long long)t.minmax_index,
        (unsigned long long)t.order_index_built,
        (unsigned long long)t.order_index_loaded,
        (unsigned long long)t.order_index_reused,
        (unsigned long long)t.dim_slab_selects);
  }
}

int Replay(const std::vector<std::string>& files) {
  int failures = 0;
  for (const std::string& f : files) {
    FuzzCase fc;
    std::string err;
    if (!LoadCorpus(f, &fc, &err)) {
      std::fprintf(stderr, "fuzz_runner: %s\n", err.c_str());
      return 2;
    }
    CaseResult r = RunCase(fc, DefaultPaths());
    if (r.diffs.empty()) {
      std::printf("OK   %s (%zu queries, all paths agree)\n", f.c_str(),
                  r.queries_run);
    } else {
      ++failures;
      std::printf("FAIL %s\n", f.c_str());
      for (const auto& d : r.diffs) {
        std::printf("  stmt %zu [%s]: %s\n", d.stmt_index, d.path.c_str(),
                    d.detail.c_str());
      }
    }
  }
  return failures == 0 ? 0 : 1;
}

// Run one case by its *case seed* (the per-case seed a failing sweep
// prints), unshrunk, and dump every diff — the raw view for triage.
int RunOneCase(uint64_t case_seed, const SweepOptions& opts, bool dump_only) {
  FuzzCase fc = sciql::fuzz::GenerateCase(case_seed, opts.gen);
  if (dump_only) {
    for (const auto& st : fc.stmts) std::printf("%s;\n", st.sql.c_str());
    return 0;
  }
  CaseResult r = RunCase(fc, DefaultPaths());
  if (r.diffs.empty()) {
    std::printf("OK   case %llu (%zu queries, all paths agree)\n",
                (unsigned long long)case_seed, r.queries_run);
    return 0;
  }
  std::printf("FAIL case %llu\n", (unsigned long long)case_seed);
  for (const auto& d : r.diffs) {
    std::printf("  stmt %zu [%s] (%s): %s\n", d.stmt_index, d.path.c_str(),
                d.kind.c_str(), d.detail.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  bool have_case_seed = false;
  bool dump_only = false;
  uint64_t case_seed = 0;
  SweepOptions opts;
  std::string shrink_out;
  std::vector<std::string> replay_files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_runner: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      seed = std::strtoull(need("--seed"), nullptr, 10);
    } else if (a == "--count") {
      opts.query_target = std::strtoull(need("--count"), nullptr, 10);
    } else if (a == "--queries-per-case") {
      opts.gen.queries_per_case =
          std::strtoull(need("--queries-per-case"), nullptr, 10);
    } else if (a == "--max-rows") {
      opts.gen.max_rows = std::strtoull(need("--max-rows"), nullptr, 10);
    } else if (a == "--no-arrays") {
      opts.gen.arrays = false;
    } else if (a == "--case-seed") {
      have_case_seed = true;
      case_seed = std::strtoull(need("--case-seed"), nullptr, 10);
    } else if (a == "--dump") {
      dump_only = true;
    } else if (a == "--shrink-out") {
      shrink_out = need("--shrink-out");
    } else if (a == "--replay") {
      for (++i; i < argc; ++i) replay_files.push_back(argv[i]);
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: fuzz_runner [--seed N] [--count QUERIES] "
          "[--queries-per-case N] [--max-rows N] [--no-arrays] "
          "[--shrink-out DIR] | --case-seed N [--dump] | --replay FILE...\n");
      return 0;
    } else {
      std::fprintf(stderr, "fuzz_runner: unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }

  if (!replay_files.empty()) return Replay(replay_files);
  if (have_case_seed) return RunOneCase(case_seed, opts, dump_only);

  std::printf("fuzz_runner: seed=%llu target=%zu queries\n",
              (unsigned long long)seed, opts.query_target);
  SweepReport rep = RunSweep(seed, opts, DefaultPaths());
  std::printf("swept %zu cases, %zu queries\n", rep.cases, rep.queries);
  PrintTelemetry(rep);
  if (rep.failing_seeds.empty()) {
    std::printf("all paths agree: no diffs\n");
    return 0;
  }
  std::printf("%zu failing case seed(s):", rep.failing_seeds.size());
  for (uint64_t s : rep.failing_seeds) {
    std::printf(" %llu", (unsigned long long)s);
  }
  std::printf("\n");
  for (size_t i = 0; i < rep.repros.size(); ++i) {
    std::printf("---- shrunken repro %zu ----\n%s\n", i, rep.repros[i].c_str());
    if (!shrink_out.empty()) {
      std::filesystem::create_directories(shrink_out);
      std::string path =
          shrink_out + "/repro_" + std::to_string(rep.failing_seeds[i]) + ".sql";
      std::ofstream out(path);
      out << rep.repros[i];
      std::printf("(written to %s)\n", path.c_str());
    }
  }
  return 1;
}
