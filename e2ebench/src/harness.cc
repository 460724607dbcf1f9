#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/engine/database.h"
#include "src/obs/metrics.h"

namespace e2e {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

bool Recorder::TracedSlice() const {
  auto slice = std::chrono::duration_cast<std::chrono::milliseconds>(
                   Clock::now() - start_)
                   .count() /
               250;
  return slice % 2 == 1;
}

void Recorder::Note(Op op, Clock::time_point t0, double us, bool traced,
                    uint64_t cells) {
  size_t i = static_cast<size_t>(op);
  if (traced) {
    traced_us_[i] += us;
    traced_n_[i] += 1;
    return;
  }
  untraced_us_[i] += us;
  untraced_n_[i] += 1;
  lat_us_[i].push_back(us);
  lat_at_s_[i].push_back(std::chrono::duration<double>(t0 - start_).count());
  if (op == Op::kPipeline || op == Op::kScan) {
    unit_cells_ += static_cast<double>(cells);
    unit_us_ += us;
    if (!grouped_) EndUnit();
  }
}

void Recorder::EndUnit() {
  if (unit_us_ > 0) unit_rates_.push_back(unit_cells_ / unit_us_ * 1e6);
  unit_cells_ = 0;
  unit_us_ = 0;
}

void Recorder::Expect(bool ok, const std::string& what) {
  if (ok) return;
  failed_++;
  if (failed_ <= 5) std::fprintf(stderr, "e2ebench: FAILED %s\n", what.c_str());
}

void Recorder::Merge(const Recorder& o) {
  attempted_ += o.attempted_;
  failed_ += o.failed_;
  for (size_t i = 0; i < kNumOps; ++i) {
    lat_us_[i].insert(lat_us_[i].end(), o.lat_us_[i].begin(),
                      o.lat_us_[i].end());
    lat_at_s_[i].insert(lat_at_s_[i].end(), o.lat_at_s_[i].begin(),
                        o.lat_at_s_[i].end());
    traced_us_[i] += o.traced_us_[i];
    untraced_us_[i] += o.untraced_us_[i];
    traced_n_[i] += o.traced_n_[i];
    untraced_n_[i] += o.untraced_n_[i];
  }
  unit_rates_.insert(unit_rates_.end(), o.unit_rates_.begin(),
                     o.unit_rates_.end());
}

double Recorder::WindowedQuantile(Op op, double q) const {
  constexpr double kWindowS = 5;
  constexpr size_t kMinSamples = 10;
  size_t i = static_cast<size_t>(op);
  std::map<int64_t, std::vector<double>> windows;
  for (size_t k = 0; k < lat_us_[i].size(); ++k) {
    windows[static_cast<int64_t>(lat_at_s_[i][k] / kWindowS)].push_back(
        lat_us_[i][k]);
  }
  std::vector<double> per_window;
  for (auto& [w, v] : windows) {
    if (v.size() >= kMinSamples) per_window.push_back(Quantile(std::move(v), q));
  }
  return per_window.empty() ? Quantile(lat_us_[i], q) : Median(per_window);
}

double Recorder::OverheadRatio() const {
  // Per class: traced time against what the same number of operations took
  // untraced, so a different op mix in the two halves cannot bias it.
  double traced = 0, expected = 0;
  for (size_t i = 0; i < kNumOps; ++i) {
    if (traced_n_[i] == 0 || untraced_n_[i] == 0) continue;
    traced += traced_us_[i];
    expected += untraced_us_[i] / untraced_n_[i] * traced_n_[i];
  }
  return expected > 0 ? traced / expected : 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

namespace {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Unlabelled samples of the Prometheus text the engine exports.
std::map<std::string, double> ScrapeCounters() {
  std::map<std::string, double> out;
  std::istringstream in(sciql::obs::RenderPrometheus());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    if (name.find('{') != std::string::npos) continue;
    out[name] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

}  // namespace

void Window::Begin(const CountingEnv& env,
                   const sciql::engine::DatabaseCore& core) {
  layers::Reset();
  prom0_ = ScrapeCounters();
  io0_ = env.Snapshot();
  version0_ = core.CatalogVersionId();
  cpu0_ = ProcessCpuSeconds();
  t0_ = Clock::now();
}

void Window::End(const CountingEnv& env,
                 const sciql::engine::DatabaseCore& core) {
  wall_s = SecondsSince(t0_);
  cpu_s = ProcessCpuSeconds() - cpu0_;
  io = env.Snapshot().Minus(io0_);
  catalog_versions = core.CatalogVersionId() - version0_;
  for (const auto& [name, v] : ScrapeCounters()) {
    auto it = prom0_.find(name);
    prom_delta[name] = v - (it == prom0_.end() ? 0 : it->second);
  }
}

// ---------------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------------

namespace {

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }
double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

const std::vector<std::string>& GdkFields() {
  static const std::vector<std::string> f = {
      "joins_hash",          "joins_indexed_probe",
      "joins_merge",         "joins_merge_str",
      "joins_merge_multi",   "firstn_index_window",
      "firstn_heap",         "firstn_sort_fallback",
      "minmax_index",        "order_index_built",
      "order_index_built_multi", "order_index_loaded",
      "order_index_loaded_multi", "order_index_reused",
      "order_index_reused_multi", "order_index_reversed",
      "order_index_reversed_multi"};
  return f;
}

/// The MAL operators reported by name: the union of the operators with the
/// most self time on each workload, fixed so every run prints the same set.
const std::vector<std::string>& ReportedOps() {
  static const std::vector<std::string> ops = {
      "aggr.avg",         "aggr.count",        "aggr.count_star",
      "aggr.max",         "aggr.sum",          "aggr.sum_all",
      "algebra.firstn",   "algebra.orderidx",  "algebra.project",
      "algebra.select",   "array.cellpos",     "array.tileagg",
      "bat.count",        "bat.pack",          "batcalc.abs",
      "batcalc.add",      "batcalc.and",       "batcalc.div",
      "batcalc.eq",       "batcalc.ge",        "batcalc.gt",
      "batcalc.ifthenelse", "batcalc.le",      "batcalc.lt",
      "batcalc.mod",      "batcalc.sub",       "group.group",
      "group.subgroup",   "sql.bind"};
  return ops;
}

}  // namespace

std::string OpMetricName(const std::string& op) {
  static const std::pair<const char*, const char*> kSymbols[] = {
      {"==", "eq"}, {"!=", "ne"}, {"<>", "ne"}, {"<=", "le"}, {">=", "ge"},
      {"<", "lt"},  {">", "gt"},  {"+", "add"}, {"-", "sub"}, {"*", "mul"},
      {"/", "div"}, {"%", "mod"}};
  size_t dot = op.find('.');
  std::string module = op.substr(0, dot);
  std::string fn = dot == std::string::npos ? "" : op.substr(dot + 1);
  for (const auto& [sym, word] : kSymbols) {
    if (fn == sym) {
      fn = word;
      break;
    }
  }
  std::string out = module + "." + fn;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_' &&
        c != '-') {
      c = '_';
    }
  }
  return out;
}

std::string UnitOf(const std::string& m) {
  auto ends = [&](const char* s) {
    std::string suf(s);
    return m.size() >= suf.size() &&
           m.compare(m.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (m == "peak_rss_mb") return "MB";
  if (ends("_us") || ends(".us") || ends("_us_per_stmt") ||
      ends("_us_per_commit")) {
    return "us";
  }
  if (ends("_ms")) return "ms";
  if (ends("_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("bytes_per_stmt") || ends("bytes_read")) return "bytes";
  if (ends("_ratio") || ends("per_user_byte") || ends("cpu_per_wall")) {
    return "ratio";
  }
  return "count";
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, double>> Tails(const Recorder& rec) {
  return {{"scan_query_p90_ms", rec.WindowedQuantile(Op::kScan, 0.9) / 1e3},
          {"cell_read_p90_us", rec.WindowedQuantile(Op::kCellRead, 0.9)},
          {"cell_update_p90_us", rec.WindowedQuantile(Op::kCellUpdate, 0.9)},
          {"row_insert_p90_us", rec.WindowedQuantile(Op::kRowInsert, 0.9)}};
}

void AddEndToEnd(const Recorder& rec, const EndToEnd& e, Report* rep) {
  auto lat = [&](Op op) { return rec.latencies(op); };
  auto q = [&](Op op, double at) { return rec.WindowedQuantile(op, at); };
  rep->Add("setup_s", Median(e.setup_s));
  rep->Add("cells_per_s", Median(rec.unit_rates()));
  rep->Add("scan_query_p50_ms", q(Op::kScan, 0.5) / 1e3);
  rep->Add("cell_read_p50_us", q(Op::kCellRead, 0.5));
  rep->Add("cell_update_p50_us", q(Op::kCellUpdate, 0.5));
  rep->Add("row_insert_p50_us", q(Op::kRowInsert, 0.5));
  rep->Add("ingest_rows_per_s", Median(e.ingest_rates));
  rep->Add("disk_bytes_per_user_byte",
           Ratio(e.disk_bytes, e.user_bytes_stored));
  rep->Add("peak_rss_mb", PeakRssMb());
  // Reported by name here and per layer, not gated (see Tails).
  for (const auto& [name, v] : Tails(rec)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g %s", v, UnitOf(name).c_str());
    rep->Note(name, buf);
  }
  static const std::pair<Op, const char*> kSampleCounts[] = {
      {Op::kPipeline, "samples.pipeline"}, {Op::kScan, "samples.scan_query"},
      {Op::kCellRead, "samples.cell_read"},
      {Op::kCellUpdate, "samples.cell_update"},
      {Op::kRowInsert, "samples.row_insert"}, {Op::kBatch, "samples.batch"}};
  for (const auto& [op, key] : kSampleCounts) {
    const std::vector<double>& v = lat(op);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%zu; us p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f p99 %.1f",
                  v.size(), Quantile(v, 0.1), Quantile(v, 0.25), Quantile(v, 0.5),
                  Quantile(v, 0.75), Quantile(v, 0.9), Quantile(v, 0.99));
    rep->Note(key, buf);
  }
  std::string setups;
  for (double s : e.setup_s) setups += (setups.empty() ? "" : " ") + std::to_string(s);
  rep->Note("setup_s.each", setups);
  std::string rates;
  for (double r : e.ingest_rates) rates += (rates.empty() ? "" : " ") + std::to_string(r);
  rep->Note("ingest_rows_per_s.each", rates);
}

void AddLayers(const Recorder& rec, const layers::Totals& lt, const Window& w,
               const StorageFigures& sf, const AppFigures& app, Report* rep) {
  double stmts = static_cast<double>(lt.stmts);
  auto per_stmt = [&](double v) { return Ratio(v, stmts); };
  double inner = lt.parse_us + lt.compile_us + lt.optimize_us + lt.execute_us;
  rep->AddLayer("engine.stmts_traced", stmts);
  rep->AddLayer("sql.parse_us_per_stmt", per_stmt(lt.parse_us));
  rep->AddLayer("sql.bytes_per_stmt",
                Ratio(static_cast<double>(lt.parse_bytes),
                      static_cast<double>(lt.parse_calls)));
  rep->AddLayer("engine.compile_us_per_stmt", per_stmt(lt.compile_us));
  rep->AddLayer("engine.execute_us_per_stmt", per_stmt(lt.execute_us));
  rep->AddLayer("engine.session_other_us_per_stmt",
                per_stmt(std::max(0.0, lt.session_us - inner)));
  rep->AddLayer("mal.optimize_us_per_stmt", per_stmt(lt.optimize_us));
  rep->AddLayer("mal.run_us_per_stmt", per_stmt(lt.run_us));
  rep->AddLayer("mal.instrs_per_stmt", per_stmt(static_cast<double>(lt.instrs)));

  std::map<std::string, layers::OpTotals> ops;
  for (const auto& [name, t] : lt.ops) {
    layers::OpTotals& o = ops[OpMetricName(name)];
    o.us += t.us;
    o.calls += t.calls;
    o.out_rows += t.out_rows;
  }
  for (const std::string& op : ReportedOps()) {
    auto it = ops.find(op);
    layers::OpTotals t = it == ops.end() ? layers::OpTotals{} : it->second;
    rep->AddLayer("mal.op." + op + ".us", per_stmt(t.us));
    rep->AddLayer("mal.op." + op + ".calls",
                  per_stmt(static_cast<double>(t.calls)));
  }
  // The full operator profile goes to the run record, largest first.
  std::vector<std::pair<double, std::string>> by_time;
  for (const auto& [name, t] : ops) by_time.emplace_back(t.us, name);
  std::sort(by_time.rbegin(), by_time.rend());
  for (size_t i = 0; i < by_time.size() && i < 12; ++i) {
    const layers::OpTotals& t = ops[by_time[i].second];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.1f us/stmt, %.3f calls/stmt",
                  per_stmt(t.us), per_stmt(static_cast<double>(t.calls)));
    rep->Note("op." + by_time[i].second, buf);
  }

  auto prom = [&](const std::string& name) {
    auto it = w.prom_delta.find(name);
    return it == w.prom_delta.end() ? 0.0 : it->second;
  };
  for (const std::string& f : GdkFields()) {
    rep->AddLayer("gdk." + f, prom("sciql_gdk_" + f));
  }
  double built = prom("sciql_gdk_order_index_built") +
                 prom("sciql_gdk_order_index_built_multi");
  double reused = prom("sciql_gdk_order_index_reused") +
                  prom("sciql_gdk_order_index_reused_multi");
  rep->AddLayer("gdk.order_index_lookups", built + reused);
  rep->AddLayer("gdk.order_index_hit_ratio", Ratio(reused, built + reused));

  auto tile = ops.find("array.tileagg");
  rep->AddLayer("array.tile_cells_per_s",
                tile == ops.end()
                    ? 0
                    : Ratio(static_cast<double>(tile->second.out_rows),
                            tile->second.us / 1e6));
  rep->AddLayer("catalog.versions_published",
                static_cast<double>(w.catalog_versions));

  // One WAL record per acknowledged mutating statement.
  double commits = static_cast<double>(sf.io.wal_appends);
  rep->AddLayer("storage.commits", commits);
  rep->AddLayer("storage.bytes_written_per_user_byte",
                Ratio(static_cast<double>(sf.io.bytes_appended),
                      sf.user_bytes_written));
  rep->AddLayer("storage.syncs_per_commit",
                Ratio(static_cast<double>(sf.io.syncs), commits));
  rep->AddLayer("storage.sync_us_per_commit", Ratio(sf.io.sync_us, commits));
  rep->AddLayer("storage.wal_append_us_per_commit",
                Ratio(sf.io.wal_append_us, commits));
  rep->AddLayer("storage.files_created",
                static_cast<double>(sf.io.files_created));
  rep->AddLayer("storage.renames", static_cast<double>(sf.io.renames));
  rep->AddLayer("storage.checkpoint_ms", Mean(sf.checkpoint_ms));
  rep->AddLayer("storage.checkpoint_columns_written",
                Mean(sf.checkpoint_columns));
  rep->AddLayer("storage.open_ms", sf.open_ms);
  rep->AddLayer("storage.reopen_s", sf.reopen_s);
  rep->Note("storage.reopen_s", std::to_string(sf.reopen_s));
  rep->AddLayer("storage.objects_loaded",
                static_cast<double>(sf.objects_loaded));
  rep->AddLayer("storage.bytes_read",
                static_cast<double>(sf.reopen_bytes_read));

  rep->AddLayer("vault.load_image_ms", Mean(app.vault_load_ms));
  rep->AddLayer("img.smooth_ms", Mean(app.smooth_ms));
  rep->AddLayer("img.edge_detect_ms", Mean(app.edge_ms));
  rep->AddLayer("img.filter_water_ms", Mean(app.filter_ms));
  rep->AddLayer("img.histogram_ms", Mean(app.histogram_ms));
  rep->AddLayer("life.step_sciql_ms", Mean(app.life_ms));
  rep->AddLayer("process.cpu_per_wall", Ratio(w.cpu_s, w.wall_s));
  rep->AddLayer("trace.overhead_ratio", rec.OverheadRatio());
  for (const auto& [name, v] : Tails(rec)) rep->AddLayer(name, v);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintReport(const Options& o, const Report& rep) {
  const char* threads_env = std::getenv("SCIQL_THREADS");
  std::printf("# sciql e2ebench run record\n");
  std::printf("# workload: %s\n# seed: %llu\n# seconds: %g\n# trace: %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# host: nproc=%u cpu=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str());
  std::printf("# build: %s, compiler %s\n", E2E_BUILD_TYPE, E2E_COMPILER);
  std::printf("# SCIQL_THREADS=%s, ignored (kernel pool fixed at half of "
              "nproc: %d threads)\n",
              threads_env != nullptr ? threads_env : "unset",
              sciql::engine::Database::ExecutionThreads());
  std::printf("# malloc: glibc mmap threshold fixed at 128 KiB\n");
  for (const auto& [k, v] : rep.record) {
    std::printf("# %s: %s\n", k.c_str(), v.c_str());
  }
  const auto& metrics = o.trace ? rep.layer : rep.e2e;
  for (const auto& [name, v] : metrics) {
    std::printf("%-44s %16.6g %s\n", name.c_str(), v, UnitOf(name).c_str());
  }
  double error_rate =
      rep.attempted > 0 ? static_cast<double>(rep.failed) /
                              static_cast<double>(rep.attempted)
                        : 1;
  std::printf("%-44s %16.6g %s  (%llu of %llu operations)\n", "error_rate",
              error_rate, "ratio", static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));

  std::string json = "{\"correct\": ";
  json += rep.failed == 0 && rep.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
            UnitOf(name) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double DirBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<double>(e.file_size(ec));
  }
  return total;
}

std::string FreshDir(const Options& o, const std::string& name) {
  fs::path p = fs::path(o.work_dir) / (name + "-" + std::to_string(getpid()));
  RemoveDir(p.string());
  fs::create_directories(p);
  return p.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace e2e
