// hpcc_bench: the repository benchmark.
//
// Runs the scenario workloads under benchmark/workloads/ through the calls a
// user reaches through scenario_main (LoadScenarioFile, ExpandSweep,
// ScenarioRunner::RunAll, ScenarioRunner::WriteCsv), checks every point's
// outputs, and reports end-to-end metrics (untraced) or per-layer metrics
// (traced). Every workload is a closed-loop batch on one thread: jobs=1,
// shards=1, each grid point starts when the previous one ends, and a pass
// (the whole grid, scenario file to aggregate CSV) starts when the previous
// pass ends. Passes repeat until --seconds is used up.
//
//   hpcc_bench [--seed=N] [--seconds=S] [--trace]
//       every workload, each in its own child process (so peak memory is
//       per workload); exits non-zero if any output check failed
//   hpcc_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//       one workload in this process
//
// A workload run prints one "workload metric value unit n" line per metric,
// writes <out>/<workload>[.traced].result.json (traced runs also write
// <out>/<workload>.spans.json), and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See benchmark/README.md for the workloads, the metrics and the layer map.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/hash.h"
#include "obs/manifest.h"
#include "runner/experiment.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "tools/cli_util.h"
#include "workload/size_cdf.h"
#include "workload/trace_replay.h"

extern char** environ;

namespace {

using hpcc::runner::Experiment;
using hpcc::scenario::Json;
using hpcc::scenario::ScenarioRun;
using hpcc::scenario::ScenarioRunner;
using hpcc::scenario::ScenarioRunnerOptions;
using hpcc::scenario::SweepRunResult;

// What the benchmark asks of a workload beyond its scenario file. Why each
// workload is in the set is recorded in its file's "description".
struct WorkloadSpec {
  const char* name;
  bool check;     // every point under the standard invariant monitors
  bool manifest;  // every point writes its manifest, untraced passes too
  bool warm;      // point 0 builds the warm checkpoint, the rest restore it
  bool hybrid;    // every point ticks the fluid engine and forwards packets
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fig11_sweep", true, true, false, false},
    {"fattree32_flaps", false, false, false, false},
    {"fattree32_warm_sweep", false, false, true, false},
    {"fattree48_hybrid", false, false, false, true},
};

// A background flow trace the benchmark generates from --seed for a workload
// whose scenario replays it (workload.trace_file). Sizes are the size CDF's
// stratified quantiles, one per flow, so every seed offers the same bytes;
// the seed draws the order of the sizes, the arrival times and the
// endpoints. Poisson-drawn sizes would let a few heavy-tail flows swing a
// pass's simulated work, and so its wall time, by +-25% between seeds.
struct TraceSpec {
  const char* workload;
  const char* file;  // the name the scenario's workload.trace_file uses
  bool fbhadoop;     // size CDF: FB-Hadoop, else WebSearch
  double load;       // offered load on the hosts' 100 Gbps NICs
  uint32_t hosts;
  double window_us;    // arrivals fall in [0, window_us) ...
  uint64_t max_flows;  // ... or end earlier at this many flows (0 = no cap)
};

constexpr TraceSpec kTraces[] = {
    {"fig11_sweep", "fig11_load0.3.flows.csv", true, 0.3, 16, 2000, 0},
    {"fig11_sweep", "fig11_load0.5.flows.csv", true, 0.5, 16, 2000, 0},
    {"fig11_sweep", "fig11_load0.7.flows.csv", true, 0.7, 16, 2000, 0},
    {"fattree32_flaps", "fattree32_flaps.0.flows.csv", false, 0.25, 8192, 100,
     500},
    {"fattree32_flaps", "fattree32_flaps.1.flows.csv", false, 0.25, 8192, 100,
     500},
    {"fattree32_flaps", "fattree32_flaps.2.flows.csv", false, 0.25, 8192, 100,
     500},
    {"fattree32_warm_sweep", "fattree32_warm_sweep.flows.csv", true, 0.25,
     8192, 40, 500},
};
constexpr double kHostBytesPerUs = 100e9 / 8 / 1e6;

// Untraced runs measure at least this many passes, so every run has a
// median to report even when one pass outlasts --seconds.
constexpr size_t kMinPasses = 2;
// Fluid admissions timed by the analytic.admit_us probe.
constexpr int kAdmitProbeFlows = 200;

struct Options {
  std::string workload;  // empty: every workload, each in a child process
  std::optional<uint64_t> seed;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = HPCC_BENCH_OUT_DIR;
};

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

// Seconds since process start: span timestamps and interval arithmetic.
double Now() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  if (!hpcc::obs::WriteTextFile(path, text)) {
    throw std::runtime_error("cannot write " + path);
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// VmHWM of this process: the workload's own peak resident set.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// --seed replaces the workload's seed.
Json SeededScenario(Json doc, uint64_t seed) {
  doc.Set("seed", Json::MakeNumber(static_cast<double>(seed)));
  return doc;
}

// The size at cumulative probability `u`: the inverse transform
// SizeCdf::Sample applies to a random u.
uint64_t SizeQuantile(const hpcc::workload::SizeCdf& cdf, double u) {
  const std::vector<hpcc::workload::SizeCdf::Point>& pts = cdf.points();
  for (size_t i = 1; i < pts.size(); ++i) {
    if (u <= pts[i].cdf) {
      const double span = pts[i].cdf - pts[i - 1].cdf;
      const double frac = span > 0 ? (u - pts[i - 1].cdf) / span : 1.0;
      const double bytes =
          static_cast<double>(pts[i - 1].bytes) +
          frac * static_cast<double>(pts[i].bytes - pts[i - 1].bytes);
      return std::max<uint64_t>(1, static_cast<uint64_t>(bytes));
    }
  }
  return std::max<uint64_t>(1, pts.back().bytes);
}

std::vector<hpcc::workload::TraceRecord> GenerateTrace(const TraceSpec& t,
                                                       uint64_t seed) {
  using hpcc::workload::SizeCdf;
  const SizeCdf cdf = t.fbhadoop ? SizeCdf::FbHadoop() : SizeCdf::WebSearch();
  // Flows per microsecond at this load, as workload::PoissonGenerator
  // defines it: load * aggregate host bandwidth / mean flow size.
  const double rate = t.load * t.hosts * kHostBytesPerUs / cdf.MeanBytes();
  size_t n = static_cast<size_t>(std::llround(rate * t.window_us));
  if (t.max_flows > 0) n = std::min<size_t>(n, t.max_flows);
  const double window_us = static_cast<double>(n) / rate;

  hpcc::sim::Rng rng(seed);
  std::vector<uint64_t> sizes(n);
  for (size_t i = 0; i < n; ++i) {
    sizes[i] = SizeQuantile(cdf, (static_cast<double>(i) + 0.5) /
                                     static_cast<double>(n));
  }
  for (size_t i = n; i > 1; --i) std::swap(sizes[i - 1], sizes[rng.Index(i)]);
  std::vector<hpcc::sim::TimePs> arrivals(n);
  for (hpcc::sim::TimePs& a : arrivals) {
    a = static_cast<hpcc::sim::TimePs>(rng.Uniform() * window_us *
                                       hpcc::sim::kPsPerUs);
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<hpcc::workload::TraceRecord> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].at = arrivals[i];
    out[i].src = static_cast<uint32_t>(rng.Index(t.hosts));
    out[i].dst = static_cast<uint32_t>(rng.Index(t.hosts - 1));
    if (out[i].dst >= out[i].src) ++out[i].dst;
    out[i].bytes = sizes[i];
  }
  return out;
}

// ---- tracing ---------------------------------------------------------------

// One traced interval, kept in memory and written out when the run ends.
// Spans of one pass share `pass`; point spans and their phase children also
// carry the grid point's label.
struct Span {
  std::string name;  // "<layer>.<what>"
  double start = 0;  // seconds since process start
  double end = 0;
  int parent = -1;  // index of the enclosing span; -1 for a pass root
  int pass = 0;
  std::string point;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  const std::vector<Span>& spans() const { return spans_; }

  int Begin(const char* name, int parent, int pass) {
    return Add(name, Now(), 0, parent, pass, "");
  }
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Now();
  }
  int Add(std::string name, double start, double end, int parent, int pass,
          std::string point) {
    if (!on_) return -1;
    spans_.push_back(
        {std::move(name), start, end, parent, pass, std::move(point)});
    return static_cast<int>(spans_.size()) - 1;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Child spans for the points of one RunAll call, from each SweepRunResult's
// wall time and phase timers. At jobs=1 RunAll runs the points back to back,
// so each point starts where the previous one ended. Inside a point RunOne
// builds first and aggregates last, with the run phase right before the
// aggregate; what is left over (cache lookups, monitor and event
// installation) is the point span's own self time.
void AddPointSpans(Tracer& tr, int run_all, int pass,
                   const std::vector<SweepRunResult>& points) {
  double t = tr.spans()[static_cast<size_t>(run_all)].start;
  for (const SweepRunResult& r : points) {
    const double end = t + r.wall_seconds;
    const int p = tr.Add("runner.point", t, end, run_all, pass, r.label);
    tr.Add("runner.build", t, t + r.phases.build_s, p, pass, r.label);
    const double agg = end - r.phases.aggregate_s;
    tr.Add("runner.run", agg - r.phases.run_s, agg, p, pass, r.label);
    if (r.phases.aggregate_s > 0) {
      tr.Add("obs.aggregate", agg, end, p, pass, r.label);
    }
    t = end;
  }
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// Self time per layer: each span's duration minus what its children cover.
std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    covered[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[LayerOf(spans[i].name)] += spans[i].end - spans[i].start - covered[i];
  }
  return self;
}

Json SpansJson(const std::string& workload, uint64_t seed,
               const std::vector<Span>& spans) {
  Json list = Json::MakeArray();
  for (const Span& s : spans) {
    Json o = Json::MakeObject();
    o.Set("name", Json::MakeString(s.name));
    o.Set("layer", Json::MakeString(LayerOf(s.name)));
    o.Set("start_s", Json::MakeNumber(s.start));
    o.Set("end_s", Json::MakeNumber(s.end));
    o.Set("parent", Json::MakeNumber(s.parent));
    o.Set("pass", Json::MakeNumber(s.pass));
    o.Set("point", Json::MakeString(s.point));
    list.Append(std::move(o));
  }
  Json doc = Json::MakeObject();
  doc.Set("workload", Json::MakeString(workload));
  doc.Set("seed", Json::MakeNumber(static_cast<double>(seed)));
  doc.Set("spans", std::move(list));
  return doc;
}

// ---- passes and output checks ----------------------------------------------

struct PointDigest {
  std::string label;
  uint64_t trace_hash = 0;
  uint64_t csv = 0;  // FNV-1a over the point's aggregate-CSV row

  bool operator==(const PointDigest&) const = default;
};

PointDigest DigestOf(const SweepRunResult& r, bool drop_columns) {
  std::string row;
  for (const std::string& cell : ScenarioRunner::CsvRow(r, drop_columns)) {
    row += cell;
    row += '\x1f';
  }
  return {r.label, r.result.trace_hash, hpcc::core::Fnv1a64(row)};
}

struct Pass {
  double wall_s = 0;   // scenario file to aggregate CSV written
  double parse_s = 0;  // LoadScenarioFile + ExpandSweep
  double csv_s = 0;    // WriteCsv
  double peak_rss_mb = 0;  // the process's VmHWM when the pass ended
  bool csv_ok = false;
  bool drop_columns = false;  // the CSV carries per-reason drop columns
  std::vector<SweepRunResult> points;
  std::vector<PointDigest> digests;
};

Pass RunPass(const std::string& scenario_path,
             const ScenarioRunnerOptions& opts, const std::string& csv_path,
             Tracer& tr, int index) {
  Pass p;
  const double t0 = Now();
  const int root = tr.Begin("bench.pass", -1, index);
  int span = tr.Begin("scenario.load", root, index);
  const hpcc::scenario::Scenario sc =
      hpcc::scenario::LoadScenarioFile(scenario_path);
  tr.End(span);
  span = tr.Begin("scenario.expand", root, index);
  const std::vector<ScenarioRun> runs = hpcc::scenario::ExpandSweep(sc);
  tr.End(span);
  const double t1 = Now();
  const int run_all = tr.Begin("scenario.run_all", root, index);
  p.points = ScenarioRunner(opts).RunAll(runs);
  tr.End(run_all);
  const double t2 = Now();
  span = tr.Begin("stats.write_csv", root, index);
  p.csv_ok = ScenarioRunner::WriteCsv(csv_path, p.points);
  tr.End(span);
  const double t3 = Now();
  tr.End(root);
  if (run_all >= 0) AddPointSpans(tr, run_all, index, p.points);

  p.wall_s = t3 - t0;
  p.parse_s = t1 - t0;
  p.csv_s = t3 - t2;
  p.drop_columns = ScenarioRunner::HasDrops(p.points);
  for (SweepRunResult& r : p.points) {
    p.digests.push_back(DigestOf(r, p.drop_columns));
    // With the digest taken, drop the per-flow records and sampled
    // distributions (hundreds of MB per k=32 pass), so memory does not
    // build up across passes.
    r.result.fct.reset();
    r.result.queue_dist = {};
    r.result.pause_durations_us = {};
    r.result.short_fct_us = {};
  }
  p.peak_rss_mb = PeakRssMb();
  return p;
}

// Passes repeat until `budget` seconds are used; another pass starts only
// while a median-length one still fits, so a run ends near its budget
// instead of overrunning it by a whole pass.
void RunPasses(const std::string& scenario_path,
               const ScenarioRunnerOptions& opts, const std::string& csv_path,
               Tracer& tr, double budget, size_t min_passes,
               std::vector<Pass>* out) {
  const double t0 = Now();
  std::vector<double> walls;
  while (walls.size() < min_passes || Now() - t0 + Median(walls) <= budget) {
    out->push_back(RunPass(scenario_path, opts, csv_path, tr,
                           static_cast<int>(walls.size())));
    walls.push_back(out->back().wall_s);
  }
}

struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  void Record(const std::string& what, const std::vector<std::string>& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    for (const std::string& w : why) failures.push_back(what + ": " + w);
  }
};

// A point fails when its status is not ok (error or monitor violation), when
// it differs from the same point of the first untraced pass (TraceHash or
// CSV-row digest), when a golden exists for this workload and seed and the
// point differs from it, or when the workload's mechanism did not engage.
void CheckPass(const WorkloadSpec& spec, const Pass& pass, const char* kind,
               int index, const std::vector<PointDigest>& reference,
               const std::vector<PointDigest>* golden, Verdict* v) {
  for (size_t i = 0; i < pass.points.size(); ++i) {
    const SweepRunResult& r = pass.points[i];
    std::vector<std::string> why;
    if (!r.ok()) {
      why.push_back("status " + ScenarioRunner::StatusOf(r) +
                    (r.error.empty() ? "" : " (" + r.error + ")"));
    }
    if (!pass.csv_ok) why.push_back("aggregate CSV not written");
    if (i >= reference.size() || !(pass.digests[i] == reference[i])) {
      why.push_back("TraceHash or CSV row differs from untraced pass 0");
    }
    if (golden != nullptr &&
        (i >= golden->size() || !(pass.digests[i] == (*golden)[i]))) {
      why.push_back("TraceHash or CSV row differs from the golden");
    }
    if (spec.warm && i == 0 && !r.warm_built) {
      why.push_back("did not build the warm checkpoint");
    }
    if (spec.warm && i > 0 && !r.warm_restored) {
      why.push_back("did not restore the warm checkpoint");
    }
    if (spec.hybrid &&
        (r.result.fluid_ticks == 0 || r.result.packets_forwarded == 0)) {
      why.push_back("fluid engine or packet path idle");
    }
    v->Record(std::string(kind) + " pass " + std::to_string(index) + " " +
                  r.label,
              why);
  }
}

// Golden digests recorded for `workload` at `seed`, if goldens.json has them
// (it holds each workload's committed seed).
std::optional<std::vector<PointDigest>> LoadGolden(const std::string& workload,
                                                   uint64_t seed) {
  const Json doc = Json::Parse(
      ReadFile(std::string(HPCC_BENCH_SOURCE_DIR) + "/goldens.json"));
  const Json* entry = doc.Find(workload);
  if (entry == nullptr ||
      static_cast<uint64_t>(entry->Get("seed").AsInt()) != seed) {
    return std::nullopt;
  }
  std::vector<PointDigest> out;
  for (const Json& p : entry->Get("points").items()) {
    out.push_back(
        {p.Get("label").AsString(),
         std::strtoull(p.Get("trace_hash").AsString().c_str(), nullptr, 16),
         std::strtoull(p.Get("csv_digest").AsString().c_str(), nullptr, 16)});
  }
  return out;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t n = 1;  // samples behind the value
};

struct PassTotals {
  double build_s = 0, routes_s = 0, run_s = 0, aggregate_s = 0;
  // Event-loop work of the points that simulated from t=0. A warm-restored
  // point's event, packet and train counters continue from the
  // checkpoint's, counting work it never did, so it is left out here.
  double cold_run_s = 0, events = 0, pkts = 0, train_aborts = 0;
  double pfc_pauses = 0, drops = 0;
  double fluid_flows = 0, fluid_ticks = 0, coupled_links = 0;
  double violations = 0, warm_restored = 0;
};

PassTotals Totals(const Pass& p) {
  PassTotals t;
  for (const SweepRunResult& r : p.points) {
    t.build_s += r.phases.build_s;
    t.routes_s += r.phases.routes_s;
    t.run_s += r.phases.run_s;
    t.aggregate_s += r.phases.aggregate_s;
    if (!r.warm_restored) {
      t.cold_run_s += r.phases.run_s;
      t.events += static_cast<double>(r.result.events_executed);
      t.pkts += static_cast<double>(r.result.packets_forwarded);
      t.train_aborts += static_cast<double>(r.result.train_aborts);
    }
    t.pfc_pauses += static_cast<double>(r.result.pause_events);
    t.drops += static_cast<double>(r.result.dropped_packets);
    t.fluid_flows += static_cast<double>(r.result.fluid_flows_created);
    t.fluid_ticks += static_cast<double>(r.result.fluid_ticks);
    t.coupled_links += static_cast<double>(r.result.fluid_coupled_links);
    t.violations += static_cast<double>(r.violation_count);
    t.warm_restored += r.warm_restored ? 1 : 0;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// peak_rss_mb is the high-water mark after the first pass: what one sweep
// invocation costs. Later passes creep it up through allocator reuse, and
// how many passes fit in --seconds varies from run to run.
std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& passes) {
  std::vector<double> sweep, point, setup, rate;
  for (const Pass& p : passes) {
    const PassTotals t = Totals(p);
    sweep.push_back(p.wall_s);
    setup.push_back(p.parse_s + t.build_s);
    rate.push_back(Ratio(t.pkts, t.cold_run_s));
    for (const SweepRunResult& r : p.points) point.push_back(r.wall_seconds);
  }
  const size_t n = passes.size();
  return {{"sweep_s", Median(sweep), "s", n},
          {"point_s", Median(point), "s", point.size()},
          {"setup_s", Median(setup), "s", n},
          {"pkts_per_s", Median(rate), "pkts/s", n},
          {"peak_rss_mb", passes.front().peak_rss_mb, "MB", 1}};
}

// Flow, CC and INT counters of a pass, summed over the points' manifests
// (the CC and INT totals exist only there).
struct ManifestTotals {
  double flows = 0, flows_done = 0, retx_timeouts = 0;
  double cc_updates = 0, int_echoes = 0;
};

double CounterOr0(const Json& counters, const char* group, const char* key) {
  const Json* g = counters.Find(group);
  const Json* v = g != nullptr ? g->Find(key) : nullptr;
  return v != nullptr ? v->AsDouble() : 0;
}

ManifestTotals ManifestCounters(const Pass& p) {
  ManifestTotals t;
  for (const SweepRunResult& r : p.points) {
    // An errored point writes none; CheckPass already fails it.
    if (r.manifest_path.empty()) continue;
    const Json m = Json::Parse(ReadFile(r.manifest_path));
    const Json& c = m.Get("counters");
    t.flows += CounterOr0(c, "flows", "created");
    t.flows_done += CounterOr0(c, "flows", "completed");
    t.retx_timeouts += CounterOr0(c, "flows", "retx_timeouts");
    t.cc_updates += CounterOr0(c, "cc", "updates");
    t.int_echoes += CounterOr0(c, "int", "echoes");
  }
  return t;
}

// Median microseconds per fluid admission, Experiment::AddWorkloadFlow with
// FlowClass::kFluid, over seeded host pairs. Each admission resolves the
// flow's path on the live fabric.
double FluidAdmitProbeUs(Experiment& e, uint64_t seed) {
  const std::vector<uint32_t>& hosts = e.hosts();
  hpcc::sim::Rng rng(seed);
  std::vector<double> us;
  for (int i = 0; i < kAdmitProbeFlows; ++i) {
    const uint32_t src = hosts[rng.Index(hosts.size())];
    uint32_t dst = src;
    while (dst == src) dst = hosts[rng.Index(hosts.size())];
    const double t0 = Now();
    e.AddWorkloadFlow(hpcc::workload::FlowClass::kFluid, 0, src, dst, 30000, 0);
    us.push_back((Now() - t0) * 1e6);
  }
  return Median(us);
}

// Grid point 0 of a seeded workload document, built but not run.
std::unique_ptr<Experiment> BuildPointZero(const Json& seeded_doc) {
  const std::vector<ScenarioRun> runs =
      hpcc::scenario::ExpandSweep(hpcc::scenario::ParseScenario(seeded_doc));
  return std::make_unique<Experiment>(
      hpcc::scenario::MakeExperimentConfig(runs.front().scenario));
}

Json WorkloadDoc(const std::string& name) {
  return Json::Parse(ReadFile(std::string(HPCC_BENCH_SOURCE_DIR) +
                              "/workloads/" + name + ".json"));
}

// check.cost_s: grid point 0 run twice more on its own, with and without the
// standard monitors, as checked minus unchecked run phase. Both re-runs are
// attempted points and must reproduce the traced pass's digests: monitors
// observe, they never change an output.
double CheckCostProbe(const std::string& scenario_path, const Pass& traced,
                      Verdict* verdict) {
  const std::vector<ScenarioRun> runs = hpcc::scenario::ExpandSweep(
      hpcc::scenario::LoadScenarioFile(scenario_path));
  double run_s[2] = {0, 0};
  for (const bool check : {false, true}) {
    hpcc::scenario::RunOneOptions o;
    o.check = check;
    o.telemetry = runs.front().scenario.telemetry;
    o.telemetry->manifest = true;  // as in the traced pass
    const SweepRunResult r = ScenarioRunner::RunOne(runs.front(), o);
    std::vector<std::string> why;
    if (!r.ok()) why.push_back("status " + ScenarioRunner::StatusOf(r));
    if (!(DigestOf(r, traced.drop_columns) == traced.digests.front())) {
      why.push_back("TraceHash or CSV row differs from the traced pass");
    }
    verdict->Record(std::string(check ? "checked" : "unchecked") +
                        " re-run " + r.label,
                    why);
    run_s[check ? 1 : 0] = r.phases.run_s;
  }
  return run_s[1] - run_s[0];
}

// Per-layer metrics of a traced run: per-pass values are medians over the
// traced passes; the probes (route_mb, admit_us, check.cost_s) run once.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, const Json& seeded,
                                 uint64_t seed,
                                 const std::string& scenario_path,
                                 const std::vector<Pass>& plain,
                                 const std::vector<Pass>& traced,
                                 const Tracer& tracer, Verdict* verdict) {
  const size_t n = traced.size();
  std::vector<PassTotals> T;
  for (const Pass& p : traced) T.push_back(Totals(p));
  // Every pass rewrites the same manifest files. The digest checks make all
  // passes' counters equal, so the files the last pass left stand for each.
  const ManifestTotals C = ManifestCounters(traced.back());
  std::vector<Metric> m;
  const auto per_pass = [&](const char* name, const char* unit, auto value) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(value(i));
    m.push_back({name, Median(v), unit, n});
  };

  const double check_cost =
      CheckCostProbe(scenario_path, traced.front(), verdict);
  // Routing state of this workload's fabric, and fluid admission cost on
  // the hybrid fabric (reusing the build when this is the hybrid workload).
  double route_mb = 0, admit_us = 0;
  {
    std::unique_ptr<Experiment> e = BuildPointZero(seeded);
    route_mb = static_cast<double>(e->topology().RoutingResidentBytes()) /
               (1024.0 * 1024.0);
    if (spec.hybrid) admit_us = FluidAdmitProbeUs(*e, seed);
  }
  if (!spec.hybrid) {
    std::unique_ptr<Experiment> e =
        BuildPointZero(SeededScenario(WorkloadDoc("fattree48_hybrid"), seed));
    admit_us = FluidAdmitProbeUs(*e, seed);
  }

  std::vector<double> plain_walls, traced_walls;
  for (const Pass& p : plain) plain_walls.push_back(p.wall_s);
  for (const Pass& p : traced) traced_walls.push_back(p.wall_s);
  const double traced_total =
      std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0);
  const std::map<std::string, double> self = LayerSelfTimes(tracer.spans());
  const auto self_total = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const double passes = static_cast<double>(n);

  per_pass("scenario.parse_s", "s",
           [&](size_t i) { return traced[i].parse_s; });
  per_pass("scenario.warm_restored", "count",
           [&](size_t i) { return T[i].warm_restored; });
  per_pass("runner.build_s", "s", [&](size_t i) { return T[i].build_s; });
  per_pass("runner.run_s", "s", [&](size_t i) { return T[i].run_s; });
  per_pass("topo.routes_s", "s", [&](size_t i) { return T[i].routes_s; });
  m.push_back({"topo.route_mb", route_mb, "MB", 1});
  per_pass("sim.events", "count", [&](size_t i) { return T[i].events; });
  per_pass("sim.events_per_pkt", "ratio",
           [&](size_t i) { return Ratio(T[i].events, T[i].pkts); });
  per_pass("sim.ns_per_event", "ns", [&](size_t i) {
    return Ratio(T[i].cold_run_s * 1e9, T[i].events);
  });
  per_pass("net.pkts_forwarded", "count", [&](size_t i) { return T[i].pkts; });
  per_pass("net.ns_per_pkt", "ns", [&](size_t i) {
    return Ratio(T[i].cold_run_s * 1e9, T[i].pkts);
  });
  per_pass("net.train_aborts", "count",
           [&](size_t i) { return T[i].train_aborts; });
  per_pass("net.pfc_pauses", "count",
           [&](size_t i) { return T[i].pfc_pauses; });
  per_pass("net.drops", "count", [&](size_t i) { return T[i].drops; });
  m.push_back({"host.flows", C.flows, "count", n});
  m.push_back({"host.flows_done", C.flows_done, "count", n});
  m.push_back({"host.retx_timeouts", C.retx_timeouts, "count", n});
  m.push_back({"cc.updates", C.cc_updates, "count", n});
  m.push_back({"core.int_echoes", C.int_echoes, "count", n});
  per_pass("analytic.fluid_flows", "count",
           [&](size_t i) { return T[i].fluid_flows; });
  per_pass("analytic.fluid_ticks", "count",
           [&](size_t i) { return T[i].fluid_ticks; });
  per_pass("analytic.coupled_links", "count",
           [&](size_t i) { return T[i].coupled_links; });
  m.push_back({"analytic.admit_us", admit_us, "us",
               static_cast<size_t>(kAdmitProbeFlows)});
  per_pass("check.violations", "count",
           [&](size_t i) { return T[i].violations; });
  m.push_back({"check.cost_s", check_cost, "s", 1});
  per_pass("obs.aggregate_s", "s", [&](size_t i) { return T[i].aggregate_s; });
  m.push_back({"obs.trace_overhead",
               Ratio(Median(traced_walls), Median(plain_walls)) - 1, "ratio",
               n});
  // Share of the traced passes' wall time inside a layer span; the rest is
  // the benchmark's own bookkeeping between calls.
  m.push_back({"obs.span_coverage",
               1 - Ratio(self_total("bench"), traced_total), "ratio", n});
  per_pass("stats.csv_s", "s", [&](size_t i) { return traced[i].csv_s; });
  for (const char* layer : {"scenario", "runner", "obs", "stats"}) {
    m.push_back({std::string("self.") + layer + "_s",
                 self_total(layer) / passes, "s", n});
  }
  return m;
}

// ---- one workload ----------------------------------------------------------

Json MetricsJson(const std::vector<Metric>& metrics, bool with_n) {
  Json o = Json::MakeObject();
  for (const Metric& m : metrics) {
    Json v = Json::MakeObject();
    v.Set("value", Json::MakeNumber(m.value));
    v.Set("unit", Json::MakeString(m.unit));
    if (with_n) v.Set("n", Json::MakeNumber(static_cast<double>(m.n)));
    o.Set(m.name, std::move(v));
  }
  return o;
}

int RunWorkload(const WorkloadSpec& spec, const Options& o) {
  const Json doc = WorkloadDoc(spec.name);
  const uint64_t seed =
      o.seed ? *o.seed : static_cast<uint64_t>(doc.Get("seed").AsInt());
  const Json seeded = SeededScenario(doc, seed);
  std::filesystem::create_directories(o.out_dir);
  const std::string out_dir = std::filesystem::absolute(o.out_dir).string();
  const std::string base = out_dir + "/" + spec.name;
  const std::string scenario_path = base + ".scenario.json";
  const std::string csv_path = base + ".csv";
  WriteFile(scenario_path, seeded.Dump(2) + "\n");
  // Scenarios name their trace files relative to the working directory.
  std::filesystem::current_path(out_dir);
  uint64_t stream = 0;
  for (const TraceSpec& t : kTraces) {
    if (std::string(t.workload) != spec.name) continue;
    WriteFile(t.file, hpcc::workload::FormatFlowTrace(GenerateTrace(
                          t, hpcc::core::DeriveSeed(seed, stream++))));
  }

  ScenarioRunnerOptions plain_opts;
  plain_opts.jobs = 1;
  plain_opts.check = spec.check;
  plain_opts.manifest = spec.manifest;
  plain_opts.out_base = base;
  // Traced passes also write every point's manifest: the CC and INT
  // counters live there, and telemetry fills the routes/aggregate timers.
  ScenarioRunnerOptions traced_opts = plain_opts;
  traced_opts.manifest = true;

  // Untraced passes give the end-to-end metrics. A traced run spends half
  // its budget on them too, as the base of obs.trace_overhead and of the
  // traced-vs-untraced digest check.
  Tracer untraced(false), tracer(true);
  std::vector<Pass> plain, traced;
  RunPasses(scenario_path, plain_opts, csv_path, untraced,
            o.trace ? o.seconds / 2 : o.seconds, o.trace ? 1 : kMinPasses,
            &plain);
  if (o.trace) {
    RunPasses(scenario_path, traced_opts, csv_path, tracer, o.seconds / 2, 1,
              &traced);
  }

  Verdict verdict;
  const std::optional<std::vector<PointDigest>> golden =
      LoadGolden(spec.name, seed);
  const std::vector<PointDigest>& reference = plain.front().digests;
  for (size_t i = 0; i < plain.size(); ++i) {
    CheckPass(spec, plain[i], "untraced", static_cast<int>(i), reference,
              golden ? &*golden : nullptr, &verdict);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    CheckPass(spec, traced[i], "traced", static_cast<int>(i), reference,
              golden ? &*golden : nullptr, &verdict);
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = EndToEndMetrics(plain);
  } else {
    metrics = LayerMetrics(spec, seeded, seed, scenario_path, plain, traced,
                           tracer, &verdict);
    WriteFile(base + ".spans.json",
              SpansJson(spec.name, seed, tracer.spans()).Dump(1) + "\n");
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %.9g %s %zu\n", spec.name, m.name.c_str(), m.value,
                m.unit.c_str(), m.n);
  }
  // fail_frac is printed but kept out of the JSON metrics: a healthy run
  // reads 0, and the JSON line carries attempted and failed instead.
  std::printf("%s fail_frac %.9g ratio %zu\n", spec.name,
              Ratio(static_cast<double>(verdict.failed),
                    static_cast<double>(verdict.attempted)),
              verdict.attempted);
  for (const std::string& f : verdict.failures) {
    std::fprintf(stderr, "%s: FAILED %s\n", spec.name, f.c_str());
  }
  const bool correct = verdict.failures.empty();

  Json points = Json::MakeArray();
  for (const PointDigest& d : reference) {
    Json p = Json::MakeObject();
    p.Set("label", Json::MakeString(d.label));
    p.Set("trace_hash", Json::MakeString(Hex(d.trace_hash)));
    p.Set("csv_digest", Json::MakeString(Hex(d.csv)));
    points.Append(std::move(p));
  }
  Json failures = Json::MakeArray();
  for (const std::string& f : verdict.failures) {
    failures.Append(Json::MakeString(f));
  }
  Json result = Json::MakeObject();
  result.Set("workload", Json::MakeString(spec.name));
  result.Set("seed", Json::MakeNumber(static_cast<double>(seed)));
  result.Set("seconds", Json::MakeNumber(o.seconds));
  result.Set("trace", Json::MakeBool(o.trace));
  result.Set("passes", Json::MakeNumber(static_cast<double>(plain.size())));
  result.Set("traced_passes",
             Json::MakeNumber(static_cast<double>(traced.size())));
  result.Set("correct", Json::MakeBool(correct));
  result.Set("attempted",
             Json::MakeNumber(static_cast<double>(verdict.attempted)));
  result.Set("failed", Json::MakeNumber(static_cast<double>(verdict.failed)));
  result.Set("failures", std::move(failures));
  result.Set("metrics", MetricsJson(metrics, true));
  result.Set("points", std::move(points));
  WriteFile(base + (o.trace ? ".traced" : "") + ".result.json",
            result.Dump(2) + "\n");

  Json line = Json::MakeObject();
  line.Set("correct", Json::MakeBool(correct));
  line.Set("attempted",
           Json::MakeNumber(static_cast<double>(verdict.attempted)));
  line.Set("failed", Json::MakeNumber(static_cast<double>(verdict.failed)));
  line.Set("metrics", MetricsJson(metrics, false));
  std::printf("%s\n", line.Dump().c_str());
  return correct ? 0 : 1;
}

// ---- every workload --------------------------------------------------------

// Re-executes this binary once per workload (and once more per workload
// traced), so each workload's peak memory is its own.
int RunEveryWorkload(const Options& o) {
  char self[PATH_MAX];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  self[len] = '\0';

  size_t attempted = 0, failed = 0;
  bool ok = true;
  Json all = Json::MakeObject();
  for (const WorkloadSpec& spec : kWorkloads) {
    for (const bool traced : {false, true}) {
      if (traced && !o.trace) continue;
      std::vector<std::string> args = {
          self,
          std::string("--workload=") + spec.name,
          "--seconds=" + hpcc::scenario::FormatNumber(o.seconds),
          std::string("--trace=") + (traced ? "1" : "0"),
          "--out-dir=" + o.out_dir};
      if (o.seed) args.push_back("--seed=" + std::to_string(*o.seed));
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      const std::string key =
          std::string(spec.name) + (traced ? ".traced" : "");
      const std::string path = o.out_dir + "/" + key + ".result.json";
      std::filesystem::remove(path);  // never read a previous run's result
      std::fflush(stdout);
      pid_t pid = 0;
      int status = 0;
      const int spawned =
          posix_spawn(&pid, self, nullptr, nullptr, argv.data(), environ);
      if (spawned != 0 || waitpid(pid, &status, 0) != pid) {
        throw std::runtime_error(std::string("cannot run ") + spec.name);
      }
      ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!std::filesystem::exists(path)) {
        ok = false;
        continue;
      }
      Json r = Json::Parse(ReadFile(path));
      attempted += static_cast<size_t>(r.Get("attempted").AsInt());
      failed += static_cast<size_t>(r.Get("failed").AsInt());
      all.Set(key, std::move(r));
    }
  }
  WriteFile(o.out_dir + "/result.json", all.Dump(2) + "\n");
  std::printf(
      "hpcc_bench: %zu points attempted, %zu failed, fail_frac %.9g%s\n",
      attempted, failed,
      Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      ok ? "" : " (a workload run failed)");
  return ok && failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hpcc_bench [--workload=NAME] [--seed=N] [--seconds=S] "
               "[--trace[=0|1]] [--out-dir=DIR]\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    char* end = nullptr;
    if (hpcc::cli::ConsumeFlag(a, "--workload", &v)) {
      o.workload = v;
    } else if (hpcc::cli::ConsumeFlag(a, "--seed", &v)) {
      const unsigned long long s = std::strtoull(v, &end, 10);
      // Seeds travel through the scenario JSON as doubles: keep them exact.
      if (*v == '\0' || *end != '\0' || *v == '-' || s > (1ULL << 53)) {
        return Usage();
      }
      o.seed = s;
    } else if (hpcc::cli::ConsumeFlag(a, "--seconds", &v)) {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 3600)) return Usage();
    } else if (std::string(a) == "--trace") {
      o.trace = true;
    } else if (hpcc::cli::ConsumeFlag(a, "--trace", &v)) {
      if (std::string(v) != "0" && std::string(v) != "1") return Usage();
      o.trace = std::string(v) == "1";
    } else if (hpcc::cli::ConsumeFlag(a, "--out-dir", &v)) {
      o.out_dir = v;
    } else {
      return Usage();
    }
  }
  try {
    if (o.workload.empty()) return RunEveryWorkload(o);
    for (const WorkloadSpec& spec : kWorkloads) {
      if (o.workload == spec.name) return RunWorkload(spec, o);
    }
    return Usage();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "hpcc_bench: %s\n", ex.what());
    return 1;
  }
}
