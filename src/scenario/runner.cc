#include "scenario/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <memory>
#include <string_view>
#include <thread>

#include "check/monitors.h"
#include "obs/manifest.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "scenario/json.h"
#include "stats/csv_writer.h"

namespace hpcc::scenario {
namespace {

// Single source of truth for the CSV shape: CsvHeader emits these names and
// CsvRow emits exactly one cell per entry ("error" last).
// `packets_forwarded` (not events_executed) is the throughput-ish column:
// the event count depends on which transmit engine ran, while the CSV must
// be byte-identical across --fastpath=on/off.
constexpr const char* kMetricColumns[] = {
    "flows_created", "flows_completed",  "flows_failed",
    "slowdown_p50",  "slowdown_p95",     "slowdown_p99",
    "short_fct_p95_us", "queue_p50_kb",  "queue_p99_kb",
    "queue_max_kb",  "pfc_pause_pct",    "pfc_events",
    "dropped_packets", "retx_timeouts",  "sim_time_ms",
    "packets_forwarded", "status",       "error"};

// Extra columns spliced in after "dropped_packets" when a sweep saw drops.
// Order matches check::DropReason.
constexpr const char* kDropReasonColumns[] = {
    "drops_no_route", "drops_buffer_full", "drops_egress_threshold",
    "drops_corrupt"};
static_assert(std::size(kDropReasonColumns) == check::kNumDropReasons);

bool IsDropReasonColumn(const std::string& name) {
  for (const char* col : kDropReasonColumns) {
    if (name == col) return true;
  }
  return false;
}

// The full column superset MetricCells formats: the metric columns with the
// per-reason drop columns spliced in. CsvHeader/CsvRow select from it; the
// manifest sweep journal records all of it.
std::vector<std::string> AllMetricColumns() {
  std::vector<std::string> cols;
  for (const char* col : kMetricColumns) {
    cols.emplace_back(col);
    if (std::string_view(col) == "dropped_packets") {
      cols.insert(cols.end(), std::begin(kDropReasonColumns),
                  std::end(kDropReasonColumns));
    }
  }
  return cols;
}

// "x.json" + index 3 -> "x.run3.json" (plain append when no .json suffix):
// per-run artifact names for sweeps, same for any --jobs interleaving.
std::string WithRunIndex(const std::string& path, size_t index) {
  const std::string suffix = ".json";
  const std::string tag = ".run" + std::to_string(index);
  if (path.size() > suffix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return path.substr(0, path.size() - suffix.size()) + tag + suffix;
  }
  return path + tag;
}

}  // namespace

ScenarioRunner::ScenarioRunner(const ScenarioRunnerOptions& options)
    : options_(options) {
  // A resumable sweep must journal itself: every completed point writes the
  // manifest the next --resume invocation validates against.
  if (options_.resume) options_.manifest = true;
}

SweepRunResult ScenarioRunner::RunOne(const ScenarioRun& run,
                                      const RunOneOptions& opts) {
  SweepRunResult out;
  out.label = run.label;
  out.params = run.params;
  out.attempt = opts.attempt;
  // CLI/per-point override wins over the scenario's own deadline_s.
  const double deadline_s =
      opts.deadline_s > 0 ? opts.deadline_s : run.scenario.deadline_s;
  const auto t0 = std::chrono::steady_clock::now();
  // Declared before the Experiment: nodes keep pointers into the registries,
  // so they must be destroyed after it. One registry per execution lane
  // (exactly one when shards == 1); a deque keeps them address-stable while
  // lanes are added.
  std::deque<check::MonitorRegistry> registries;
  // Builder-side promises, outside the try: a builder that dies before
  // publishing must not strand the members blocked on its shared future —
  // `abandon` resolves anything still pending to null (= run cold).
  std::promise<std::shared_ptr<const topo::FabricSnapshot>> fabric_promise;
  std::promise<std::shared_ptr<const WarmCheckpoint>> warm_promise;
  bool fabric_pending = false;
  bool warm_pending = false;
  const auto abandon = [&]() noexcept {
    if (fabric_pending) {
      fabric_promise.set_value(nullptr);
      fabric_pending = false;
    }
    if (warm_pending) {
      warm_promise.set_value(nullptr);
      warm_pending = false;
    }
  };
  try {
    const obs::TelemetryConfig tcfg =
        opts.telemetry ? *opts.telemetry : run.scenario.telemetry;
    const bool telemetry_on = tcfg.enabled();
    runner::ExperimentConfig cfg = MakeExperimentConfig(run.scenario);
    if (opts.fastpath_override >= 0) {
      cfg.fast_path = opts.fastpath_override != 0;
    }
    // A hybrid scenario under a shards override > 1 fails in the Experiment
    // constructor, which names the conflict.
    if (opts.shards_override >= 1) cfg.shards = opts.shards_override;

    // Fabric snapshot sharing: the first run to reach this topology key
    // builds the fabric cold and publishes its routing state; everyone else
    // adopts the snapshot and skips the route BFS entirely.
    uint64_t fabric_sig = 0;
    std::shared_future<std::shared_ptr<const topo::FabricSnapshot>>
        fabric_future;
    if (opts.fabric_cache != nullptr) {
      fabric_sig = FabricSignature(run.scenario);
      std::lock_guard<std::mutex> lock(opts.fabric_cache->mu);
      auto [it, inserted] = opts.fabric_cache->entries.try_emplace(fabric_sig);
      if (inserted) {
        it->second = fabric_promise.get_future().share();
        fabric_pending = true;
      } else {
        fabric_future = it->second;
      }
    }
    if (fabric_future.valid()) {
      cfg.fabric_snapshot = fabric_future.get();  // null = build cold
    }

    // Warm checkpoint eligibility. Everything here falls back to a cold run
    // without changing a single output byte: checking runs hold monitor
    // state a restore cannot reproduce, trace/profile modes record
    // mid-run engine state, and a link event before the checkpoint instant
    // mutates routes the snapshotted fabric build must not see.
    const sim::TimePs warm_until = run.scenario.warm_until;
    // Fault scripts always run cold (the checkpoint models neither the
    // degree-dependent install draws of expanded switch/NIC events nor the
    // corruption RNG streams), and a wall deadline can fire mid-checkpoint.
    // Hybrid runs are always cold too: the fluid engine's continuous link
    // and window state has no warm capture surface.
    bool warm_on = opts.warm_cache != nullptr && warm_until > 0 &&
                   warm_until < cfg.duration && !opts.check &&
                   opts.event_budget == 0 && !tcfg.trace && !tcfg.profile &&
                   deadline_s == 0 && !HasFaultEvents(run.scenario) &&
                   !cfg.hybrid.enabled;
    for (const ScenarioEvent& ev : run.scenario.events) {
      if ((ev.kind == ScenarioEvent::Kind::kLinkDown ||
           ev.kind == ScenarioEvent::Kind::kLinkUp) &&
          ev.at < warm_until) {
        warm_on = false;
      }
    }
    std::shared_future<std::shared_ptr<const WarmCheckpoint>> warm_future;
    if (warm_on) {
      const uint64_t fp = WarmFingerprint(run.scenario);
      std::lock_guard<std::mutex> lock(opts.warm_cache->mu);
      auto [it, inserted] = opts.warm_cache->entries.try_emplace(fp);
      if (inserted) {
        it->second = warm_promise.get_future().share();
        warm_pending = true;
      } else {
        warm_future = it->second;
      }
    }

    obs::PhaseTimers phases;
    std::unique_ptr<runner::Experiment> e;
    {
      obs::PhaseTimer build(&phases.build_s);
      e = std::make_unique<runner::Experiment>(cfg);
    }
    if (fabric_pending) {
      // Publish right after the build, before any link event can mutate the
      // routes the snapshot aliases.
      fabric_promise.set_value(e->topology().ExportSnapshot(fabric_sig));
      fabric_pending = false;
    }
    if (opts.event_budget > 0) {
      e->set_event_budget(opts.event_budget);
    }
    if (deadline_s > 0) {
      e->set_wall_deadline(
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(deadline_s)));
    }
    const int lanes = e->shards();
    if (opts.check || telemetry_on) {
      for (int lane = 0; lane < lanes; ++lane) registries.emplace_back();
    }
    if (opts.check) {
      check::StandardMonitorOptions mo;
      mo.topology_mutates = MutatesTopology(run.scenario);
      for (int lane = 0; lane < lanes; ++lane) {
        check::MonitorRegistry& reg = registries[static_cast<size_t>(lane)];
        check::InstallStandardMonitors(reg, *e, mo, lane);
        if (opts.extra_monitors) opts.extra_monitors(reg, *e);
      }
    } else if (telemetry_on) {
      // InstallStandardMonitors does this pair itself; a telemetry-only run
      // still needs the hook fan-out wired up — each lane's registry on that
      // lane's clock and nodes.
      for (int lane = 0; lane < lanes; ++lane) {
        check::MonitorRegistry& reg = registries[static_cast<size_t>(lane)];
        reg.set_clock(&e->lane_simulator(lane));
        reg.AttachTo(e->topology(), e->lane_nodes(lane));
      }
    }
    std::unique_ptr<obs::TelemetrySession> session;
    if (telemetry_on) {
      std::vector<check::MonitorRegistry*> regs;
      regs.reserve(registries.size());
      for (check::MonitorRegistry& r : registries) regs.push_back(&r);
      session = std::make_unique<obs::TelemetrySession>(tcfg, regs, e.get());
      session->Start();
    }
    InstallEvents(*e, run.scenario);
    {
      obs::PhaseTimer run_timer(&phases.run_s);
      // Run() is StartWorkload + FinishRun; a warm run pauses between the
      // two, after drawing the schedule seqs every role draws alike.
      e->StartWorkload();
      if (warm_pending) {
        // Checkpoint builder: simulate [0, T), capture at the quiescent
        // instant, publish (unblocking every member while this run keeps
        // going), then finish normally.
        std::shared_ptr<WarmCheckpoint> cp;
        if (auto st = e->RunToWarmCheckpoint(warm_until)) {
          cp = std::make_shared<WarmCheckpoint>();
          cp->state = std::move(*st);
          if (session != nullptr) cp->counters = session->counters();
          out.warm_built = true;
        }
        warm_promise.set_value(std::move(cp));
        warm_pending = false;
      } else if (warm_future.valid()) {
        // Member: adopt the builder's checkpoint if it materialized. A null
        // or mismatching checkpoint mutates nothing: the run stays cold.
        std::shared_ptr<const WarmCheckpoint> cp = warm_future.get();
        if (cp != nullptr && e->RestoreWarmState(cp->state)) {
          out.warm_restored = true;
          if (session != nullptr) session->RestoreCounters(cp->counters);
        }
      }
      out.result = e->FinishRun();
    }
    if (e->deadline_exceeded()) {
      // The partial metrics stay in out.result for callers that want them,
      // but the point is reported failed: its CSV row blanks the metrics and
      // carries this error, and --resume re-simulates it.
      out.error = "deadline exceeded (" + FormatNumber(deadline_s) +
                  "s wall, " + FormatNumber(sim::ToMs(e->simulator().now())) +
                  "ms simulated)";
    }
    if (opts.check || telemetry_on) {
      for (int lane = 0; lane < lanes; ++lane) {
        registries[static_cast<size_t>(lane)].Finish(
            e->lane_simulator(lane).now());
      }
    }
    if (opts.check && e->budget_exhausted()) {
      registries.front().ReportViolation(check::Violation{
          "event-budget",
          "run exceeded " + std::to_string(opts.event_budget) +
              " simulator events (event storm / livelock?)",
          e->simulator().now()});
    } else if (opts.check && !e->deadline_exceeded()) {
      // No-progress audit: only meaningful when the run actually finished —
      // a budget or deadline stop strands in-flight flows legitimately.
      check::CheckFlowProgress(registries.front(), *e, e->simulator().now());
    }
    if (opts.check) {
      // Lane order, so the report is stable; counts sum (each lane caps its
      // own log like the single registry did).
      for (const check::MonitorRegistry& r : registries) {
        out.violations.insert(out.violations.end(), r.violations().begin(),
                              r.violations().end());
        out.violation_count += r.violation_count();
      }
    }
    if (telemetry_on) {
      obs::PhaseTimer agg(&phases.aggregate_s);
      phases.routes_s = e->topology().route_compute_seconds();
      if (tcfg.manifest && !opts.manifest_path.empty()) {
        obs::ManifestInputs mi;
        mi.label = run.label;
        mi.params = run.params;
        mi.scenario = &run.scenario;
        mi.telemetry = &tcfg;
        mi.experiment = e.get();
        mi.result = &out.result;
        mi.session = session.get();
        mi.checked = opts.check;
        mi.violations = &out.violations;
        mi.violation_count = out.violation_count;
        mi.phases = &phases;
        // Sweep journal: grid coordinates, attempt, final status and the
        // formatted CSV cells — everything --resume needs to replay this
        // point without re-simulating it.
        mi.sweep_index = opts.sweep_index;
        mi.sweep_count = opts.sweep_count;
        mi.attempt = opts.attempt;
        mi.status = StatusOf(out);
        const std::vector<std::pair<std::string, std::string>> cells =
            MetricCells(out);
        mi.csv_cells = &cells;
        const std::string text = obs::BuildManifest(mi).Dump(2) + "\n";
        if (obs::WriteTextFile(opts.manifest_path, text)) {
          out.manifest_path = opts.manifest_path;
        } else {
          out.error = "cannot write " + opts.manifest_path;
        }
      }
      if (tcfg.trace && !opts.trace_path.empty()) {
        obs::TraceExportInputs ti;
        ti.label = run.label;
        ti.experiment = e.get();
        ti.result = &out.result;
        ti.events = &run.scenario.events;
        ti.violations = &out.violations;
        ti.session = session.get();
        if (obs::WriteTextFile(opts.trace_path, obs::BuildTraceJson(ti))) {
          out.trace_path = opts.trace_path;
        } else {
          out.error = "cannot write " + opts.trace_path;
        }
      }
    }
    out.phases = phases;
  } catch (const std::exception& ex) {
    out.error = ex.what();
  }
  abandon();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

std::vector<SweepRunResult> ScenarioRunner::RunAll(const Scenario& scenario) {
  return RunAll(ExpandSweep(scenario));
}

std::vector<SweepRunResult> ScenarioRunner::RunAll(
    const std::vector<ScenarioRun>& runs) {
  std::vector<SweepRunResult> results(runs.size());

  int jobs = options_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min<int>(jobs, static_cast<int>(runs.size()));
  jobs = std::max(jobs, 1);

  std::atomic<size_t> next{0};
  const bool verbose = options_.verbose;
  std::unique_ptr<obs::ProgressMeter> progress;
  if (options_.progress) {
    progress = std::make_unique<obs::ProgressMeter>(runs.size());
  }
  // One cache pair per sweep execution: grid points with equal topology
  // (resp. warm-fingerprint) keys build the fabric (resp. warm checkpoint)
  // once and share it. --warm=off drops both, forcing every point cold.
  std::shared_ptr<FabricCache> fabric_cache;
  std::shared_ptr<WarmCache> warm_cache;
  if (options_.warm) {
    fabric_cache = std::make_shared<FabricCache>();
    warm_cache = std::make_shared<WarmCache>();
  }
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= runs.size()) return;
      RunOneOptions o = PlanRun(runs[i], i, runs.size());
      o.fabric_cache = fabric_cache;
      o.warm_cache = warm_cache;
      bool resumed = false;
      if (options_.resume) {
        if (std::optional<SweepRunResult> prior = TryResume(runs[i], o)) {
          results[i] = std::move(*prior);
          resumed = true;
        }
      }
      if (!resumed) {
        results[i] = RunOne(runs[i], o);
        if (!results[i].error.empty() &&
            results[i].error.compare(0, 8, "deadline") != 0) {
          // Transient-failure insurance: one retry per point, journaled as
          // attempt 1 so it is auditable. Deadline trips are excluded — a
          // point that deterministically outruns its wall budget would just
          // burn the budget twice.
          o.attempt = 1;
          results[i] = RunOne(runs[i], o);
        }
      }
      const SweepRunResult& r = results[i];
      if (progress) {
        progress->JobDone(r.result.events_executed,
                          sim::ToMs(r.result.sim_time));
      }
      if (verbose) {
        std::fprintf(stderr, "[%zu/%zu] %s: %s (%.2fs)\n", i + 1, runs.size(),
                     r.label.c_str(),
                     r.resumed          ? "resumed from manifest journal"
                     : !r.error.empty() ? r.error.c_str()
                                        : r.result.Summary().c_str(),
                     r.wall_seconds);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(jobs - 1));
  for (int t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();  // the caller thread is worker 0
  for (std::thread& t : pool) t.join();
  if (progress) progress->Finish();
  return results;
}

RunOneOptions ScenarioRunner::PlanRun(const ScenarioRun& run, size_t index,
                                      size_t count) const {
  RunOneOptions opts;
  opts.check = options_.check;
  opts.fastpath_override = options_.fastpath_override;
  opts.shards_override = options_.shards_override;
  opts.deadline_s = options_.deadline_s;
  opts.sweep_index = index;
  opts.sweep_count = count;

  obs::TelemetryConfig cfg = run.scenario.telemetry;
  if (!options_.trace_out.empty()) cfg.trace = true;
  if (options_.manifest) cfg.manifest = true;
  opts.telemetry = cfg;
  if (!cfg.enabled()) return opts;

  // Artifact paths: sweeps get a ".run<i>" tag so workers never collide and
  // names stay stable for any --jobs interleaving.
  if (cfg.trace) {
    if (!options_.trace_out.empty()) {
      opts.trace_path = count > 1 ? WithRunIndex(options_.trace_out, index)
                                  : options_.trace_out;
    } else if (!options_.out_base.empty()) {
      opts.trace_path =
          count > 1
              ? options_.out_base + ".run" + std::to_string(index) +
                    ".trace.json"
              : options_.out_base + ".trace.json";
    }
  }
  if (cfg.manifest && !options_.out_base.empty()) {
    opts.manifest_path =
        count > 1 ? options_.out_base + ".run" + std::to_string(index) +
                        ".manifest.json"
                  : options_.out_base + ".manifest.json";
  }
  return opts;
}

std::optional<SweepRunResult> ScenarioRunner::TryResume(
    const ScenarioRun& run, const RunOneOptions& opts) const {
  if (opts.manifest_path.empty()) return std::nullopt;
  std::string text;
  if (!obs::ReadTextFile(opts.manifest_path, &text)) return std::nullopt;
  try {
    const Json m = Json::Parse(text);
    const Json* schema = m.Find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->AsString() != "hpccsim-manifest-v1") {
      return std::nullopt;
    }
    const Json* label = m.Find("label");
    if (label == nullptr || !label->is_string() ||
        label->AsString() != run.label) {
      return std::nullopt;
    }
    // The scenario echo must match byte for byte: a resumable point is the
    // same simulation the journal recorded, not a same-named edit. Any
    // config/seed/sweep-patch change invalidates the entry.
    const Json* sc = m.Find("scenario");
    if (sc == nullptr || sc->Dump() != ScenarioToJson(run.scenario).Dump()) {
      return std::nullopt;
    }
    const Json* sweep = m.Find("sweep");
    if (sweep == nullptr || !sweep->is_object()) return std::nullopt;
    const Json* status = sweep->Find("status");
    if (status == nullptr || !status->is_string() ||
        status->AsString() != "ok") {
      return std::nullopt;  // error/violation points re-simulate
    }
    const Json* cells = sweep->Find("cells");
    if (cells == nullptr || !cells->is_object()) return std::nullopt;

    SweepRunResult out;
    out.label = run.label;
    out.params = run.params;
    out.resumed = true;
    for (const auto& [name, value] : cells->members()) {
      if (!value.is_string()) return std::nullopt;
      out.resumed_cells[name] = value.AsString();
    }
    // The two result fields the aggregate outputs read directly: drop
    // presence decides the CSV shape, and CompareOutputs compares the trace
    // hash.
    const auto drops = out.resumed_cells.find("dropped_packets");
    if (drops == out.resumed_cells.end()) return std::nullopt;
    out.result.dropped_packets =
        static_cast<uint64_t>(std::strtod(drops->second.c_str(), nullptr));
    const Json* hash = m.Find("trace_hash");
    if (hash == nullptr || !hash->is_string()) return std::nullopt;
    out.result.trace_hash = std::strtoull(hash->AsString().c_str(), nullptr, 16);
    out.manifest_path = opts.manifest_path;
    return out;
  } catch (const std::exception&) {
    return std::nullopt;  // malformed journal: just re-run the point
  }
}

bool ScenarioRunner::HasDrops(const std::vector<SweepRunResult>& results) {
  for (const SweepRunResult& r : results) {
    if (r.error.empty() && r.result.dropped_packets > 0) return true;
  }
  return false;
}

std::vector<std::string> ScenarioRunner::CsvHeader(
    const std::vector<SweepRunResult>& results) {
  std::vector<std::string> header{"run"};
  if (!results.empty()) {
    // All points of one sweep share the same axis keys.
    for (const auto& [key, value] : results.front().params) {
      header.push_back(key);
    }
  }
  const bool drops = HasDrops(results);
  for (const char* col : kMetricColumns) {
    header.emplace_back(col);
    if (drops && std::string_view(col) == "dropped_packets") {
      header.insert(header.end(), std::begin(kDropReasonColumns),
                    std::end(kDropReasonColumns));
    }
  }
  return header;
}

std::string ScenarioRunner::StatusOf(const SweepRunResult& r) {
  if (r.resumed) return "ok";  // only status-ok journal entries are resumed
  if (!r.error.empty()) return "error";
  if (r.violation_count > 0) return "violations";
  return "ok";
}

std::vector<std::pair<std::string, std::string>> ScenarioRunner::MetricCells(
    const SweepRunResult& r) {
  std::vector<std::pair<std::string, std::string>> cells;
  const std::vector<std::string> cols = AllMetricColumns();
  cells.reserve(cols.size());
  if (r.resumed) {
    // Replay the journaled cells verbatim; a column the journal lacks
    // (future schema growth) degrades to a blank, never a crash.
    for (const std::string& col : cols) {
      const auto it = r.resumed_cells.find(col);
      cells.emplace_back(
          col, it != r.resumed_cells.end() ? it->second : std::string());
    }
    return cells;
  }
  if (!r.error.empty()) {
    // Keep the row rectangular: blanks for the numeric metrics, the status
    // and error cells carry the failure. (A run with invariant violations
    // but no exception still has metrics; violations are reported on the
    // console and in the manifest, not in the CSV.)
    for (const std::string& col : cols) {
      if (col == "status") {
        cells.emplace_back(col, StatusOf(r));
      } else if (col == "error") {
        cells.emplace_back(col, r.error);
      } else {
        cells.emplace_back(col, std::string());
      }
    }
    return cells;
  }
  const runner::ExperimentResult& res = r.result;
  const stats::PercentileTracker& slow = res.fct->overall();
  // Distribution metrics are NaN when no samples were collected (e.g. a
  // zero-flow point): emit an empty cell so "no data" is distinguishable
  // from a real 0. Non-empty values format exactly as before.
  const auto metric = [](double v) {
    return std::isnan(v) ? std::string() : FormatNumber(v);
  };
  const auto count = [](uint64_t v) {
    return FormatNumber(static_cast<double>(v));
  };
  cells.emplace_back("flows_created", count(res.flows_created));
  cells.emplace_back("flows_completed", count(res.flows_completed));
  cells.emplace_back("flows_failed", count(res.flows_failed));
  cells.emplace_back("slowdown_p50", metric(slow.Percentile(50)));
  cells.emplace_back("slowdown_p95", metric(slow.Percentile(95)));
  cells.emplace_back("slowdown_p99", metric(slow.Percentile(99)));
  cells.emplace_back("short_fct_p95_us",
                     metric(res.short_fct_us.Percentile(95)));
  cells.emplace_back("queue_p50_kb",
                     metric(res.queue_dist.Percentile(50) / 1e3));
  cells.emplace_back("queue_p99_kb",
                     metric(res.queue_dist.Percentile(99) / 1e3));
  cells.emplace_back(
      "queue_max_kb",
      FormatNumber(static_cast<double>(res.max_queue_bytes) / 1e3));
  cells.emplace_back("pfc_pause_pct",
                     FormatNumber(res.pause_time_fraction * 100));
  cells.emplace_back("pfc_events", count(res.pause_events));
  cells.emplace_back("dropped_packets", count(res.dropped_packets));
  for (int d = 0; d < check::kNumDropReasons; ++d) {
    cells.emplace_back(kDropReasonColumns[d], count(res.dropped_by_reason[d]));
  }
  cells.emplace_back("retx_timeouts", count(res.retx_timeouts));
  cells.emplace_back("sim_time_ms", FormatNumber(sim::ToMs(res.sim_time)));
  cells.emplace_back("packets_forwarded", count(res.packets_forwarded));
  cells.emplace_back("status", StatusOf(r));
  cells.emplace_back("error", std::string());
  return cells;
}

std::vector<std::string> ScenarioRunner::CsvRow(const SweepRunResult& r,
                                                bool drop_reasons) {
  std::vector<std::string> row{r.label};
  for (const auto& [key, value] : r.params) row.push_back(value);
  for (auto& [name, value] : MetricCells(r)) {
    if (!drop_reasons && IsDropReasonColumn(name)) continue;
    row.push_back(std::move(value));
  }
  return row;
}

std::string OutputDiff::Format() const {
  std::string out = "point " + std::to_string(point) + " (" + label + ") " +
                    item;
  if (line > 0) out += " line " + std::to_string(line);
  return out + ": \"" + a + "\" vs \"" + b + "\"";
}

std::vector<OutputDiff> ScenarioRunner::CompareOutputs(
    std::span<const SweepRunResult> a, std::span<const SweepRunResult> b) {
  std::vector<OutputDiff> diffs;
  const auto params_text = [](const SweepRunResult& r) {
    std::string text;
    for (const auto& [key, value] : r.params) {
      text += (text.empty() ? "" : ",") + key + "=" + value;
    }
    return text;
  };
  const auto hex = [](uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    const std::string& label = i < a.size() ? a[i].label : b[i].label;
    const auto differ = [&](std::string item, std::string x, std::string y,
                            size_t line = 0) {
      diffs.push_back(OutputDiff{i, label, std::move(item), line, std::move(x),
                                 std::move(y)});
    };
    if (i >= a.size() || i >= b.size()) {
      differ("point", i < a.size() ? label : "(missing)",
             i < b.size() ? label : "(missing)");
      continue;
    }
    const SweepRunResult& x = a[i];
    const SweepRunResult& y = b[i];
    if (x.label != y.label) differ("label", x.label, y.label);
    if (x.params != y.params) differ("params", params_text(x), params_text(y));
    // A point that failed on one side leads with its error.
    if (x.error != y.error) differ("error", x.error, y.error);
    if (StatusOf(x) != StatusOf(y)) differ("status", StatusOf(x), StatusOf(y));
    const std::vector<std::pair<std::string, std::string>> cx = MetricCells(x);
    const std::vector<std::pair<std::string, std::string>> cy = MetricCells(y);
    for (size_t c = 0; c < cx.size(); ++c) {
      if (cx[c].first == "error" || cx[c].first == "status") continue;
      if (cx[c].second != cy[c].second) {
        differ(cx[c].first, cx[c].second, cy[c].second);
      }
    }
    if (x.result.trace_hash != y.result.trace_hash) {
      differ("trace_hash", hex(x.result.trace_hash), hex(y.result.trace_hash));
    }
    // An artifact only one point wrote is a difference too.
    const auto artifact = [&](const char* item, const std::string& px,
                              const std::string& py) {
      if (px.empty() && py.empty()) return;
      if (px.empty() || py.empty()) {
        differ(item, px.empty() ? "(not written)" : px,
               py.empty() ? "(not written)" : py);
        return;
      }
      std::string tx, ty;
      if (!obs::ReadTextFile(px, &tx) || !obs::ReadTextFile(py, &ty)) {
        differ(item, "cannot read " + px, "cannot read " + py);
        return;
      }
      if (tx == ty) return;
      // Equal prefixes keep the two texts' line starts aligned.
      std::string_view rx = tx, ry = ty;
      for (size_t line = 1;; ++line) {
        const size_t ex = rx.find('\n'), ey = ry.find('\n');
        if (rx.substr(0, ex) != ry.substr(0, ey) || ex == rx.npos ||
            ey == ry.npos) {
          differ(item, std::string(rx.substr(0, ex)),
                 std::string(ry.substr(0, ey)), line);
          return;
        }
        rx.remove_prefix(ex + 1);
        ry.remove_prefix(ey + 1);
      }
    };
    artifact("manifest", x.manifest_path, y.manifest_path);
    artifact("trace", x.trace_path, y.trace_path);
  }
  return diffs;
}

int ScenarioRunner::ReportAndWriteCsv(
    const std::vector<SweepRunResult>& results, const std::string& csv_path) {
  int failures = 0;
  for (const SweepRunResult& r : results) {
    if (r.resumed) {
      std::printf("%-48s resumed (journal: %s)\n", r.label.c_str(),
                  r.manifest_path.c_str());
    } else if (r.ok()) {
      const runner::ExperimentResult& res = r.result;
      std::printf("%-48s %s\n%s", r.label.c_str(), res.Summary().c_str(),
                  res.fct->FormatTable().c_str());
      if (res.short_fct_us.Count() > 0) {
        std::printf("  short-flow latency p50/p95/p99: %.1f / %.1f / %.1f us\n",
                    res.short_fct_us.Percentile(50),
                    res.short_fct_us.Percentile(95),
                    res.short_fct_us.Percentile(99));
      }
    } else if (!r.error.empty()) {
      ++failures;
      std::printf("%-48s ERROR: %s\n", r.label.c_str(), r.error.c_str());
    } else {
      ++failures;
      std::printf("%-48s %zu INVARIANT VIOLATION(S)\n", r.label.c_str(),
                  r.violation_count);
      for (const check::Violation& v : r.violations) {
        std::printf("    %s\n", v.Format().c_str());
      }
    }
  }
  if (!WriteCsv(csv_path, results)) {
    std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", csv_path.c_str(), results.size());
  size_t manifests = 0, traces = 0;
  for (const SweepRunResult& r : results) {
    manifests += r.manifest_path.empty() ? 0 : 1;
    traces += r.trace_path.empty() ? 0 : 1;
  }
  if (manifests > 0 || traces > 0) {
    std::printf("wrote %zu manifest(s), %zu trace(s)", manifests, traces);
    // Single-run invocations are the common case; name the files outright.
    if (results.size() == 1) {
      const SweepRunResult& r = results.front();
      if (!r.manifest_path.empty()) {
        std::printf(" [%s]", r.manifest_path.c_str());
      }
      if (!r.trace_path.empty()) std::printf(" [%s]", r.trace_path.c_str());
    }
    std::printf("\n");
  }
  return failures == 0 ? 0 : 1;
}

bool ScenarioRunner::WriteCsv(const std::string& path,
                              const std::vector<SweepRunResult>& results) {
  const bool drops = HasDrops(results);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(results.size());
  for (const SweepRunResult& r : results) rows.push_back(CsvRow(r, drops));
  return stats::WriteTableCsv(path, CsvHeader(results), rows);
}

int RunScenario(const Scenario& scenario, const ScenarioRunnerOptions& options,
                const std::string& out_override) {
  try {
    const std::vector<ScenarioRun> runs = ExpandSweep(scenario);
    std::printf("scenario %s: %zu run(s), %zu event(s)\n",
                scenario.name.c_str(), runs.size(), scenario.events.size());
    const std::string out =
        out_override.empty() ? scenario.name + ".csv" : out_override;
    ScenarioRunnerOptions opts = options;
    if (opts.out_base.empty()) {
      // Telemetry artifacts land next to the CSV: "<out minus .csv>.*".
      opts.out_base = out.size() > 4 && out.compare(out.size() - 4, 4,
                                                    ".csv") == 0
                          ? out.substr(0, out.size() - 4)
                          : out;
    }
    const std::vector<SweepRunResult> results =
        ScenarioRunner(opts).RunAll(runs);
    return ScenarioRunner::ReportAndWriteCsv(results, out);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }
}

}  // namespace hpcc::scenario
