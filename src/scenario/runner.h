// ScenarioRunner: expands a scenario's sweep grid and executes the points on
// a thread pool. Each sim::Simulator is independent and single-threaded, so
// sweep points are embarrassingly parallel; results are keyed by grid index,
// making the aggregate CSV byte-identical for any --jobs value.
//
// Ownership and threading:
//  - RunOne builds and tears down a full Experiment (simulator, topology,
//    generators, monitors) on the calling thread; nothing escapes but the
//    SweepRunResult. Pooled resources with thread-local caches (e.g.
//    net::PacketPool) are therefore acquired and released on one thread.
//  - RunAll never shares simulation state between workers: each worker owns
//    its sweep points end to end, and only the results vector (pre-sized,
//    one slot per point) is written concurrently — each slot by exactly one
//    worker. A failed point records its error; it never aborts the sweep.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "check/monitors.h"
#include "obs/progress.h"
#include "runner/experiment.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {

// One warm checkpoint (see runner::Experiment's warm surface): the
// experiment's state, every traffic source included, plus the telemetry
// counter baseline. Immutable once published; shared across the grid points
// whose WarmFingerprint matches.
struct WarmCheckpoint {
  runner::Experiment::WarmState state;
  obs::TelemetryCounters counters;
};

// Build-once-share-many caches for one sweep execution. The first worker to
// reach a key becomes its builder and publishes through the shared future;
// everyone else blocks on the future and reuses the value. A null value
// means the builder failed (or found the checkpoint instant unrestorable) —
// members fall back to building/running cold themselves.
struct FabricCache {
  std::mutex mu;
  std::map<uint64_t,
           std::shared_future<std::shared_ptr<const topo::FabricSnapshot>>>
      entries;
};
struct WarmCache {
  std::mutex mu;
  std::map<uint64_t, std::shared_future<std::shared_ptr<const WarmCheckpoint>>>
      entries;
};

struct SweepRunResult {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
  runner::ExperimentResult result;
  // Non-empty when the run threw; such rows carry empty metrics.
  std::string error;
  // Invariant violations (populated when the runner checks — see
  // ScenarioRunnerOptions::check); capped like MonitorRegistry's log.
  std::vector<check::Violation> violations;
  size_t violation_count = 0;
  // Host wall-clock seconds for this point (diagnostic; never in the CSV).
  double wall_seconds = 0;
  // Telemetry artifacts written for this run (empty when none).
  std::string manifest_path;
  std::string trace_path;
  // Wall-clock phase breakdown (manifest "profile" section; diagnostic).
  obs::PhaseTimers phases;
  // Warm-start provenance (diagnostic; never in the CSV): whether this run
  // captured and published the warm checkpoint for its fingerprint, and
  // whether it restored from one instead of simulating [0, warm_until)
  // itself. Both false on cold runs and fallbacks.
  bool warm_built = false;
  bool warm_restored = false;
  // Which attempt produced this result: 0 = first try, 1 = the sweep's
  // retry-once-on-error pass. Recorded in the manifest journal.
  int attempt = 0;
  // Set when --resume validated this point's manifest journal from a prior
  // sweep and skipped re-simulation. CsvRow then replays `resumed_cells`
  // (the exact formatted cells the original run wrote) instead of
  // reformatting `result`, which only carries the fields the aggregate
  // outputs read directly (dropped_packets, trace_hash).
  bool resumed = false;
  std::map<std::string, std::string> resumed_cells;

  bool ok() const { return error.empty() && violation_count == 0; }
};

struct ScenarioRunnerOptions {
  // Worker threads; 0 = hardware concurrency clamped to the run count.
  int jobs = 0;
  // Per-run progress lines on stderr.
  bool verbose = false;
  // Run every point under the standard invariant monitors
  // (check::InstallStandardMonitors); violations mark the run failed.
  bool check = false;
  // Transmit-engine override: -1 = as the scenario says, 0 = force the
  // per-packet reference engine, 1 = force the train fast path. The
  // determinism suite and `--fastpath=on|off` A/B runs use this.
  int fastpath_override = -1;
  // Shard-count override: 0 = as the scenario says, 1..runner::kMaxShards
  // forces that many execution lanes (runner::ExperimentConfig::shards). The
  // shard-equivalence suite and `--shards=N` A/B runs use this. A hybrid
  // scenario fails at any count above 1 (its fluid engine runs on one lane).
  int shards_override = 0;

  // --- telemetry (src/obs) ---
  // Non-empty: force trace export on and write it here. A sweep derives
  // per-run names ("<stem>.run<i>.json") from it so workers never collide.
  std::string trace_out;
  // Force manifest emission on (scenario "telemetry" can also request it).
  bool manifest = false;
  // Live sweep progress line on stderr (jobs done/total, events/s, ETA).
  bool progress = false;
  // Base path for derived telemetry files (usually the CSV path minus
  // ".csv"; RunScenario fills it). Empty = only write files whose path
  // is explicit (trace_out).
  std::string out_base;
  // Warm-start sweeps (`--warm=off` clears it): share one fabric snapshot
  // across the grid, and when the scenario sets warm_start.until_us, also
  // checkpoint the simulation there once per WarmFingerprint and restore it
  // for the other grid points. Never changes any output byte — ineligible or
  // unrestorable runs silently fall back to cold.
  bool warm = true;

  // --- resilience (fault-injection issue) ---
  // Per-point wall-clock deadline override in seconds. 0 = use the
  // scenario's own deadline_s (which may also be 0 = none). A point that
  // trips its deadline stops early and reports a "deadline exceeded" error
  // instead of wedging the whole sweep.
  double deadline_s = 0;
  // Crash-resumable sweeps: before simulating a point, look for its manifest
  // from a previous (killed or partial) invocation with the same out_base.
  // A manifest that validates (schema, label, byte-identical scenario echo)
  // and records status "ok" short-circuits the point; error/violation points
  // re-run. Implies manifest emission, so every completed point journals
  // itself for the next resume.
  bool resume = false;
};

// Per-point execution options for RunOne (the non-static surface RunAll
// resolves from ScenarioRunnerOptions; the fuzzer builds its own).
struct RunOneOptions {
  bool check = false;
  // Checked runs only: monitors installed beside the standard set, invoked
  // once per execution lane (so it must hand out a fresh monitor per call).
  // Tests register an intentionally-broken monitor through this seam.
  check::MonitorInstaller extra_monitors;
  int fastpath_override = -1;
  // 0 = as the scenario says; >= 1 forces that lane count (see
  // ScenarioRunnerOptions::shards_override).
  int shards_override = 0;
  // Effective telemetry config; unset = use run.scenario.telemetry.
  std::optional<obs::TelemetryConfig> telemetry;
  // Artifact destinations; an empty path skips that artifact even when the
  // telemetry config asks for it (nowhere to put it).
  std::string manifest_path;
  std::string trace_path;
  // Abort the event loop after this many events (0 = unlimited); the fuzzer
  // and its flight recorder run under a budget. A checked run that exhausts
  // it records an "event-budget" violation (event storm or livelock).
  uint64_t event_budget = 0;
  // Warm-start machinery (RunAll wires these unless --warm=off; plain RunOne
  // calls leave them null and always run cold). Each cache engages on its
  // own whenever present.
  std::shared_ptr<FabricCache> fabric_cache;
  std::shared_ptr<WarmCache> warm_cache;
  // Wall-clock deadline in seconds; 0 falls back to the scenario's
  // deadline_s. Disables warm-start (a deadline can fire mid-checkpoint).
  double deadline_s = 0;
  // Sweep-journal coordinates recorded in the manifest (RunAll fills them;
  // standalone RunOne calls are a 1-point sweep).
  size_t sweep_index = 0;
  size_t sweep_count = 1;
  int attempt = 0;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ScenarioRunnerOptions& options = {});

  // Expands the sweep and runs every point. Results are in grid order
  // regardless of scheduling; a failed point records its error and does not
  // abort the sweep.
  std::vector<SweepRunResult> RunAll(const Scenario& scenario);
  // Same, over an already-expanded grid (avoids re-expanding when the
  // caller needed the points anyway).
  std::vector<SweepRunResult> RunAll(const std::vector<ScenarioRun>& runs);

  // Executes one fully-resolved sweep point (no threading) under `opts`:
  // invariant monitors, engine and lane overrides, telemetry session,
  // manifest/trace emission, event budgets and warm-start caches.
  static SweepRunResult RunOne(const ScenarioRun& run,
                               const RunOneOptions& opts = {});

  // Order-independent digest over the per-flow trace hashes of all points
  // (each salted with its grid index). Equal digests <=> every point saw
  // identical per-flow outcomes, whatever --jobs interleaving produced them.
  static uint64_t CombinedTraceHash(const std::vector<SweepRunResult>& results);

  // Aggregates per-run results into one CSV via stats::CsvWriter. Columns:
  // run label, one column per sweep axis, then the summary metrics.
  static bool WriteCsv(const std::string& path,
                       const std::vector<SweepRunResult>& results);

  // The CLI report: one summary line per point (a successful point adds its
  // per-size-bin FCT slowdown table and short-flow latency percentiles),
  // then the aggregated CSV. Returns a process exit code — 0 when every
  // point succeeded and the CSV was written.
  static int ReportAndWriteCsv(const std::vector<SweepRunResult>& results,
                               const std::string& csv_path);

  // Header/row shape shared by WriteCsv and tests. The per-reason drop
  // columns appear only when some row actually dropped packets, so
  // zero-drop scenarios keep their historical byte-identical CSVs;
  // `drop_reasons` for CsvRow must match HasDrops() over the whole sweep.
  static bool HasDrops(const std::vector<SweepRunResult>& results);
  static std::vector<std::string> CsvHeader(
      const std::vector<SweepRunResult>& results);
  static std::vector<std::string> CsvRow(const SweepRunResult& r,
                                         bool drop_reasons = false);

  // Formatted metric cells for one result, keyed by column name, covering
  // the full column superset (every drop-reason column, status, error).
  // CsvRow and the manifest sweep journal share this one formatter — that
  // is what makes --resume byte-identical: a resumed row replays exactly
  // the cells the original run journaled.
  static std::vector<std::pair<std::string, std::string>> MetricCells(
      const SweepRunResult& r);
  // The CSV status cell: "ok", "violations" or "error".
  static std::string StatusOf(const SweepRunResult& r);

 private:
  // Resolves the effective telemetry config and artifact paths for sweep
  // point `index` of `count` under this runner's options.
  RunOneOptions PlanRun(const ScenarioRun& run, size_t index,
                        size_t count) const;
  // --resume probe: loads and validates the manifest a previous invocation
  // may have left at opts.manifest_path. Returns the reconstructed result
  // when the point can be skipped, nullopt when it must (re-)run.
  std::optional<SweepRunResult> TryResume(const ScenarioRun& run,
                                          const RunOneOptions& opts) const;

  ScenarioRunnerOptions options_;
};

// The whole `hpccsim` run, for a scenario loaded from a FILE or built from
// the experiment flags alike: expand, run, report, write the CSV (to
// `out_override`, or "<scenario name>.csv" when empty). Catches and prints
// scenario/runtime errors; returns the process exit code.
int RunScenario(const Scenario& scenario, const ScenarioRunnerOptions& options,
                const std::string& out_override);

}  // namespace hpcc::scenario
