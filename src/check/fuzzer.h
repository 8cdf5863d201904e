// Deterministic scenario fuzzer.
//
// From a single RNG seed, generates random-but-valid scenario documents
// (random dumbbell/fat-tree sizes, CC scheme, workload mix, timed link flaps,
// incast bursts and load phases), runs each under the full standard
// invariant-monitor set, and on violation emits the exact scenario JSON as a
// runnable reproducer:
//
//   build/fuzz_scenarios --seed=42 --runs=50
//   build/hpccsim repro_fuzz_42_17.json --check   # replay a violation
//
// Determinism contract: GenerateScenarioDoc(seed, i) is a pure function of
// (seed, i) — the same binary always produces byte-identical documents — and
// every clean run is replayed and compared output for output, so fuzz runs
// double as run-to-run determinism checks.
//
// The committed corpus under tests/corpus/ is a frozen set of these
// documents; see docs/TESTING.md for the corpus policy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.h"
#include "check/monitors.h"
#include "scenario/json.h"
#include "scenario/runner.h"

namespace hpcc::check {

struct FuzzOptions {
  uint64_t seed = 1;
  int runs = 20;
  // Where reproducer JSONs for violating runs are written.
  std::string reproducer_dir = ".";
  bool verbose = false;
  // Livelock watchdog: a run executing more simulator events than this is
  // itself an invariant violation (event storms must not hang the fuzzer).
  uint64_t max_events = 50'000'000;
  // Chaos mode (--faults): additionally inject random fault events — seeded
  // corruption windows, switch flaps, NIC flaps (always repaired before the
  // end) — into every generated scenario. Every equivalence replay FuzzMain
  // runs still applies, so every chaos scenario is also pinned
  // deterministic, fastpath-equal and shard-equal, and the monitors
  // (including the flow no-progress audit) must stay clean under faults.
  bool faults = false;
};

// The index-th scenario document for `seed`; pure and deterministic (a
// function of (seed, index, faults) only). `faults` appends the chaos-mode
// fault events described at FuzzOptions::faults; false reproduces the
// historical documents byte-identically.
scenario::Json GenerateScenarioDoc(uint64_t seed, int index,
                                   bool faults = false);

// Parses one scenario document and runs it through ScenarioRunner::RunOne
// under the standard monitors (plus `extra`, if any) with the event-budget
// watchdog armed and telemetry off; the result's label is the scenario's
// name. Never throws: parse and runtime errors land in the result's error.
// A multi-lane scenario gives each lane its own registry; `extra` is invoked
// once per lane, so installers must hand out a fresh monitor instance per
// call.
scenario::SweepRunResult RunScenarioDocChecked(
    const scenario::Json& doc, uint64_t max_events,
    const MonitorInstaller& extra = nullptr);

// Writes `doc` as "<dir>/repro_<name>.json"; returns the path, or "" when
// the file cannot be written.
std::string WriteReproducer(const scenario::Json& doc, const std::string& dir,
                            const std::string& name);

// CLI driver behind tools/fuzz_scenarios: generates and runs
// `options.runs` scenarios, writes reproducers for violating runs, prints a
// summary and a count of the warm replays that built and restored a
// checkpoint, and returns the process exit code (0 = all clean). Each clean
// run is replayed, and every replay must reproduce its outputs
// (ScenarioRunner::CompareOutputs: every CSV cell and the TraceHash):
//  - a second time (run-to-run determinism);
//  - on the per-packet reference engine (--fastpath=off);
//  - on two execution lanes (--shards=2), monitor log clean too;
//  - twice with an injected warm_start.until_us (~40% of the horizon)
//    through one shared fabric-snapshot/warm-checkpoint cache, the first
//    building the checkpoint and the second restoring it, at the
//    scenario's own lane count and again at two lanes.
// Event-budget-truncated replays are skipped (a truncated run stops at an
// arbitrary event, so its outputs are meaningless).
int FuzzMain(const FuzzOptions& options,
             const MonitorInstaller& extra = nullptr);

}  // namespace hpcc::check
