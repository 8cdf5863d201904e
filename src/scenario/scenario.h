// Declarative scenarios: a JSON schema describing a full ExperimentConfig
// (topology, CC scheme, workload, seeds) plus a timed event script
// (link_down/link_up, one-shot incast bursts, background-load phase changes)
// and parameter sweep grids that expand into N concrete runs.
//
// Minimal example:
//
//   {
//     "name": "trunk_failure",
//     "topology": {"kind": "dumbbell", "hosts_per_side": 4},
//     "cc": {"scheme": "hpcc"},
//     "workload": {"load": 0.3, "trace": "websearch", "max_flows": 100},
//     "duration_ms": 2,
//     "events": [
//       {"type": "link_down", "at_us": 300, "link": 0},
//       {"type": "link_up",   "at_us": 800, "link": 0}
//     ],
//     "sweep": {"cc.scheme": ["hpcc", "dcqcn"], "workload.load": [0.3, 0.7]}
//   }
//
// Sweep keys are dotted paths patched into the document; the grid is the
// cross product of all axes in declaration order.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "scenario/json.h"

namespace hpcc::scenario {

// Schema violations: unknown keys, wrong types, out-of-range values.
struct ScenarioError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ScenarioEvent {
  enum class Kind {
    kLinkDown,
    kLinkUp,
    kIncast,
    kLoadPhase,
    // Fault injection: a switch_down fails every link attached to the switch
    // (and switch_up repairs them), nic_down/nic_up do the same for a host's
    // NIC links, and corrupt drops packets on one link with a seeded
    // Bernoulli stream for a bounded window. switch/nic events expand to the
    // equivalent per-link events at install time, so they compose with
    // sharding and warm-start exactly like hand-written link scripts — the
    // fault-equivalence tests pin switch_down == the link_down sequence.
    kSwitchDown,
    kSwitchUp,
    kNicDown,
    kNicUp,
    kCorrupt,
  };
  Kind kind = Kind::kLinkDown;
  sim::TimePs at = 0;
  // kLinkDown / kLinkUp / kCorrupt: index into Topology::links().
  size_t link = 0;
  // kSwitchDown/kSwitchUp: index into Topology::switches();
  // kNicDown/kNicUp: index into Experiment::hosts().
  size_t node = 0;
  // kCorrupt: per-packet drop probability (bit-error rate folded to packet
  // granularity) and the end of the corruption window.
  double ber = 0;
  sim::TimePs until = 0;
  // kIncast: a one-shot burst at `at` (period/end/seed filled at install).
  workload::IncastOptions incast;
  // kLoadPhase: background Poisson load from `at` until the next phase event
  // (or the workload horizon). 0 pauses background traffic. workload's
  // max_flows stays a cap on the whole background workload, not per phase.
  double load = 0;
};

struct SweepAxis {
  std::string key;           // dotted config path, e.g. "workload.load"
  std::vector<Json> values;  // one run per value (cross product over axes)
};

struct Scenario {
  std::string name = "scenario";
  std::string description;  // free-form, carried through the round trip
  runner::ExperimentConfig config;
  // "telemetry" block: manifest/trace emission and track shaping. The CLI
  // (--trace-out/--manifest) can force parts of it on per invocation.
  obs::TelemetryConfig telemetry;
  // "warm_start" block: when > 0, sweep runs may checkpoint the simulation
  // at this instant and restore it for grid points sharing the same pre-T
  // prefix (see WarmFingerprint). 0 = off. Purely a setup-cost knob: warm
  // runs are byte-identical to cold ones, and a run falls back to cold
  // whenever the instant is not cleanly restorable.
  sim::TimePs warm_until = 0;
  // Per-point wall-clock deadline in seconds (0 = none): a sweep point whose
  // simulation exceeds it stops early and reports a "deadline exceeded"
  // error instead of wedging the whole sweep. CLI --deadline overrides.
  double deadline_s = 0;
  std::vector<ScenarioEvent> events;
  std::vector<SweepAxis> sweep;
  // The original document, kept for sweep patching.
  Json source;
  // Directory of the file LoadScenarioFile read ("" for a document parsed
  // from text): a relative workload.trace_file opens against it, while
  // every echo of the scenario keeps the path as written.
  std::string dir;
};

// Parses and validates a scenario document. Throws ScenarioError (or
// JsonError for type mismatches) on anything malformed, naming the key and
// its block — unknown keys are rejected so typos fail loudly instead of
// silently running defaults.
Scenario ParseScenario(const Json& doc);
Scenario ParseScenarioText(const std::string& text);
// Reads, parses and validates a scenario file. Throws on I/O failure too.
// Records the file's directory in Scenario::dir.
Scenario LoadScenarioFile(const std::string& path);

// Canonical document for a parsed scenario: every recognized field with its
// resolved value. ParseScenario(ScenarioToJson(s)) is a fixed point, which
// the round-trip tests pin down.
Json ScenarioToJson(const Scenario& s);

// Canonical "telemetry" block with every key, default or not: the run
// manifest echoes the effective telemetry config through it.
Json TelemetryToJson(const obs::TelemetryConfig& t);

// Every key the schema accepts, as a dotted path: "name", "cc.eta",
// "workload.incast.fan_in". A block whose keys depend on a selector is
// listed once per variant: "topology[star].hosts", "events[corrupt].ber".
// The docs and fuzzer coverage tests read it.
std::vector<std::string> SchemaKeyPaths();

// One concrete sweep point: the fully-resolved scenario (sweep stripped)
// plus the axis assignments that produced it.
struct ScenarioRun {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
  Scenario scenario;
};

// Cross-product expansion of the sweep grid; a scenario without a sweep
// expands to a single run. Axis order is declaration order, the last axis
// varies fastest. A point that fails to parse throws with its label as the
// message prefix ("grid[eta=-1]: ..."). Every point keeps the scenario's
// dir.
std::vector<ScenarioRun> ExpandSweep(const Scenario& s);

// True when the event script changes topology state (link_down/link_up and
// the switch/NIC fault events that expand to them).
// Invariant checks that assume a static fabric (INT observation-stream
// monotonicity) key off this — keep it the single source of truth when new
// topology-mutating event kinds appear.
bool MutatesTopology(const Scenario& s);

// True when the script contains fault-injection events (switch/NIC flaps,
// corruption windows). Such scenarios always run cold: warm-start
// checkpoints neither model the degree-dependent install draws of the
// expanded events nor the corruption RNG streams.
bool HasFaultEvents(const Scenario& s);

// ExperimentConfig for one run: the parsed config plus the script's load
// phases, time-sorted (equal times keep script order), which the Experiment
// builds in place of its single background generator. A relative trace_file
// is resolved against Scenario::dir; without one it stays relative to the
// working directory.
runner::ExperimentConfig MakeExperimentConfig(const Scenario& s);

// FNV-1a digest of the canonical topology block: the key sweep runs share a
// fabric snapshot under (identical digest => identical fabric build).
uint64_t FabricSignature(const Scenario& s);

// Digest of everything that can influence the simulation on [0, warm_until):
// the full canonical document, except that events at or beyond warm_until
// (other than load phases, whose times bound earlier phase windows) are
// reduced to their bare {type} marker. Two sweep grid points with equal
// fingerprints run identically up to warm_until — same traffic, same RNG
// draws, same schedule-seq assignments (the type markers preserve the
// install-time draw pattern) — so one warm checkpoint serves both.
uint64_t WarmFingerprint(const Scenario& s);

// Schedules the scenario's timed events onto a freshly-built experiment,
// in script order: link_down/link_up install the Experiment's link-script
// markers (routes recompute at their barriers), switch/NIC events expand to
// the link events of their node, corrupt events arm corruption windows, and
// each incast event becomes one Experiment::AddIncastBurst. Load phases are
// not events here: MakeExperimentConfig carries them. Validates link,
// switch and host indices against the live topology (ScenarioError).
void InstallEvents(runner::Experiment& e, const Scenario& s);

}  // namespace hpcc::scenario
