// Deterministic per-run manifest: config echo, counter tree, metrics,
// violation summary and trace hash as one machine-readable JSON document.
//
// The default manifest is a pure function of the simulation run — it is
// byte-identical across --jobs and --fastpath on/off (the same contract the
// CSVs honor; tests/telemetry_test.cc pins it). Engine- and wall-clock-
// dependent data (events executed, train aborts, phase timers) only appears
// when TelemetryConfig::profile is set, in a clearly-marked "profile"
// section. Schema documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.h"
#include "scenario/json.h"

namespace hpcc::runner {
class Experiment;
struct ExperimentResult;
}
namespace hpcc::scenario {
struct Scenario;
}

namespace hpcc::obs {

struct PhaseTimers;
class TelemetrySession;
struct TelemetryConfig;

struct ManifestInputs {
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;  // sweep axes
  const scenario::Scenario* scenario = nullptr;        // config echo
  const TelemetryConfig* telemetry = nullptr;          // effective config
  runner::Experiment* experiment = nullptr;            // required
  const runner::ExperimentResult* result = nullptr;    // required
  const TelemetrySession* session = nullptr;           // hook counters
  bool checked = false;
  const std::vector<check::Violation>* violations = nullptr;
  size_t violation_count = 0;
  const PhaseTimers* phases = nullptr;  // profile section only
  // Sweep journal ("sweep" section, emitted when csv_cells is set): grid
  // coordinates, attempt number, final status and the formatted CSV cells
  // of this point. A later --resume invocation validates and replays it
  // instead of re-simulating the point.
  size_t sweep_index = 0;
  size_t sweep_count = 1;
  int attempt = 0;
  std::string status;
  const std::vector<std::pair<std::string, std::string>>* csv_cells = nullptr;
};

// Builds the manifest document. Serialize with .Dump(2).
scenario::Json BuildManifest(const ManifestInputs& in);

// Writes `content` to `path` atomically (temp file + rename): a concurrent
// reader — notably the sweep resume journal scan — never observes a
// half-written file, even across a SIGKILL mid-write. Returns false on any
// I/O failure.
bool WriteTextFile(const std::string& path, const std::string& content);
// Appends the whole file at `path` to `out`; false on any I/O error.
bool ReadTextFile(const std::string& path, std::string* out);

}  // namespace hpcc::obs
