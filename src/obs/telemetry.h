// Unified telemetry layer: counters, flight-recorder tracks and samplers.
//
// Everything here rides the existing check::NetHooks observation points —
// the hot path gains no new branches when telemetry is off (the per-node
// hook pointer stays null; micro/telemetry_overhead in tools/bench_report
// pins this). The layer splits into:
//
//   TelemetryConfig    scenario "telemetry" block / CLI overrides
//   TelemetryRecorder  an InvariantMonitor that only counts (never reports)
//   TelemetrySession   owns the recorder + periodic samplers for one run
//
// Determinism contract (tested by tests/telemetry_test.cc): everything the
// recorder and samplers collect — counter totals, sampled queue depths and
// flow rates, INT echoes — is identical across --jobs, --fastpath=on/off
// and --shards.
// Counter totals are order-independent sums over the same packet stream;
// sampled tracks read state (queue_bytes, snd_una) at fixed sim times, and
// that state is already pinned engine-equal by the byte-identical CSV
// contract. Engine-dependent data (events executed, train aborts, wall
// clock) is quarantined in the opt-in manifest "profile" section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.h"
#include "sim/time.h"
#include "stats/timeseries.h"

namespace hpcc::runner {
class Experiment;
}

namespace hpcc::obs {

// Short stable token for a drop reason ("no_route", ...): manifest keys and
// CSV column suffixes.
const char* DropReasonToken(check::DropReason reason);

// Scenario "telemetry" block (see docs/SCENARIO_FORMAT.md). Defaults are
// chosen so that `--trace-out=FILE` alone produces a useful trace: flow
// spans, scenario events, PFC windows, the 8 busiest queue tracks and the
// first 8 flow-rate tracks.
struct TelemetryConfig {
  bool manifest = false;  // write <out>.manifest.json per run
  bool trace = false;     // write a Chrome-trace-event / Perfetto JSON
  // Include engine-dependent extras (events executed, train aborts, wall
  // clock) in the manifest "profile" section. Off by default because it
  // breaks byte-identity across --fastpath on/off.
  bool profile = false;

  // Queue-depth counter tracks: the `queue_tracks` busiest data-priority
  // egress queues (by peak depth), sampled every `queue_sample_us`, each
  // capped at `queue_track_points` (stride-doubling downsample beyond).
  int queue_tracks = 8;
  int queue_track_points = 256;
  double queue_sample_us = 10.0;

  // Per-flow goodput tracks (acked-byte delta per interval, in Gbps) for
  // flow ids 1..flow_tracks — the first flows by creation order, the rule
  // the INT tracks use too.
  int flow_tracks = 8;
  int flow_track_points = 512;
  double flow_sample_us = 10.0;

  // INT flight recorder: per-flow max qLen / max hop-utilization tracks
  // rebuilt from echoed IntStacks for flow ids 1..int_tracks. Off by
  // default — only meaningful for INT-carrying schemes.
  int int_tracks = 0;
  int int_track_points = 512;

  bool enabled() const { return manifest || trace; }
  bool operator==(const TelemetryConfig&) const = default;
};

// Order-independent totals accumulated from the hook stream.
struct TelemetryCounters {
  uint64_t enqueued_packets = 0;
  uint64_t enqueued_bytes = 0;
  uint64_t dequeued_packets = 0;
  uint64_t dequeued_bytes = 0;
  uint64_t pause_on = 0;   // pause transitions (off -> paused)
  uint64_t pause_off = 0;  // resume transitions
  uint64_t cc_updates = 0;
  uint64_t int_echoes = 0;
};

// One bounded sampled track, labeled for trace export.
struct TelemetryTrack {
  std::string name;        // e.g. "q sw17 p3" or "flow 4"
  std::string unit;        // "kB", "Gbps", ...
  stats::TimeSeries series;
};

// A monitor that only counts. Never files violations, so it is safe to run
// without --check; the registry fan-out gives it the same hook stream the
// invariant monitors see.
class TelemetryRecorder final : public check::InvariantMonitor {
 public:
  explicit TelemetryRecorder(const TelemetryConfig& cfg);

  std::string name() const override { return "telemetry"; }
  unsigned interests() const override;

  void OnEnqueue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeueBurst(uint32_t node, int port, const check::DequeueRecord* recs,
                      size_t n) override;
  void OnPauseChange(uint32_t node, int port, int priority, bool paused,
                     sim::TimePs now) override;
  void OnCcUpdate(uint64_t flow_id, int64_t window_bytes, int64_t rate_bps,
                  sim::TimePs now) override;
  void OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                 sim::TimePs now) override;

  const TelemetryCounters& counters() const { return counters_; }
  // Warm restore: seeds the totals with a checkpoint's counter baseline so
  // the hook stream observed after the restore adds onto the pre-checkpoint
  // traffic's contribution.
  void set_counters(const TelemetryCounters& c) { counters_ = c; }
  // INT flight-recorder tracks (empty unless trace && int_tracks > 0).
  const std::vector<TelemetryTrack>& int_qlen_tracks() const {
    return int_qlen_;
  }
  const std::vector<TelemetryTrack>& int_util_tracks() const {
    return int_util_;
  }

 private:
  // Per-(tracked flow, hop) last INT sample, for tx-byte-delta utilization.
  struct HopState {
    sim::TimePs ts = -1;
    uint64_t tx_bytes = 0;
  };

  TelemetryConfig cfg_;
  TelemetryCounters counters_;
  std::vector<TelemetryTrack> int_qlen_;
  std::vector<TelemetryTrack> int_util_;
  std::vector<HopState> hop_state_;  // int_tracks * core::kMaxIntHops
};

// Owns the telemetry machinery for one experiment run: adds a
// TelemetryRecorder to each lane's registry (which owns it) and, when tracks
// are requested, schedules fixed-interval samplers for queue depth and
// per-flow rate on every lane's simulator. Each lane's samplers read only
// that lane's switches and owned flows, at the same sim times and in the
// same event order as a one-lane run's (the shard-equivalence argument that
// pins stats::QueueMonitor's per-lane samples). Samplers are read-only: a
// run with telemetry on produces the exact CSV a run with telemetry off
// does.
class TelemetrySession {
 public:
  // One recorder per lane registry (lane order). Counter totals are summed
  // over the lanes by counters().
  TelemetrySession(const TelemetryConfig& cfg,
                   const std::vector<check::MonitorRegistry*>& registries,
                   runner::Experiment* experiment);

  // Schedules the samplers (must be called before Experiment::Run). Sampling
  // covers [0, duration * (1 + drain_factor)].
  void Start();

  const TelemetryConfig& config() const { return cfg_; }
  // Counter totals over every lane recorder. Plain sums, so the aggregate
  // is byte-equal to the one-lane totals whatever the shard count.
  TelemetryCounters counters() const;
  // Warm restore: seeds the first lane's recorder with the checkpoint's
  // counter total, so counters() adds the post-restore traffic onto it.
  void RestoreCounters(const TelemetryCounters& c) {
    recorders_.front()->set_counters(c);
  }

  // The `queue_tracks` busiest sampled queues (peak depth desc, then node,
  // port asc); empty tracks (never above zero) are skipped.
  std::vector<TelemetryTrack> TopQueueTracks() const;
  // Goodput tracks of flow ids 1..flow_tracks, in id order (fluid flows and
  // ids never created have none).
  std::vector<TelemetryTrack> FlowTracks() const;
  // INT flight-recorder tracks (empty unless trace && int_tracks > 0): the
  // qlen track of each flow id 1..int_tracks, then each util track. A
  // flow's echoes reach only its source host's lane recorder.
  std::vector<TelemetryTrack> IntTracks() const;

 private:
  struct QueueTrack {
    uint32_t node = 0;
    int port = 0;
    int64_t max_bytes = 0;
    stats::TimeSeries series;
  };
  struct FlowTrack {
    uint64_t last_acked = 0;
    const void* flow = nullptr;  // host::Flow*, opaque here
    TelemetryTrack track;
  };
  // One lane's samplers, run on the lane's own simulator.
  struct LaneSamplers {
    int lane = 0;
    std::vector<QueueTrack> queues;  // one per data queue of its switches
    std::vector<FlowTrack> flows;    // its tracked flows, id order
    size_t flows_scanned = 0;        // prefix of its flows already adopted
  };

  void SampleQueues(LaneSamplers& ls);
  void SampleFlows(LaneSamplers& ls);

  TelemetryConfig cfg_;
  runner::Experiment* experiment_;
  std::vector<TelemetryRecorder*> recorders_;  // one per lane registry
  sim::TimePs until_ = 0;
  sim::TimePs queue_interval_ = 0;
  sim::TimePs flow_interval_ = 0;
  std::vector<LaneSamplers> lanes_;  // sized once by Start
};

}  // namespace hpcc::obs
