// Experiment harness: wires a topology, a CC scheme, workload generators and
// monitors into one runnable unit. The scenario runner builds one per sweep
// point; tests, the examples and bench_report drive it directly through
// AddFlow/RunUntil/Collect.
//
// Every run executes as one or more lanes (config.shards) driven by a single
// barrier-round loop; shards=1 is simply the one-lane case. Every surface
// works at any lane count except the hybrid fluid engine, which runs on
// lane 0 and is refused on multi-lane runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytic/fluid_region.h"
#include "cc/factory.h"
#include "host/flow.h"
#include "net/handoff.h"
#include "net/switch_node.h"
#include "sim/simulator.h"
#include "stats/fct_recorder.h"
#include "stats/pfc_monitor.h"
#include "stats/queue_monitor.h"
#include "stats/trace_hash.h"
#include "topo/fattree.h"
#include "topo/partition.h"
#include "topo/simple.h"
#include "topo/testbed.h"
#include "topo/topology.h"
#include "workload/flow_gen.h"
#include "workload/trace_replay.h"
#include "workload/traffic_source.h"

namespace hpcc::runner {

enum class TopologyKind { kFatTree, kTestbed, kStar, kDumbbell };

// Upper bound on ExperimentConfig::shards. The scenario "shards" key, the
// --shards flag and the Experiment constructor all enforce it.
inline constexpr int kMaxShards = 64;

struct ExperimentConfig {
  TopologyKind topology = TopologyKind::kFatTree;
  topo::FatTreeOptions fattree;
  topo::TestbedOptions testbed;
  topo::StarOptions star;
  topo::DumbbellOptions dumbbell;

  cc::CcConfig cc;
  host::RecoveryMode recovery = host::RecoveryMode::kGoBackN;
  bool pfc_enabled = true;
  // Transmission-train forwarding fast path (net/port.h). Semantically
  // equivalent to the per-packet reference engine — the fastpath determinism
  // suite pins equal TraceHash and byte-identical CSVs — but executes far
  // fewer simulator events. Off = the reference engine, for A/B runs.
  bool fast_path = true;
  // INT sampling period (1 = every data packet, the paper's default).
  int int_sample_every = 1;
  // Optional WRED override (Fig. 3's threshold sweep); by default the scheme
  // picks its own (DCQCN/DCTCP defaults, disabled for HPCC/TIMELY).
  std::optional<net::RedConfig> red_override;

  // Background Poisson workload (disabled when load <= 0).
  double load = 0.0;
  std::string trace = "websearch";  // "websearch" | "fbhadoop"
  uint64_t max_flows = 0;
  // Scripted background-load phases (a scenario's load_phase events), in
  // time order. When present they replace the single background generator:
  // `load` is phase 0 from t=0, each phase runs until the next one starts
  // (or `duration`), and max_flows caps the phases' flows together.
  struct LoadPhase {
    sim::TimePs start = 0;
    double load = 0;
  };
  std::vector<LoadPhase> load_phases;
  // Incast add-on (Fig. 11a's "30% + incast").
  bool incast = false;
  workload::IncastOptions incast_opts;
  // Transport engine for background flows — the Poisson generator or the
  // load phases, and trace replay (incast generators carry their own class
  // in IncastOptions::flow_class). kFluid requires hybrid.enabled.
  workload::FlowClass flow_class = workload::FlowClass::kPacket;
  // Flow-trace replay source (workload/trace_replay.h); empty = none.
  std::string trace_file;
  // Hybrid fluid/packet co-simulation (analytic/fluid_region.h): fluid-class
  // flows run as per-RTT window trajectories coupled into the shared ports'
  // INT stamps. Requires shards == 1 and an INT-based CC scheme.
  struct HybridConfig {
    bool enabled = false;
    sim::TimePs tick = 0;  // fluid round period; 0 = one MaxBaseRtt
  };
  HybridConfig hybrid;

  sim::TimePs duration = sim::Ms(10);  // workload generation horizon
  // After `duration`, keep simulating until all flows finish, capped at
  // drain_factor * duration extra.
  double drain_factor = 4.0;
  uint64_t seed = 1;
  // Intra-run parallelism: partition the fabric into this many lanes
  // (logical processes, 1..kMaxShards), each with its own event arena,
  // synchronized conservatively on cut-link propagation delay. Results are
  // byte-identical to shards=1 (the shard-equivalence suite pins TraceHash /
  // CSV / manifest equality); >1 requires every cut link to have positive
  // delay, and is refused for hybrid runs.
  int shards = 1;

  // Warm-start sweeps: an immutable fabric snapshot exported by an
  // identically configured topology build (topo/snapshot.h). Switches adopt
  // its routing tables copy-on-write and Finalize skips the route BFS, so a
  // sweep pays the O(fabric) route build once instead of once per job.
  // Null = cold build. Never affects results — only setup cost.
  std::shared_ptr<const topo::FabricSnapshot> fabric_snapshot;

  // Flows at or below this size feed the short-flow latency distribution
  // (the "95pct-latency" series of Fig. 2b/11b/11d).
  uint64_t short_flow_bytes = 3'000;
};

struct ExperimentResult {
  std::unique_ptr<stats::FctRecorder> fct;
  stats::PercentileTracker queue_dist;   // bytes, sampled over (port, time)
  int64_t max_queue_bytes = 0;
  double pause_time_fraction = 0;        // of total port-time
  size_t pause_events = 0;
  stats::PercentileTracker pause_durations_us;
  // Fig. 1a: pause events by pause-chain depth (index = depth, see
  // net::Packet::pause_depth); sums to pause_events, empty without pauses.
  std::vector<uint64_t> pause_depth_counts;
  // Fig. 1b: the share (%) of total host NIC capacity behind paused host
  // NICs, time-weighted over the time at least one host NIC is paused. NaN
  // when no host NIC paused.
  struct SuppressedBandwidth {
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p90 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();
  };
  SuppressedBandwidth suppressed_host_bw_pct;
  stats::PercentileTracker short_fct_us;  // FCT of short flows, microseconds
  uint64_t dropped_packets = 0;
  // Per-check::DropReason breakdown; sums to dropped_packets.
  uint64_t dropped_by_reason[check::kNumDropReasons] = {};
  // Fast-path train rewinds across all ports (engine-dependent — zero on
  // the reference engine; telemetry quarantines it in "profile").
  uint64_t train_aborts = 0;
  // Packets the switches forwarded (admitted and enqueued toward an egress).
  // Unlike events_executed this is independent of the transmit engine, so it
  // is the work unit the macro benchmarks and scenario CSVs report.
  uint64_t packets_forwarded = 0;
  uint64_t flows_created = 0;
  uint64_t flows_completed = 0;
  // Flows abandoned by the transport give-up (HostConfig::max_retx
  // consecutive timeouts without forward progress). Disjoint from
  // flows_completed: created = completed + failed + still-running.
  uint64_t flows_failed = 0;
  // Real RTO expiries summed over every flow (see Flow::retx_timeouts).
  uint64_t retx_timeouts = 0;
  sim::TimePs sim_time = 0;
  uint64_t events_executed = 0;
  sim::TimePs base_rtt = 0;
  // Hybrid fluid-engine accounting (all zero on non-hybrid runs). Fluid
  // flows are additionally folded into flows_created / flows_completed and
  // the trace hash, so those totals stay engine-inclusive.
  uint64_t fluid_flows_created = 0;
  uint64_t fluid_flows_completed = 0;
  uint64_t fluid_ticks = 0;
  uint64_t fluid_coupled_links = 0;
  uint64_t fluid_delivered_bytes = 0;
  int64_t fluid_peak_queue_bytes = 0;
  // Order-independent digest of every flow's (id, endpoints, size, start,
  // finish, done) tuple — see stats/trace_hash.h. Two runs match iff their
  // hashes match; the determinism tests compare it across --jobs values.
  uint64_t trace_hash = 0;

  std::string Summary() const;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);
  ~Experiment();

  // Manual flow injection (micro-benchmarks); returns the live Flow. Draws
  // the flow id in every lane (AddFlowOnLane), so ids stay aligned at any
  // lane count.
  host::Flow* AddFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                      sim::TimePs start);
  // Lane-replicated flow injection: ALWAYS consumes lane `lane`'s next flow
  // id (so ids match shards=1 creation order), but creates a live flow only
  // when the lane owns `src` — returns nullptr otherwise. Every lane's
  // replicated generator calls this with identical arguments in identical
  // order.
  host::Flow* AddFlowOnLane(int lane, uint32_t src, uint32_t dst,
                            uint64_t bytes, sim::TimePs start);
  // The engine-dispatch seam every TrafficSource sink funnels through:
  // packet-class flows go to AddFlowOnLane (lane-replicated id draw), fluid
  // ones to the FluidRegion (hybrid runs are one-lane, so the id draw is
  // lane 0's counter). Both consume the same flow-id space, so packet and
  // fluid flows interleave in one creation order.
  void AddWorkloadFlow(workload::FlowClass flow_class, int lane, uint32_t src,
                       uint32_t dst, uint64_t bytes, sim::TimePs start);

  // Adds a scripted one-shot incast burst (a scenario's incast event) to
  // every lane's sources and starts it at once, so its schedule seq is drawn
  // in script order with the link markers. `options` carries the burst's
  // time, seed and flow class.
  void AddIncastBurst(const workload::IncastOptions& options);

  // Schedules a link_down/link_up script event: installs a no-op barrier
  // marker in every lane (consuming exactly one tie-break seq) and records
  // the event for the round loop's coordinator, which applies
  // Topology::SetLinkUp between rounds while every lane is stopped just
  // before its marker.
  void InstallLinkEvent(sim::TimePs at, size_t link, bool up);

  // Runs generators + simulation, drains, and collects metrics.
  ExperimentResult Run();
  // The two halves of Run, split so the warm-start runner can pause between
  // them: StartWorkload starts every lane's configured sources (the Poisson
  // generator or the load phases, trace replay, the workload incast) and
  // its queue monitor, drawing the same schedule seqs a plain Run would;
  // FinishRun executes to the workload horizon, drains, and collects.
  // Run == StartWorkload + FinishRun.
  void StartWorkload();
  ExperimentResult FinishRun();
  // Lower-level: run every lane to `until` without draining, applying
  // scripted link events at their barriers (micro benches drive this
  // directly after AddFlow). Starts the queue monitors, not the configured
  // sources (incast bursts start when added).
  void RunUntil(sim::TimePs until);
  ExperimentResult Collect();

  // --- Warm checkpoint/restore (warm-start sweeps) -----------------------
  // A warm checkpoint captures the full mutable simulation state at a
  // *quiescent* instant T, taken at a barrier with every lane stopped just
  // before T: every flow complete, every queue and cut-link handoff channel
  // empty, no pause open, and no pending event beyond each lane's traffic
  // source self-schedules, its queue-monitor tick and its link-script
  // markers at >= T. Restoring into a freshly built, identically configured
  // experiment (same lane count) then reproduces the checkpointing run's
  // state exactly — same RNG engines, counters, pending (time, seq) pairs in
  // every lane — so the continued run is byte-identical to one that
  // simulated [0, T) itself. Anything pending that this accounting can't
  // explain (a CC timer, an RTO) makes the instant non-quiescent and the
  // caller falls back to a cold run.

  // One completed pre-checkpoint flow, carried for TraceHash / flow-count
  // folding (the live Flow objects stay with the checkpointing experiment).
  struct WarmFlowRecord {
    uint64_t id = 0;
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t size_bytes = 0;
    sim::TimePs start = 0;
    sim::TimePs finish = 0;
    bool done = false;
  };
  // One lane's share of a checkpoint: its simulator and every piece of
  // Lane state.
  struct WarmLane {
    sim::TimePs now = 0;             // checkpoint time T
    uint64_t next_schedule_seq = 0;  // simulator tie-break counter at T
    uint64_t events_executed = 0;
    uint64_t next_flow_id = 1;
    std::vector<WarmFlowRecord> flows;  // the lane's flows
    std::unique_ptr<stats::FctRecorder> fct;
    stats::PercentileTracker short_fct_us;
    stats::QueueMonitor::WarmState queue;
    stats::PfcMonitor::WarmState pfc;
    // One slot per lane source, in lane order (configured sources, then
    // incast bursts in script order). Engaged iff the source's first
    // activity predates T; a source that starts at or beyond T is left
    // alone on restore, because its own install-time schedule already
    // matches (grid points sharing a checkpoint may differ in those
    // sources' parameters). The vector size doubles as the structural echo
    // restore validation checks.
    std::vector<std::optional<workload::TrafficSource::WarmState>> sources;
    uint64_t phase_flows = 0;  // Lane::phase_flows
  };
  struct WarmState {
    std::vector<WarmLane> lanes;  // lane order
    // The fabric, shared by every lane.
    std::vector<net::SwitchNode::WarmState> switches;  // switches() order
    std::vector<net::Port::WarmCounters> ports;  // node asc, then port asc
    std::vector<host::HostNode::WarmCounters> hosts;   // hosts() order
  };

  // Call after StartWorkload: runs every lane up to T (events at exactly T
  // stay pending) and captures the warm state there. Returns null when T is
  // not quiescent; the run can carry on either way.
  std::unique_ptr<WarmState> RunToWarmCheckpoint(sim::TimePs t);
  // Validates that `w` structurally matches this experiment (same lane,
  // source, node, port and host counts, non-regressed clocks), then
  // restores every captured piece and jumps each lane's simulator
  // clock/counters to T. Returns false (mutating nothing) on a mismatch —
  // the caller runs cold. Call after StartWorkload, before any Run: the
  // pre-T self-schedules this experiment drew are cancelled and replaced by
  // the checkpoint's captured (time, seq) events.
  bool RestoreWarmState(const WarmState& w);

  sim::Simulator& simulator() { return *simulator_; }
  topo::Topology& topology() { return *topology_; }
  const ExperimentConfig& config() const { return config_; }
  const std::vector<uint32_t>& hosts() const { return hosts_; }
  sim::TimePs base_rtt() const { return base_rtt_; }
  uint64_t flows_completed() const {
    uint64_t n = 0;
    for (const auto& lp : lanes_) n += lp->flows_completed;
    return n;
  }
  // The hybrid fluid engine (null unless config.hybrid.enabled).
  analytic::FluidRegion* fluid_region() { return fluid_.get(); }
  // Every live flow across all lanes, in id order (creation order at any
  // lane count). For post-run readers: the no-progress monitor, trace export.
  std::vector<const host::Flow*> AllFlows() const;
  // Every lane's PFC pause windows in (start, node, port) order, the same
  // order at any lane count. Pauses still open have end == -1 until the run
  // is collected.
  std::vector<stats::PfcMonitor::PauseEvent> PauseEvents() const;

  // Lane surface. Lane 0 runs on simulator(); with shards == 1 it is the
  // only lane and owns every node.
  int shards() const { return config_.shards; }
  sim::Simulator& lane_simulator(int lane) { return *lanes_[lane]->sim; }
  // Live flows `lane` owns (those whose source host it runs), creation order.
  const std::vector<host::Flow*>& lane_flows(int lane) const {
    return lanes_[lane]->flow_ptrs;
  }
  // Node ids owned by `lane`, ascending.
  const std::vector<uint32_t>& lane_nodes(int lane) const {
    return lane_node_ids_[lane];
  }
  const topo::Partition& partition() const { return partition_; }
  // Event-storm watchdog, fanned out to every lane simulator.
  void set_event_budget(uint64_t max_total_events);
  bool budget_exhausted() const;
  // Wall-clock watchdog (per-point sweep deadlines), fanned out to every
  // lane simulator. Affects only how far the run gets, never the event order
  // up to the stop — see sim::Simulator::set_wall_deadline.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline);
  bool deadline_exceeded() const;

 private:
  // One logical process: an event arena plus every piece of per-run mutable
  // state for its slice of the fabric (stats, monitors, generators, flow-id
  // counter). Heap-allocated because monitors hand out self-referential
  // observers.
  struct Lane {
    // Lane 0 aliases Experiment::simulator_, lane i > 0 lane_sims_[i - 1].
    sim::Simulator* sim = nullptr;
    // One inbound channel per incoming direction of a cut link.
    struct Inbound {
      std::unique_ptr<net::HandoffChannel> channel;
      net::Node* peer = nullptr;  // consumer-side node
      int peer_port = 0;
      uint32_t key = 0;  // producer link uid: (from_node << 8) | from_port
    };
    std::vector<Inbound> inbound;
    // Barrier markers, one per installed link-script event (install order).
    struct Mark {
      sim::TimePs at = 0;
      uint64_t seq = 0;
      bool applied = false;  // the coordinator ran its SetLinkUp
    };
    std::vector<Mark> marks;
    std::unique_ptr<stats::FctRecorder> fct;
    stats::PercentileTracker short_fct_us;
    std::unique_ptr<stats::QueueMonitor> queue_monitor;
    bool queue_monitor_started = false;
    std::unique_ptr<stats::PfcMonitor> pfc;
    // Lane-replicated traffic sources: the configured ones (Poisson or load
    // phases, trace replay, incast), then incast bursts as they are added.
    std::vector<std::unique_ptr<workload::TrafficSource>> sources;
    // Flows the load phases released, against their shared max_flows cap.
    // Phases run one after another in sim time, so one counter serves them.
    uint64_t phase_flows = 0;
    uint64_t next_flow_id = 1;
    std::vector<host::Flow*> flow_ptrs;  // lane-owned flows, creation order
    uint64_t flows_completed = 0;
    uint64_t flows_failed = 0;
  };
  // One recorded link-script event (coordinator-applied at barriers).
  struct ScriptEvent {
    sim::TimePs at = 0;
    size_t link = 0;
    bool up = false;
  };

  void BuildTopology();
  // Partitions the fabric into config.shards lanes and gives each its
  // simulator, monitors, completion wiring and replicated sources.
  void SetupLanes();
  // Builds the configured TrafficSources of lane `lane`. Their order is a
  // determinism contract (StartWorkload draws their seqs in it): the
  // Poisson generator or the load phases, trace replay, incast.
  void MakeSources(int lane);
  // The sink of a lane source: AddWorkloadFlow on `lane` with `flow_class`.
  workload::FlowSink Sink(workload::FlowClass flow_class, int lane);
  // Builds a packet flow with its CC instance on `lane`'s simulator and
  // lists it in the lane's flows; the caller hands it to the source host.
  std::unique_ptr<host::Flow> NewFlow(Lane& lane, const host::FlowSpec& spec);
  // Admits a fluid-class flow (consumes lane 0's next flow id).
  void AddFluidFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                    sim::TimePs start);
  void StartQueueMonitor(Lane& lane);
  // Warm-checkpoint helpers behind RunToWarmCheckpoint / RestoreWarmState.
  bool QuiescentForWarmCheckpoint(sim::TimePs t) const;
  std::unique_ptr<WarmState> CaptureWarmState() const;
  bool ValidateWarmState(const WarmState& w) const;
  // Where RunRounds stops: after every event at `until` (RunUntil), just
  // before the first event at `until` with its script events unapplied (a
  // warm checkpoint), or once the run has drained (Run).
  enum class RoundEnd { kAt, kBefore, kDrain };
  // The barrier-round loop behind every run mode: runs all lanes to
  // `until`, applying script events at barriers; kDrain continues in 1 ms
  // chunks until every flow settles or the drain cap is reached. A lane's
  // exception ends the run and is rethrown (lowest lane first) once every
  // lane thread has joined.
  void RunRounds(sim::TimePs until, RoundEnd end);
  // Reschedules every pending inbound record with arrival <= horizon onto
  // the lane's own simulator, under the producer's arrival tie-break key.
  void DrainInbound(Lane& lane, sim::TimePs horizon);
  net::SwitchConfig MakeSwitchConfig() const;
  std::unique_ptr<stats::FctRecorder> MakeFctRecorder() const;
  static void SortResultDistributions(ExperimentResult& r);

  ExperimentConfig config_;
  // Every lane's event arena. Declared before topology_ so they outlive the
  // nodes: a host torn down with flows in flight cancels their timers
  // (e.g. ~DcqcnCc) on its lane's simulator.
  std::unique_ptr<sim::Simulator> simulator_;
  std::vector<std::unique_ptr<sim::Simulator>> lane_sims_;  // lanes 1..n-1
  std::unique_ptr<topo::Topology> topology_;
  std::vector<uint32_t> hosts_;
  sim::TimePs base_rtt_ = 0;

  // Pre-checkpoint flows adopted by RestoreWarmState; Collect folds them
  // into flows_created/completed and the trace hash. Empty on cold runs.
  std::vector<WarmFlowRecord> warm_flows_;

  // Parsed once, shared across replicated lane sources.
  std::shared_ptr<const std::vector<workload::TraceRecord>> trace_records_;
  std::unique_ptr<analytic::FluidRegion> fluid_;
  int total_ports_ = 0;

  topo::Partition partition_;
  std::vector<std::unique_ptr<Lane>> lanes_;          // config.shards, >= 1
  size_t configured_sources_ = 0;  // per lane: the sources MakeSources built
  std::vector<std::vector<uint32_t>> lane_node_ids_;  // sized shards
  std::vector<ScriptEvent> script_;                   // install order
};

}  // namespace hpcc::runner
