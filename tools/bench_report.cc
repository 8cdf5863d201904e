// bench_report: self-contained perf harness for the simulator hot paths.
//
// Dependency-free: it builds everywhere and emits a machine-readable JSON
// report, so the repo can keep a committed perf trajectory: run it before a
// perf change to produce BENCH_baseline.json and after to produce
// BENCH_current.json, e.g.
//
//   build/bench_report --label=baseline --out=BENCH_baseline.json
//   build/bench_report --label=current  --out=BENCH_current.json
//
// Benchmarks:
//   event_loop/schedule_run   schedule N events (capture > std::function SBO)
//                             and drain — the simulator's core throughput
//   event_loop/timer_churn    schedule+cancel+reschedule, the RTO/CC-timer
//                             pattern (exercises Cancel and slot reuse)
//   forward_path/packet_cycle data-packet + ACK factory round trip, the
//                             per-hop allocation cost the pool removes
//   micro/hpcc_on_ack         HPCC's per-ACK window update over a 5-hop INT
//                             stack (the hot path a NIC implements in
//                             hardware), with floating-point division
//   micro/hpcc_on_ack_divtable
//                             the same update through the §4.3 reciprocal
//                             table instead of division
//   macro/fig11_incast        Fig. 11-style star incast+load run on the
//                             transmission-train fast path; reports switch-
//                             forwarded packets per wall-second end to end
//                             (a work unit independent of the transmit
//                             engine — the fast path executes fewer events
//                             for the same forwarding work). Invariant-
//                             monitor hook sites are compiled in with no
//                             monitor registered.
//   macro/fig11_nofastpath    the same run on the per-packet reference
//                             engine (--fastpath=off): the committed pair of
//                             these two numbers is the same-host A/B for the
//                             fast path.
//   macro/fig11_checked       the fast-path run with every standard
//                             invariant monitor attached — the measured cost
//                             of always-on checking (used by fuzz/CI, not by
//                             perf runs)
//   macro/fig11_faultoff      the fast-path run with NO fault events,
//                             tracked as its own committed number: the
//                             bench_check gate on it pins the "fault
//                             injection costs nothing when unused" claim
//                             (no corruption-window lookups or backoff
//                             upkeep on the baseline hot path)
//   micro/telemetry_overhead  the fast-path run with telemetry OFF, tracked
//                             as its own committed number: the bench_check
//                             gate on it pins the "no new hot-path branches
//                             when telemetry is disabled" claim
//   macro/fig11_telemetry     the same run with the full telemetry collector
//                             attached (counters + queue/flow samplers, no
//                             file writes) — the measured cost of turning
//                             observability on
//   micro/route_full_k16/k32  one from-scratch RecomputeRoutes of the k=16
//                             (1024-host) / k=32 (8192-host) fat-tree
//   micro/route_incr_k16/k32  one incremental SetLinkUp repair of an
//                             agg-core link (alternating down/up) on the
//                             same fabrics — the incr/full ratio is the
//                             link-event repair speedup headline
//   micro/route_resident_ratio_k32
//                             dense per-(switch, node) table bytes / keyed
//                             next-hop-group routing bytes on the k=32
//                             fabric, x1000 (a memory ratio, not a rate:
//                             higher = better, so the bench_check drop gate
//                             guards compression)
//   macro/fattree32           the fattree32_websearch base point end to end
//                             (8192 hosts, WebSearch load, two-tier link
//                             flaps), forwarded pkts per wall-second
//                             including fabric construction
//   macro/fattree32_shards1/2/4
//                             the same point on 1/2/4 conservative-PDES
//                             execution lanes (link flaps via the sharded-
//                             legal InstallLinkEvent script). All three
//                             forward identical packets — the equivalence
//                             suite pins that — so the committed trio is the
//                             same-host lane-scaling A/B. On a single-core
//                             host the >1 entries measure pure barrier +
//                             handoff overhead; the speedup headline only
//                             shows on hosts with >= `shards` cores.
//   micro/shard_handoff       raw SPSC HandoffChannel push+pop throughput
//                             (records/sec) — the per-record cost of the
//                             cross-lane packet handoff fabric
//   micro/snapshot_restore    one warm-start member run on a small dumbbell
//                             sweep point: adopt the shared fabric snapshot,
//                             replay the checkpoint, simulate only the
//                             post-checkpoint tail (restores/sec; the bench
//                             aborts if the restore silently falls back cold)
//   micro/fluid_tick          hybrid-engine tick cost: 64 standing fluid
//                             flows on the small fat-tree, flow-ticks/sec
//                             (one flow updated for one RTT round)
//   macro/fattree48_hybrid    the fattree48_hybrid payoff point end to end
//                             (27648 hosts, fluid WebSearch background +
//                             64-way packet incast foreground), points per
//                             wall-second including fabric build
//   macro/fattree32_sweep_cold / macro/fattree32_sweep_warm
//                             an 8-point k=32 sweep (grid points differ only
//                             in a post-checkpoint incast axis) end to end on
//                             one worker, with warm-start off resp. on. Cold
//                             pays fabric build + route BFS + the pre-
//                             checkpoint simulation per point; warm pays them
//                             once and restores the other 7 points, so the
//                             points/sec pair is the committed sweep-setup
//                             amortization headline.
//
// Each benchmark self-calibrates: batches repeat until the measured wall time
// reaches --min-time-ms (default 500 ms; --quick drops it to 50 ms for CI
// smoke jobs).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_hotpath.h"
#include "check/monitors.h"
#include "core/hpcc.h"
#include "net/handoff.h"
#include "net/packet.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "tools/cli_util.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchResult {
  std::string name;
  uint64_t items = 0;      // work units processed (events, packets, ...)
  double seconds = 0;      // wall time spent processing them
  const char* unit = "items";
};

// Runs `batch` (which returns the number of items it processed) until the
// accumulated wall time reaches `min_seconds`.
template <typename Batch>
BenchResult RunBench(const std::string& name, const char* unit,
                     double min_seconds, Batch&& batch) {
  BenchResult r;
  r.name = name;
  r.unit = unit;
  // Warm-up batch: touches code and allocator caches, excluded from timing.
  batch();
  const auto t0 = Clock::now();
  do {
    r.items += batch();
    r.seconds = SecondsSince(t0);
  } while (r.seconds < min_seconds);
  return r;
}

// Steady-state event churn (bench_hotpath.h) at a realistic pending-queue
// depth.
uint64_t EventLoopScheduleRunBatch() {
  constexpr int kPending = 512;
  constexpr uint64_t kEvents = 100'000;
  const uint64_t executed = hpcc::benchgen::RunSteadyChurn(kPending, kEvents);
  if (executed < kEvents) std::abort();
  return executed;
}

// RTO-style timer churn (bench_hotpath.h): Schedule+Cancel pairs plus one
// drain per batch.
uint64_t EventLoopTimerChurnBatch() {
  static uint64_t fired = 0;
  return hpcc::benchgen::RunTimerChurn(&fired);
}

uint64_t PacketCycleBatch() {
  constexpr int kPackets = 20'000;
  uint64_t bytes = 0;
  for (int i = 0; i < kPackets; ++i) {
    auto data = hpcc::net::MakeDataPacket(
        /*flow_id=*/7, /*src=*/1, /*dst=*/2,
        /*seq=*/static_cast<uint64_t>(i) * 1000, /*payload_bytes=*/1000,
        /*int_enabled=*/true, /*ecn_capable=*/false);
    auto ack = hpcc::net::MakeAck(*data, data->seq + 1000);
    bytes += static_cast<uint64_t>(data->size_bytes() + ack->size_bytes());
  }
  if (bytes == 1) std::abort();
  return kPackets;
}

// HPCC's per-ACK update (Algorithm 1) on a 100G NIC: every ACK echoes a
// fresh 5-hop INT stack whose tx counters advance by one RTT's worth of
// bytes, so each call runs the full utilization estimate and window update.
uint64_t HpccOnAckBatch(bool div_table) {
  constexpr int kAcks = 20'000;
  hpcc::cc::CcContext ctx;
  ctx.nic_bps = 100'000'000'000;
  ctx.base_rtt = hpcc::sim::Us(13);
  hpcc::core::HpccParams params;
  params.use_div_table = div_table;
  hpcc::core::HpccCc cc(ctx, params);
  hpcc::core::IntStack stack;
  hpcc::sim::TimePs ts = hpcc::sim::Us(1);
  uint64_t tx = 0;
  uint64_t seq = 0;
  uint64_t window_sum = 0;
  for (int i = 0; i < kAcks; ++i) {
    stack.Clear();
    ts += hpcc::sim::Us(1);
    tx += 120'000;
    for (uint32_t hop = 0; hop < 5; ++hop) {
      hpcc::core::IntHop h;
      h.bandwidth_bps = 100'000'000'000;
      h.ts = ts;
      h.tx_bytes = tx + hop;
      h.qlen_bytes = static_cast<int64_t>(seq % 30'000);
      h.switch_id = hop + 1;
      stack.Push(h);
    }
    hpcc::cc::AckInfo info;
    seq += 60'000;
    info.ack_seq = seq;
    info.snd_nxt = seq + 50'000;
    info.int_stack = &stack;
    cc.OnAck(info);
    window_sum += static_cast<uint64_t>(cc.window_bytes());
  }
  if (window_sum == 0) std::abort();
  return kAcks;
}

// Fig. 11-style macro point (bench_hotpath.h): the metric is
// switch-forwarded packets per wall-second, the end-to-end figure of merit
// for the §5 harness.
uint64_t MacroFig11Batch() {
  hpcc::runner::Experiment e(hpcc::benchgen::Fig11MacroConfig());
  auto result = e.Run();
  return result.packets_forwarded;
}

// The identical workload on the per-packet reference engine: the committed
// fastpath-vs-reference pair is a same-host A/B (both runs forward exactly
// the same packets — the determinism suite pins that).
uint64_t MacroFig11NoFastpathBatch() {
  hpcc::runner::Experiment e(
      hpcc::benchgen::Fig11MacroConfig(/*fast_path=*/false));
  auto result = e.Run();
  return result.packets_forwarded;
}

// Telemetry-off pin for the observability layer: identical to
// macro/fig11_incast — no registry, no recorder — but tracked as its own
// committed number so a change that sneaks a branch or a hook registration
// into the telemetry-off hot path trips the bench_check drop gate even if
// the fig11 numbers are re-baselined for an unrelated reason.
uint64_t TelemetryOverheadBatch() {
  hpcc::runner::Experiment e(hpcc::benchgen::Fig11MacroConfig());
  auto result = e.Run();
  return result.packets_forwarded;
}

// The same macro point with the full telemetry collector attached (hook
// counters + queue/flow track samplers, no file writes): the measured cost
// of turning observability on, reported next to the off number so
// docs/OBSERVABILITY.md can quote a tracked figure.
uint64_t MacroFig11TelemetryBatch() {
  hpcc::check::MonitorRegistry registry;
  hpcc::runner::Experiment e(hpcc::benchgen::Fig11MacroConfig());
  registry.set_clock(&e.simulator());
  registry.AttachTo(e.topology(), e.lane_nodes(0));
  hpcc::obs::TelemetryConfig tcfg;
  tcfg.manifest = true;
  tcfg.trace = true;
  hpcc::obs::TelemetrySession session(tcfg, {&registry}, &e);
  session.Start();
  auto result = e.Run();
  registry.Finish(e.simulator().now());
  if (session.recorder().counters().dequeued_packets == 0) std::abort();
  return result.packets_forwarded;
}

// The same macro point with the full standard monitor set attached: the
// price of always-on invariant checking, reported next to the unmonitored
// number so the overhead is a first-class tracked quantity.
uint64_t MacroFig11CheckedBatch() {
  hpcc::check::MonitorRegistry registry;
  hpcc::runner::Experiment e(hpcc::benchgen::Fig11MacroConfig());
  hpcc::check::InstallStandardMonitors(registry, e);
  auto result = e.Run();
  registry.Finish(e.simulator().now());
  if (registry.violation_count() != 0) std::abort();  // bench must run clean
  return result.packets_forwarded;
}

// Fault-off pin for the resilience layer: identical to macro/fig11_incast —
// no fault events, so no corruption windows and no backoff beyond the
// baseline — but tracked as its own committed number so a change that adds
// per-delivery fault-path cost (corruption-window lookups, backoff state
// upkeep) trips the bench_check drop gate even if the fig11 numbers are
// re-baselined for an unrelated reason.
uint64_t MacroFig11FaultOffBatch() {
  hpcc::runner::Experiment e(hpcc::benchgen::Fig11MacroConfig());
  auto result = e.Run();
  if (result.flows_failed != 0 ||
      result.dropped_by_reason[static_cast<int>(
          hpcc::check::DropReason::kCorrupt)] != 0) {
    std::abort();  // the fault-off pin must really be fault-free
  }
  return result.packets_forwarded;
}

// Routing-core fabrics, built lazily (the first RunBench warm-up batch
// absorbs construction) and reused across batches.
struct RouteBenchFabric {
  hpcc::sim::Simulator sim;
  hpcc::topo::FatTreeTopology ft;
  bool down = false;

  explicit RouteBenchFabric(const hpcc::topo::FatTreeOptions& o) {
    ft = hpcc::topo::MakeFatTree(&sim, o);
  }

  uint64_t FullRebuild() {
    ft.topo->RecomputeRoutes();
    return 1;
  }

  // Link 0 is an agg-core link — the heaviest single-link repair (one pod's
  // destinations lose their distance-preserving paths through that core and
  // rebuild; everything else is O(1) group patches).
  uint64_t FlapRepair() {
    down = !down;
    ft.topo->SetLinkUp(0, /*up=*/!down);
    return 1;
  }

  // The repair bench's self-calibrated batch count can leave link 0 in
  // either state; pin it back up so later measurements (the resident-bytes
  // ratio) always see the same table state.
  void EnsureLinkUp() {
    ft.topo->SetLinkUp(0, true);
    down = false;
  }
};

RouteBenchFabric& K16Fabric() {
  static RouteBenchFabric* f =
      new RouteBenchFabric(hpcc::benchgen::FatTreeK16Options());
  return *f;
}

RouteBenchFabric& K32Fabric() {
  static RouteBenchFabric* f =
      new RouteBenchFabric(hpcc::benchgen::FatTreeK32Options());
  return *f;
}

// Routing memory headline on the k=32 fabric: bytes a dense
// per-destination table would hold (vector headers + port payload; heap
// block overhead ignored, so the figure is conservative) over the bytes the
// keyed next-hop-group routing state actually holds
// (Topology::RoutingResidentBytes). Reported as a dimensionless ratio x1000
// so the bench_check drop gate protects compression.
BenchResult RouteResidentRatioK32() {
  K32Fabric().EnsureLinkUp();
  hpcc::topo::Topology& t = *K32Fabric().ft.topo;
  const double dense =
      static_cast<double>(t.switches().size()) *
          static_cast<double>(t.num_nodes()) * sizeof(std::vector<uint16_t>) +
      static_cast<double>(t.RoutingExpandedPortEntries()) * sizeof(uint16_t);
  const double actual = static_cast<double>(t.RoutingResidentBytes());
  BenchResult r;
  r.name = "micro/route_resident_ratio_k32";
  r.unit = "x1000";
  r.items = static_cast<uint64_t>(dense / actual * 1000.0);
  r.seconds = 1.0;
  return r;
}

// The k=32 payoff scenario's base point, end to end: construction (route
// build + analytic base-RTT), WebSearch load, and the two-tier link-flap
// script repaired incrementally mid-run.
uint64_t MacroFatTree32Batch() {
  hpcc::runner::Experiment e(hpcc::benchgen::FatTree32MacroConfig());
  hpcc::topo::Topology& t = e.topology();
  e.simulator().ScheduleAt(hpcc::sim::Us(25), [&t]() { t.SetLinkUp(0, false); });
  e.simulator().ScheduleAt(hpcc::sim::Us(35), [&t]() { t.SetLinkUp(256, false); });
  e.simulator().ScheduleAt(hpcc::sim::Us(60), [&t]() { t.SetLinkUp(0, true); });
  e.simulator().ScheduleAt(hpcc::sim::Us(75), [&t]() { t.SetLinkUp(256, true); });
  auto result = e.Run();
  return result.packets_forwarded;
}

// The same point on N conservative-PDES lanes. The flap script goes through
// InstallLinkEvent (raw ScheduleAt+SetLinkUp is not legal sharded: link state
// is coordinator-owned), which is byte-identical to the ScheduleAt form at
// shards=1. Work unit stays forwarded packets — identical across shard counts
// by the equivalence contract — so items/sec comparisons are pure wall-clock.
uint64_t MacroFatTree32ShardsBatch(int shards) {
  hpcc::runner::ExperimentConfig cfg = hpcc::benchgen::FatTree32MacroConfig();
  cfg.shards = shards;
  hpcc::runner::Experiment e(cfg);
  e.InstallLinkEvent(hpcc::sim::Us(25), 0, false);
  e.InstallLinkEvent(hpcc::sim::Us(35), 256, false);
  e.InstallLinkEvent(hpcc::sim::Us(60), 0, true);
  e.InstallLinkEvent(hpcc::sim::Us(75), 256, true);
  auto result = e.Run();
  return result.packets_forwarded;
}

// Raw cross-lane handoff fabric cost: push/pop cycles through an SPSC
// HandoffChannel, single-threaded (the channel's memory-order protocol is
// identical either way; the concurrent shape is TSan-covered by
// shard_unit_test). Batches alternate fill and drain so chunk allocation,
// retirement and the wrap path are all on the measured path.
uint64_t ShardHandoffBatch() {
  constexpr int kRounds = 16;
  constexpr size_t kPerRound = 4096;
  hpcc::net::HandoffChannel ch(hpcc::net::HandoffChannel::kDefaultChunkCapacity);
  uint64_t popped = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < kPerRound; ++i) {
      ch.Push({static_cast<hpcc::sim::TimePs>(r * kPerRound + i),
               static_cast<hpcc::sim::TimePs>(i), nullptr});
    }
    hpcc::net::HandoffRecord rec;
    while (ch.Pop(&rec)) ++popped;
  }
  if (popped != kRounds * kPerRound) std::abort();
  return popped;
}

// Expands a warm-start sweep base document into `points` runs that differ
// only in the post-checkpoint incast burst (the last event), so every point
// shares one WarmFingerprint and the first run's checkpoint serves the rest.
std::vector<hpcc::scenario::ScenarioRun> MakeWarmSweepRuns(const char* doc,
                                                          int points) {
  const hpcc::scenario::Scenario base = hpcc::scenario::ParseScenarioText(doc);
  std::vector<hpcc::scenario::ScenarioRun> runs;
  for (int i = 0; i < points; ++i) {
    hpcc::scenario::ScenarioRun run;
    run.scenario = base;
    hpcc::workload::IncastOptions& burst =
        run.scenario.events.back().incast;
    burst.fan_in = 4 + 2 * (i % 4);
    burst.flow_bytes = 30'000 + static_cast<uint64_t>(i) * 10'000;
    run.label = base.name + "[burst=" + std::to_string(i) + "]";
    run.params.emplace_back("burst", std::to_string(i));
    runs.push_back(std::move(run));
  }
  return runs;
}

// Small dumbbell point for the restore microbenchmark: background load is
// shut off early, the checkpoint sits at 80% of the horizon, and only a
// short incast tail runs after the restore.
constexpr const char* kSnapshotRestoreDoc = R"({
  "name": "bench_snapshot_restore",
  "topology": {"kind": "dumbbell", "hosts_per_side": 4,
                "host_gbps": 100, "trunk_gbps": 400},
  "cc": {"scheme": "hpcc"},
  "workload": {"load": 0.3, "trace": "websearch", "max_flows": 30},
  "duration_ms": 0.5,
  "seed": 3,
  "events": [
    {"type": "load_phase", "at_us": 80, "load": 0.0},
    {"type": "incast", "at_us": 420, "fan_in": 4, "flow_bytes": 100000}
  ],
  "warm_start": {"until_us": 400}
})";

// One warm member run per batch against pre-seeded caches (the lazy seeding
// run — the checkpoint builder — happens once, absorbed by the warm-up
// batch). Aborts if the member does not actually restore: a silent cold
// fallback would quietly turn this into a build benchmark.
uint64_t SnapshotRestoreBatch() {
  struct Fixture {
    std::vector<hpcc::scenario::ScenarioRun> runs;
    std::shared_ptr<hpcc::scenario::FabricCache> fabrics;
    std::shared_ptr<hpcc::scenario::WarmCache> warms;
  };
  static Fixture* f = []() {
    auto* fx = new Fixture;
    fx->runs = MakeWarmSweepRuns(kSnapshotRestoreDoc, 2);
    fx->fabrics = std::make_shared<hpcc::scenario::FabricCache>();
    fx->warms = std::make_shared<hpcc::scenario::WarmCache>();
    hpcc::scenario::RunOneOptions ro;
    ro.fabric_cache = fx->fabrics;
    ro.warm_cache = fx->warms;
    const auto seed = hpcc::scenario::ScenarioRunner::RunOne(fx->runs[0], ro);
    if (!seed.error.empty() || !seed.warm_built) {
      std::fprintf(stderr,
                   "micro/snapshot_restore: builder run failed to capture "
                   "(error=\"%s\" built=%d)\n",
                   seed.error.c_str(), seed.warm_built ? 1 : 0);
      std::abort();
    }
    return fx;
  }();
  hpcc::scenario::RunOneOptions ro;
  ro.fabric_cache = f->fabrics;
  ro.warm_cache = f->warms;
  const auto r = hpcc::scenario::ScenarioRunner::RunOne(f->runs[1], ro);
  if (!r.error.empty() || !r.warm_restored) {
    std::fprintf(stderr,
                 "micro/snapshot_restore: member run failed to restore "
                 "(error=\"%s\" restored=%d)\n",
                 r.error.c_str(), r.warm_restored ? 1 : 0);
    std::abort();
  }
  return 1;
}

// The k=32 sweep-amortization pair: FB-Hadoop background load generated only
// in the first 40us, whose largest flow drains by ~1.3ms (measured; the
// quiescence gate would refuse an earlier checkpoint), so the checkpoint at
// 1.4ms captures an idle fabric and only the incast tail runs per grid
// point. 8 points on the post-checkpoint axis. Kept structurally in sync
// with examples/scenarios/fattree32_warm_sweep.json.
constexpr const char* kFatTree32WarmSweepDoc = R"({
  "name": "fattree32_warm_sweep",
  "topology": {"kind": "fattree", "pods": 32, "tors_per_pod": 16,
                "aggs_per_pod": 16, "cores_per_agg": 16, "hosts_per_tor": 16,
                "host_gbps": 100, "fabric_gbps": 400, "link_delay_us": 1},
  "cc": {"scheme": "hpcc"},
  "workload": {"load": 0.25, "trace": "fbhadoop", "max_flows": 500},
  "duration_ms": 1.5,
  "seed": 32,
  "events": [
    {"type": "load_phase", "at_us": 40, "load": 0.0},
    {"type": "incast", "at_us": 1425, "fan_in": 8, "flow_bytes": 30000}
  ],
  "warm_start": {"until_us": 1400}
})";

// Whole-sweep wall clock on one worker, warm on or off. Work unit = grid
// points, so the committed cold/warm pair reads directly as the setup
// amortization factor (the simulated tail past the checkpoint is identical
// in both).
uint64_t MacroFatTree32SweepBatch(bool warm) {
  constexpr int kPoints = 8;
  const std::vector<hpcc::scenario::ScenarioRun> runs =
      MakeWarmSweepRuns(kFatTree32WarmSweepDoc, kPoints);
  hpcc::scenario::ScenarioRunnerOptions opts;
  opts.jobs = 1;
  opts.warm = warm;
  const std::vector<hpcc::scenario::SweepRunResult> results =
      hpcc::scenario::ScenarioRunner(opts).RunAll(runs);
  size_t built = 0, restored = 0;
  for (const hpcc::scenario::SweepRunResult& r : results) {
    if (!r.error.empty()) {
      std::fprintf(stderr, "macro/fattree32_sweep: %s failed: %s\n",
                   r.label.c_str(), r.error.c_str());
      std::abort();
    }
    built += r.warm_built ? 1 : 0;
    restored += r.warm_restored ? 1 : 0;
  }
  // Self-validating: warm must actually engage (one builder, the rest
  // restored), cold must not touch the warm machinery at all.
  if (warm && (built != 1 || restored != kPoints - 1)) {
    std::fprintf(stderr,
                 "macro/fattree32_sweep_warm: checkpoint did not engage "
                 "(built=%zu restored=%zu of %d points)\n",
                 built, restored, kPoints);
    std::abort();
  }
  if (!warm && (built != 0 || restored != 0)) {
    std::fprintf(stderr,
                 "macro/fattree32_sweep_cold: warm machinery ran cold-path "
                 "(built=%zu restored=%zu)\n",
                 built, restored);
    std::abort();
  }
  return kPoints;
}

// Raw hybrid-engine tick cost: a standing population of fluid flows on the
// small fat-tree, driven for a fixed simulated span; work unit = flow-ticks
// (one flow updated for one RTT round), the per-tick cost the "fluid
// background is O(flows) per RTT, not O(packets)" claim rests on.
uint64_t MicroFluidTickBatch() {
  constexpr int kFlows = 64;
  hpcc::runner::ExperimentConfig cfg;
  cfg.topology = hpcc::runner::TopologyKind::kFatTree;  // 32 hosts
  cfg.cc.scheme = "hpcc";
  cfg.hybrid.enabled = true;
  cfg.duration = hpcc::sim::Ms(5);
  hpcc::runner::Experiment e(cfg);
  const std::vector<uint32_t>& hosts = e.hosts();
  for (int i = 0; i < kFlows; ++i) {
    // Long-lived (never completing within the span) so the population is
    // constant and every tick does kFlows of work.
    e.AddWorkloadFlow(hpcc::workload::FlowClass::kFluid, /*lane=*/0,
                      hosts[static_cast<size_t>(i) % hosts.size()],
                      hosts[static_cast<size_t>(i + 9) % hosts.size()],
                      /*bytes=*/1'000'000'000, /*start=*/0);
  }
  e.RunUntil(hpcc::sim::Ms(5));
  const uint64_t ticks = e.fluid_region()->ticks();
  if (ticks == 0) std::abort();
  return ticks * kFlows;
}

// The fattree48_hybrid payoff point end to end: 27648-host fabric build plus
// the hybrid run (fluid WebSearch background, 64-way packet incast
// foreground). Work unit = one point: the batch prices route build, fluid
// admission and the packet foreground together, so counting only the
// foreground's forwarded packets would misname what it measures. The
// committed number is the "time to first hybrid result at 27k hosts"
// headline. Kept structurally in sync with
// examples/scenarios/fattree48_hybrid.json (one incast event instead of the
// periodic train, to bound the single-batch runtime).
constexpr const char* kFatTree48HybridDoc = R"({
  "name": "fattree48_hybrid",
  "topology": {"kind": "fattree", "pods": 24, "tors_per_pod": 24,
                "aggs_per_pod": 24, "cores_per_agg": 24, "hosts_per_tor": 48,
                "host_gbps": 100, "fabric_gbps": 400, "link_delay_us": 1},
  "cc": {"scheme": "hpcc"},
  "workload": {"load": 0.25, "trace": "websearch", "max_flows": 2000,
               "flow_class": "fluid",
               "incast": {"fan_in": 64, "flow_bytes": 30000,
                          "first_event_us": 50, "period_us": 200}},
  "hybrid": {},
  "duration_ms": 0.5,
  "drain_factor": 10,
  "seed": 48
})";

uint64_t MacroFatTree48HybridBatch() {
  const hpcc::scenario::Scenario s =
      hpcc::scenario::ParseScenarioText(kFatTree48HybridDoc);
  hpcc::scenario::ScenarioRun run;
  run.scenario = s;
  run.label = s.name;
  const auto r = hpcc::scenario::ScenarioRunner::RunOne(run, {});
  if (!r.error.empty()) {
    std::fprintf(stderr, "macro/fattree48_hybrid failed: %s\n",
                 r.error.c_str());
    std::abort();
  }
  if (r.result.fluid_flows_created == 0 || r.result.packets_forwarded == 0) {
    std::abort();  // both engines must actually have run
  }
  return 1;
}

// The label is user-supplied; escape it so the report stays valid JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out += c;
  }
  return out;
}

void WriteJson(const std::string& path, const std::string& label,
               const std::vector<BenchResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n";
  out << "  \"schema\": \"hpccsim-bench-v1\",\n";
  out << "  \"label\": \"" << JsonEscape(label) << "\",\n";
  out << "  \"benchmarks\": [\n";
  // Three decimals: the macro point/sweep entries run at ~1 item/sec, where
  // an integer rate would round a small slowdown into a 100% drop.
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double per_sec =
        r.seconds > 0 ? static_cast<double>(r.items) / r.seconds : 0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"unit\": \"%s\", \"items\": %llu, "
                  "\"seconds\": %.6f, \"items_per_sec\": %.3f}%s\n",
                  r.name.c_str(), r.unit,
                  static_cast<unsigned long long>(r.items), r.seconds, per_sec,
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_current.json";
  std::string label = "current";
  double min_seconds = 0.5;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (hpcc::cli::ConsumeFlag(argv[i], "--out", &v)) {
      out_path = v;
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--label", &v)) {
      label = v;
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--min-time-ms", &v)) {
      min_seconds =
          hpcc::cli::ParseNumber<double>("--min-time-ms", v) / 1000.0;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      min_seconds = 0.05;
    } else {
      std::fprintf(stderr,
                   "usage: bench_report [--out=FILE] [--label=NAME]\n"
                   "                    [--min-time-ms=MS] [--quick]\n");
      return 2;
    }
  }

  std::vector<BenchResult> results;
  results.push_back(RunBench("event_loop/schedule_run", "events", min_seconds,
                             EventLoopScheduleRunBatch));
  results.push_back(RunBench("event_loop/timer_churn", "timers", min_seconds,
                             EventLoopTimerChurnBatch));
  results.push_back(RunBench("forward_path/packet_cycle", "packets",
                             min_seconds, PacketCycleBatch));
  results.push_back(RunBench("micro/hpcc_on_ack", "acks", min_seconds,
                             []() { return HpccOnAckBatch(false); }));
  results.push_back(RunBench("micro/hpcc_on_ack_divtable", "acks",
                             min_seconds,
                             []() { return HpccOnAckBatch(true); }));
  results.push_back(
      RunBench("macro/fig11_incast", "pkts", min_seconds, MacroFig11Batch));
  results.push_back(RunBench("macro/fig11_nofastpath", "pkts", min_seconds,
                             MacroFig11NoFastpathBatch));
  results.push_back(RunBench("macro/fig11_checked", "pkts", min_seconds,
                             MacroFig11CheckedBatch));
  results.push_back(RunBench("macro/fig11_faultoff", "pkts", min_seconds,
                             MacroFig11FaultOffBatch));
  results.push_back(RunBench("micro/telemetry_overhead", "pkts", min_seconds,
                             TelemetryOverheadBatch));
  results.push_back(RunBench("macro/fig11_telemetry", "pkts", min_seconds,
                             MacroFig11TelemetryBatch));
  results.push_back(RunBench("micro/route_full_k16", "rebuilds", min_seconds,
                             []() { return K16Fabric().FullRebuild(); }));
  results.push_back(RunBench("micro/route_incr_k16", "repairs", min_seconds,
                             []() { return K16Fabric().FlapRepair(); }));
  results.push_back(RunBench("micro/route_full_k32", "rebuilds", min_seconds,
                             []() { return K32Fabric().FullRebuild(); }));
  results.push_back(RunBench("micro/route_incr_k32", "repairs", min_seconds,
                             []() { return K32Fabric().FlapRepair(); }));
  results.push_back(RouteResidentRatioK32());
  results.push_back(
      RunBench("macro/fattree32", "pkts", min_seconds, MacroFatTree32Batch));
  results.push_back(RunBench("macro/fattree32_shards1", "pkts", min_seconds,
                             []() { return MacroFatTree32ShardsBatch(1); }));
  results.push_back(RunBench("macro/fattree32_shards2", "pkts", min_seconds,
                             []() { return MacroFatTree32ShardsBatch(2); }));
  results.push_back(RunBench("macro/fattree32_shards4", "pkts", min_seconds,
                             []() { return MacroFatTree32ShardsBatch(4); }));
  results.push_back(RunBench("micro/shard_handoff", "records", min_seconds,
                             ShardHandoffBatch));
  results.push_back(RunBench("micro/snapshot_restore", "restores",
                             min_seconds, SnapshotRestoreBatch));
  results.push_back(RunBench("micro/fluid_tick", "flow_ticks", min_seconds,
                             MicroFluidTickBatch));
  // Single batch past the warm-up: the work is one fixed 27k-host point, so
  // more batches would only repeat it (same rationale as the sweep pair).
  results.push_back(RunBench("macro/fattree48_hybrid", "points",
                             /*min_seconds=*/0, MacroFatTree48HybridBatch));
  // The sweep pair self-calibrates to exactly one batch past the warm-up:
  // the work is a fixed 8-point grid, so more batches would only repeat it.
  results.push_back(
      RunBench("macro/fattree32_sweep_cold", "points", /*min_seconds=*/0,
               []() { return MacroFatTree32SweepBatch(false); }));
  results.push_back(
      RunBench("macro/fattree32_sweep_warm", "points", /*min_seconds=*/0,
               []() { return MacroFatTree32SweepBatch(true); }));

  for (const BenchResult& r : results) {
    const double per_sec =
        r.seconds > 0 ? static_cast<double>(r.items) / r.seconds : 0;
    std::printf("%-28s %12.2f %s/sec  (%llu in %.3fs)\n", r.name.c_str(),
                per_sec, r.unit, static_cast<unsigned long long>(r.items),
                r.seconds);
  }
  WriteJson(out_path, label, results);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
