// Hot-path workload definitions behind tools/bench_report's event-loop,
// routing-core and macro entries: the steady-state self-rescheduling event
// churn, RTO-style timer churn, the fat-tree route-build fabrics and the
// Fig. 11-style macro configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/experiment.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hpcc::benchgen {

// Steady-state event churn: each callback schedules its successor from
// inside the loop, the shape of port transmissions and pacing wake-ups. The
// closure captures 24 bytes — above std::function's inline buffer on common
// ABIs and matching the simulator's real call sites (e.g.
// Port::StartTransmission captures {Node*, int, Packet*}).
struct SelfReschedule {
  sim::Simulator* s;
  uint64_t* remaining;
  uint64_t salt;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    s->ScheduleIn(sim::Ns(10 + (salt & 7)),
                  SelfReschedule{s, remaining, salt * 6364136223846793005ULL + 1});
  }
};

// Seeds `depth` churn chains with a shared budget of `events` and runs the
// loop dry. Returns the number of events executed.
inline uint64_t RunSteadyChurn(int depth, uint64_t events) {
  sim::Simulator s;
  uint64_t remaining = events;
  for (int i = 0; i < depth; ++i) {
    s.ScheduleAt(sim::Ns(i),
                 SelfReschedule{&s, &remaining, static_cast<uint64_t>(i)});
  }
  return s.Run();
}

// RTO-style timer churn: every armed timer is cancelled and re-armed before
// it fires, measuring Schedule+Cancel pairs, then one drain. Bounded so
// lazily-discarded cancel records cannot accumulate across batches. Returns
// the number of Schedule+Cancel operations.
//
// The per-timer targets are spread by a *pinned* hash of (round, timer) —
// earlier versions re-armed all 256 timers onto one identical timestamp,
// a degenerate single-bucket shape whose measured rate swung several percent
// with unrelated code-layout changes (the PR3 10.17M -> 9.81M timers/s
// "regression" was exactly that). The seeded spread matches the real RTO
// pattern (timers scattered across a window) and makes run-to-run deltas
// attributable to the event loop, which the CI bench gate relies on.
inline constexpr uint64_t kTimerChurnSeed = 0x7f4a7c159e3779b9ULL;

inline uint64_t RunTimerChurn(uint64_t* fired_sink) {
  constexpr int kTimers = 256;
  constexpr int kRounds = 64;
  sim::Simulator s;
  std::vector<sim::EventId> armed(kTimers, sim::kInvalidEvent);
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kTimers; ++t) {
      if (armed[t] != sim::kInvalidEvent) s.Cancel(armed[t]);
      const uint64_t tag = static_cast<uint64_t>(round) << 32 | t;
      const uint64_t h = (tag ^ kTimerChurnSeed) * 6364136223846793005ULL;
      armed[t] = s.ScheduleAt(sim::Us(100 + round) +
                                  static_cast<sim::TimePs>(h >> 44),  // ~1us
                              [fired_sink, tag]() { *fired_sink += tag; });
    }
  }
  s.Run();
  return static_cast<uint64_t>(kTimers) * kRounds;
}

// Fat-tree shapes for the routing-core benchmarks: the k=16 slice matches
// examples/scenarios/fattree16_hadoop_burst.json (1024 hosts), the k=32
// slice matches examples/scenarios/fattree32_websearch.json (8192 hosts).
inline topo::FatTreeOptions FatTreeK16Options() {
  topo::FatTreeOptions o;
  o.pods = 16;
  o.tors_per_pod = 8;
  o.aggs_per_pod = 8;
  o.cores_per_agg = 8;
  o.hosts_per_tor = 8;
  return o;
}

inline topo::FatTreeOptions FatTreeK32Options() {
  topo::FatTreeOptions o;
  o.pods = 32;
  o.tors_per_pod = 16;
  o.aggs_per_pod = 16;
  o.cores_per_agg = 16;
  o.hosts_per_tor = 16;
  return o;
}

// The k=32 payoff macro workload, mirroring the base sweep point of
// examples/scenarios/fattree32_websearch.json (keep the two in sync):
// WebSearch background load and a two-tier link-flap script on the 8192-host
// fabric. The runner schedules the flaps itself so the configuration stays
// a plain ExperimentConfig.
inline runner::ExperimentConfig FatTree32MacroConfig() {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kFatTree;
  cfg.fattree = FatTreeK32Options();
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.25;
  cfg.trace = "websearch";
  cfg.max_flows = 500;
  cfg.duration = sim::Us(100);
  cfg.drain_factor = 10.0;
  cfg.seed = 32;
  return cfg;
}

// Fig. 11-style macro point: incast over background load on a star. Small
// enough to finish in well under a second per run; the figure of merit is
// forwarded packets per wall-second, end to end — a work unit independent
// of the transmit engine (the train fast path executes fewer simulator
// events for the same forwarding work, so events/s would undercount it).
inline runner::ExperimentConfig Fig11MacroConfig(bool fast_path = true) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 17;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.3;
  cfg.trace = "fbhadoop";
  cfg.max_flows = 60;
  cfg.incast = true;
  cfg.incast_opts.fan_in = 16;
  cfg.incast_opts.flow_bytes = 50'000;
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 2.0;
  cfg.fast_path = fast_path;
  return cfg;
}

}  // namespace hpcc::benchgen
