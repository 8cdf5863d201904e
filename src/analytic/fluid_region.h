// FluidRegion: multi-bottleneck per-RTT fluid engine for hybrid
// fluid/packet co-simulation.
//
// This generalizes the single-link FluidLink map (analytic/fluid.h) into a
// runtime engine over the real topology: each fluid flow is reduced to a
// window trajectory W(t) walked once per coarse RTT tick, coupled across
// every directed link on its designed-topology first-parent path
// (Topology::ShortestPathLinks: the builder's path model on fat-trees, in
// O(path length) per admission; a full-fabric BFS elsewhere). Known fidelity
// limit: that path is deterministic, so on a fat-tree every cross-pod fluid
// flow climbs through agg 0 and core 0 — fluid load is not ECMP-spread.
// Per tick, per directed link of capacity B (bytes servable per tick T):
//
//   pkt    = real bytes the shared egress port transmitted since last tick
//   avail  = max(0, B*T - pkt)                   (capacity left for fluid)
//   queue' = max(0, queue + sum(W) - avail)      (fluid backlog)
//   U      = queue'/(B*T) + min(1, (sum(W) + pkt)/(B*T))
//
// and each flow applies the HPCC per-RTT update (Eqn 2 / Appendix A) against
// the *maximum* U along its path — the multi-bottleneck composition the
// paper's per-link max rule prescribes. Delivered bytes per tick are the
// window scaled by the most-constrained link's service share.
//
// Coupling back to the packet engine is one-way state injection: after each
// tick the fluid backlog and served-rate of every coupled link are pushed
// into the egress Port (Port::SetFluidState), where INT stamps report
// real+fluid queue occupancy and txBytes. Packet-level foreground flows
// therefore see correct congestion signals from fluid background load; fluid
// flows see packet load through the tx-byte deltas. Real queues, PFC and
// drops are NOT modeled for fluid traffic — see docs/ARCHITECTURE.md for the
// exact contract and its monitor implications.
//
// Determinism: ticks run through the normal event queue (one
// sim::Simulator::SchedulePeriodic series, EventClass::kOther tie-breaks),
// every per-tick port read settles fast-path trains before any state is
// written, and all iteration orders are admission/creation order — so hybrid
// runs are byte-identical across --jobs values and both transmit engines
// (pinned by tests/hybrid_test.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpcc::analytic {

struct FluidRegionParams {
  // Tick period (the fluid "RTT"); required > 0. The experiment defaults it
  // to the fabric's MaxBaseRtt — the same T configured into HPCC.
  sim::TimePs tick = 0;
  // HPCC per-RTT map constants (match cc defaults; see analytic/fluid.h).
  double eta = 0.95;
  int max_stage = 5;
  double wai_bytes = 80;
  // Clamp for the qLen injected into INT stamps: the switch buffer bound the
  // IntSanityMonitor enforces (0 = unclamped). The internal fluid backlog is
  // never clamped — only its packet-visible projection.
  int64_t qlen_cap_bytes = 0;
};

class FluidRegion {
 public:
  // Per-flow outcome record, shaped like runner::Experiment::WarmFlowRecord
  // so Collect can fold fluid flows into the TraceHash and flow counts.
  struct FlowRecord {
    uint64_t id = 0;
    uint32_t src = 0;
    uint32_t dst = 0;
    uint64_t size_bytes = 0;
    sim::TimePs start = 0;
    sim::TimePs finish = 0;
    bool done = false;
  };
  // Invoked inside the completing tick's event (deterministic order).
  using CompletionFn = std::function<void(const FlowRecord&, sim::TimePs now)>;

  FluidRegion(sim::Simulator* simulator, topo::Topology* topology,
              const FluidRegionParams& params);

  void set_completion_callback(CompletionFn fn) { completion_ = std::move(fn); }

  // Admits a fluid flow at the current simulation time. `id` comes from the
  // experiment's shared flow-id space (fluid and packet flows interleave in
  // one creation order). Lazily starts the tick series.
  void AddFlow(uint64_t id, uint32_t src, uint32_t dst, uint64_t size_bytes,
               sim::TimePs start);

  // Unfinished flows remain (the experiment's drain loop waits on this).
  bool active() const { return live_flows_ > 0; }
  // All admitted flows, admission order.
  const std::vector<FlowRecord>& flows() const { return records_; }

  uint64_t flows_admitted() const { return records_.size(); }
  uint64_t flows_completed() const { return completed_; }
  uint64_t ticks() const { return ticks_; }
  // Directed links carrying at least one fluid flow so far.
  size_t coupled_links() const { return dlinks_.size(); }
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  int64_t peak_queue_bytes() const { return peak_queue_bytes_; }

 private:
  // One direction of a topology link shared with the packet engine.
  struct DirectedLink {
    net::Port* port = nullptr;
    double cap_per_tick = 0;  // B*T in bytes
    double queue = 0;         // fluid backlog in bytes
    uint64_t last_pkt_tx = 0;
    // Per-tick scratch.
    double sum_w = 0;
    double served = 0;
    double share = 1.0;  // fraction of offered fluid bytes served
    double u = 0;
  };
  struct Flow {
    size_t record = 0;  // index into records_
    double window = 0;
    double remaining = 0;
    int stage = 0;
    bool done = false;
    double window_cap = 0;  // line-rate bound: min path cap_per_tick
    std::vector<uint32_t> links;  // DirectedLink indices, src -> dst order
  };

  // One fluid round; returns false (ending the periodic series) once no
  // live flow remains and every backlog has drained.
  bool Tick();
  uint32_t InternDirectedLink(size_t link_index, bool a_to_b);

  sim::Simulator* simulator_;
  topo::Topology* topology_;
  FluidRegionParams params_;
  double tick_seconds_ = 0;

  static constexpr uint32_t kNotInterned = UINT32_MAX;
  // link*2 + dir -> dlinks_ index (kNotInterned until first use). dlinks_
  // keeps creation order, which every per-tick pass iterates in.
  std::vector<uint32_t> dlink_index_;
  std::vector<DirectedLink> dlinks_;
  std::vector<Flow> flows_;
  std::vector<FlowRecord> records_;
  uint64_t live_flows_ = 0;
  uint64_t completed_ = 0;
  uint64_t ticks_ = 0;
  uint64_t delivered_bytes_ = 0;
  int64_t peak_queue_bytes_ = 0;
  bool ticking_ = false;
  CompletionFn completion_;
};

}  // namespace hpcc::analytic
