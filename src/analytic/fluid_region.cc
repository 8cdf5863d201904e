#include "analytic/fluid_region.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hpcc::analytic {

FluidRegion::FluidRegion(sim::Simulator* simulator, topo::Topology* topology,
                         const FluidRegionParams& params)
    : simulator_(simulator),
      topology_(topology),
      params_(params),
      dlink_index_(2 * topology->links().size(), kNotInterned) {
  if (params_.tick <= 0) {
    throw std::invalid_argument("FluidRegion requires a positive tick");
  }
  tick_seconds_ =
      static_cast<double>(params_.tick) / static_cast<double>(sim::kPsPerSec);
}

uint32_t FluidRegion::InternDirectedLink(size_t link_index, bool a_to_b) {
  uint32_t& slot = dlink_index_[link_index * 2 + (a_to_b ? 0 : 1)];
  if (slot != kNotInterned) return slot;
  const topo::LinkSpec& l = topology_->links()[link_index];
  DirectedLink d;
  const uint32_t egress_node = a_to_b ? l.a : l.b;
  const int egress_port = a_to_b ? l.port_a : l.port_b;
  d.port = &topology_->node(egress_node).port(egress_port);
  d.cap_per_tick =
      static_cast<double>(l.bps) / 8.0 * tick_seconds_;  // B*T in bytes
  d.last_pkt_tx = d.port->tx_bytes();
  slot = static_cast<uint32_t>(dlinks_.size());
  dlinks_.push_back(d);
  return slot;
}

void FluidRegion::AddFlow(uint64_t id, uint32_t src, uint32_t dst,
                          uint64_t size_bytes, sim::TimePs start) {
  if (src == dst) throw std::invalid_argument("fluid flow src == dst");
  const std::vector<size_t> path = topology_->ShortestPathLinks(src, dst);
  if (path.empty()) {
    throw std::invalid_argument("fluid flow has no path src -> dst");
  }

  Flow f;
  f.record = records_.size();
  f.remaining = static_cast<double>(size_bytes);
  f.window_cap = std::numeric_limits<double>::max();
  // Walk from src to recover each link's traversal direction; the egress
  // side is the endpoint matching the current node.
  uint32_t cur = src;
  f.links.reserve(path.size());
  for (size_t li : path) {
    const topo::LinkSpec& l = topology_->links()[li];
    const bool a_to_b = l.a == cur;
    const uint32_t di = InternDirectedLink(li, a_to_b);
    f.links.push_back(di);
    f.window_cap = std::min(f.window_cap, dlinks_[di].cap_per_tick);
    cur = a_to_b ? l.b : l.a;
  }
  // Line-rate start (RDMA semantics): one path-bottleneck BDP, or the whole
  // flow if smaller.
  f.window = std::min(static_cast<double>(size_bytes), f.window_cap);

  FlowRecord rec;
  rec.id = id;
  rec.src = src;
  rec.dst = dst;
  rec.size_bytes = size_bytes;
  rec.start = start;
  records_.push_back(rec);
  flows_.push_back(std::move(f));
  ++live_flows_;

  if (!ticking_) {
    ticking_ = true;
    // First round one full tick out: the flow's first window of bytes takes
    // one fluid RTT to traverse the region, like FluidLink's first Step.
    simulator_->SchedulePeriodic(simulator_->now() + params_.tick,
                                 params_.tick, [this]() { return Tick(); });
  }
}

bool FluidRegion::Tick() {
  ++ticks_;
  const sim::TimePs now = simulator_->now();

  // Pass 1: read every coupled port's real tx counter. This settles due
  // fast-path train work *before* any fluid state changes, so packets
  // emitted at or before this tick are stamped with the pre-tick fluid
  // state under both transmit engines (the Port::SetFluidState contract).
  for (DirectedLink& d : dlinks_) {
    const uint64_t tx = d.port->tx_bytes();
    const double pkt = static_cast<double>(tx - d.last_pkt_tx);
    d.last_pkt_tx = tx;
    d.sum_w = 0;
    // Stash pkt in `served` until pass 3 reuses the field.
    d.served = pkt;
  }

  // Pass 2: offered fluid load per link.
  for (const Flow& f : flows_) {
    if (f.done) continue;
    for (uint32_t di : f.links) dlinks_[di].sum_w += f.window;
  }

  // Pass 3: link service + utilization (the FluidLink map, minus the
  // capacity consumed by real packets).
  for (DirectedLink& d : dlinks_) {
    const double pkt = d.served;
    const double avail = std::max(0.0, d.cap_per_tick - pkt);
    const double supply = d.queue + d.sum_w;
    d.served = std::min(supply, avail);
    d.share = supply > 0 ? d.served / supply : 1.0;
    d.queue = supply - d.served;
    d.u = d.queue / d.cap_per_tick +
          std::min(1.0, (d.sum_w + pkt) / d.cap_per_tick);
    peak_queue_bytes_ =
        std::max(peak_queue_bytes_, static_cast<int64_t>(std::llround(d.queue)));
  }

  // Pass 4: per-flow delivery + HPCC window update against the path max U.
  for (Flow& f : flows_) {
    if (f.done) continue;
    double u = 0;
    double share = 1.0;
    for (uint32_t di : f.links) {
      u = std::max(u, dlinks_[di].u);
      share = std::min(share, dlinks_[di].share);
    }
    const double delivered = std::min(f.remaining, f.window * share);
    f.remaining -= delivered;
    delivered_bytes_ += static_cast<uint64_t>(std::llround(delivered));
    if (f.remaining <= 0.5) {
      f.done = true;
      --live_flows_;
      ++completed_;
      FlowRecord& rec = records_[f.record];
      rec.finish = now;
      rec.done = true;
      if (completion_) completion_(rec, now);
      continue;
    }
    if (u >= params_.eta || f.stage >= params_.max_stage) {
      f.window =
          f.window * params_.eta / std::max(u, 1e-12) + params_.wai_bytes;
      f.stage = 0;
    } else {
      f.window += params_.wai_bytes;
      ++f.stage;
    }
    f.window = std::clamp(f.window, 1.0, f.window_cap);
  }

  // Pass 5: push the post-tick fluid state into the shared ports. The
  // served rate drives the INT virtual-txBytes interpolation until the next
  // tick; the backlog adds to stamped qLen (clamped to the buffer bound).
  bool backlog = false;
  for (DirectedLink& d : dlinks_) {
    const int64_t qlen = std::llround(d.queue);
    if (qlen > 0) backlog = true;
    const int64_t rate =
        std::llround(d.served / tick_seconds_);  // bytes per second
    d.port->SetFluidState(qlen, rate, params_.qlen_cap_bytes);
  }

  if (live_flows_ == 0 && !backlog) {
    // Idle: zero every port's fluid rate so interpolation stops advancing,
    // and end the periodic series (AddFlow restarts it).
    for (DirectedLink& d : dlinks_) {
      d.port->SetFluidState(0, 0, params_.qlen_cap_bytes);
      d.queue = 0;
    }
    ticking_ = false;
    return false;
  }
  return true;
}

}  // namespace hpcc::analytic
