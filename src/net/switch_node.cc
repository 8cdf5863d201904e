#include "net/switch_node.h"

#include <algorithm>
#include <cassert>

#include "core/hash.h"

namespace hpcc::net {

SwitchNode::SwitchNode(sim::Simulator* simulator, uint32_t id,
                       std::string name, const SwitchConfig& config)
    : Node(simulator, id, std::move(name)),
      config_(config),
      buffer_(config.buffer_bytes, /*num_ports=*/1),
      rng_(0x5317c4ed ^ id) {
  ports_fast_path_ = config.fast_path && !config.rcp_enabled;
}

void SwitchNode::FinishSetup() {
  buffer_ = SharedBuffer(config_.buffer_bytes, num_ports());
  pause_sent_.assign(static_cast<size_t>(num_ports()),
                     std::array<bool, kNumPriorities>{});
  train_pending_flag_.assign(static_cast<size_t>(num_ports()), 0);
  train_pending_.clear();
  rcp_.assign(static_cast<size_t>(num_ports()), RcpState{});
  for (int i = 0; i < num_ports(); ++i) {
    // RCP starts each port's fair rate at capacity (processor sharing pulls
    // it down as flows arrive).
    rcp_[i].rate = static_cast<double>(ports_[i]->bandwidth_bps());
  }
  if (config_.int_enabled) {
    for (int i = 0; i < num_ports(); ++i) {
      ports_[i]->EnableIntStamping(id_, config_.int_wire_format);
    }
  }
}

void SwitchNode::SetRoutes(const std::vector<std::vector<uint16_t>>& routes) {
  const auto n = static_cast<uint32_t>(routes.size());
  NextHopTable& table = mutable_routes(/*preserve=*/false);
  table.Reset(n);
  identity_keys_.resize(n);
  for (uint32_t dst = 0; dst < n; ++dst) {
    identity_keys_[dst] = dst;
    table.SetRoute(dst, routes[dst].data(),
                   static_cast<uint32_t>(routes[dst].size()));
  }
  SetRouteKeys(identity_keys_.data(), /*leaf_port=*/nullptr, n, kNoOwnKey);
}

int SwitchNode::RoutePort(const Packet& pkt) const {
  // A corrupt/out-of-range dst must be a visible kNoRoute drop, not a silent
  // out-of-bounds read (an assert here compiles out in Release).
  if (pkt.dst >= num_dsts_) [[unlikely]] return -1;
  const uint32_t key = route_key_[pkt.dst];
  if (key == own_key_) return leaf_port_[pkt.dst];  // one of our own hosts
  const NextHopTable::Group g = route_view_->Lookup(key);
  if (g.size == 0) return -1;  // disconnected (link failures)
  if (g.size == 1) return g.ports[0];
  // Per-flow ECMP: hash is stable for a flow at this switch, so all packets
  // of a flow take one path (no reordering in the common case).
  const uint64_t h =
      core::SplitMix64(pkt.flow_id ^ (static_cast<uint64_t>(id_) << 40));
  return g.ports[h % g.size];
}

std::vector<uint16_t> SwitchNode::RoutePortsTo(uint32_t dst) const {
  if (dst >= num_dsts_) return {};
  const uint32_t key = route_key_[dst];
  if (key == own_key_) return {leaf_port_[dst]};
  return route_view_->PortsOf(key);
}

void SwitchNode::OnTrainPending(int port_index) {
  uint8_t& flag = train_pending_flag_[static_cast<size_t>(port_index)];
  if (flag != 0) return;
  flag = 1;
  train_pending_.push_back(static_cast<uint16_t>(port_index));
}

void SwitchNode::SettleTrains() {
  if (train_pending_.empty()) [[likely]] return;
  size_t w = 0;
  for (size_t i = 0; i < train_pending_.size(); ++i) {
    const uint16_t p = train_pending_[i];
    Port& port = *ports_[p];
    port.SettleDue();
    if (port.has_unsettled()) {
      train_pending_[w++] = p;
    } else {
      train_pending_flag_[p] = 0;
    }
  }
  train_pending_.resize(w);
}

void SwitchNode::AbortTrains() {
  for (const uint16_t p : train_pending_) {
    ports_[p]->AbortUnemitted();
    train_pending_flag_[p] = 0;
  }
  train_pending_.clear();
}

void SwitchNode::Receive(PacketPtr pkt, int in_port) {
  // Deferred train emissions on any port release shared buffer and mutate
  // queue counters; settle them before this packet observes either.
  SettleTrains();
  if (pkt->type == PacketType::kPfcPause ||
      pkt->type == PacketType::kPfcResume) {
    // The frame arrived through `in_port`, so the pause applies to our
    // egress direction of that same link.
    ports_[in_port]->SetPaused(pkt->pause_priority,
                               pkt->type == PacketType::kPfcPause,
                               simulator_->now(), pkt->pause_depth);
    return;
  }
  const int out_port = RoutePort(*pkt);
  if (out_port < 0) {
    ++dropped_packets_;
    ++dropped_by_reason_[static_cast<int>(check::DropReason::kNoRoute)];
    if (check_hooks_ != nullptr) [[unlikely]] {
      check_hooks_->OnDrop(id_, *pkt, check::DropReason::kNoRoute);
    }
    return;
  }
  AdmitAndForward(std::move(pkt), in_port, out_port);
}

void SwitchNode::AdmitAndForward(PacketPtr pkt, int in_port, int out_port) {
  const int64_t bytes = pkt->size_bytes();
  const int prio = pkt->priority;

  bool drop = !buffer_.CanAdmit(bytes);
  check::DropReason reason = check::DropReason::kBufferFull;
  if (!drop && !config_.pfc_enabled && prio == kDataPriority) {
    // Lossy mode: dynamic per-egress threshold (footnote 6, alpha = 1).
    const int64_t threshold = static_cast<int64_t>(
        config_.egress_alpha * static_cast<double>(buffer_.free_bytes()));
    if (ports_[out_port]->queue_bytes(kDataPriority) + bytes > threshold) {
      drop = true;
      reason = check::DropReason::kEgressThreshold;
    }
  }
  if (drop) {
    ++dropped_packets_;
    ++dropped_by_reason_[static_cast<int>(reason)];
    if (check_hooks_ != nullptr) [[unlikely]] {
      check_hooks_->OnDrop(id_, *pkt, reason);
    }
    return;
  }

  buffer_.Admit(in_port, prio, bytes);
  pkt->buffer_ingress_port = in_port;

  if (config_.rcp_enabled && pkt->type == PacketType::kData) {
    rcp_[out_port].rx_bytes += bytes;  // arrival-rate measurement
  }

  // WRED/ECN marking on the egress queue occupancy including this packet.
  if (pkt->ecn_capable && config_.red.enabled) {
    const int64_t q = ports_[out_port]->queue_bytes(kDataPriority) + bytes;
    if (config_.red.ShouldMark(q, ports_[out_port]->bandwidth_bps(), rng_)) {
      pkt->ecn_ce = true;
    }
  }

  ++forwarded_packets_;
  ports_[out_port]->Enqueue(std::move(pkt));

  if (config_.pfc_enabled && prio == kDataPriority) {
    CheckPause(in_port, out_port, prio);
  }
}

void SwitchNode::MaybeUpdateRcp(int port_index) {
  RcpState& st = rcp_[port_index];
  const sim::TimePs now = simulator_->now();
  const sim::TimePs elapsed = now - st.last_update;
  const sim::TimePs d = config_.rcp_rtt;
  if (elapsed < d) return;
  const double c_bps =
      static_cast<double>(ports_[port_index]->bandwidth_bps());
  const double y_bps =
      static_cast<double>(st.rx_bytes) * 8.0 / sim::ToSec(elapsed);
  const double q_bits =
      static_cast<double>(ports_[port_index]->queue_bytes(kDataPriority)) *
      8.0;
  // R <- R [1 + (T/d)(alpha (C - y) - beta q/d)/C]  (RCP control law).
  const double factor =
      1.0 + (sim::ToSec(elapsed) / sim::ToSec(d)) *
                (config_.rcp_alpha * (c_bps - y_bps) -
                 config_.rcp_beta * q_bits / sim::ToSec(d)) /
                c_bps;
  st.rate = std::clamp(st.rate * factor, c_bps * 1e-3, c_bps);
  st.rx_bytes = 0;
  st.last_update = now;
}

void SwitchNode::OnPortDequeue(Packet& pkt, int port_index) {
  if (config_.rcp_enabled && pkt.type == PacketType::kData) {
    MaybeUpdateRcp(port_index);
    pkt.rcp_rate_bps = std::min(
        pkt.rcp_rate_bps, static_cast<int64_t>(rcp_[port_index].rate));
  }
  // Release the shared buffer when the packet starts leaving the switch.
  const int in_port = pkt.buffer_ingress_port;
  if (in_port < 0) return;  // locally generated (PFC frame): never admitted
  buffer_.Release(in_port, pkt.priority, pkt.size_bytes());
  pkt.buffer_ingress_port = -1;
  if (config_.pfc_enabled && pkt.priority == kDataPriority) {
    CheckResume(in_port, pkt.priority);
  }
}

void SwitchNode::CheckPause(int in_port, int out_port, int priority) {
  if (pause_sent_[in_port][priority]) return;
  if (buffer_.ShouldPause(in_port, priority, config_.pfc_alpha)) {
    pause_sent_[in_port][priority] = true;
    const Port& out = *ports_[out_port];
    const int depth =
        out.paused(priority)
            ? std::min(out.pause_depth(priority) + 1, kMaxPauseDepth)
            : 0;
    SendPfc(in_port, priority, /*pause=*/true, depth);
  }
}

void SwitchNode::CheckResume(int in_port, int priority) {
  if (!pause_sent_[in_port][priority]) return;
  if (buffer_.ShouldResume(in_port, priority, config_.pfc_alpha,
                           config_.pfc_resume_ratio)) {
    pause_sent_[in_port][priority] = false;
    SendPfc(in_port, priority, /*pause=*/false, /*depth=*/0);
  }
}

void SwitchNode::SendPfc(int in_port, int priority, bool pause, int depth) {
  if (pause) {
    // From here until the matching RESUME, emission work must run at exact
    // emission instants (a deferred buffer release could delay the RESUME):
    // rewind all committed-but-unemitted train items and drop to
    // single-packet trains (MaxTrainPackets).
    if (pause_out_++ == 0) AbortTrains();
  } else {
    --pause_out_;
  }
  PacketPtr frame = MakePfc(
      pause ? PacketType::kPfcPause : PacketType::kPfcResume, priority, depth);
  // PFC travels upstream: out through the port the congesting traffic came in
  // on. It rides the control priority, so it preempts queued data.
  ports_[in_port]->Enqueue(std::move(frame));
}

}  // namespace hpcc::net
