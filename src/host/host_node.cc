#include "host/host_node.h"

#include <algorithm>
#include <cassert>

#include "core/hash.h"

namespace hpcc::host {

HostNode::HostNode(sim::Simulator* simulator, uint32_t id, std::string name,
                   const HostConfig& config)
    : Node(simulator, id, std::move(name)), config_(config) {
  ports_fast_path_ = config.fast_path;
}

int HostNode::PickPort(uint64_t flow_id) const {
  // Flows (and their reverse-direction control packets) are pinned to one
  // NIC port; hosts with two uplinks (testbed topology) spread flows by hash.
  assert(num_ports() > 0);
  return static_cast<int>(core::SplitMix64(flow_id) %
                          static_cast<uint64_t>(num_ports()));
}

Flow* HostNode::FindFlow(uint64_t flow_id) {
  Flow** f = tx_flows_.Find(flow_id + 1);
  return f == nullptr ? nullptr : *f;
}

const HostNode::RxState* HostNode::FindRxState(uint64_t flow_id) const {
  const uint32_t* slot = rx_index_.Find(flow_id + 1);
  return slot == nullptr ? nullptr : &rx_states_[*slot - 1];
}

HostNode::RxState& HostNode::RxStateFor(uint64_t flow_id) {
  uint32_t& slot = rx_index_[flow_id + 1];
  if (slot == 0) {
    rx_states_.emplace_back();
    slot = static_cast<uint32_t>(rx_states_.size());
  }
  return rx_states_[slot - 1];
}

void HostNode::AddFlow(std::unique_ptr<Flow> flow) {
  assert(flow->spec().src == id_);
  schedulers_.resize(static_cast<size_t>(num_ports()));
  wake_events_.resize(static_cast<size_t>(num_ports()), sim::kInvalidEvent);
  wake_targets_.resize(static_cast<size_t>(num_ports()), 0);

  Flow* f = flow.get();
  f->tx_port = PickPort(f->spec().id);
  f->cur_rto = config_.rto;
  if (f->recovery() == RecoveryMode::kIrn && f->irn_window_bytes <= 0) {
    // IRN uses a fixed window of one BDP (§6, Fig. 12 discussion).
    const net::Port& p = port(f->tx_port);
    f->irn_window_bytes = static_cast<int64_t>(
        config_.irn_window_bdp *
        (static_cast<double>(p.bandwidth_bps()) / 8.0) *
        sim::ToSec(config_.irn_base_rtt));
  }
  flows_.push_back(std::move(flow));
  tx_flows_[f->spec().id + 1] = f;
  schedulers_[static_cast<size_t>(f->tx_port)].Add(f);
  const sim::TimePs start = std::max(f->spec().start_time, simulator_->now());
  simulator_->ScheduleAt(start, [this, f]() { StartFlow(f); });
}

void HostNode::StartFlow(Flow* flow) {
  flow->started = true;
  flow->next_tx_time = simulator_->now();
  flow->last_activity = simulator_->now();
  ArmRto(*flow);
  TrySend(flow->tx_port);
}

void HostNode::OnPortIdle(int port_index) {
  if (static_cast<size_t>(port_index) < schedulers_.size()) {
    TrySend(port_index);
  }
}

void HostNode::TrySend(int port_index) {
  auto idx = static_cast<size_t>(port_index);
  if (idx >= schedulers_.size()) return;
  FlowScheduler& sched = schedulers_[idx];
  net::Port& p = port(port_index);

  // Keep at most one data packet queued at the NIC port so pacing stays
  // accurate; the port pulls the next one via OnPortIdle.
  if (p.queue_bytes(net::kDataPriority) > 0) return;

  Flow* f = sched.PickEligible(simulator_->now());
  if (f != nullptr) {
    SendOnePacket(*f, simulator_->now());
    // Work that is ready at or before the wire frees is the emission
    // boundary's job (WantsPortIdle made the port keep that event, or the
    // queued packet did); only a pacing token maturing after free_at()
    // needs its own wake.
    const sim::TimePs next = sched.NextWakeTime(simulator_->now());
    if (next <= port(port_index).free_at()) return;  // includes next < 0
    ScheduleWake(port_index, next);
    return;
  }
  const sim::TimePs wake = sched.NextWakeTime(simulator_->now());
  if (wake >= 0) ScheduleWake(port_index, wake);
}

void HostNode::ScheduleWake(int port_index, sim::TimePs wake) {
  auto idx = static_cast<size_t>(port_index);
  const sim::TimePs at = std::max(wake, simulator_->now() + 1);
  // Lazy wake: a pending wake at or before `at` re-evaluates eligibility
  // when it fires (a spurious early fire is a cheap no-op), so the common
  // per-ACK call leaves the armed timer alone instead of a Cancel+Schedule
  // pair per packet. Only a wake that needs to move *earlier* reschedules.
  if (wake_events_[idx] != sim::kInvalidEvent) {
    if (wake_targets_[idx] <= at) return;
    simulator_->Cancel(wake_events_[idx]);
  }
  wake_targets_[idx] = at;
  wake_events_[idx] = simulator_->ScheduleAt(at, [this, port_index]() {
    wake_events_[static_cast<size_t>(port_index)] = sim::kInvalidEvent;
    TrySend(port_index);
  });
}

void HostNode::SendOnePacket(Flow& flow, sim::TimePs now) {
  uint64_t seq;
  bool is_rtx = false;
  if (flow.recovery() == RecoveryMode::kIrn && !flow.irn_rtx_queue.empty()) {
    seq = *flow.irn_rtx_queue.begin();
    flow.irn_rtx_queue.erase(flow.irn_rtx_queue.begin());
    flow.irn_marked_lost.erase(seq);
    is_rtx = true;
  } else {
    seq = flow.snd_nxt;
  }
  const int payload = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(config_.mtu_bytes), flow.spec().size_bytes - seq));
  assert(payload > 0);

  // INT sampling: stamp telemetry on the 1st of every `int_sample_every`
  // MTU segments (deterministic in the byte offset so retransmits behave
  // the same way).
  const bool want_int =
      flow.cc().wants_int() &&
      (config_.int_sample_every <= 1 ||
       (seq / static_cast<uint64_t>(config_.mtu_bytes)) %
               static_cast<uint64_t>(config_.int_sample_every) ==
           0);
  auto pkt = net::MakeDataPacket(flow.spec().id, flow.spec().src,
                                 flow.spec().dst, seq, payload, want_int,
                                 flow.cc().wants_ecn());
  pkt->sent_time = now;
  pkt->irn = flow.recovery() == RecoveryMode::kIrn;
  const int wire_bytes = pkt->size_bytes();

  if (!is_rtx) flow.snd_nxt = seq + static_cast<uint64_t>(payload);
  if (flow.recovery() == RecoveryMode::kIrn) {
    flow.irn_inflight_bytes += payload;
  }

  // Pacing token: the next packet may leave one wire-time (at rate R) later.
  int64_t rate = std::max<int64_t>(flow.cc().rate_bps(), 1'000'000);
  flow.next_tx_time =
      std::max(flow.next_tx_time, now) +
      sim::SerializationTime(wire_bytes, rate);

  flow.cc().OnSent(payload, now);
  ++data_packets_sent_;

  port(flow.tx_port).Enqueue(std::move(pkt));
}

void HostNode::ArmRto(Flow& flow) {
  // Lazy re-arm: just move the deadline. The armed event re-checks it and
  // hops forward when it fires early (OnRto) — an RTO interval's worth of
  // ACKs then costs one field write each instead of Cancel+Schedule pairs.
  flow.rto_deadline = simulator_->now() + flow.cur_rto;
  if (flow.rto_event != sim::kInvalidEvent) return;
  const uint64_t id = flow.spec().id;
  flow.rto_event =
      simulator_->ScheduleIn(flow.cur_rto, [this, id]() { OnRto(id); });
}

void HostNode::OnRto(uint64_t flow_id) {
  Flow* f = FindFlow(flow_id);
  if (f == nullptr) return;
  f->rto_event = sim::kInvalidEvent;
  if (f->done || !f->started) return;
  if (f->all_acked()) return;
  if (simulator_->now() < f->rto_deadline) {
    // Re-armed since this event was scheduled: sleep to the new deadline.
    const uint64_t id = flow_id;
    f->rto_event = simulator_->ScheduleAt(f->rto_deadline,
                                          [this, id]() { OnRto(id); });
    return;
  }
  // Real expiry: no forward progress for a full (backed-off) RTO.
  ++f->retx_timeouts;
  ++f->consecutive_rtos;
  f->last_activity = simulator_->now();
  if (config_.max_retx > 0 &&
      f->consecutive_rtos > static_cast<uint32_t>(config_.max_retx)) {
    FailFlow(*f, simulator_->now());
    return;
  }
  // Exponential backoff with a cap; forward ACK progress resets it.
  f->cur_rto = std::min(f->cur_rto * 2, config_.rto_max);
  if (f->recovery() == RecoveryMode::kGoBackN) {
    f->snd_nxt = f->snd_una;  // go-back-N from the first unacked byte
  } else {
    // IRN safety net: requeue every unacked segment and reset the inflight
    // estimate (acknowledgements for them are clearly not coming).
    for (uint64_t s = f->snd_una; s < f->snd_nxt;
         s += static_cast<uint64_t>(config_.mtu_bytes)) {
      if (f->irn_marked_lost.insert(s).second) f->irn_rtx_queue.insert(s);
    }
    f->irn_inflight_bytes = 0;
  }
  ArmRto(*f);
  TrySend(f->tx_port);
}

void HostNode::Receive(net::PacketPtr pkt, int in_port) {
  switch (pkt->type) {
    case net::PacketType::kPfcPause:
    case net::PacketType::kPfcResume:
      ports_[in_port]->SetPaused(pkt->pause_priority,
                                 pkt->type == net::PacketType::kPfcPause,
                                 simulator_->now(), pkt->pause_depth);
      return;
    case net::PacketType::kData:
      HandleData(std::move(pkt));
      return;
    case net::PacketType::kAck:
    case net::PacketType::kNack:
    case net::PacketType::kCnp:
      HandleAckLike(std::move(pkt));
      return;
  }
}

void HostNode::SendControl(net::PacketPtr pkt, uint64_t flow_id) {
  port(PickPort(flow_id)).Enqueue(std::move(pkt));
}

// RX pipe, data direction: per-packet ACK/NACK with INT echo (§3.1 step 5),
// ECN echo, and DCQCN CNP generation.
void HostNode::HandleData(net::PacketPtr pkt) {
  const sim::TimePs now = simulator_->now();
  RxState& rx = RxStateFor(pkt->flow_id);

  // DCQCN: a CE-marked data packet elicits a CNP, at most one per 50 us.
  if (pkt->ecn_ce &&
      (rx.last_cnp < 0 || now - rx.last_cnp >= config_.cnp_interval)) {
    rx.last_cnp = now;
    SendControl(net::MakeCnp(pkt->flow_id, pkt->dst, pkt->src),
                pkt->flow_id);
  }

  const uint64_t seq = pkt->seq;
  const uint64_t end = seq + static_cast<uint64_t>(pkt->payload_bytes);

  if (!pkt->irn) {
    // Go-back-N receiver: no reorder buffer.
    if (seq <= rx.rcv_nxt) {
      rx.rcv_nxt = std::max(rx.rcv_nxt, end);
      SendControl(net::MakeAck(*pkt, rx.rcv_nxt), pkt->flow_id);
    } else if (rx.last_nack < 0 || now - rx.last_nack >= config_.nack_interval) {
      rx.last_nack = now;
      SendControl(net::MakeNack(*pkt, rx.rcv_nxt), pkt->flow_id);
    }
    return;
  }

  // IRN receiver: out-of-order data is kept; every packet is answered.
  if (seq <= rx.rcv_nxt) {
    rx.rcv_nxt = std::max(rx.rcv_nxt, end);
    // Merge any now-contiguous out-of-order ranges.
    rx.rcv_nxt = rx.ooo.MergeFrom(rx.rcv_nxt);
    SendControl(net::MakeAck(*pkt, rx.rcv_nxt), pkt->flow_id);
  } else {
    rx.ooo.Add(seq, end);
    SendControl(net::MakeNack(*pkt, rx.rcv_nxt), pkt->flow_id);
  }
}

// RX pipe, ACK direction: update flow state, feed the CC module (§4.2).
void HostNode::HandleAckLike(net::PacketPtr pkt) {
  Flow* flow = FindFlow(pkt->flow_id);
  if (flow == nullptr || flow->done) return;
  const sim::TimePs now = simulator_->now();
  ++acks_received_;

  if (pkt->type == net::PacketType::kCnp) {
    flow->cc().OnCnp(now);
    if (check_hooks_ != nullptr) [[unlikely]] {
      check_hooks_->OnCcUpdate(flow->spec().id, flow->cc().window_bytes(),
                               flow->cc().rate_bps(), now);
    }
    return;
  }

  const int64_t newly =
      pkt->seq > flow->snd_una
          ? static_cast<int64_t>(pkt->seq - flow->snd_una)
          : 0;
  flow->snd_una = std::max(flow->snd_una, pkt->seq);

  if (flow->recovery() == RecoveryMode::kIrn) {
    flow->irn_inflight_bytes = std::max<int64_t>(
        0, flow->irn_inflight_bytes - pkt->acked_payload_bytes);
    // Drop retransmit requests that cumulative progress made moot.
    while (!flow->irn_rtx_queue.empty() &&
           *flow->irn_rtx_queue.begin() < flow->snd_una) {
      flow->irn_rtx_queue.erase(flow->irn_rtx_queue.begin());
    }
    while (!flow->irn_marked_lost.empty() &&
           *flow->irn_marked_lost.begin() < flow->snd_una) {
      flow->irn_marked_lost.erase(flow->irn_marked_lost.begin());
    }
  }

  if (pkt->type == net::PacketType::kNack) {
    if (flow->recovery() == RecoveryMode::kGoBackN) {
      if (pkt->seq < flow->snd_nxt) flow->snd_nxt = pkt->seq;
    } else if (pkt->has_sack) {
      // IRN: everything between the cumulative ack and the out-of-order
      // arrival is a loss candidate.
      for (uint64_t s = pkt->seq; s < pkt->sack_seq;
           s += static_cast<uint64_t>(config_.mtu_bytes)) {
        if (s < flow->snd_una) continue;
        if (flow->irn_marked_lost.insert(s).second) {
          flow->irn_rtx_queue.insert(s);
        }
      }
    }
  }

  cc::AckInfo info;
  info.now = now;
  info.ack_seq = pkt->seq;
  info.snd_nxt = flow->snd_nxt;
  info.newly_acked = newly;
  info.ecn_echo = pkt->ecn_echo;
  info.rtt = pkt->data_sent_time > 0 ? now - pkt->data_sent_time : 0;
  info.rcp_rate_bps = pkt->rcp_rate_bps;
  info.int_stack = pkt->int_enabled ? &pkt->int_stack : nullptr;
  if (check_hooks_ != nullptr && info.int_stack != nullptr) {
    check_hooks_->OnIntEcho(flow->spec().id, *info.int_stack, now);
  }
  if (pkt->type == net::PacketType::kNack) {
    flow->cc().OnNack(info);
  } else {
    flow->cc().OnAck(info);
  }
  if (check_hooks_ != nullptr) [[unlikely]] {
    check_hooks_->OnCcUpdate(flow->spec().id, flow->cc().window_bytes(),
                             flow->cc().rate_bps(), now);
  }

  if (flow->all_acked()) {
    CompleteFlow(*flow, now);
  } else if (newly > 0) {
    // Forward progress: the backoff schedule starts over.
    flow->consecutive_rtos = 0;
    flow->cur_rto = config_.rto;
    flow->last_activity = now;
    ArmRto(*flow);
  }
  TrySend(flow->tx_port);
}

void HostNode::CompleteFlow(Flow& flow, sim::TimePs now) {
  flow.done = true;
  flow.finish_time = now;
  if (flow.rto_event != sim::kInvalidEvent) {
    simulator_->Cancel(flow.rto_event);
    flow.rto_event = sim::kInvalidEvent;
  }
  flow.cc().OnFlowDone();
  schedulers_[static_cast<size_t>(flow.tx_port)].Compact();
  if (flow_done_) flow_done_(flow, now);
}

void HostNode::FailFlow(Flow& flow, sim::TimePs now) {
  flow.failed = true;
  CompleteFlow(flow, now);
}

}  // namespace hpcc::host
