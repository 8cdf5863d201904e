#include "net/port.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/hash.h"
#include "core/int_header.h"
#include "core/int_wire.h"
#include "net/node.h"

namespace hpcc::net {

Node::Node(sim::Simulator* simulator, uint32_t id, std::string name)
    : simulator_(simulator), id_(id), name_(std::move(name)) {}

Node::~Node() = default;

int Node::AddPort(std::unique_ptr<Port> port) {
  port->set_fast_path(ports_fast_path_);
  ports_.push_back(std::move(port));
  return static_cast<int>(ports_.size()) - 1;
}

void Node::set_simulator(sim::Simulator* simulator) {
  simulator_ = simulator;
  for (std::unique_ptr<Port>& p : ports_) p->set_simulator(simulator);
}

void Node::AddCorruptWindow(int in_port, sim::TimePs start, sim::TimePs end,
                            uint64_t threshold, uint64_t seed) {
  if (corrupt_ == nullptr) corrupt_ = std::make_unique<CorruptState>();
  auto& by_port = corrupt_->by_port;
  if (by_port.size() <= static_cast<size_t>(in_port)) {
    by_port.resize(static_cast<size_t>(in_port) + 1);
  }
  CorruptWindow w;
  w.start = start;
  w.end = end;
  w.threshold = threshold;
  w.seed = seed;
  by_port[static_cast<size_t>(in_port)].push_back(w);
}

bool Node::CorruptDrop(const Packet& pkt, int in_port) {
  // PFC control frames are link-local MAC frames outside the corruption
  // model (losing one would wedge the pause protocol, which has no recovery
  // path). Everything end-to-end — data, ACK/NACK, CNP — is fair game; the
  // transport's RTO machinery recovers it.
  switch (pkt.type) {
    case PacketType::kData:
    case PacketType::kAck:
    case PacketType::kNack:
    case PacketType::kCnp:
      break;
    case PacketType::kPfcPause:
    case PacketType::kPfcResume:
      return false;
  }
  auto& by_port = corrupt_->by_port;
  if (static_cast<size_t>(in_port) >= by_port.size()) return false;
  const sim::TimePs now = simulator_->now();
  for (CorruptWindow& w : by_port[static_cast<size_t>(in_port)]) {
    if (now < w.start || now >= w.end) continue;
    // Counted draw per eligible in-window packet: the stream position
    // depends only on the deterministic per-port arrival order.
    const uint64_t draw = core::SplitMix64(w.seed + w.counter++);
    if (draw >= w.threshold) continue;
    ++corrupt_dropped_packets_;
    if (check_hooks_ != nullptr) [[unlikely]] {
      check_hooks_->OnDrop(id_, pkt, check::DropReason::kCorrupt);
    }
    return true;
  }
  return false;
}

Port::Port(Node* owner, int index, int64_t bandwidth_bps,
           sim::TimePs propagation_delay)
    : owner_(owner),
      simulator_(&owner->simulator()),
      owner_id_(owner->id()),
      index_(index),
      bandwidth_bps_(bandwidth_bps),
      propagation_delay_(propagation_delay),
      owner_is_switch_(owner->IsSwitch()) {
  assert(bandwidth_bps > 0);
}

void Port::Enqueue(PacketPtr pkt) {
  if (fast_path_) {
    EnqueueFast(std::move(pkt));
    return;
  }
  const Packet* raw = pkt.get();  // stays alive inside the queue
  queues_.Enqueue(std::move(pkt));
  if (check::NetHooks* hooks = owner_->check_hooks()) [[unlikely]] {
    hooks->OnEnqueue(owner_->id(), index_, *raw, queues_.bytes(raw->priority));
  }
  TryTransmit();
}

void Port::SetPaused(int priority, bool paused, sim::TimePs now, int depth) {
  if (paused_[priority] == paused) return;
  if (fast_path_) {
    // A pause state change alters which packets the reference engine would
    // pick at the next emission boundary: rewind the committed tail.
    AbortUnemitted();
  }
  paused_[priority] = paused;
  pause_depth_[priority] = paused ? static_cast<uint8_t>(depth) : 0;
  if (pause_observer_ != nullptr && pause_observer_->on_change) {
    pause_observer_->on_change(owner_->id(), index_, priority, now, paused,
                               pause_depth_[priority]);
  }
  if (check::NetHooks* hooks = owner_->check_hooks()) [[unlikely]] {
    hooks->OnPauseChange(owner_->id(), index_, priority, paused, now);
  }
  if (!paused) TryTransmit();
}

void Port::SetLinkUp(bool up) {
  if (link_up_ == up) return;
  if (fast_path_) {
    // Down: unemitted packets freeze back in the queue (in-flight and
    // currently-serializing ones still arrive, as in the reference engine).
    AbortUnemitted();
  }
  link_up_ = up;
  if (up) TryTransmit();
}

void Port::TryTransmit() {
  if (fast_path_) {
    TryTransmitFast();
    return;
  }
  if (busy_ || !link_up_) return;
  PacketPtr pkt = queues_.Dequeue(paused_);
  if (pkt == nullptr) {
    // Fully drained (or everything paused): let the owner top up. Hosts pull
    // the next paced packet here; switches have nothing to add.
    if (queues_.empty()) owner_->OnPortIdle(index_);
    return;
  }
  if (check::NetHooks* hooks = owner_->check_hooks()) [[unlikely]] {
    hooks->OnDequeue(owner_->id(), index_, *pkt, queues_.bytes(pkt->priority));
  }
  StartTransmission(std::move(pkt));
}

// Emission bookkeeping shared by both engines, at the packet's (possibly
// reconstructed) emission instant. `qlen_data_behind` is the data-priority
// occupancy the packet leaves behind — physical plus logically-queued
// unemitted train bytes, which is exactly what the reference engine reads.
void Port::EmitPacket(Packet& pkt, sim::TimePs emit_time,
                      int64_t qlen_data_behind) {
  tx_bytes_ += static_cast<uint64_t>(pkt.size_bytes());

  // INT stamping at emission (§3.1): the record reports the egress state the
  // packet observed, including the queue it leaves behind. Under hybrid
  // co-simulation the fluid engine's virtual occupancy and served bytes are
  // folded in here — this is the entire packet-visible surface of a fluid
  // flow (see SetFluidState).
  if (stamp_int_ && pkt.int_enabled && pkt.type == PacketType::kData) {
    uint64_t tx_for_int = tx_bytes_;
    int64_t qlen_for_int = qlen_data_behind;
    if (fluid_active_) [[unlikely]] {
      tx_for_int += FluidTxAt(emit_time);
      qlen_for_int += fluid_qlen_;
      if (fluid_qlen_cap_ > 0)
        qlen_for_int = std::min(qlen_for_int, fluid_qlen_cap_);
    }
    core::IntHop hop;
    hop.bandwidth_bps = bandwidth_bps_;
    hop.ts = emit_time;
    hop.tx_bytes = tx_for_int;
    hop.qlen_bytes = qlen_for_int;
    hop.switch_id = owner_->id();
    if (int_wire_format_) {
      // Quantize and wrap to the Fig. 7 field widths (see core/int_wire.h);
      // values stay in natural units so consumers share one representation.
      hop.ts = ((emit_time / sim::kPsPerNs) & core::kTsMask) * sim::kPsPerNs;
      hop.tx_bytes = (hop.tx_bytes / core::kTxBytesUnit & core::kTxMask) *
                     core::kTxBytesUnit;
      const int64_t qu =
          std::min<int64_t>(hop.qlen_bytes / core::kQlenUnit, core::kQlenMask);
      hop.qlen_bytes = qu * core::kQlenUnit;
    }
    pkt.int_stack.Push(hop);
  }

  // Owner hook last (switch: release shared buffer, maybe send PFC resume —
  // which can recursively enqueue a control frame, so all emission state is
  // already consistent by this point).
  owner_->OnPortDequeue(pkt, index_);
}

uint64_t Port::FluidTxAt(sim::TimePs t) const {
  if (!fluid_active_) return 0;
  const sim::TimePs dt = t > fluid_tick_start_ ? t - fluid_tick_start_ : 0;
  // 64x64 -> 128-bit product: rate * dt overflows uint64 for 400 Gbps links
  // over ms-scale gaps, and the stamped counter must never jump backwards.
  const unsigned __int128 extra =
      static_cast<unsigned __int128>(fluid_rate_Bps_) *
      static_cast<unsigned __int128>(dt) / sim::kPsPerSec;
  return fluid_tx_base_ + static_cast<uint64_t>(extra);
}

void Port::SetFluidState(int64_t qlen_bytes, int64_t rate_Bps,
                         int64_t qlen_cap_bytes) {
  const sim::TimePs now = SimNow();
  // Re-base continuously: the new segment starts where the old one ends, so
  // FluidTxAt is monotone across rate changes.
  fluid_tx_base_ = FluidTxAt(now);
  fluid_tick_start_ = now;
  fluid_rate_Bps_ = std::max<int64_t>(0, rate_Bps);
  fluid_qlen_ = std::max<int64_t>(0, qlen_bytes);
  fluid_qlen_cap_ = qlen_cap_bytes;
  fluid_active_ = true;
}

void Port::StartTransmission(PacketPtr pkt) {
  assert(peer_ != nullptr && "port not connected");
  busy_ = true;
  const sim::TimePs now = simulator_->now();
  const sim::TimePs ser =
      sim::SerializationTime(pkt->size_bytes(), bandwidth_bps_);
  busy_until_ = now + ser;  // keeps free_at() engine-independent

  EmitPacket(*pkt, now, queues_.bytes(kDataPriority));

  // Arrival at the peer after serialization + propagation, keyed by the
  // emission instant (see sim::EventClass).
  CommitArrival(std::move(pkt), now, ser);

  // Transmitter frees up after serialization (boundary class: fires after
  // every same-timestamp arrival, before everything else).
  simulator_->ScheduleBoundary(now + ser, link_uid(), [this]() {
    busy_ = false;
    TryTransmit();
  });
}

void Port::CommitArrival(PacketPtr pkt, sim::TimePs emit, sim::TimePs ser) {
  if (handoff_ != nullptr) {
    // Shard boundary: the record is final (single-packet transmit paths
    // never cancel a committed arrival), so ownership moves raw into the
    // channel; the consumer lane re-wraps it on delivery.
    handoff_->Push(HandoffRecord{emit + ser + propagation_delay_, emit,
                                 pkt.release()});
    return;
  }
  // The closure owns the packet (sim::Callback moves move-only captures
  // inline), so a run torn down with packets still on the wire releases
  // them back to the pool instead of leaking — LeakSanitizer catches the
  // raw-pointer variant.
  Node* peer = peer_;
  const int peer_port = peer_port_;
  simulator_->ScheduleArrival(emit + ser + propagation_delay_, emit,
                              link_uid(),
                              [peer, peer_port, pkt = std::move(pkt)]() mutable {
                                peer->Deliver(std::move(pkt), peer_port);
                              });
}

// ---- fast-path engine -------------------------------------------------------

void Port::EnqueueFast(PacketPtr pkt) {
  SettleDue();
  // Control preemption: the reference engine re-picks the highest priority at
  // every emission boundary, so a newcomer must not wait behind committed
  // lower-priority train items.
  for (int p = pkt->priority + 1; p < kNumPriorities; ++p) {
    if (unsettled_bytes_[p] > 0) {
      AbortUnemitted();
      break;
    }
  }
  const Packet* raw = pkt.get();
  queues_.Enqueue(std::move(pkt));
  if (check::NetHooks* hooks = owner_->check_hooks()) [[unlikely]] {
    hooks->OnEnqueue(owner_->id(), index_, *raw,
                     queues_.bytes(raw->priority) +
                         unsettled_bytes_[raw->priority]);
  }
  TryTransmitFast();
}

void Port::TryTransmitFast() {
  SettleDue();
  if (!link_up_) return;
  if (completion_event_ != sim::kInvalidEvent) return;  // boundary will kick
  const sim::TimePs now = simulator_->now();
  if (now < busy_until_) {
    // Mid-serialization. Make sure the emission boundary wakes us if there is
    // queued work (host ports always have a completion event pending).
    if (!queues_.empty()) EnsureCompletionEvent();
    return;
  }
  if (now == busy_until_ &&
      sim::Simulator::BoundarySeq(link_uid()) > simulator_->executing_seq()) {
    // The reference engine's tx-complete for the previous emission fires at
    // exactly this timestamp and has not been reached yet — only possible
    // inside a lower-uid boundary event, since boundaries sort before
    // arrivals and everything else. Emitting here would move the emission
    // ahead of that boundary position; defer to a boundary event at `now`,
    // which sorts exactly where the tx-complete would.
    if (!queues_.empty()) EnsureCompletionEvent();
    return;
  }
  FormTrain(now);
}

void Port::FormTrain(sim::TimePs now) {
  assert(peer_ != nullptr && "port not connected");
  assert(settled_in_train_ == train_.size() && "forming over unemitted items");
  PacketPtr first = queues_.Dequeue(paused_);
  if (first == nullptr) {
    if (queues_.empty()) owner_->OnPortIdle(index_);
    return;
  }
  check::NetHooks* const hooks = owner_->check_hooks();

  if (handoff_ != nullptr || !queues_.HasEligible(paused_) ||
      owner_->MaxTrainPackets() == 1) {
    // Single-packet transmission — the common, uncongested case. Shaped
    // exactly like the reference engine's StartTransmission (the arrival
    // closure owns the packet; no train-buffer traffic), minus the
    // tx-complete event: the emission boundary is busy_until_, and a
    // completion event exists only if someone needs the boundary kick.
    if (hooks != nullptr) [[unlikely]] {
      hooks->OnDequeue(owner_->id(), index_, *first,
                       queues_.bytes(first->priority));
    }
    const sim::TimePs ser =
        sim::SerializationTime(first->size_bytes(), bandwidth_bps_);
    busy_until_ = now + ser;
    EmitPacket(*first, now, queues_.bytes(kDataPriority));
    CommitArrival(std::move(first), now, ser);
    if (!queues_.empty() || owner_->WantsPortIdle(index_)) {
      EnsureCompletionEvent();
    }
    return;
  }

  // Burst train: commit up to max_items back-to-back packets with
  // arithmetically computed emission times. Emission work for future items
  // is settled lazily (SettleDue).
  const int max_items = owner_->MaxTrainPackets();
  sim::TimePs t = now;
  int n = 0;
  for (PacketPtr pkt = std::move(first); pkt != nullptr;
       pkt = ++n < max_items ? queues_.Dequeue(paused_) : nullptr) {
    TrainItem it;
    it.prio = static_cast<int8_t>(pkt->priority);
    it.emit = t;
    it.end = t + sim::SerializationTime(pkt->size_bytes(), bandwidth_bps_);
    t = it.end;
    unsettled_bytes_[it.prio] += pkt->size_bytes();
    it.arrival =
        simulator_->ScheduleArrival(it.end + propagation_delay_, it.emit,
                                    link_uid(), [this]() { DeliverFront(); });
    it.pkt = std::move(pkt);
    train_.push_back(std::move(it));
  }
  busy_until_ = t;
  next_unsettled_emit_ = now;  // the first new item emits immediately
  SettleDueSlow(/*force_now=*/true);
  if (has_unsettled() && owner_is_switch_) owner_->OnTrainPending(index_);

  // One train-completion event at most. A port whose owner wants the
  // boundary kick (host NICs with active sender flows: OnPortIdle pulls the
  // next paced packet) or that still holds queued packets needs it; a
  // drained port otherwise needs none — forwarding then costs zero events
  // beyond the arrivals. A stale completion from a train formed at this
  // same timestamp by an earlier event is cancelled so boundaries never
  // double-fire.
  if (completion_event_ != sim::kInvalidEvent) {
    simulator_->Cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (!queues_.empty() || owner_->WantsPortIdle(index_)) {
    EnsureCompletionEvent();
  }
}

void Port::EnsureCompletionEvent() {
  if (completion_event_ != sim::kInvalidEvent) return;
  completion_event_ =
      simulator_->ScheduleBoundary(busy_until_, link_uid(), [this]() {
        completion_event_ = sim::kInvalidEvent;
        TryTransmitFast();
      });
}

void Port::SettleDueSlow(bool force_now) {
  if (settling_) return;  // reentry via OnPortDequeue -> PFC frame enqueue
  settling_ = true;
  check::NetHooks* const hooks = owner_->check_hooks();
  const sim::TimePs now = simulator_->now();
  // An item emitting at exactly `now` emits at this port's boundary
  // position. Boundaries sort first at a timestamp, so almost every reader
  // (arrivals, timers, samplers) observes it already emitted; only an
  // earlier-uid boundary event runs before it and must still see it queued.
  const bool settle_now_items =
      force_now || simulator_->executing_seq() >
                       sim::Simulator::BoundarySeq(link_uid());
  if (hooks != nullptr) [[unlikely]] burst_records_.clear();
  while (settled_in_train_ < train_.size()) {
    TrainItem& it = train_[settled_in_train_];
    if (it.emit > now || (it.emit == now && !settle_now_items)) break;
    ++settled_in_train_;
    Packet& pkt = *it.pkt;
    unsettled_bytes_[it.prio] -= pkt.size_bytes();
    if (hooks != nullptr) [[unlikely]] {
      burst_records_.push_back(
          {&pkt, queues_.bytes(it.prio) + unsettled_bytes_[it.prio]});
    }
    EmitPacket(pkt, it.emit,
               queues_.bytes(kDataPriority) + unsettled_bytes_[kDataPriority]);
  }
  next_unsettled_emit_ =
      has_unsettled() ? train_[settled_in_train_].emit : kNever;
  if (hooks != nullptr && !burst_records_.empty()) [[unlikely]] {
    hooks->OnDequeueBurst(owner_->id(), index_, burst_records_.data(),
                          burst_records_.size());
  }
  settling_ = false;
}

void Port::DeliverFront() {
  SettleDue();
  assert(!train_.empty() && settled_in_train_ > 0 &&
         "delivery of an unemitted train item");
  TrainItem it = train_.pop_front();
  --settled_in_train_;
  peer_->Deliver(std::move(it.pkt), peer_port_);
}

void Port::AbortUnemitted() {
  SettleDue();
  if (!has_unsettled()) return;
  ++train_aborts_;
  while (train_.size() > settled_in_train_) {
    TrainItem it = train_.pop_back();
    simulator_->Cancel(it.arrival);
    unsettled_bytes_[it.prio] -= it.pkt->size_bytes();
    queues_.Requeue(std::move(it.pkt));
  }
  next_unsettled_emit_ = kNever;
  // The settled tail item is still serializing (its arrival, at end +
  // propagation, is in the future), so it is still in the train buffer.
  assert(settled_in_train_ > 0);
  busy_until_ = train_[settled_in_train_ - 1].end;
  if (completion_event_ != sim::kInvalidEvent) {
    simulator_->Cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  EnsureCompletionEvent();
}

}  // namespace hpcc::net
