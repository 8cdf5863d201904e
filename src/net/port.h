// Egress port: the transmit side of one direction of a point-to-point link.
//
// A port owns its per-priority egress queues, the serialization state machine
// (one packet on the wire at a time), the PFC pause flags, and the cumulative
// txBytes counter that feeds INT. Switch ports additionally stamp the INT hop
// record at dequeue — the exact semantics of Fig. 5: the record describes the
// queue the packet leaves behind at emission time.
//
// Two transmit engines share this state:
//
//  - The reference engine (fast_path off) is the original per-packet state
//    machine: every packet costs one tx-complete event (busy_ flip + next
//    dequeue) plus one arrival event at the peer.
//
//  - The fast-path engine replaces per-packet tx-completes with transmission
//    trains. When the port can transmit, it commits up to
//    Node::MaxTrainPackets() back-to-back packets in one step: per-packet
//    emission times are computed arithmetically (t_{i+1} = t_i + ser_i), all
//    arrival events are scheduled immediately, and at most ONE train-
//    completion event marks the end of the burst — none at all for a switch
//    port whose queue drained, in which case forwarding a packet through the
//    port costs zero extra events beyond its arrival.
//
//    Emission work (queue removal, txBytes, INT stamp, buffer release, the
//    OnDequeue hook) for packets whose emission time is still in the future
//    is deferred and settled lazily — see SettleDue. Every state observer
//    (queue_bytes, tx_bytes, enqueue, pause/link changes, switch receive,
//    delivery) settles first, so all observed values are byte-identical to
//    the reference engine; the determinism suite in tests/fastpath_test.cc
//    pins `TraceHash` and scenario CSV equality across both engines. When an
//    interaction mid-train could change what the reference engine would have
//    transmitted (pause state change, link failure, a higher-priority
//    enqueue, a PFC pause sent by the owning switch), the unemitted tail of
//    the train is aborted: its arrival events are cancelled (O(1) each) and
//    its packets return to the head of their queues, which restores exact
//    reference state.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "check/hooks.h"
#include "net/handoff.h"
#include "net/queue.h"
#include "net/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace hpcc::net {

class Node;

// Pause bookkeeping callback (wired to stats::PfcMonitor). `depth` is the
// pause-chain depth the PAUSE frame carried (Packet::pause_depth); 0 on a
// resume.
struct PauseObserver {
  std::function<void(uint32_t node_id, int port, int prio, sim::TimePs now,
                     bool paused, int depth)>
      on_change;
};

class Port {
 public:
  Port(Node* owner, int index, int64_t bandwidth_bps,
       sim::TimePs propagation_delay);

  // Wires the far end; called by Topology.
  void ConnectTo(Node* peer, int peer_port_index) {
    peer_ = peer;
    peer_port_ = peer_port_index;
  }

  // Queues a packet for transmission and kicks the transmitter.
  void Enqueue(PacketPtr pkt);
  // Starts transmission if idle and an eligible packet exists; otherwise, if
  // fully drained, asks the owner for more via Node::OnPortIdle.
  void TryTransmit();

  // PFC pause state for this egress direction (set when the *peer* sends a
  // pause frame that arrives at the owning node through this port). A pause
  // keeps the frame's `depth` until the resume; the owning switch stamps
  // depth + 1 on the PAUSEs it sends for traffic held here.
  void SetPaused(int priority, bool paused, sim::TimePs now, int depth);
  bool paused(int priority) const { return paused_[priority]; }
  int pause_depth(int priority) const { return pause_depth_[priority]; }

  // Link failure: a down port transmits nothing (queued packets freeze until
  // repair; packets already serialized onto the wire still arrive).
  void SetLinkUp(bool up);
  bool link_up() const { return link_up_; }

  // INT stamping (switch egress only). `wire_format` quantizes the stamped
  // fields to the Fig. 7 bit widths, wrapping like the hardware counters.
  void EnableIntStamping(uint32_t switch_id, bool wire_format = false) {
    stamp_int_ = true;
    int_switch_id_ = switch_id;
    int_wire_format_ = wire_format;
  }

  // --- Hybrid fluid coupling (analytic/fluid_region.h) -------------------
  // Virtual background state injected by the fluid engine at its RTT ticks.
  // Stamped INT records report the *sum* of real and fluid state: the fluid
  // queue is added to the stamped qLen (clamped to `qlen_cap_bytes`, the
  // switch buffer bound the IntSanityMonitor enforces; 0 = no cap), and a
  // virtual fluid byte counter is added to the stamped txBytes. The counter
  // advances at `rate_Bps` between ticks and is re-based continuously at
  // each update (new base = interpolated value at update time), so the sum
  // stays monotone however rates change. Real queues, PFC and scheduling
  // are untouched: fluid flows occupy bandwidth only in the eyes of
  // INT-reading congestion control.
  //
  // Determinism contract: the fluid engine must read this port's tx_bytes()
  // (which settles due fast-path train items) *before* calling this in the
  // same tick event, so every packet emitted at or before the tick instant
  // is stamped with the pre-tick fluid state under both transmit engines.
  void SetFluidState(int64_t qlen_bytes, int64_t rate_Bps,
                     int64_t qlen_cap_bytes);
  // Virtual fluid byte counter at time `t` (monotone in t).
  uint64_t FluidTxAt(sim::TimePs t) const;

  void set_pause_observer(const PauseObserver* obs) { pause_observer_ = obs; }

  // Selects the transmit engine; flipped only while the port is quiescent
  // (Node::AddPort, SwitchNode::FinishSetup).
  void set_fast_path(bool on) { fast_path_ = on; }
  bool fast_path() const { return fast_path_; }

  // Re-homes the port onto another event arena (sharded runs; see
  // Node::set_simulator). Only while quiescent.
  void set_simulator(sim::Simulator* simulator) { simulator_ = simulator; }

  // Marks this egress as a shard boundary: committed arrivals go into the
  // channel (consumed and rescheduled by the peer's lane) instead of this
  // lane's simulator. Handoff ports always transmit on the single-packet
  // path — committed handoff records are final, never retracted, so the
  // cancellable burst-train tail must never form here.
  void set_handoff(HandoffChannel* channel) { handoff_ = channel; }

  // Performs the emission work of every train item whose emission time has
  // arrived. Cheap no-op when nothing is due; called from every observer of
  // port/queue state so deferred work is never visible. An item emitting at
  // exactly now() settles only once the executing event has passed the
  // reference engine's boundary position (same-timestamp arrivals observe it
  // still queued, exactly as they would under per-packet transmission).
  void SettleDue() {
    if (next_unsettled_emit_ <= SimNow()) SettleDueSlow(false);
  }
  // True while the train holds packets whose emission has not started yet.
  bool has_unsettled() const { return settled_in_train_ < train_.size(); }
  // Cancels the unemitted tail of the train and returns its packets to the
  // head of their queues (exact reference state). Settles due work first.
  void AbortUnemitted();

  int64_t bandwidth_bps() const { return bandwidth_bps_; }
  sim::TimePs propagation_delay() const { return propagation_delay_; }
  // End of the serialization currently on the wire — reference-engine
  // semantics, identical under both transmit engines (the host pacing logic
  // keys wake decisions off it). During a committed multi-packet train this
  // is the emitting item's end, not the train end.
  sim::TimePs free_at() const {
    const_cast<Port*>(this)->SettleDue();
    // Unemitted items pending: the wire is serializing the last settled item
    // (its end is the next emission boundary). Otherwise the newest
    // commitment ends at busy_until_.
    if (has_unsettled()) return train_[settled_in_train_ - 1].end;
    return busy_until_;
  }
  uint64_t tx_bytes() const {
    const_cast<Port*>(this)->SettleDue();
    return tx_bytes_;
  }
  // Trains whose unemitted tail was rewound (PAUSE/link-down mid-train).
  // Fast-path only, so engine-dependent: telemetry reports it under the
  // opt-in "profile" manifest section, never in deterministic output.
  uint64_t train_aborts() const { return train_aborts_; }
  int64_t queue_bytes(int priority) const {
    const_cast<Port*>(this)->SettleDue();
    return queues_.bytes(priority) + unsettled_bytes_[priority];
  }
  int64_t total_queue_bytes() const {
    const_cast<Port*>(this)->SettleDue();
    int64_t t = queues_.total_bytes();
    for (int64_t b : unsettled_bytes_) t += b;
    return t;
  }
  int index() const { return index_; }
  Node* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Cumulative counters a checkpoint must carry: txBytes feeds the INT hop
  // records (wire-format wrapping depends on the absolute count), train
  // aborts is a reporting total. Captured only while the port is quiescent
  // (empty queues, no train, not paused), so the transient serialization
  // state (busy_until_) needs no restore: every comparison against it is
  // already decided at any post-checkpoint time.
  struct WarmCounters {
    uint64_t tx_bytes = 0;
    uint64_t train_aborts = 0;
  };
  WarmCounters CaptureWarm() const { return {tx_bytes(), train_aborts()}; }
  void RestoreWarm(const WarmCounters& w) {
    tx_bytes_ = w.tx_bytes;
    train_aborts_ = w.train_aborts;
  }

 private:
  static constexpr sim::TimePs kNever = std::numeric_limits<sim::TimePs>::max();

  // One committed transmission: the packet, its arithmetic emission window
  // [emit, end), and the already-scheduled arrival event at the peer.
  struct TrainItem {
    PacketPtr pkt;
    sim::TimePs emit = 0;
    sim::TimePs end = 0;
    sim::EventId arrival = sim::kInvalidEvent;
    int8_t prio = 0;
  };

  sim::TimePs SimNow() const;

  // Reference engine.
  void StartTransmission(PacketPtr pkt);

  // Fast-path engine.
  void EnqueueFast(PacketPtr pkt);
  void TryTransmitFast();
  void FormTrain(sim::TimePs now);
  // `force_now` settles items emitting at exactly now() regardless of the
  // executing event's class — used by FormTrain for the item it just
  // started emitting at the current (reference-aligned) position.
  void SettleDueSlow(bool force_now);
  void DeliverFront();
  void EnsureCompletionEvent();
  // Globally unique link identifier for keyed event scheduling.
  uint32_t link_uid() const {
    return (owner_id_ << 8) | static_cast<uint32_t>(index_);
  }
  // Commits one serialized packet: schedules its arrival at the peer, or —
  // on a shard-boundary port — pushes the final handoff record instead.
  void CommitArrival(PacketPtr pkt, sim::TimePs emit, sim::TimePs ser);
  // Emission work shared by both engines: owner hook, txBytes, INT stamp.
  // `queue_bytes_behind` is the data-priority occupancy left behind.
  void EmitPacket(Packet& pkt, sim::TimePs emit_time,
                  int64_t queue_bytes_behind);

  Node* owner_;
  sim::Simulator* simulator_;
  uint32_t owner_id_;
  int index_;
  int64_t bandwidth_bps_;
  sim::TimePs propagation_delay_;
  Node* peer_ = nullptr;
  int peer_port_ = -1;
  bool owner_is_switch_ = false;
  bool fast_path_ = true;

  PriorityQueues queues_;
  std::array<bool, kNumPriorities> paused_{};
  std::array<uint8_t, kNumPriorities> pause_depth_{};  // while paused_
  bool busy_ = false;  // reference engine only
  bool link_up_ = true;
  uint64_t tx_bytes_ = 0;
  uint64_t train_aborts_ = 0;

  // Fast-path train state. Items [0, settled_in_train_) have had their
  // emission work performed; the rest are committed but unemitted.
  // `unsettled_bytes_` is their per-priority byte sum: logically those
  // packets are still queued (queue_bytes adds them back), physically they
  // live here so formation touched each packet exactly once.
  sim::TimePs busy_until_ = 0;
  sim::TimePs next_unsettled_emit_ = kNever;
  Ring<TrainItem> train_;
  size_t settled_in_train_ = 0;
  std::array<int64_t, kNumPriorities> unsettled_bytes_{};
  sim::EventId completion_event_ = sim::kInvalidEvent;
  bool settling_ = false;  // reentrancy guard (see SettleDueSlow)
  std::vector<check::DequeueRecord> burst_records_;

  bool stamp_int_ = false;
  uint32_t int_switch_id_ = 0;
  bool int_wire_format_ = false;

  // Hybrid fluid coupling state (see SetFluidState).
  bool fluid_active_ = false;
  int64_t fluid_qlen_ = 0;
  int64_t fluid_rate_Bps_ = 0;
  int64_t fluid_qlen_cap_ = 0;
  uint64_t fluid_tx_base_ = 0;
  sim::TimePs fluid_tick_start_ = 0;

  const PauseObserver* pause_observer_ = nullptr;

  HandoffChannel* handoff_ = nullptr;  // non-null on shard-boundary egress
};

inline sim::TimePs Port::SimNow() const { return simulator_->now(); }

}  // namespace hpcc::net
