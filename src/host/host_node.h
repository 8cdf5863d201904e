// Host NIC model (§4.2): sender TX pipe (flow scheduler, window + pacing,
// retransmission) and receiver RX pipe (per-packet ACK/NACK, INT echo, ECN
// echo, DCQCN CNP generation).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/flat_map.h"
#include "host/flow.h"
#include "host/ooo_ranges.h"
#include "host/scheduler.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/port.h"

namespace hpcc::host {

struct HostConfig {
  int mtu_bytes = net::kPayloadBytes;
  // Safety retransmission timeout (tail loss in lossy mode). PFC-protected
  // runs fire it too when ACKs wait behind pauses longer than it, as in the
  // Fig. 1 and Fig. 2b files; those retransmissions are spurious.
  sim::TimePs rto = sim::Us(1000);
  // Exponential backoff cap: consecutive expiries double the effective RTO
  // up to this value (forward ACK progress resets it to `rto`).
  sim::TimePs rto_max = sim::Us(16'000);
  // Give-up threshold: after this many consecutive timeouts with no forward
  // progress the flow is abandoned and recorded as failed
  // (ExperimentResult::flows_failed). <= 0 disables the give-up.
  int max_retx = 15;
  // GBN NACK rate limit: at most one NACK per interval per flow.
  sim::TimePs nack_interval = sim::Us(10);
  // DCQCN: min gap between CNPs of one flow (50 us, §5.1/DCQCN paper).
  sim::TimePs cnp_interval = sim::Us(50);
  // IRN window in base-RTT BDPs of the NIC port.
  double irn_window_bdp = 1.0;
  sim::TimePs irn_base_rtt = sim::Us(13);
  // The paper's optional INT-efficiency extension (§1: "a trivial and
  // optional extension for efficiency"): request INT only on every Nth data
  // packet of a flow, cutting the 42B padding overhead by ~N while HPCC
  // still reacts multiple times per RTT.
  int int_sample_every = 1;
  // Transmission-train fast path on the NIC ports (see net/port.h).
  bool fast_path = true;
};

class HostNode : public net::Node {
 public:
  HostNode(sim::Simulator* simulator, uint32_t id, std::string name,
           const HostConfig& config);

  void Receive(net::PacketPtr pkt, int in_port) override;
  bool IsSwitch() const override { return false; }
  void OnPortIdle(int port_index) override;
  // The NIC needs the emission boundary while any sender flow still holds
  // data: the OnPortIdle pull paces flows and re-arms their wakes (see
  // FlowScheduler::HasPendingData). A pure receiver NIC (ACK traffic only)
  // and a sender whose flows are fully sent skip the boundary event
  // entirely (see net::Port::FormTrain).
  bool WantsPortIdle(int port_index) const override {
    return static_cast<size_t>(port_index) < schedulers_.size() &&
           schedulers_[static_cast<size_t>(port_index)].HasPendingData();
  }

  // Registers a sender-side flow on this host and schedules its start.
  // The flow must have spec().src == id().
  void AddFlow(std::unique_ptr<Flow> flow);

  void set_flow_done_callback(FlowDoneCallback cb) {
    flow_done_ = std::move(cb);
  }

  const HostConfig& config() const { return config_; }
  Flow* FindFlow(uint64_t flow_id);
  uint64_t data_packets_sent() const { return data_packets_sent_; }
  uint64_t acks_received() const { return acks_received_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Armed pacing wakes across all ports. A warm checkpoint requires zero:
  // ScheduleWake elides a re-arm while an earlier wake is still pending
  // (without drawing a schedule seq), so a restored run missing a stale wake
  // would draw differently than the checkpointing run from there on. With
  // every flow complete, pending wakes exist only in corner cases — the
  // quiescence check simply refuses those checkpoints.
  size_t pending_wake_count() const {
    size_t n = 0;
    for (const sim::EventId e : wake_events_) {
      if (e != sim::kInvalidEvent) ++n;
    }
    return n;
  }
  // Cumulative NIC counters (reporting only; nothing reads them back into
  // the dataplane).
  struct WarmCounters {
    uint64_t data_packets_sent = 0;
    uint64_t acks_received = 0;
  };
  WarmCounters CaptureWarm() const {
    return {data_packets_sent_, acks_received_};
  }
  void RestoreWarm(const WarmCounters& w) {
    data_packets_sent_ = w.data_packets_sent;
    acks_received_ = w.acks_received;
  }

  // Receiver-side per-flow state (public for tests).
  struct RxState {
    uint64_t rcv_nxt = 0;   // cumulative in-order bytes
    OooRanges ooo;          // IRN: [start, end) of out-of-order data
    sim::TimePs last_nack = -1;
    sim::TimePs last_cnp = -1;
  };
  const RxState* FindRxState(uint64_t flow_id) const;

 private:
  // TX pipe.
  void StartFlow(Flow* flow);
  void TrySend(int port_index);
  void ScheduleWake(int port_index, sim::TimePs wake);
  void SendOnePacket(Flow& flow, sim::TimePs now);
  void ArmRto(Flow& flow);
  void OnRto(uint64_t flow_id);
  int PickPort(uint64_t flow_id) const;

  // RX pipe.
  void HandleData(net::PacketPtr pkt);
  void HandleAckLike(net::PacketPtr pkt);
  void SendControl(net::PacketPtr pkt, uint64_t flow_id);
  void CompleteFlow(Flow& flow, sim::TimePs now);
  // Give-up path: marks the flow done+failed and tears it down exactly like
  // CompleteFlow (scheduler removal, CC notification, completion callback).
  void FailFlow(Flow& flow, sim::TimePs now);

  RxState& RxStateFor(uint64_t flow_id);

  HostConfig config_;
  std::vector<FlowScheduler> schedulers_;       // one per port
  std::vector<sim::EventId> wake_events_;       // one pending wake per port
  std::vector<sim::TimePs> wake_targets_;       // time each pending wake fires
  std::vector<std::unique_ptr<Flow>> flows_;    // owned sender flows
  // Flow lookups run once per received ACK/NACK/data packet: open-addressing
  // flat tables (keys biased by +1; flow id 0 is legal in tests) instead of
  // unordered_map's node-per-entry layout. Receiver states live densely in
  // rx_states_, in flow-first-seen order; the table maps flow id -> slot+1.
  core::FlatMap<Flow*> tx_flows_;
  core::FlatMap<uint32_t> rx_index_;
  std::vector<RxState> rx_states_;
  FlowDoneCallback flow_done_;

  uint64_t data_packets_sent_ = 0;
  uint64_t acks_received_ = 0;
};

}  // namespace hpcc::host
