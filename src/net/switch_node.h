// Output-queued shared-buffer switch with ECMP, WRED/ECN, PFC and INT.
//
// Pipeline per received data packet (§3.1 / §4.1):
//   route (ECMP hash) -> shared-buffer admission (tail drop, or dynamic
//   egress threshold in lossy mode) -> WRED/ECN mark -> egress enqueue ->
//   per-ingress PFC threshold check (maybe PAUSE upstream).
// At dequeue the egress port stamps the INT hop record and the buffer is
// released, possibly sending RESUME upstream.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ecn.h"
#include "net/nexthop.h"
#include "net/node.h"
#include "net/port.h"
#include "net/shared_buffer.h"
#include "sim/rng.h"

namespace hpcc::net {

struct SwitchConfig {
  int64_t buffer_bytes = 32LL * 1024 * 1024;  // 32 MB (§5.1)

  bool pfc_enabled = true;
  double pfc_alpha = 0.11;          // pause above 11 % of free buffer (§5.1)
  double pfc_resume_ratio = 0.85;   // hysteresis for RESUME

  RedConfig red;                    // ECN marking (disabled by default)

  // Lossy mode (Fig. 12 footnote 6): per-egress dynamic drop threshold
  // `egress_alpha * free_bytes`; only used when pfc_enabled == false.
  double egress_alpha = 1.0;

  // Transmission-train fast path on the egress ports (see net/port.h).
  // Disabled automatically when RCP is enabled: the RCP controller samples
  // time-dependent state at every dequeue, which deferred emission would
  // skew. `--fastpath=off` at the CLI/scenario level clears it everywhere.
  bool fast_path = true;

  bool int_enabled = true;          // stamp INT on data packets that ask
  // Hardware-faithful INT: quantize/wrap the stamped fields to the Fig. 7
  // wire widths (24-bit ns timestamp, 20-bit 128B tx counter, 16-bit 80B
  // queue length). Senders must then use wrap-safe deltas
  // (HpccParams::wire_format).
  bool int_wire_format = false;

  // RCP (§3.4/§6 baseline): switches compute a per-port fair rate and stamp
  // min(R) into data packets. Needs an RTT estimate `rcp_rtt` (set by the
  // runner from the measured base RTT).
  bool rcp_enabled = false;
  double rcp_alpha = 0.4;
  double rcp_beta = 0.226;
  sim::TimePs rcp_rtt = sim::Us(13);
};

class SwitchNode : public Node {
 public:
  SwitchNode(sim::Simulator* simulator, uint32_t id, std::string name,
             const SwitchConfig& config);

  void Receive(PacketPtr pkt, int in_port) override;
  bool IsSwitch() const override { return true; }
  void OnPortDequeue(Packet& pkt, int port_index) override;

  // Fast-path policy: multi-packet trains are allowed only while no PFC
  // pause is outstanding from this switch, so a deferred buffer release can
  // never delay a RESUME (emission work of a single-packet train runs
  // synchronously at its emission instant, like the reference engine).
  int MaxTrainPackets() const override {
    return pause_out_ == 0 ? kMaxTrainPackets : 1;
  }
  void OnTrainPending(int port_index) override;

  // Routing: interned ECMP next-hop groups keyed by route key (see
  // net/nexthop.h). A packet's dst node id maps to its key through a
  // dst -> key array every switch of a topology shares; hosts behind one
  // switch share that switch's key, and the switch that owns the key
  // delivers to them through a per-host port array instead of its table.
  // Topology owns both arrays and the table contents: it resets/rebuilds
  // the table in RecomputeRoutes and patches single groups during
  // incremental link-event repair.
  //
  // Copy-on-write: the read view may alias an immutable fabric-snapshot
  // table shared across sweep jobs (AdoptRouteView). Readers always go
  // through routes(); the first mutation must go through mutable_routes(),
  // which detaches this switch onto a private copy — link-event scripts
  // fork only the switches they actually touch.
  const NextHopTable& routes() const { return *route_view_; }
  // Detaches from a shared view (copying it unless `preserve` is false —
  // callers about to Reset skip the copy) and returns the private table.
  NextHopTable& mutable_routes(bool preserve = true) {
    if (route_view_ != &routes_) {
      if (preserve) routes_ = *route_view_;
      route_view_ = &routes_;
    }
    return routes_;
  }
  // Points the read view at an externally-owned immutable table (the caller
  // guarantees it outlives this switch or is replaced first).
  void AdoptRouteView(const NextHopTable* shared) { route_view_ = shared; }
  bool routes_shared() const { return route_view_ != &routes_; }

  // `own_key` of a switch that owns no route key (no leaf host on it).
  static constexpr uint32_t kNoOwnKey = 0xffffffffu;
  // Installs the shared dst -> key map (`num_dsts` entries) and the
  // dst -> last-hop port array; the caller owns both and keeps them valid
  // while this switch forwards. Destinations whose key is `own_key` leave
  // through `leaf_port[dst]`; every other key is looked up in the table.
  void SetRouteKeys(const uint32_t* route_key, const uint16_t* leaf_port,
                    uint32_t num_dsts, uint32_t own_key) {
    route_key_ = route_key;
    leaf_port_ = leaf_port;
    num_dsts_ = num_dsts;
    own_key_ = own_key;
  }
  // Convenience for tests/benches that wire a switch by hand: installs one
  // candidate list per destination node id under an identity key map.
  void SetRoutes(const std::vector<std::vector<uint16_t>>& routes);
  // ECMP egress port for pkt.dst, or -1 when there is no route — including
  // an out-of-range dst, which is a checked (hook-visible kNoRoute) drop
  // rather than undefined behavior on a corrupt packet.
  int RoutePort(const Packet& pkt) const;
  // The resolved candidate list toward `dst` (the ports RoutePort hashes
  // over; empty when there is no route). Tests and the route oracle.
  std::vector<uint16_t> RoutePortsTo(uint32_t dst) const;

  // Called by Topology after ports are wired.
  void FinishSetup();

  const SwitchConfig& config() const { return config_; }
  SharedBuffer& buffer() { return buffer_; }
  // Runner calls this after measuring the fabric's base RTT.
  void set_rcp_rtt(sim::TimePs rtt) { config_.rcp_rtt = rtt; }
  // Current RCP fair rate of a port (tests).
  int64_t rcp_rate(int port) const {
    return static_cast<int64_t>(rcp_[port].rate);
  }
  uint64_t dropped_packets() const { return dropped_packets_; }
  // Per-reason breakdown; sums to dropped_packets().
  uint64_t dropped_by_reason(check::DropReason reason) const {
    return dropped_by_reason_[static_cast<int>(reason)];
  }
  uint64_t forwarded_packets() const { return forwarded_packets_; }

  // RCP per-egress-port controller state (public so warm checkpoints can
  // carry it).
  struct RcpState {
    double rate = 0;
    sim::TimePs last_update = 0;
    int64_t rx_bytes = 0;  // data bytes admitted toward this port
  };

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Per-switch mutable state that survives a quiescent instant: the WRED
  // marking RNG (shared across all packets this switch marks), the RCP
  // controller state, and the drop/forward counters. Buffer occupancy,
  // pause bookkeeping and train state are all empty at a checkpoint (the
  // quiescence check guarantees it), so they restore to their initial
  // values for free.
  struct WarmState {
    sim::Rng rng;
    std::vector<RcpState> rcp;
    uint64_t dropped_packets = 0;
    uint64_t dropped_by_reason[check::kNumDropReasons] = {};
    uint64_t forwarded_packets = 0;
  };
  WarmState CaptureWarm() const {
    WarmState w;
    w.rng = rng_;
    w.rcp = rcp_;
    w.dropped_packets = dropped_packets_;
    for (int i = 0; i < check::kNumDropReasons; ++i) {
      w.dropped_by_reason[i] = dropped_by_reason_[i];
    }
    w.forwarded_packets = forwarded_packets_;
    return w;
  }
  void RestoreWarm(const WarmState& w) {
    rng_ = w.rng;
    rcp_ = w.rcp;
    dropped_packets_ = w.dropped_packets;
    for (int i = 0; i < check::kNumDropReasons; ++i) {
      dropped_by_reason_[i] = w.dropped_by_reason[i];
    }
    forwarded_packets_ = w.forwarded_packets;
  }

 private:
  void AdmitAndForward(PacketPtr pkt, int in_port, int out_port);
  // Sends PAUSE upstream through `in_port` once its ingress crosses Xoff,
  // stamped with the depth of the pause chain behind `out_port`, the egress
  // of the packet that crossed it (see Packet::pause_depth).
  void CheckPause(int in_port, int out_port, int priority);
  void CheckResume(int in_port, int priority);
  void SendPfc(int in_port, int priority, bool pause, int depth);

  void MaybeUpdateRcp(int port_index);

  // Settles every port holding deferred train emissions so shared-buffer and
  // queue reads observe exact reference state; called on every Receive.
  void SettleTrains();
  // Rewinds the unemitted tail of every active train (first PFC pause sent).
  void AbortTrains();

  SwitchConfig config_;
  SharedBuffer buffer_;
  sim::Rng rng_;
  NextHopTable routes_;
  // Read view: &routes_ (private) or a shared snapshot table (COW).
  const NextHopTable* route_view_ = &routes_;
  // dst -> key and dst -> last-hop port (SetRouteKeys); null until set.
  const uint32_t* route_key_ = nullptr;
  const uint16_t* leaf_port_ = nullptr;
  uint32_t num_dsts_ = 0;
  uint32_t own_key_ = kNoOwnKey;
  std::vector<uint32_t> identity_keys_;  // SetRoutes' key map
  std::vector<RcpState> rcp_;
  // Whether we have an outstanding PAUSE toward each (ingress port, prio).
  std::vector<std::array<bool, kNumPriorities>> pause_sent_;
  int pause_out_ = 0;  // count of outstanding PAUSEs across all (port, prio)
  // Ports with unemitted train items (deferred emission work), plus a
  // per-port membership flag so the list stays duplicate-free.
  std::vector<uint16_t> train_pending_;
  std::vector<uint8_t> train_pending_flag_;

  uint64_t dropped_packets_ = 0;
  uint64_t dropped_by_reason_[check::kNumDropReasons] = {};
  uint64_t forwarded_packets_ = 0;
};

}  // namespace hpcc::net
