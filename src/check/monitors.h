// The standard invariant-monitor set, derived from the paper's core claims:
//
//   QueueConservationMonitor  per-(node, port, priority) byte/packet ledger:
//                             enqueued == dequeued + queued, never negative,
//                             and the port's own byte counter agrees.
//   QueueBoundMonitor         switch data queues never exceed the configured
//                             shared buffer; host data queues never hold
//                             more than the NIC's one-packet pacing window.
//   PfcSanityMonitor          no pause events when PFC is disabled; no pause
//                             outlives max_pause (deadlock/stuck-resume
//                             detector); per-port pause event count bounded
//                             (pause-storm detector).
//   IntSanityMonitor          per-(flow, hop) INT records are sane (positive
//                             bandwidth, qlen within the buffer) and ts /
//                             txBytes are monotone, with HPCC's own pathID
//                             reset semantics on path changes.
//   CcSanityMonitor           every CC update leaves rate in (0, line rate]
//                             and a positive window, for all schemes.
//   LosslessDropMonitor       a PFC-protected fabric never drops for buffer
//                             exhaustion (route drops from link failures are
//                             legitimate and exempt).
//
// InstallStandardMonitors wires all of them to a live Experiment with bounds
// taken from its actual topology and config.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/invariant.h"
#include "core/flat_map.h"
#include "core/int_header.h"
#include "net/packet.h"

namespace hpcc::runner {
class Experiment;
}

namespace hpcc::check {

class QueueConservationMonitor : public InvariantMonitor {
 public:
  // `num_nodes`/`max_ports` size a dense ledger array (direct index per
  // hook, no hashing — this monitor runs on every single enqueue). Ledgers
  // for out-of-range ids (none in practice) fall back to a flat map.
  QueueConservationMonitor(uint32_t num_nodes = 0, int max_ports = 0)
      : num_nodes_(num_nodes),
        max_ports_(max_ports),
        dense_(static_cast<size_t>(num_nodes) * static_cast<size_t>(max_ports) *
               net::kNumPriorities) {}
  std::string name() const override { return "queue-conservation"; }
  unsigned interests() const override { return kEnqueue | kDequeue; }
  void OnEnqueue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  // Native burst path: one ledger lookup per (priority, train) instead of
  // one per packet — the monitored cost of a train scales with its priority
  // mix, not its length.
  void OnDequeueBurst(uint32_t node, int port, const DequeueRecord* recs,
                      size_t n) override;
  void OnFinish(sim::TimePs now) override;

 private:
  struct Ledger {
    int64_t enq_bytes = 0;
    int64_t deq_bytes = 0;
    uint64_t enq_packets = 0;
    uint64_t deq_packets = 0;
  };
  Ledger& At(uint32_t node, int port, int priority);
  // Checks one dequeue against its ledger (shared by both dequeue paths).
  void CheckDequeue(Ledger& l, uint32_t node, int port,
                    const net::Packet& pkt, int64_t queue_bytes_after);
  uint32_t num_nodes_;
  int max_ports_;
  std::vector<Ledger> dense_;
  core::FlatMap<Ledger> overflow_;
};

class QueueBoundMonitor : public InvariantMonitor {
 public:
  // `node_capacity[id]` is the byte bound of node id's data-priority queues:
  // the shared buffer for switches, the pacing allowance for hosts.
  explicit QueueBoundMonitor(std::vector<int64_t> node_capacity)
      : capacity_(std::move(node_capacity)) {}
  std::string name() const override { return "queue-bound"; }
  unsigned interests() const override { return kEnqueue; }
  void OnEnqueue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;

 private:
  std::vector<int64_t> capacity_;
  core::FlatMap<bool> reported_;  // one report per (node,port)
};

class PfcSanityMonitor : public InvariantMonitor {
 public:
  struct Options {
    bool pfc_enabled = true;
    // A single pause longer than this is a stuck-resume / deadlock suspect.
    sim::TimePs max_pause = sim::Ms(20);
    // More pause events than this on one (node, port) is a pause storm.
    uint64_t max_events_per_port = 1'000'000;
  };
  explicit PfcSanityMonitor(const Options& options) : options_(options) {}
  std::string name() const override { return "pfc-sanity"; }
  unsigned interests() const override { return kPause; }
  void OnPauseChange(uint32_t node, int port, int priority, bool paused,
                     sim::TimePs now) override;
  void OnFinish(sim::TimePs now) override;

 private:
  struct PortState {
    bool paused = false;
    sim::TimePs since = 0;
    uint64_t events = 0;
    bool storm_reported = false;
  };
  Options options_;
  core::FlatMap<PortState> ports_;
};

class IntSanityMonitor : public InvariantMonitor {
 public:
  struct Options {
    // Fig. 7 wire format wraps ts/txBytes; monotonicity is then checked by
    // the CC's wrap-aware deltas, not here.
    bool wire_format = false;
    int64_t max_qlen_bytes = 0;  // 0 = unbounded
    // Strict per-hop ts/txBytes monotonicity. Sound only while the topology
    // is static: a link flap can reorder the *observation* stream (an ACK
    // frozen on a downed port is overtaken by a newer ACK on the rerouted
    // path), which the HPCC sender tolerates by skipping dt <= 0 samples.
    // Scenario runs with link events therefore disable it.
    bool check_monotonic = true;
  };
  explicit IntSanityMonitor(const Options& options) : options_(options) {}
  std::string name() const override { return "int-sanity"; }
  unsigned interests() const override { return kIntEcho; }
  void OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                 sim::TimePs now) override;

 private:
  struct FlowState {
    uint16_t path_id = 0;
    int n_hops = 0;
    bool have = false;
    sim::TimePs ts[core::kMaxIntHops] = {};
    uint64_t tx_bytes[core::kMaxIntHops] = {};
  };
  FlowState& StateFor(uint64_t flow_id);
  Options options_;
  // Hash probes touch small index slots; the fat per-flow histories live
  // densely to the side (this hook runs once per INT-carrying ACK).
  core::FlatMap<uint32_t> flow_index_;
  std::vector<FlowState> states_;
};

class CcSanityMonitor : public InvariantMonitor {
 public:
  // `max_rate_bps`: the fastest NIC in the experiment; no sender may ever
  // pace above its line rate (every scheme clamps — §3.2 and each scheme's
  // own min/max bounds).
  explicit CcSanityMonitor(int64_t max_rate_bps)
      : max_rate_bps_(max_rate_bps) {}
  std::string name() const override { return "cc-sanity"; }
  unsigned interests() const override { return kCcUpdate; }
  void OnCcUpdate(uint64_t flow_id, int64_t window_bytes, int64_t rate_bps,
                  sim::TimePs now) override;

 private:
  int64_t max_rate_bps_;
  core::FlatMap<bool> reported_;  // one report per flow
};

class LosslessDropMonitor : public InvariantMonitor {
 public:
  explicit LosslessDropMonitor(bool pfc_enabled)
      : pfc_enabled_(pfc_enabled) {}
  std::string name() const override { return "lossless-drop"; }
  unsigned interests() const override { return kDrop; }
  void OnDrop(uint32_t node, const net::Packet& pkt,
              DropReason reason) override;
  void OnFinish(sim::TimePs now) override;

 private:
  bool pfc_enabled_;
  uint64_t buffer_drops_ = 0;
};

// Options for InstallStandardMonitors; every field defaults to "derive from
// the experiment".
struct StandardMonitorOptions {
  PfcSanityMonitor::Options pfc;
  // Set when the run's event script takes links down/up: relaxes checks that
  // assume a static topology (INT observation-stream monotonicity).
  bool topology_mutates = false;
};

// No-progress check, run once after the simulation: any started, unfinished
// flow whose last observable forward progress (start, ACK advance, or RTO
// recovery action — Flow::last_activity) is more than `stall_rtos` maximum
// RTOs in the past is reported as a "no-progress" violation. The transport's
// own backoff re-arms within one rto_max whenever it is still trying, so a
// stall this long means the retry machinery itself wedged. Callers should
// skip runs cut short by the event budget or a wall deadline — a truncated
// run legitimately strands in-flight flows.
void CheckFlowProgress(MonitorRegistry& registry, runner::Experiment& e,
                       sim::TimePs now, int stall_rtos = 4);

// Lets callers add monitors beside the standard set (tests register an
// intentionally-broken monitor through this to exercise the violation path).
using MonitorInstaller =
    std::function<void(MonitorRegistry&, runner::Experiment&)>;

// Builds the full standard monitor set with bounds taken from `e`'s
// topology/config, clocks `registry` by lane `lane`'s simulator and attaches
// it to that lane's nodes (every node when shards == 1). The bounds derive
// from the full topology, so they are lane-independent; every monitor keys
// its state per (node, port[, prio]) or per flow, and a flow's packets are
// only ever observed by the nodes on its path — each lane's registry sees a
// self-consistent slice, and clean runs stay clean. The registry must
// outlive the experiment's run.
void InstallStandardMonitors(MonitorRegistry& registry, runner::Experiment& e,
                             const StandardMonitorOptions& options = {},
                             int lane = 0);

}  // namespace hpcc::check
