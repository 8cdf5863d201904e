#include "check/monitors.h"

#include <algorithm>
#include <string>

#include "net/packet.h"
#include "runner/experiment.h"

namespace hpcc::check {
namespace {

// Keys are biased by +1: core::FlatMap reserves key 0 for empty slots, and
// (node 0, port 0[, prio 0]) is a legal queue.
uint64_t PortKey(uint32_t node, int port) {
  return ((static_cast<uint64_t>(node) << 16) |
          static_cast<uint64_t>(port & 0xffff)) +
         1;
}

uint64_t QueueKey(uint32_t node, int port, int priority) {
  return (((PortKey(node, port) - 1) << 2) |
          static_cast<uint64_t>(priority & 3)) +
         1;
}

std::string QueueName(uint32_t node, int port, int priority) {
  return "node " + std::to_string(node) + " port " + std::to_string(port) +
         " prio " + std::to_string(priority);
}

}  // namespace

// ---- QueueConservationMonitor ----------------------------------------------

QueueConservationMonitor::Ledger& QueueConservationMonitor::At(uint32_t node,
                                                               int port,
                                                               int priority) {
  if (node < num_nodes_ && port < max_ports_) [[likely]] {
    return dense_[(static_cast<size_t>(node) * static_cast<size_t>(max_ports_) +
                   static_cast<size_t>(port)) *
                      net::kNumPriorities +
                  static_cast<size_t>(priority)];
  }
  return overflow_[QueueKey(node, port, priority)];
}

void QueueConservationMonitor::OnEnqueue(uint32_t node, int port,
                                         const net::Packet& pkt,
                                         int64_t queue_bytes_after) {
  Ledger& l = At(node, port, pkt.priority);
  l.enq_bytes += pkt.size_bytes();
  ++l.enq_packets;
  const int64_t expect = l.enq_bytes - l.deq_bytes;
  if (queue_bytes_after != expect) {
    Report(0, QueueName(node, port, pkt.priority) +
                  ": enqueue ledger mismatch (port reports " +
                  std::to_string(queue_bytes_after) + " B queued, ledger " +
                  std::to_string(expect) + " B)");
  }
}

void QueueConservationMonitor::OnDequeue(uint32_t node, int port,
                                         const net::Packet& pkt,
                                         int64_t queue_bytes_after) {
  CheckDequeue(At(node, port, pkt.priority), node, port, pkt,
               queue_bytes_after);
}

void QueueConservationMonitor::OnDequeueBurst(uint32_t node, int port,
                                              const DequeueRecord* recs,
                                              size_t n) {
  Ledger* cached[net::kNumPriorities] = {};
  for (size_t i = 0; i < n; ++i) {
    const net::Packet& pkt = *recs[i].pkt;
    Ledger*& l = cached[pkt.priority];
    if (l == nullptr) l = &At(node, port, pkt.priority);
    CheckDequeue(*l, node, port, pkt, recs[i].queue_bytes_after);
  }
}

void QueueConservationMonitor::CheckDequeue(Ledger& l, uint32_t node,
                                            int port, const net::Packet& pkt,
                                            int64_t queue_bytes_after) {
  l.deq_bytes += pkt.size_bytes();
  ++l.deq_packets;
  if (l.deq_bytes > l.enq_bytes || l.deq_packets > l.enq_packets) {
    Report(0, QueueName(node, port, pkt.priority) +
                  ": dequeued more than was enqueued (" +
                  std::to_string(l.deq_bytes) + " of " +
                  std::to_string(l.enq_bytes) + " B)");
    return;
  }
  const int64_t expect = l.enq_bytes - l.deq_bytes;
  if (queue_bytes_after != expect) {
    Report(0, QueueName(node, port, pkt.priority) +
                  ": dequeue ledger mismatch (port reports " +
                  std::to_string(queue_bytes_after) + " B queued, ledger " +
                  std::to_string(expect) + " B)");
  }
}

void QueueConservationMonitor::OnFinish(sim::TimePs now) {
  const auto check = [&](uint64_t key, const Ledger& l) {
    // Bytes still queued at the end of the run are fine (frozen links,
    // paused priorities); a negative residue can't happen without an earlier
    // report, so the closing check is packet/byte consistency.
    const int64_t residual_bytes = l.enq_bytes - l.deq_bytes;
    const uint64_t residual_pkts = l.enq_packets - l.deq_packets;
    if ((residual_bytes == 0) != (residual_pkts == 0)) {
      Report(now, "ledger " + std::to_string(key) +
                      ": byte and packet residues disagree (" +
                      std::to_string(residual_bytes) + " B vs " +
                      std::to_string(residual_pkts) + " pkts)");
    }
  };
  for (size_t i = 0; i < dense_.size(); ++i) check(i, dense_[i]);
  overflow_.ForEach(check);
}

// ---- QueueBoundMonitor ------------------------------------------------------

void QueueBoundMonitor::OnEnqueue(uint32_t node, int port,
                                  const net::Packet& pkt,
                                  int64_t queue_bytes_after) {
  if (pkt.priority != net::kDataPriority) return;  // control is tiny/bounded
  if (node >= capacity_.size() || capacity_[node] <= 0) return;
  if (queue_bytes_after <= capacity_[node]) return;
  bool& seen = reported_[PortKey(node, port)];
  if (seen) return;  // one report per overflowing queue, not per packet
  seen = true;
  Report(0, QueueName(node, port, pkt.priority) + " holds " +
                std::to_string(queue_bytes_after) +
                " B, above its configured bound of " +
                std::to_string(capacity_[node]) + " B");
}

// ---- PfcSanityMonitor -------------------------------------------------------

void PfcSanityMonitor::OnPauseChange(uint32_t node, int port, int priority,
                                     bool paused, sim::TimePs now) {
  if (!options_.pfc_enabled) {
    Report(now, "PFC " + std::string(paused ? "pause" : "resume") + " on " +
                    QueueName(node, port, priority) +
                    " although PFC is disabled");
    return;
  }
  PortState& st = ports_[PortKey(node, port)];
  ++st.events;
  if (st.events > options_.max_events_per_port && !st.storm_reported) {
    st.storm_reported = true;
    Report(now, "pause storm: node " + std::to_string(node) + " port " +
                    std::to_string(port) + " saw more than " +
                    std::to_string(options_.max_events_per_port) +
                    " pause/resume events");
  }
  if (paused) {
    st.paused = true;
    st.since = now;
    return;
  }
  if (st.paused && now - st.since > options_.max_pause) {
    Report(now, "node " + std::to_string(node) + " port " +
                    std::to_string(port) + " stayed paused for " +
                    std::to_string(sim::ToUs(now - st.since)) +
                    " us (max_pause " +
                    std::to_string(sim::ToUs(options_.max_pause)) + " us)");
  }
  st.paused = false;
}

void PfcSanityMonitor::OnFinish(sim::TimePs now) {
  ports_.ForEach([&](uint64_t key, const PortState& st) {
    if (st.paused && now - st.since > options_.max_pause) {
      const uint64_t raw = key - 1;  // undo the FlatMap key bias
      Report(now, "node " + std::to_string(raw >> 16) + " port " +
                      std::to_string(raw & 0xffff) +
                      " still paused at end of run, for " +
                      std::to_string(sim::ToUs(now - st.since)) +
                      " us (possible PFC deadlock)");
    }
  });
}

// ---- IntSanityMonitor -------------------------------------------------------

IntSanityMonitor::FlowState& IntSanityMonitor::StateFor(uint64_t flow_id) {
  uint32_t& slot = flow_index_[flow_id + 1];  // bias past the empty key
  if (slot == 0) {
    states_.emplace_back();
    slot = static_cast<uint32_t>(states_.size());
  }
  return states_[slot - 1];
}

void IntSanityMonitor::OnIntEcho(uint64_t flow_id,
                                 const core::IntStack& stack,
                                 sim::TimePs now) {
  if (stack.n_hops() == 0) return;
  FlowState& st = StateFor(flow_id);
  // Same reset rule the HPCC sender uses (§4.1): a different pathID or hop
  // count means the flow was rerouted and the per-hop history is stale.
  if (st.have &&
      (st.n_hops != stack.n_hops() || st.path_id != stack.path_id())) {
    st.have = false;
  }
  for (int i = 0; i < stack.n_hops(); ++i) {
    const core::IntHop& hop = stack.hop(i);
    if (hop.bandwidth_bps <= 0) {
      Report(now, "flow " + std::to_string(flow_id) + " hop " +
                      std::to_string(i) + ": non-positive bandwidth " +
                      std::to_string(hop.bandwidth_bps));
    }
    if (hop.qlen_bytes < 0 ||
        (options_.max_qlen_bytes > 0 &&
         hop.qlen_bytes > options_.max_qlen_bytes)) {
      Report(now, "flow " + std::to_string(flow_id) + " hop " +
                      std::to_string(i) + ": qLen " +
                      std::to_string(hop.qlen_bytes) +
                      " B outside [0, " +
                      std::to_string(options_.max_qlen_bytes) + "]");
    }
    if (st.have && options_.check_monotonic && !options_.wire_format) {
      if (hop.ts < st.ts[i]) {
        Report(now, "flow " + std::to_string(flow_id) + " hop " +
                        std::to_string(i) + ": INT timestamp went backwards (" +
                        std::to_string(hop.ts) + " < " +
                        std::to_string(st.ts[i]) + " ps)");
      }
      if (hop.tx_bytes < st.tx_bytes[i]) {
        Report(now, "flow " + std::to_string(flow_id) + " hop " +
                        std::to_string(i) + ": INT txBytes went backwards (" +
                        std::to_string(hop.tx_bytes) + " < " +
                        std::to_string(st.tx_bytes[i]) + ")");
      }
    }
    st.ts[i] = hop.ts;
    st.tx_bytes[i] = hop.tx_bytes;
  }
  st.n_hops = stack.n_hops();
  st.path_id = stack.path_id();
  st.have = true;
}

// ---- CcSanityMonitor --------------------------------------------------------

void CcSanityMonitor::OnCcUpdate(uint64_t flow_id, int64_t window_bytes,
                                 int64_t rate_bps, sim::TimePs now) {
  const bool bad_rate = rate_bps <= 0 || rate_bps > max_rate_bps_;
  const bool bad_window = window_bytes <= 0;
  if (!bad_rate && !bad_window) return;
  bool& seen = reported_[flow_id + 1];  // FlatMap: bias past the empty key
  if (seen) return;  // the same broken flow would report on every ACK
  seen = true;
  if (bad_rate) {
    Report(now, "flow " + std::to_string(flow_id) + ": rate " +
                    std::to_string(rate_bps) + " bps outside (0, " +
                    std::to_string(max_rate_bps_) + "]");
  }
  if (bad_window) {
    Report(now, "flow " + std::to_string(flow_id) +
                    ": non-positive window " + std::to_string(window_bytes) +
                    " B");
  }
}

// ---- LosslessDropMonitor ----------------------------------------------------

void LosslessDropMonitor::OnDrop(uint32_t node, const net::Packet& pkt,
                                 DropReason reason) {
  (void)pkt;
  if (!pfc_enabled_) return;  // lossy mode drops by design
  switch (reason) {
    case DropReason::kNoRoute:
      return;  // link failure made the destination unreachable
    case DropReason::kCorrupt:
      return;  // seeded fault injection drops by design, even under PFC
    case DropReason::kBufferFull:
    case DropReason::kEgressThreshold:
      break;
  }
  ++buffer_drops_;
  if (buffer_drops_ == 1) {
    Report(0, "switch " + std::to_string(node) +
                  " dropped a packet for buffer exhaustion although PFC is "
                  "enabled");
  }
}

void LosslessDropMonitor::OnFinish(sim::TimePs now) {
  if (buffer_drops_ > 1) {
    Report(now, std::to_string(buffer_drops_) +
                    " total buffer-exhaustion drops in lossless mode");
  }
}

// ---- CheckFlowProgress ------------------------------------------------------

void CheckFlowProgress(MonitorRegistry& registry, runner::Experiment& e,
                       sim::TimePs now, int stall_rtos) {
  if (e.hosts().empty()) return;
  const sim::TimePs rto_max =
      e.topology().host(e.hosts().front()).config().rto_max;
  const sim::TimePs stall = static_cast<sim::TimePs>(stall_rtos) * rto_max;
  for (const host::Flow* f : e.AllFlows()) {
    if (!f->started || f->done) continue;
    if (now - f->last_activity <= stall) continue;
    Violation v;
    v.monitor = "no-progress";
    v.at = now;
    const host::FlowSpec& s = f->spec();
    v.message = "flow " + std::to_string(s.id) + " (" + std::to_string(s.src) +
                " -> " + std::to_string(s.dst) + ", " +
                std::to_string(s.size_bytes) + " B) stalled: no forward "
                "progress since t=" +
                std::to_string(sim::ToUs(f->last_activity)) + " us (" +
                std::to_string(sim::ToUs(now - f->last_activity)) +
                " us ago, stall bound " + std::to_string(sim::ToUs(stall)) +
                " us)";
    registry.ReportViolation(std::move(v));
  }
}

// ---- InstallStandardMonitors ------------------------------------------------

void InstallStandardMonitors(MonitorRegistry& registry, runner::Experiment& e,
                             const StandardMonitorOptions& options, int lane) {
  topo::Topology& topology = e.topology();
  const runner::ExperimentConfig& cfg = e.config();

  // Per-node data-queue bounds: switches are capped by their shared buffer;
  // hosts keep at most one paced data packet per NIC port (HostNode::TrySend)
  // — allow a small multiple for slack.
  std::vector<int64_t> capacity(topology.num_nodes(), 0);
  int64_t max_buffer = 0;
  for (uint32_t s : topology.switches()) {
    capacity[s] = topology.switch_node(s).config().buffer_bytes;
    max_buffer = std::max(max_buffer, capacity[s]);
  }
  int64_t max_nic_bps = 0;
  for (uint32_t h : topology.hosts()) {
    const host::HostNode& host = topology.host(h);
    const int64_t full_packet =
        host.config().mtu_bytes + net::kDataHeaderBytes +
        core::IntStack::kWorstCaseWireBytes;
    capacity[h] = 4 * full_packet;
    for (int p = 0; p < host.num_ports(); ++p) {
      max_nic_bps = std::max(max_nic_bps, host.port(p).bandwidth_bps());
    }
  }

  int max_ports = 0;
  for (uint32_t id = 0; id < topology.num_nodes(); ++id) {
    max_ports = std::max(max_ports, topology.node(id).num_ports());
  }
  registry.Add(std::make_unique<QueueConservationMonitor>(topology.num_nodes(),
                                                          max_ports));
  registry.Add(std::make_unique<QueueBoundMonitor>(std::move(capacity)));

  PfcSanityMonitor::Options pfc = options.pfc;
  pfc.pfc_enabled = cfg.pfc_enabled;
  registry.Add(std::make_unique<PfcSanityMonitor>(pfc));

  IntSanityMonitor::Options io;
  io.wire_format = cfg.cc.hpcc.wire_format;
  io.max_qlen_bytes = max_buffer;
  io.check_monotonic = !options.topology_mutates;
  registry.Add(std::make_unique<IntSanityMonitor>(io));

  registry.Add(std::make_unique<CcSanityMonitor>(max_nic_bps));
  registry.Add(std::make_unique<LosslessDropMonitor>(cfg.pfc_enabled));
  registry.set_clock(&e.lane_simulator(lane));
  registry.AttachTo(topology, e.lane_nodes(lane));
}

}  // namespace hpcc::check
