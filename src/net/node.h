// Base class for network devices (hosts and switches).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/hooks.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hpcc::net {

class Port;

// Upper bound on packets per transmission train (see Port): deep enough to
// amortize boundary events across an incast backlog, small enough that an
// abort rewinds a bounded amount of state.
inline constexpr int kMaxTrainPackets = 32;

class Node {
 public:
  Node(sim::Simulator* simulator, uint32_t id, std::string name);
  virtual ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // A packet has fully arrived on `in_port`.
  virtual void Receive(PacketPtr pkt, int in_port) = 0;
  virtual bool IsSwitch() const = 0;

  // Delivery front door used by the wire (Port and the shard handoff path):
  // runs the seeded corruption filter for `in_port`, then hands the survivor
  // to Receive. With no `corrupt` windows installed this is one predicted
  // branch on top of Receive.
  void Deliver(PacketPtr pkt, int in_port) {
    if (corrupt_ != nullptr) [[unlikely]] {
      if (CorruptDrop(*pkt, in_port)) return;
    }
    Receive(std::move(pkt), in_port);
  }

  // Installs a seeded corruption window on `in_port`: packets fully arriving
  // in [start, end) are dropped when the next draw of the per-(node, port)
  // SplitMix64 counter stream lands below `threshold` (= BER scaled to
  // 2^64). The counter advances once per eligible packet whether or not it
  // drops, so the stream — and therefore every drop decision — is pinned by
  // the deterministic per-port arrival order, identical across transmit
  // engines, shard counts and --jobs.
  void AddCorruptWindow(int in_port, sim::TimePs start, sim::TimePs end,
                        uint64_t threshold, uint64_t seed);

  // Packets discarded by corruption windows on any of this node's in-ports.
  uint64_t corrupt_dropped_packets() const { return corrupt_dropped_packets_; }

  // Port hooks (see Port). Default: no-op.
  // Called right before a data/control packet starts serialization.
  virtual void OnPortDequeue(Packet& /*pkt*/, int /*port_index*/) {}
  // Called when a port finished serializing and found nothing to send next;
  // hosts use it to pull the next paced packet.
  virtual void OnPortIdle(int /*port_index*/) {}

  // Fast-path train hooks. MaxTrainPackets bounds how many packets one of
  // this node's ports may commit to a single back-to-back train (switches
  // drop to 1 while a PFC pause is outstanding so deferred emission work can
  // never delay a RESUME). OnTrainPending tells the owner that `port` now
  // holds unemitted train items whose emission work is settled lazily —
  // switches track these ports so shared-buffer reads stay exact.
  virtual int MaxTrainPackets() const { return kMaxTrainPackets; }
  virtual void OnTrainPending(int /*port_index*/) {}
  // Whether this node wants OnPortIdle at the port's next emission boundary
  // even if the queue drains. Hosts with active sender flows say yes (the
  // boundary pulls the next paced packet); pure receivers and switches say
  // no, which lets the fast path skip the boundary event entirely.
  virtual bool WantsPortIdle(int /*port_index*/) const { return false; }

  // Adds a port; returns its index. Used by Topology when wiring links.
  int AddPort(std::unique_ptr<Port> port);

  // Re-homes this node (and every port) onto another event arena. Sharded
  // runs build the topology once on lane 0's simulator and then move each
  // node to its owning lane's simulator; legal only while quiescent (node
  // construction schedules nothing).
  void set_simulator(sim::Simulator* simulator);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return *simulator_; }
  int num_ports() const { return static_cast<int>(ports_.size()); }
  Port& port(int i) { return *ports_[i]; }
  const Port& port(int i) const { return *ports_[i]; }

  // Invariant-monitor hooks (check::MonitorRegistry::AttachTo). Null by
  // default; the installer must keep the hooks alive for the node's whole
  // simulation (they are consulted on every enqueue/dequeue).
  void set_check_hooks(check::NetHooks* hooks) { check_hooks_ = hooks; }
  check::NetHooks* check_hooks() const { return check_hooks_; }

 protected:
  sim::Simulator* simulator_;
  uint32_t id_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  check::NetHooks* check_hooks_ = nullptr;
  // Applied to every port this node receives (AddPort). Host and switch
  // constructors set it from their config before the topology wires links.
  bool ports_fast_path_ = true;

 private:
  struct CorruptWindow {
    sim::TimePs start = 0;
    sim::TimePs end = 0;
    uint64_t threshold = 0;  // drop when SplitMix64(seed + counter) < this
    uint64_t seed = 0;
    uint64_t counter = 0;
  };
  struct CorruptState {
    // Indexed by in-port; each port may carry several windows.
    std::vector<std::vector<CorruptWindow>> by_port;
  };
  // Cold path of Deliver: true = the packet was counted, reported through
  // OnDrop(kCorrupt) and must not reach Receive.
  bool CorruptDrop(const Packet& pkt, int in_port);

  // Null unless a scenario installed `corrupt` windows on this node.
  std::unique_ptr<CorruptState> corrupt_;
  uint64_t corrupt_dropped_packets_ = 0;
};

}  // namespace hpcc::net
