#include "stats/queue_monitor.h"

#include <algorithm>

#include "net/packet.h"
#include "net/port.h"
#include "net/switch_node.h"
#include "topo/topology.h"

namespace hpcc::stats {

QueueMonitor::QueueMonitor(sim::Simulator* simulator,
                           topo::Topology* topology,
                           std::vector<uint32_t> switches)
    : simulator_(simulator),
      topology_(topology),
      switches_(std::move(switches)),
      tick_(simulator, [this](int) { Sample(); }) {}

void QueueMonitor::Start(sim::TimePs until) {
  until_ = until;
  tick_.Schedule(kTick, simulator_->now() + kQueueSampleInterval);
}

void QueueMonitor::Sample() {
  for (uint32_t sid : switches_) {
    net::SwitchNode& sw = topology_->switch_node(sid);
    for (int p = 0; p < sw.num_ports(); ++p) {
      const int64_t q = sw.port(p).queue_bytes(net::kDataPriority);
      dist_.Add(static_cast<double>(q));
      max_seen_ = std::max(max_seen_, q);
    }
  }
  if (simulator_->now() + kQueueSampleInterval <= until_) {
    tick_.Schedule(kTick, simulator_->now() + kQueueSampleInterval);
  }
}

}  // namespace hpcc::stats
