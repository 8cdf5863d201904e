#include "stats/queue_monitor.h"

#include <algorithm>

#include "net/packet.h"
#include "net/port.h"
#include "net/switch_node.h"
#include "topo/topology.h"

namespace hpcc::stats {

QueueMonitor::QueueMonitor(sim::Simulator* simulator,
                           topo::Topology* topology, sim::TimePs interval,
                           std::vector<uint32_t> switches)
    : simulator_(simulator),
      topology_(topology),
      interval_(interval),
      switches_(std::move(switches)) {}

void QueueMonitor::Start(sim::TimePs until) {
  until_ = until;
  ScheduleTick(simulator_->now() + interval_);
}

void QueueMonitor::ScheduleTick(sim::TimePs at) {
  tick_pending_ = true;
  tick_at_ = at;
  tick_seq_ = simulator_->next_schedule_seq();
  tick_event_ = simulator_->ScheduleAt(at, [this]() {
    tick_pending_ = false;
    Sample();
  });
}

QueueMonitor::WarmState QueueMonitor::CaptureWarm() const {
  WarmState w;
  w.dist = dist_;
  w.max_seen = max_seen_;
  w.until = until_;
  w.tick_pending = tick_pending_;
  w.tick_at = tick_at_;
  w.tick_seq = tick_seq_;
  return w;
}

void QueueMonitor::RestoreWarm(const WarmState& w) {
  if (tick_pending_) {
    simulator_->Cancel(tick_event_);
    tick_pending_ = false;
  }
  dist_ = w.dist;
  max_seen_ = w.max_seen;
  until_ = w.until;
  if (!w.tick_pending) return;
  tick_pending_ = true;
  tick_at_ = w.tick_at;
  tick_seq_ = w.tick_seq;
  tick_event_ = simulator_->ScheduleAtSeq(w.tick_at, w.tick_seq, [this]() {
    tick_pending_ = false;
    Sample();
  });
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
  if (simulator_->now() + interval_ <= until_) {
    ScheduleTick(simulator_->now() + interval_);
  }
}

PortQueueSampler::PortQueueSampler(sim::Simulator* simulator,
                                   const net::Port* port, sim::TimePs interval)
    : simulator_(simulator), port_(port), interval_(interval) {}

void PortQueueSampler::Start(sim::TimePs until) {
  until_ = until;
  simulator_->ScheduleIn(interval_, [this]() { Sample(); });
}

void PortQueueSampler::Sample() {
  series_.Add(simulator_->now(),
              static_cast<double>(port_->queue_bytes(net::kDataPriority)));
  if (simulator_->now() + interval_ <= until_) {
    simulator_->ScheduleIn(interval_, [this]() { Sample(); });
  }
}

}  // namespace hpcc::stats
