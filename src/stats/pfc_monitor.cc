#include "stats/pfc_monitor.h"

#include <algorithm>

#include "net/packet.h"
#include "topo/topology.h"

namespace hpcc::stats {

void PfcMonitor::AttachTo(topo::Topology& topology,
                          const std::vector<uint32_t>& nodes) {
  for (uint32_t id : nodes) {
    net::Node& n = topology.node(id);
    for (int p = 0; p < n.num_ports(); ++p) {
      n.port(p).set_pause_observer(&observer_);
      port_bps_[{id, p}] = n.port(p).bandwidth_bps();
    }
  }
}

void PfcMonitor::Merge(const PfcMonitor& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  peak_paused_bps_ = std::max(peak_paused_bps_, other.peak_paused_bps_);
}

void PfcMonitor::OnChange(uint32_t node, int port, int prio, sim::TimePs now,
                          bool paused) {
  if (prio != net::kDataPriority) return;
  const auto key = std::make_pair(node, port);
  if (paused) {
    if (open_.count(key) > 0) return;
    PauseEvent ev;
    ev.start = now;
    ev.node = node;
    ev.port = port;
    ev.port_bps = port_bps_.count(key) > 0 ? port_bps_[key] : 0;
    open_[key] = events_.size();
    events_.push_back(ev);
    paused_bps_now_ += ev.port_bps;
    peak_paused_bps_ = std::max(peak_paused_bps_, paused_bps_now_);
  } else {
    auto it = open_.find(key);
    if (it == open_.end()) return;
    events_[it->second].end = now;
    paused_bps_now_ -= events_[it->second].port_bps;
    open_.erase(it);
  }
}

void PfcMonitor::Finish(sim::TimePs now) {
  for (const auto& [key, idx] : open_) {
    events_[idx].end = now;
  }
  open_.clear();
  paused_bps_now_ = 0;
}

sim::TimePs PfcMonitor::total_pause_time() const {
  sim::TimePs total = 0;
  for (const PauseEvent& ev : events_) {
    if (ev.end >= ev.start) total += ev.end - ev.start;
  }
  return total;
}

double PfcMonitor::PauseTimeFraction(sim::TimePs elapsed,
                                     int num_ports) const {
  if (elapsed <= 0 || num_ports <= 0) return 0;
  return static_cast<double>(total_pause_time()) /
         (static_cast<double>(elapsed) * num_ports);
}

PercentileTracker PfcMonitor::DurationDistributionUs() const {
  PercentileTracker t;
  for (const PauseEvent& ev : events_) {
    if (ev.end >= ev.start) t.Add(sim::ToUs(ev.end - ev.start));
  }
  return t;
}

}  // namespace hpcc::stats
