#include "check/invariant.h"

#include <cstdio>

#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpcc::check {

std::string Violation::Format() const {
  char head[64];
  std::snprintf(head, sizeof(head), "[t=%.3fus] ", sim::ToUs(at));
  return head + monitor + ": " + message;
}

void InvariantMonitor::Report(sim::TimePs at, std::string message) {
  if (registry_ == nullptr) return;
  registry_->ReportViolation(Violation{name(), std::move(message), at});
}

InvariantMonitor* MonitorRegistry::Add(
    std::unique_ptr<InvariantMonitor> monitor) {
  monitor->registry_ = this;
  monitors_.push_back(std::move(monitor));
  InvariantMonitor* m = monitors_.back().get();
  const unsigned in = m->interests();
  if (in & InvariantMonitor::kEnqueue) on_enqueue_.push_back(m);
  if (in & InvariantMonitor::kDequeue) on_dequeue_.push_back(m);
  if (in & InvariantMonitor::kDrop) on_drop_.push_back(m);
  if (in & InvariantMonitor::kPause) on_pause_.push_back(m);
  if (in & InvariantMonitor::kCcUpdate) on_cc_.push_back(m);
  if (in & InvariantMonitor::kIntEcho) on_int_.push_back(m);
  return m;
}

void MonitorRegistry::AttachTo(topo::Topology& topology,
                               const std::vector<uint32_t>& nodes) {
  for (uint32_t id : nodes) topology.node(id).set_check_hooks(this);
}

void MonitorRegistry::Finish(sim::TimePs now) {
  for (auto& m : monitors_) m->OnFinish(now);
}

void MonitorRegistry::ReportViolation(Violation v) {
  if (v.at == 0 && clock_ != nullptr) v.at = clock_->now();
  ++violation_count_;
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(std::move(v));
  }
}

std::string MonitorRegistry::Summary() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += v.Format();
    out += '\n';
  }
  if (violation_count_ > violations_.size()) {
    out += "... and " +
           std::to_string(violation_count_ - violations_.size()) +
           " more violation(s)\n";
  }
  return out;
}

void MonitorRegistry::OnEnqueue(uint32_t node, int port,
                                const net::Packet& pkt,
                                int64_t queue_bytes_after) {
  for (auto* m : on_enqueue_) m->OnEnqueue(node, port, pkt, queue_bytes_after);
}

void MonitorRegistry::OnDequeue(uint32_t node, int port,
                                const net::Packet& pkt,
                                int64_t queue_bytes_after) {
  for (auto* m : on_dequeue_) m->OnDequeue(node, port, pkt, queue_bytes_after);
}

void MonitorRegistry::OnDequeueBurst(uint32_t node, int port,
                                     const DequeueRecord* recs, size_t n) {
  // One virtual call per interested monitor per train, however many packets
  // the train carried; monitors without a burst override unpack to their
  // per-packet OnDequeue themselves.
  for (auto* m : on_dequeue_) m->OnDequeueBurst(node, port, recs, n);
}

void MonitorRegistry::OnDrop(uint32_t node, const net::Packet& pkt,
                             DropReason reason) {
  for (auto* m : on_drop_) m->OnDrop(node, pkt, reason);
}

void MonitorRegistry::OnPauseChange(uint32_t node, int port, int priority,
                                    bool paused, sim::TimePs now) {
  for (auto* m : on_pause_) {
    m->OnPauseChange(node, port, priority, paused, now);
  }
}

void MonitorRegistry::OnCcUpdate(uint64_t flow_id, int64_t window_bytes,
                                 int64_t rate_bps, sim::TimePs now) {
  for (auto* m : on_cc_) m->OnCcUpdate(flow_id, window_bytes, rate_bps, now);
}

void MonitorRegistry::OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                                sim::TimePs now) {
  for (auto* m : on_int_) m->OnIntEcho(flow_id, stack, now);
}

}  // namespace hpcc::check
