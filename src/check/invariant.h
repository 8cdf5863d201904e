// Invariant monitors: always-on correctness checks over a live simulation.
//
// An InvariantMonitor is a NetHooks implementation that watches one global
// property (conservation, bounds, protocol sanity) and reports violations
// instead of crashing, so a fuzz run can finish, collect every violation and
// emit a reproducer. The MonitorRegistry fans the single per-node hook
// pointer out to any number of monitors and owns the violation log.
//
// Usage:
//   check::MonitorRegistry reg;                  // must outlive the run
//   runner::Experiment e(cfg);
//   check::InstallStandardMonitors(reg, e);      // monitors.h
//   auto result = e.Run();
//   reg.Finish(e.simulator().now());             // end-of-run checks
//   for (const auto& v : reg.violations()) ...
//
// Cost model: with no registry attached the hook pointer is null and every
// hook site is one predictable branch (see check/hooks.h); with a registry
// attached the cost is one virtual call per hook per monitor that overrides
// it. Monitors must never mutate simulation state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/hooks.h"
#include "sim/time.h"

namespace hpcc::topo {
class Topology;
}
namespace hpcc::sim {
class Simulator;
}

namespace hpcc::check {

class MonitorRegistry;

struct Violation {
  std::string monitor;   // reporting monitor's name()
  std::string message;   // what broke, with enough context to debug
  sim::TimePs at = 0;    // simulation time of detection

  std::string Format() const;  // "[t=12.3us] monitor: message"
};

class InvariantMonitor : public NetHooks {
 public:
  // Which hook families a monitor consumes. The registry fans each hook out
  // only to interested monitors, so one enqueue costs one virtual call per
  // monitor that actually watches enqueues instead of one per monitor.
  enum Interest : unsigned {
    kEnqueue = 1u << 0,
    kDequeue = 1u << 1,
    kDrop = 1u << 2,
    kPause = 1u << 3,
    kCcUpdate = 1u << 4,
    kIntEcho = 1u << 5,
    kAll = ~0u,
  };

  virtual std::string name() const = 0;
  // Hook families this monitor overrides; default subscribes to everything
  // (always safe, just slower).
  virtual unsigned interests() const { return kAll; }
  // Called once after the run (registry.Finish): residual/closure checks.
  virtual void OnFinish(sim::TimePs /*now*/) {}

 protected:
  // Files a violation with the owning registry. Safe to call from any hook;
  // a monitor not yet added to a registry drops the report.
  void Report(sim::TimePs at, std::string message);

 private:
  friend class MonitorRegistry;
  MonitorRegistry* registry_ = nullptr;
};

// Fans NetHooks out to the registered monitors and collects violations.
class MonitorRegistry final : public NetHooks {
 public:
  // At most this many violations keep their full text; beyond it only the
  // count grows (a broken invariant in a hot loop would otherwise OOM).
  static constexpr size_t kMaxStoredViolations = 200;

  MonitorRegistry() = default;
  MonitorRegistry(const MonitorRegistry&) = delete;
  MonitorRegistry& operator=(const MonitorRegistry&) = delete;

  InvariantMonitor* Add(std::unique_ptr<InvariantMonitor> monitor);
  size_t num_monitors() const { return monitors_.size(); }

  // Installs this registry as the check-hooks sink of the listed nodes (one
  // lane's share of the fabric), so each lane's registry sees exactly its
  // own nodes' hooks (no cross-thread reports). The registry must outlive
  // the simulation.
  void AttachTo(topo::Topology& topology, const std::vector<uint32_t>& nodes);

  // Optional clock: hooks without a time argument (enqueue/dequeue/drop)
  // report at t=0 unless a clock is set, in which case every violation is
  // stamped with the simulation time at detection.
  void set_clock(const sim::Simulator* clock) { clock_ = clock; }

  // Runs every monitor's end-of-run checks. Call once, after the run.
  void Finish(sim::TimePs now);

  void ReportViolation(Violation v);
  const std::vector<Violation>& violations() const { return violations_; }
  size_t violation_count() const { return violation_count_; }
  bool ok() const { return violation_count_ == 0; }
  // One line per stored violation (plus a truncation note if applicable).
  std::string Summary() const;

  // NetHooks fan-out.
  void OnEnqueue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeue(uint32_t node, int port, const net::Packet& pkt,
                 int64_t queue_bytes_after) override;
  void OnDequeueBurst(uint32_t node, int port, const DequeueRecord* recs,
                      size_t n) override;
  void OnDrop(uint32_t node, const net::Packet& pkt,
              DropReason reason) override;
  void OnPauseChange(uint32_t node, int port, int priority, bool paused,
                     sim::TimePs now) override;
  void OnCcUpdate(uint64_t flow_id, int64_t window_bytes, int64_t rate_bps,
                  sim::TimePs now) override;
  void OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                 sim::TimePs now) override;

 private:
  std::vector<std::unique_ptr<InvariantMonitor>> monitors_;
  // Per-hook interest lists (raw views into monitors_), built at Add time.
  std::vector<InvariantMonitor*> on_enqueue_;
  std::vector<InvariantMonitor*> on_dequeue_;
  std::vector<InvariantMonitor*> on_drop_;
  std::vector<InvariantMonitor*> on_pause_;
  std::vector<InvariantMonitor*> on_cc_;
  std::vector<InvariantMonitor*> on_int_;
  std::vector<Violation> violations_;
  size_t violation_count_ = 0;
  const sim::Simulator* clock_ = nullptr;
};

}  // namespace hpcc::check
