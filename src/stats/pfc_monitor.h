// PFC pause bookkeeping: pause-time fraction (Fig. 11b/11d), pause event
// durations (Fig. 2b) and the pause windows, each with its pause-chain depth,
// that Fig. 1's summaries (runner::Experiment::Collect) and trace export
// read.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/port.h"
#include "sim/time.h"
#include "stats/percentile.h"

namespace hpcc::topo {
class Topology;
}

namespace hpcc::stats {

class PfcMonitor {
 public:
  struct PauseEvent {
    sim::TimePs start = 0;
    sim::TimePs end = -1;  // -1 while still paused
    uint32_t node = 0;     // node whose egress got paused
    int port = 0;
    int depth = 0;         // the PAUSE frame's pause-chain depth
  };

  // Returns the observer to install on every port (Topology helper below).
  const net::PauseObserver& observer() const { return observer_; }

  // Attach to every port of the listed nodes (one lane's share of the
  // fabric).
  void AttachTo(topo::Topology& topology, const std::vector<uint32_t>& nodes);

  // Call once at the end of a run to close still-open pauses.
  void Finish(sim::TimePs now);

  // Folds a Finish()ed shard-local monitor in. Event lists concatenate (the
  // aggregate total_pause_time and duration distribution are order-
  // independent).
  void Merge(const PfcMonitor& other);

  size_t pause_count() const { return events_.size(); }
  const std::vector<PauseEvent>& events() const { return events_; }
  sim::TimePs total_pause_time() const;
  // Fraction (0..1) of port-time spent paused over `elapsed` across
  // `num_ports` observed ports.
  double PauseTimeFraction(sim::TimePs elapsed, int num_ports) const;
  // Distribution of individual pause durations in microseconds.
  PercentileTracker DurationDistributionUs() const;

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // A checkpoint is only taken while no pause is open, so the closed event
  // list is the complete state.
  bool has_open_pauses() const { return !open_.empty(); }
  struct WarmState {
    std::vector<PauseEvent> events;
  };
  WarmState CaptureWarm() const { return {events_}; }
  void RestoreWarm(const WarmState& w) { events_ = w.events; }

 private:
  void OnChange(uint32_t node, int port, int prio, sim::TimePs now,
                bool paused, int depth);

  net::PauseObserver observer_{[this](uint32_t node, int port, int prio,
                                      sim::TimePs now, bool paused,
                                      int depth) {
    OnChange(node, port, prio, now, paused, depth);
  }};
  std::vector<PauseEvent> events_;
  std::map<std::pair<uint32_t, int>, size_t> open_;  // (node,port) -> event
};

}  // namespace hpcc::stats
