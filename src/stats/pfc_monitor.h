// PFC pause bookkeeping: pause-time fraction (Fig. 11b/11d), pause event
// durations (Fig. 2b), propagation depth and suppressed bandwidth
// (the Fig. 1 substitute experiment).
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
    int64_t port_bps = 0;
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
  // independent); peak_paused_bps becomes the max of per-shard peaks — a
  // lower bound on the true global simultaneous peak, which only the opt-in
  // profile section reports, never deterministic output.
  void Merge(const PfcMonitor& other);

  size_t pause_count() const { return events_.size(); }
  const std::vector<PauseEvent>& events() const { return events_; }
  sim::TimePs total_pause_time() const;
  // Fraction (0..1) of port-time spent paused over `elapsed` across
  // `num_ports` observed ports.
  double PauseTimeFraction(sim::TimePs elapsed, int num_ports) const;
  // Distribution of individual pause durations in microseconds.
  PercentileTracker DurationDistributionUs() const;
  // Peak simultaneous paused capacity (bps) and its fraction of total.
  int64_t peak_paused_bps() const { return peak_paused_bps_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // A checkpoint is only taken while no pause is open, so the closed event
  // list plus the peak is the complete state (port_bps_ is structural and
  // refilled by AttachTo on the restoring run).
  bool has_open_pauses() const { return !open_.empty(); }
  struct WarmState {
    std::vector<PauseEvent> events;
    int64_t peak_paused_bps = 0;
  };
  WarmState CaptureWarm() const { return {events_, peak_paused_bps_}; }
  void RestoreWarm(const WarmState& w) {
    events_ = w.events;
    peak_paused_bps_ = w.peak_paused_bps;
  }

 private:
  void OnChange(uint32_t node, int port, int prio, sim::TimePs now,
                bool paused);

  net::PauseObserver observer_{
      [this](uint32_t node, int port, int prio, sim::TimePs now,
             bool paused) { OnChange(node, port, prio, now, paused); }};
  std::vector<PauseEvent> events_;
  std::map<std::pair<uint32_t, int>, size_t> open_;  // (node,port) -> event
  std::map<std::pair<uint32_t, int>, int64_t> port_bps_;
  int64_t paused_bps_now_ = 0;
  int64_t peak_paused_bps_ = 0;
};

}  // namespace hpcc::stats
