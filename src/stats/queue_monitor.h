// Periodic sampling of switch egress queue depths (queue-length CDFs of
// Fig. 9f/10b/10d and the time series of Fig. 6/9/13b/14b).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/restorable_event.h"
#include "sim/simulator.h"
#include "stats/percentile.h"
#include "stats/timeseries.h"

namespace hpcc::topo {
class Topology;
}

namespace hpcc::net {
class Port;
}

namespace hpcc::stats {

// Samples every data-priority egress queue of the given switches (one
// lane's share of the fabric) at a fixed interval; accumulates the
// distribution over (port, time).
class QueueMonitor {
 public:
  QueueMonitor(sim::Simulator* simulator, topo::Topology* topology,
               sim::TimePs interval, std::vector<uint32_t> switches);

  void Start(sim::TimePs until);
  // Folds a shard-local monitor in: the per-tick sample multiset over all
  // shards equals the single-sim one, and percentiles sort on demand.
  void Merge(const QueueMonitor& other) {
    dist_.Merge(other.dist_);
    max_seen_ = max_seen_ > other.max_seen_ ? max_seen_ : other.max_seen_;
  }
  const PercentileTracker& distribution() const { return dist_; }
  int64_t max_seen_bytes() const { return max_seen_; }

  // --- Warm checkpoint/restore (runner/experiment.h) ---------------------
  // Checkpointed sampler state: the accumulated distribution plus the one
  // pending tick with its original (time, seq) key, so the restored sampling
  // cadence is event-for-event identical to the checkpointing run's.
  struct WarmState {
    PercentileTracker dist;
    int64_t max_seen = 0;
    sim::TimePs until = 0;
    sim::RestorableEvent::State tick;
  };
  bool tick_pending() const { return tick_.pending(); }
  WarmState CaptureWarm() const {
    return {dist_, max_seen_, until_, tick_.Capture()};
  }
  // Cancels this monitor's own pending tick and replays the captured one.
  // The monitor must already be Start()ed (so the cold and warm runs drew
  // the same install-time seq).
  void RestoreWarm(const WarmState& w) {
    tick_.Restore(w.tick);
    dist_ = w.dist;
    max_seen_ = w.max_seen;
    until_ = w.until;
  }

 private:
  static constexpr int kTick = 1;  // the monitor's one RestorableEvent step

  void Sample();

  sim::Simulator* simulator_;
  topo::Topology* topology_;
  sim::TimePs interval_;
  sim::TimePs until_ = 0;
  std::vector<uint32_t> switches_;
  PercentileTracker dist_;
  int64_t max_seen_ = 0;
  sim::RestorableEvent tick_;
};

// Time series of one specific port's data queue (Fig. 6 / 13b).
class PortQueueSampler {
 public:
  PortQueueSampler(sim::Simulator* simulator, const net::Port* port,
                   sim::TimePs interval);
  void Start(sim::TimePs until);
  const TimeSeries& series() const { return series_; }

 private:
  void Sample();
  sim::Simulator* simulator_;
  const net::Port* port_;
  sim::TimePs interval_;
  sim::TimePs until_ = 0;
  TimeSeries series_;
};

}  // namespace hpcc::stats
