// Traffic generators (§5.1): Poisson background load drawn from a flow-size
// CDF between random host pairs, and the synchronized N-to-1 incast events
// (60 senders x 500 KB by default).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.h"
#include "sim/simulator.h"
#include "workload/size_cdf.h"
#include "workload/traffic_source.h"

namespace hpcc::workload {

// Receives (src, dst, size, start): the runner turns these into flows.
using FlowSink =
    std::function<void(uint32_t src, uint32_t dst, uint64_t size_bytes,
                       sim::TimePs start)>;

struct PoissonOptions {
  double load = 0.3;           // fraction of aggregate host NIC bandwidth
  int64_t host_bps = 0;        // per-host NIC rate
  sim::TimePs start = 0;
  sim::TimePs end = 0;         // stop generating at this time
  uint64_t max_flows = 0;      // 0 = unlimited (until `end`)
  uint64_t seed = 1;
};

class PoissonGenerator : public TrafficSource {
 public:
  PoissonGenerator(sim::Simulator* simulator, std::vector<uint32_t> hosts,
                   SizeCdf cdf, const PoissonOptions& options, FlowSink sink);

  void Start() override { Schedule(kKickoff, options_.start); }
  sim::TimePs first_activity() const override { return options_.start; }

 private:
  void Fire(int step) override;
  void ScheduleNext();

  std::vector<uint32_t> hosts_;
  SizeCdf cdf_;
  PoissonOptions options_;
  FlowSink sink_;
  sim::TimePs mean_gap_ = 0;
};

struct IncastOptions {
  int fan_in = 60;              // senders per event (§5.3)
  uint64_t flow_bytes = 500'000;
  sim::TimePs first_event = sim::Us(100);
  sim::TimePs period = sim::Ms(10);  // 0 = single event
  sim::TimePs end = 0;
  uint64_t seed = 7;
  int32_t fixed_receiver = -1;  // -1 = random receiver per event
  // Transport engine the emitted flows ride (the generator itself is
  // engine-agnostic; the experiment's sink dispatches on this).
  FlowClass flow_class = FlowClass::kPacket;
};

class IncastGenerator : public TrafficSource {
 public:
  IncastGenerator(sim::Simulator* simulator, std::vector<uint32_t> hosts,
                  const IncastOptions& options, FlowSink sink);
  void Start() override { Schedule(kEmit, options_.first_event); }
  sim::TimePs first_activity() const override { return options_.first_event; }

 private:
  void Fire(int step) override;

  std::vector<uint32_t> hosts_;
  IncastOptions options_;
  FlowSink sink_;
};

}  // namespace hpcc::workload
