#include "workload/flow_gen.h"

#include <cassert>

namespace hpcc::workload {

PoissonGenerator::PoissonGenerator(sim::Simulator* simulator,
                                   std::vector<uint32_t> hosts, SizeCdf cdf,
                                   const PoissonOptions& options,
                                   FlowSink sink)
    : TrafficSource(simulator, options.seed),
      hosts_(std::move(hosts)),
      cdf_(std::move(cdf)),
      options_(options),
      sink_(std::move(sink)) {
  assert(hosts_.size() >= 2);
  assert(options_.host_bps > 0);
  // Flow arrival rate lambda = load * aggregate_host_bps / (8 * mean_size).
  // Each host's NIC contributes its full rate to the aggregate; dividing by
  // the mean flow size yields flows/second for the whole fabric.
  const double aggregate_Bps = options_.load *
                               static_cast<double>(options_.host_bps) / 8.0 *
                               static_cast<double>(hosts_.size());
  const double lambda = aggregate_Bps / cdf_.MeanBytes();  // flows per second
  mean_gap_ = static_cast<sim::TimePs>(static_cast<double>(sim::kPsPerSec) /
                                       lambda);
  assert(mean_gap_ > 0);
}

void PoissonGenerator::ScheduleNext() {
  const sim::TimePs gap = static_cast<sim::TimePs>(
      rng_.Exponential(static_cast<double>(mean_gap_)));
  const sim::TimePs at = simulator_->now() + std::max<sim::TimePs>(1, gap);
  if (options_.end > 0 && at > options_.end) return;
  if (options_.max_flows > 0 && emitted_ >= options_.max_flows) return;
  Schedule(kEmit, at);
}

// The kickoff only draws the first gap; an emission releases one flow
// between a random host pair, then draws the next gap.
void PoissonGenerator::Fire(int step) {
  if (step == kEmit) {
    const size_t si = rng_.Index(hosts_.size());
    size_t di = rng_.Index(hosts_.size() - 1);
    if (di >= si) ++di;
    const uint64_t size = cdf_.Sample(rng_);
    ++emitted_;
    sink_(hosts_[si], hosts_[di], size, simulator_->now());
  }
  ScheduleNext();
}

IncastGenerator::IncastGenerator(sim::Simulator* simulator,
                                 std::vector<uint32_t> hosts,
                                 const IncastOptions& options, FlowSink sink)
    : TrafficSource(simulator, options.seed),
      hosts_(std::move(hosts)),
      options_(options),
      sink_(std::move(sink)) {
  assert(static_cast<size_t>(options_.fan_in) < hosts_.size());
}

void IncastGenerator::Fire(int /*step*/) {
  const sim::TimePs now = simulator_->now();
  // Receiver plus fan_in distinct senders.
  std::vector<size_t> picks = rng_.SampleDistinct(
      static_cast<size_t>(options_.fan_in) + 1, hosts_.size());
  const bool fixed = options_.fixed_receiver >= 0;
  const uint32_t receiver =
      fixed ? hosts_[static_cast<size_t>(options_.fixed_receiver)]
            : hosts_[picks[0]];
  int emitted = 0;
  for (size_t i = fixed ? 0 : 1;
       i < picks.size() && emitted < options_.fan_in; ++i) {
    const uint32_t sender = hosts_[picks[i]];
    if (sender == receiver) continue;
    sink_(sender, receiver, options_.flow_bytes, now);
    ++emitted;
  }
  ++emitted_;
  if (options_.period > 0) {
    const sim::TimePs next = now + options_.period;
    if (options_.end == 0 || next <= options_.end) {
      Schedule(kEmit, next);
    }
  }
}

}  // namespace hpcc::workload
