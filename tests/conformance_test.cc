// Cross-scheme conformance: every primary CC scheme (hpcc, dcqcn, timely,
// dctcp, rcp) runs one shared dumbbell scenario — an 6-to-1 incast through a
// 2:1-oversubscribed trunk plus a pinned reverse flow — under the full
// invariant-monitor set, and must meet the same basic FCT/throughput sanity
// bounds. This is deliberately scheme-agnostic: it doesn't rank schemes, it
// catches a scheme that stops making progress, blows up its queues, escapes
// its rate bounds, or trips any global invariant.
#include <gtest/gtest.h>

#include "cc/factory.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

class Conformance : public ::testing::TestWithParam<std::string> {};

// All flows are fixed-size incast members (100 KB), so every scheme can
// finish them well inside the drain window and completion is a hard bound.
Scenario SharedDumbbellScenario(const std::string& scheme) {
  const std::string text = R"({
    "name": "conformance",
    "topology": {"kind": "dumbbell", "hosts_per_side": 4,
                 "host_gbps": 25, "trunk_gbps": 50},
    "cc": {"scheme": ")" + scheme + R"("},
    "workload": {"load": 0},
    "duration_ms": 0.5,
    "drain_factor": 8,
    "seed": 3,
    "events": [
      {"type": "incast", "at_us": 20, "fan_in": 6, "flow_bytes": 100000,
       "receiver": 0},
      {"type": "incast", "at_us": 250, "fan_in": 6, "flow_bytes": 100000,
       "receiver": 5}
    ]
  })";
  return ParseScenarioText(text);
}

TEST_P(Conformance, SharedDumbbellSanityBounds) {
  const std::string scheme = GetParam();
  const Scenario s = SharedDumbbellScenario(scheme);
  const std::vector<ScenarioRun> runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 1u);

  RunOneOptions checked;
  checked.check = true;
  const SweepRunResult r = ScenarioRunner::RunOne(runs[0], checked);
  ASSERT_TRUE(r.error.empty()) << scheme << ": " << r.error;
  EXPECT_EQ(r.violation_count, 0u)
      << scheme << " violated invariants:\n"
      << (r.violations.empty() ? "" : r.violations.front().Format());

  const runner::ExperimentResult& res = r.result;
  // Progress: both bursts ran and every flow finished.
  EXPECT_EQ(res.flows_created, 12u) << scheme;
  EXPECT_EQ(res.flows_completed, res.flows_created) << scheme;
  EXPECT_EQ(res.dropped_packets, 0u) << scheme;  // PFC-protected fabric

  // FCT sanity: the slowdown of a 6-to-1 incast member is bounded by the
  // fan-in times a generous scheduling/queueing allowance. A scheme that
  // stalls (RTO recovery, rate collapse) blows way past this.
  const stats::PercentileTracker& slow = res.fct->overall();
  EXPECT_GE(slow.Percentile(50), 1.0) << scheme;
  EXPECT_LT(slow.Percentile(50), 30.0) << scheme;
  EXPECT_LT(slow.Percentile(99), 60.0) << scheme;

  // Throughput sanity: 12 x 100 KB must not need more than 16x the ideal
  // serial time through the 25 Gbps receiver NICs (2 receivers).
  const double ideal_us = 6 * 100'000 * 8 / 25e9 * 1e6;  // one burst, ~192us
  EXPECT_LT(sim::ToUs(res.sim_time), 16 * ideal_us) << scheme;

  // Queue sanity: bounded by the shared buffer with room to spare.
  EXPECT_LE(res.max_queue_bytes, 32LL * 1024 * 1024) << scheme;
}

INSTANTIATE_TEST_SUITE_P(PrimarySchemes, Conformance,
                         ::testing::ValuesIn(cc::PrimarySchemes()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace hpcc::scenario
