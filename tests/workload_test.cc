// Tests for flow-size CDFs and the Poisson/incast traffic generators.
#include <gtest/gtest.h>

#include <set>

#include "core/hash.h"
#include "sim/simulator.h"
#include "workload/flow_gen.h"
#include "workload/size_cdf.h"

namespace hpcc::workload {
namespace {

// Regression for the affine sub-seed bug: `seed * 31 + 1000 + index` put
// seed 1/index 31 and seed 2/index 0 on the same generator RNG stream.
// DeriveSeed must keep every (seed, stream) pair distinct across the ranges
// the scenario layer uses (incast events 1000+, load phases 2000+, the
// workload incast stream 7).
TEST(DeriveSeed, NoCollisionsAcrossSeedStreamGrid) {
  EXPECT_NE(core::DeriveSeed(1, 1000 + 31), core::DeriveSeed(2, 1000 + 0));
  std::set<uint64_t> seen;
  size_t total = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    seen.insert(core::DeriveSeed(seed, 7));
    ++total;
    for (uint64_t index = 0; index < 64; ++index) {
      seen.insert(core::DeriveSeed(seed, 1000 + index));
      seen.insert(core::DeriveSeed(seed, 2000 + index));
      total += 2;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(SizeCdf, RejectsMalformed) {
  EXPECT_THROW(SizeCdf({{100, 0.5}, {200, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SizeCdf({{100, 0.0}, {200, 0.9}}), std::invalid_argument);
  EXPECT_THROW(SizeCdf({{100, 0.0}, {50, 1.0}}), std::invalid_argument);
}

TEST(SizeCdf, FixedAlwaysReturnsSameSize) {
  SizeCdf cdf = SizeCdf::Fixed(500'000);
  sim::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cdf.Sample(rng), 500'000u);
  EXPECT_DOUBLE_EQ(cdf.MeanBytes(), 500'000.0);
}

TEST(SizeCdf, CdfIsMonotone) {
  SizeCdf cdf = SizeCdf::WebSearch();
  double prev = 0;
  for (uint64_t b : {100ull, 1000ull, 10'000ull, 100'000ull, 1'000'000ull,
                     10'000'000ull, 50'000'000ull}) {
    const double c = cdf.Cdf(b);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(cdf.Cdf(100'000'000), 1.0);
}

class CdfSampling : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CdfSampling, SampleMeanMatchesAnalyticMean) {
  // Property: the empirical mean of samples converges to MeanBytes().
  for (const SizeCdf& cdf : {SizeCdf::WebSearch(), SizeCdf::FbHadoop()}) {
    sim::Rng rng(GetParam());
    const int n = 200'000;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(cdf.Sample(rng));
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, cdf.MeanBytes(), cdf.MeanBytes() * 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfSampling, ::testing::Values(1, 7, 42));

TEST(SizeCdf, WebSearchShape) {
  SizeCdf cdf = SizeCdf::WebSearch();
  // Heavy tail: mean well above the median sizes.
  EXPECT_GT(cdf.MeanBytes(), 1e6);
  EXPECT_LT(cdf.MeanBytes(), 3e6);
  EXPECT_NEAR(cdf.Cdf(30'000), 0.30, 0.01);
}

TEST(SizeCdf, FbHadoopMostlyTiny) {
  SizeCdf cdf = SizeCdf::FbHadoop();
  // §5.3: 90% of FB_Hadoop flows are shorter than 120 KB.
  EXPECT_GE(cdf.Cdf(120'000), 0.90);
  EXPECT_GE(cdf.Cdf(1'000), 0.75);
}

TEST(SizeCdf, SamplesWithinSupport) {
  SizeCdf cdf = SizeCdf::FbHadoop();
  sim::Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t s = cdf.Sample(rng);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 10'000'000u);
  }
}

TEST(Poisson, AchievesTargetLoad) {
  sim::Simulator s;
  std::vector<uint32_t> hosts{0, 1, 2, 3, 4, 5, 6, 7};
  PoissonOptions o;
  o.load = 0.5;
  o.host_bps = 100'000'000'000;
  o.end = sim::Ms(50);
  o.seed = 11;
  uint64_t total_bytes = 0;
  uint64_t flows = 0;
  PoissonGenerator gen(&s, hosts, SizeCdf::WebSearch(), o,
                       [&](uint32_t, uint32_t, uint64_t size, sim::TimePs) {
                         total_bytes += size;
                         ++flows;
                       });
  gen.Start();
  s.Run();
  // Offered load = bytes / time vs aggregate capacity.
  const double offered_Bps =
      static_cast<double>(total_bytes) / sim::ToSec(sim::Ms(50));
  const double capacity_Bps = 8 * 100e9 / 8.0;
  EXPECT_NEAR(offered_Bps / capacity_Bps, 0.5, 0.08);
  EXPECT_GT(flows, 100u);
}

TEST(Poisson, SrcNeverEqualsDst) {
  sim::Simulator s;
  std::vector<uint32_t> hosts{10, 20, 30};
  PoissonOptions o;
  o.load = 0.3;
  o.host_bps = 25'000'000'000;
  o.end = sim::Ms(20);
  PoissonGenerator gen(&s, hosts, SizeCdf::FbHadoop(), o,
                       [&](uint32_t src, uint32_t dst, uint64_t, sim::TimePs) {
                         EXPECT_NE(src, dst);
                       });
  gen.Start();
  s.Run();
}

TEST(Poisson, MaxFlowsStopsGeneration) {
  sim::Simulator s;
  std::vector<uint32_t> hosts{0, 1};
  PoissonOptions o;
  o.load = 0.9;
  o.host_bps = 100'000'000'000;
  o.end = sim::Sec(10);
  o.max_flows = 25;
  uint64_t flows = 0;
  PoissonGenerator gen(&s, hosts, SizeCdf::FbHadoop(), o,
                       [&](uint32_t, uint32_t, uint64_t, sim::TimePs) {
                         ++flows;
                       });
  gen.Start();
  s.Run();
  EXPECT_EQ(flows, 25u);
}

TEST(Incast, EmitsFanInDistinctSenders) {
  sim::Simulator s;
  std::vector<uint32_t> hosts;
  for (uint32_t i = 0; i < 100; ++i) hosts.push_back(i);
  IncastOptions o;
  o.fan_in = 60;
  o.flow_bytes = 500'000;
  o.first_event = sim::Us(10);
  o.period = 0;  // single event
  std::set<uint32_t> senders;
  std::set<uint32_t> receivers;
  IncastGenerator gen(&s, hosts, o,
                      [&](uint32_t src, uint32_t dst, uint64_t size,
                          sim::TimePs at) {
                        EXPECT_EQ(size, 500'000u);
                        EXPECT_EQ(at, sim::Us(10));
                        EXPECT_NE(src, dst);
                        senders.insert(src);
                        receivers.insert(dst);
                      });
  gen.Start();
  s.Run();
  EXPECT_EQ(senders.size(), 60u);  // distinct senders
  EXPECT_EQ(receivers.size(), 1u);
  EXPECT_EQ(gen.emitted(), 1u);
}

TEST(Incast, PeriodicEventsUntilEnd) {
  sim::Simulator s;
  std::vector<uint32_t> hosts;
  for (uint32_t i = 0; i < 20; ++i) hosts.push_back(i);
  IncastOptions o;
  o.fan_in = 5;
  o.first_event = sim::Us(100);
  o.period = sim::Ms(1);
  o.end = sim::Ms(5);
  uint64_t flows = 0;
  IncastGenerator gen(&s, hosts, o,
                      [&](uint32_t, uint32_t, uint64_t, sim::TimePs) {
                        ++flows;
                      });
  gen.Start();
  s.Run();
  // Events at 0.1, 1.1, 2.1, 3.1, 4.1 ms.
  EXPECT_EQ(gen.emitted(), 5u);
  EXPECT_EQ(flows, 25u);
}

TEST(Incast, FixedReceiver) {
  sim::Simulator s;
  std::vector<uint32_t> hosts{0, 1, 2, 3, 4, 5, 6, 7};
  IncastOptions o;
  o.fan_in = 4;
  o.period = sim::Us(100);
  o.end = sim::Ms(1);
  o.fixed_receiver = 3;  // index into hosts
  IncastGenerator gen(&s, hosts, o,
                      [&](uint32_t src, uint32_t dst, uint64_t, sim::TimePs) {
                        EXPECT_EQ(dst, 3u);
                        EXPECT_NE(src, 3u);
                      });
  gen.Start();
  s.Run();
  EXPECT_GT(gen.emitted(), 5u);
}

}  // namespace
}  // namespace hpcc::workload
