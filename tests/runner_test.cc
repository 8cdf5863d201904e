// Tests for the experiment runner: configuration wiring, monitors, metrics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "runner/experiment.h"
#include "scenario/scenario.h"

namespace hpcc::runner {
namespace {

TEST(Runner, MeasuresBaseRttFromTopology) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  Experiment e(cfg);
  EXPECT_GT(e.base_rtt(), sim::Us(3));
  EXPECT_LT(e.base_rtt(), sim::Us(6));
}

TEST(Runner, SwitchConfigFollowsScheme) {
  auto red_enabled = [](const char* scheme) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kStar;
    cfg.star.num_hosts = 2;
    cfg.cc.scheme = scheme;
    Experiment e(cfg);
    return e.topology()
        .switch_node(e.topology().switches()[0])
        .config()
        .red.enabled;
  };
  EXPECT_TRUE(red_enabled("dcqcn"));
  EXPECT_TRUE(red_enabled("dctcp"));
  EXPECT_FALSE(red_enabled("hpcc"));
  EXPECT_FALSE(red_enabled("timely"));
}

TEST(Runner, RedOverrideWins) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.cc.scheme = "hpcc";
  cfg.red_override = net::RedConfig::Dcqcn(12, 50);
  Experiment e(cfg);
  const auto& red =
      e.topology().switch_node(e.topology().switches()[0]).config().red;
  EXPECT_TRUE(red.enabled);
  EXPECT_DOUBLE_EQ(red.kmin_bytes, 12'000.0);
}

TEST(Runner, PfcDisableFlagPropagates) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.pfc_enabled = false;
  Experiment e(cfg);
  EXPECT_FALSE(e.topology()
                   .switch_node(e.topology().switches()[0])
                   .config()
                   .pfc_enabled);
}

TEST(Runner, PoissonRunCompletesAndRecordsEverything) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 6;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.4;
  cfg.trace = "fbhadoop";
  cfg.max_flows = 80;
  cfg.duration = sim::Ms(2);
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_created, 80u);
  EXPECT_EQ(r.flows_completed, 80u);
  EXPECT_EQ(r.fct->total_flows(), 80u);
  EXPECT_GT(r.events_executed, 1000u);
  EXPECT_GT(r.queue_dist.Count(), 0u);
  EXPECT_FALSE(r.Summary().empty());
}

TEST(Runner, ShortFlowLatencyTracked) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  cfg.short_flow_bytes = 3'000;
  Experiment e(cfg);
  const auto& h = e.hosts();
  e.AddFlow(h[0], h[2], 1'000, 0);     // short
  e.AddFlow(h[1], h[2], 500'000, 0);   // long
  e.RunUntil(sim::Ms(5));
  ExperimentResult r = e.Collect();
  EXPECT_EQ(r.short_fct_us.Count(), 1u);
  EXPECT_GT(r.short_fct_us.Percentile(50), 0.0);
}

TEST(Runner, DrainFinishesTailFlows) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 4;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.5;
  cfg.trace = "websearch";  // heavy tail: some flows outlive `duration`
  cfg.max_flows = 30;
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 50.0;
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_completed, r.flows_created);
  EXPECT_GE(r.sim_time, cfg.duration);
}

TEST(Runner, SeedsChangeWorkload) {
  auto run = [](uint64_t seed) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kStar;
    cfg.star.num_hosts = 4;
    cfg.load = 0.3;
    cfg.max_flows = 20;
    cfg.duration = sim::Ms(2);
    cfg.seed = seed;
    Experiment e(cfg);
    ExperimentResult r = e.Run();
    return r.events_executed;
  };
  EXPECT_NE(run(1), run(2));
  EXPECT_EQ(run(3), run(3));  // and identical seeds reproduce exactly
}

TEST(Runner, TestbedTopologyWiring) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kTestbed;
  cfg.testbed.servers_per_pair = 4;
  Experiment e(cfg);
  EXPECT_EQ(e.hosts().size(), 8u);
  // Dual-homed: every host has two NIC ports.
  EXPECT_EQ(e.topology().host(e.hosts()[0]).num_ports(), 2);
}

TEST(Runner, DumbbellHostOrdering) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kDumbbell;
  cfg.dumbbell.hosts_per_side = 3;
  Experiment e(cfg);
  ASSERT_EQ(e.hosts().size(), 6u);
  // Left hosts first, then right (documented for bench writers).
  EXPECT_EQ(e.topology().PathHops(e.hosts()[0], e.hosts()[1]), 2);
  EXPECT_EQ(e.topology().PathHops(e.hosts()[0], e.hosts()[3]), 3);
}

TEST(Runner, ShardsAboveBoundRejected) {
  // Lane threads start only in the round loop, so the refused constructor
  // starts none.
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.shards = kMaxShards + 1;
  EXPECT_THROW(Experiment e(cfg), std::invalid_argument);
}

TEST(Runner, AddFlowRejectsSelfTraffic) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  Experiment e(cfg);
  EXPECT_THROW(e.AddFlow(e.hosts()[0], e.hosts()[0], 1000, 0),
               std::invalid_argument);
}

// RunUntil drives the same barrier-round loop as Run at every lane count:
// stepping the fig13 trunk flap through fixed horizons — two of them exactly
// the link_down / link_up instants — leaves one and two lanes with the same
// flows, clock and drops.
TEST(Runner, RunUntilWithLinkFlapIsShardEqual) {
  const scenario::Scenario s = scenario::LoadScenarioFile(
      std::string(HPCC_SOURCE_DIR) +
      "/examples/scenarios/fig13_link_failure.json");
  auto run = [&s](int shards) {
    ExperimentConfig cfg = scenario::MakeExperimentConfig(s);
    cfg.shards = shards;
    Experiment e(cfg);
    scenario::InstallEvents(e, s);
    e.StartWorkload();
    const size_t trunk = 0;
    for (sim::TimePs t : {sim::Us(250), sim::Us(300), sim::Us(550),
                          sim::Us(800), sim::Ms(3)}) {
      e.RunUntil(t);
      EXPECT_EQ(e.simulator().now(), t);
      // Every event at the horizon ran, the scripted flap included.
      EXPECT_EQ(e.topology().links()[trunk].up,
                t < sim::Us(300) || t >= sim::Us(800))
          << "t=" << sim::ToUs(t) << "us";
    }
    return e.Collect();
  };
  const ExperimentResult one = run(1);
  const ExperimentResult two = run(2);
  EXPECT_GT(one.flows_created, 0u);
  EXPECT_EQ(two.flows_created, one.flows_created);
  EXPECT_EQ(two.flows_completed, one.flows_completed);
  EXPECT_EQ(two.trace_hash, one.trace_hash);
  EXPECT_EQ(two.sim_time, one.sim_time);
  EXPECT_EQ(two.dropped_packets, one.dropped_packets);
  for (int d = 0; d < check::kNumDropReasons; ++d) {
    EXPECT_EQ(two.dropped_by_reason[d], one.dropped_by_reason[d]) << d;
  }
}

// Destroying a sharded run mid-flight: lane 1's hosts still hold DCQCN
// flows whose timers sit on lane 1's simulator, so every lane simulator must
// outlive the nodes (a sanitizer build reports a heap-use-after-free when a
// lane simulator is freed first).
TEST(Runner, ShardedTeardownWithFlowsInFlight) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kFatTree;
  cfg.cc.scheme = "dcqcn";
  cfg.shards = 2;
  auto e = std::make_unique<Experiment>(cfg);
  std::vector<uint32_t> lane_hosts[2];
  for (int lane = 0; lane < 2; ++lane) {
    for (const uint32_t id : e->lane_nodes(lane)) {
      if (!e->topology().node(id).IsSwitch()) lane_hosts[lane].push_back(id);
    }
    ASSERT_FALSE(lane_hosts[lane].empty()) << "lane " << lane;
  }
  e->AddFlow(lane_hosts[1].front(), lane_hosts[0].front(), 10'000'000, 0);
  e->AddFlow(lane_hosts[0].back(), lane_hosts[1].back(), 10'000'000, 0);
  e->RunUntil(sim::Us(100));
  size_t in_flight = 0;
  for (const host::Flow* f : e->AllFlows()) in_flight += f->done ? 0 : 1;
  EXPECT_EQ(in_flight, 2u);
  e.reset();
}

}  // namespace
}  // namespace hpcc::runner
