// Hybrid fluid/packet co-simulation gates: config + scenario-schema
// validation, fluid-engine accounting, the determinism suite (identical
// outputs across runs, --jobs values and both fastpath engines), and the
// k=16 incast A/B tolerance pin (pure-packet vs hybrid background).
#include <gtest/gtest.h>

#include <iostream>
#include <stdexcept>
#include <string>

#include "runner/experiment.h"
#include "same_outputs.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc {
namespace {

runner::ExperimentConfig SmallHybridConfig() {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kFatTree;  // default 2x2x2x8 = 32 hosts
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.3;
  cfg.trace = "websearch";
  cfg.max_flows = 40;
  cfg.flow_class = workload::FlowClass::kFluid;
  cfg.hybrid.enabled = true;
  cfg.duration = sim::Ms(1);
  cfg.seed = 5;
  return cfg;
}

TEST(Hybrid, ConfigValidation) {
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.shards = 4;  // fluid engine needs one event arena
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.cc.scheme = "dcqcn";  // no INT state to couple into
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.hybrid.enabled = false;  // fluid flows with no engine to carry them
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
  {
    runner::ExperimentConfig cfg = SmallHybridConfig();
    cfg.flow_class = workload::FlowClass::kPacket;
    cfg.hybrid.enabled = false;
    cfg.incast = true;
    cfg.incast_opts.flow_class = workload::FlowClass::kFluid;
    EXPECT_THROW(runner::Experiment e(cfg), std::invalid_argument);
  }
}

TEST(Hybrid, ScenarioSchemaValidation) {
  auto expect_parse_error = [](const std::string& text) {
    EXPECT_THROW(scenario::ParseScenarioText(text), scenario::ScenarioError)
        << text;
  };
  const std::string topo =
      R"("topology": {"kind": "fattree"}, "cc": {"scheme": "hpcc"}, )";
  // fluid class without the hybrid block — background, incast, and event.
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("workload": {"load": 0.2, "flow_class": "fluid"}})");
  expect_parse_error(
      R"({"name": "x", )" + topo +
      R"("workload": {"incast": {"fan_in": 4, "flow_class": "fluid"}}})");
  expect_parse_error(
      R"({"name": "x", )" + topo +
      R"("events": [{"type": "incast", "at_us": 10, "flow_class": "fluid"}]})");
  // hybrid demands one lane and an INT-carrying scheme.
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("hybrid": {}, "shards": 4})");
  expect_parse_error(
      R"({"name": "x", "topology": {"kind": "fattree"},
          "cc": {"scheme": "dcqcn"}, "hybrid": {}})");
  expect_parse_error(R"({"name": "x", )" + topo +
                     R"("workload": {"load": 0.2, "flow_class": "plasma"}})");

  // A valid hybrid scenario survives the ToJson/Parse round trip intact.
  const scenario::Scenario s = scenario::ParseScenarioText(
      R"({"name": "x", )" + topo +
      R"("workload": {"load": 0.2, "flow_class": "fluid"},
          "hybrid": {"tick_us": 8}})");
  EXPECT_TRUE(s.config.hybrid.enabled);
  EXPECT_EQ(s.config.hybrid.tick, sim::Us(8));
  EXPECT_EQ(s.config.flow_class, workload::FlowClass::kFluid);
  const scenario::Scenario back =
      scenario::ParseScenario(scenario::ScenarioToJson(s));
  EXPECT_TRUE(back.config.hybrid.enabled);
  EXPECT_EQ(back.config.hybrid.tick, sim::Us(8));
  EXPECT_EQ(back.config.flow_class, workload::FlowClass::kFluid);
  EXPECT_EQ(scenario::ScenarioToJson(back).Dump(),
            scenario::ScenarioToJson(s).Dump());
}

TEST(Hybrid, FluidFlowsAreAccountedAndComplete) {
  runner::ExperimentConfig cfg = SmallHybridConfig();
  runner::Experiment e(cfg);
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.fluid_flows_created, cfg.max_flows);
  EXPECT_EQ(r.flows_created, r.fluid_flows_created);  // all background = fluid
  EXPECT_EQ(r.fluid_flows_completed, r.fluid_flows_created);
  EXPECT_EQ(r.flows_completed, r.fluid_flows_completed);
  EXPECT_GT(r.fluid_ticks, 0u);
  EXPECT_GT(r.fluid_coupled_links, 0u);
  EXPECT_GT(r.fluid_delivered_bytes, 0u);
  EXPECT_NE(r.trace_hash, 0u);
}

TEST(Hybrid, MixedRunInterleavesEnginesInOneFlowIdSpace) {
  runner::ExperimentConfig cfg = SmallHybridConfig();
  cfg.incast = true;
  cfg.incast_opts.fan_in = 8;
  cfg.incast_opts.flow_bytes = 30'000;
  cfg.incast_opts.first_event = sim::Us(100);
  cfg.incast_opts.period = sim::Us(300);
  runner::Experiment e(cfg);
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.fluid_flows_created, cfg.max_flows);
  EXPECT_GT(r.flows_created, r.fluid_flows_created);  // + packet incast flows
  EXPECT_GT(r.packets_forwarded, 0u);                 // packets really flowed
  EXPECT_EQ(r.flows_completed, r.flows_created);
}

// The determinism contract: a hybrid run's trace hash is a pure function of
// its scenario document — across repeat runs, across --jobs, and across the
// fastpath/reference transmit engines (fluid state is read at tick instants
// that are engine-independent).
constexpr char kHybridScenario[] = R"({
  "name": "hybrid_determinism",
  "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
               "aggs_per_pod": 2, "cores_per_agg": 2, "hosts_per_tor": 4},
  "cc": {"scheme": "hpcc"},
  "workload": {
    "load": 0.3, "trace": "websearch", "max_flows": 30, "flow_class": "fluid",
    "incast": {"fan_in": 8, "flow_bytes": 30000, "first_event_us": 100,
               "period_us": 300}
  },
  "hybrid": {},
  "duration_ms": 1,
  "seed": 3
})";

TEST(Hybrid, DeterministicAcrossJobsAndRepeats) {
  scenario::Json doc = scenario::Json::Parse(kHybridScenario);
  scenario::Json sweep = scenario::Json::MakeObject();
  scenario::Json loads = scenario::Json::MakeArray();
  loads.Append(scenario::Json::MakeNumber(0.2));
  loads.Append(scenario::Json::MakeNumber(0.4));
  sweep.Set("workload.load", loads);
  doc.Set("sweep", sweep);
  const scenario::Scenario sc = scenario::ParseScenario(doc);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_EQ(runs.size(), 2u);

  scenario::ScenarioRunnerOptions o1;
  o1.jobs = 1;
  scenario::ScenarioRunnerOptions o4;
  o4.jobs = 4;
  const auto r1 = scenario::ScenarioRunner(o1).RunAll(runs);
  const auto r1b = scenario::ScenarioRunner(o1).RunAll(runs);
  const auto r4 = scenario::ScenarioRunner(o4).RunAll(runs);
  ASSERT_EQ(r1.size(), runs.size());
  for (const scenario::SweepRunResult& r : r1) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_NE(r.result.trace_hash, 0u);
  }
  scenario::ExpectSameOutputs(r1, r1b);
  scenario::ExpectSameOutputs(r1, r4);
}

TEST(Hybrid, ShardsOverrideFailsLoudly) {
  // The fluid engine runs on one lane: a --shards=2 override must fail the
  // point with an error naming the conflict, not demote it to one lane.
  scenario::ScenarioRun run;
  run.scenario = scenario::ParseScenarioText(kHybridScenario);
  run.label = run.scenario.name;
  scenario::RunOneOptions opts;
  opts.shards_override = 2;
  const scenario::SweepRunResult r =
      scenario::ScenarioRunner::RunOne(run, opts);
  EXPECT_NE(r.error.find("hybrid"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("shards"), std::string::npos) << r.error;
}

TEST(Hybrid, DeterministicAcrossFastpathEnginesAndMonitorClean) {
  scenario::ScenarioRun run;
  run.scenario = scenario::ParseScenarioText(kHybridScenario);
  run.label = run.scenario.name;
  scenario::RunOneOptions opts;
  opts.check = true;
  opts.fastpath_override = 1;
  const scenario::SweepRunResult trains =
      scenario::ScenarioRunner::RunOne(run, opts);
  opts.fastpath_override = 0;
  const scenario::SweepRunResult reference =
      scenario::ScenarioRunner::RunOne(run, opts);
  ASSERT_TRUE(trains.error.empty()) << trains.error;
  EXPECT_EQ(trains.violation_count, 0u)
      << trains.violations.front().Format();
  EXPECT_NE(trains.result.trace_hash, 0u);
  EXPECT_GT(trains.result.flows_created, 0u);
  scenario::ExpectSameOutputs({&trains, 1}, {&reference, 1});
}

// The k=16 A/B gate: the same foreground (16-way incast of short packet
// flows, every 300 us) over the same offered background load, carried once
// as packet flows and once as fluid trajectories. The hybrid approximation
// must keep the foreground's FCT distribution in the packet run's
// neighborhood — this pins how far the coupling is allowed to drift.
TEST(Hybrid, K16IncastAbFctWithinTolerance) {
  auto run = [](bool hybrid) {
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kFatTree;  // 32 hosts
    cfg.cc.scheme = "hpcc";
    cfg.load = 0.3;
    cfg.trace = "websearch";
    cfg.max_flows = 60;
    cfg.duration = sim::Ms(2);
    cfg.seed = 11;
    cfg.incast = true;
    cfg.incast_opts.fan_in = 16;
    cfg.incast_opts.flow_bytes = 3'000;  // short-flow class, tracked apart
    cfg.incast_opts.first_event = sim::Us(100);
    cfg.incast_opts.period = sim::Us(300);
    if (hybrid) {
      cfg.flow_class = workload::FlowClass::kFluid;
      cfg.hybrid.enabled = true;
    }
    runner::Experiment e(cfg);
    return e.Run();
  };
  const runner::ExperimentResult packet = run(false);
  const runner::ExperimentResult hybrid = run(true);
  ASSERT_EQ(packet.flows_completed, packet.flows_created);
  ASSERT_EQ(hybrid.flows_completed, hybrid.flows_created);

  // Foreground short-flow completion (the incast flows are packet-class in
  // BOTH runs; only the background engine differs).
  const double p_p95 = packet.short_fct_us.Percentile(95);
  const double h_p95 = hybrid.short_fct_us.Percentile(95);
  ASSERT_GT(p_p95, 0.0);
  ASSERT_GT(h_p95, 0.0);
  const double ratio = h_p95 / p_p95;
  std::cout << "[ A/B      ] packet p95 " << p_p95 << " us, hybrid p95 "
            << h_p95 << " us, ratio " << ratio << "\n";
  // Measured 0.92 at this configuration (fluid backgrounds run marginally
  // smoother than their packet twins — no per-packet burstiness). The band
  // is the acceptance gate for coupling changes: drifting outside it means
  // the fluid backpressure no longer resembles the packet background.
  EXPECT_GT(ratio, 0.7) << "hybrid p95 " << h_p95 << " vs packet " << p_p95;
  EXPECT_LT(ratio, 1.4) << "hybrid p95 " << h_p95 << " vs packet " << p_p95;
}

}  // namespace
}  // namespace hpcc
