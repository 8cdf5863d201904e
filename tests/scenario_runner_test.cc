// Event-script and sweep-runner tests: scripted link_down/link_up drives
// Topology::SetLinkUp (routes recompute, stalled flows recover and finish),
// load phases gate the background generator, the parallel sweep runner
// produces identical outputs for any job count, and
// ScenarioRunner::CompareOutputs reports each single difference once.
#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <utility>

#include "net/packet.h"
#include "obs/manifest.h"
#include "same_outputs.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

// Dumbbell with a 2-to-1 incast crossing the trunk (link 0); the trunk fails
// mid-transfer and repairs 600us later.
constexpr char kLinkScript[] = R"({
  "name": "linkscript",
  "topology": {"kind": "dumbbell", "hosts_per_side": 2},
  "cc": {"scheme": "hpcc", "expected_flows": 2},
  "duration_ms": 3,
  "drain_factor": 6,
  "events": [
    {"type": "incast", "at_us": 50, "fan_in": 2, "flow_bytes": 5000000,
     "receiver": 2},
    {"type": "link_down", "at_us": 100, "link": 0},
    {"type": "link_up", "at_us": 700, "link": 0}
  ]
})";

TEST(ScenarioEvents, LinkScriptRecomputesRoutesAndFlowsFinish) {
  const Scenario s = ParseScenarioText(kLinkScript);
  runner::Experiment e(MakeExperimentConfig(s));
  InstallEvents(e, s);

  topo::Topology& t = e.topology();
  const uint32_t left_sw = t.switches()[0];
  const uint32_t left_host = e.hosts()[0];   // left side
  const uint32_t right_host = e.hosts()[2];  // right side (incast receiver)
  ASSERT_EQ(t.links()[0].a, left_sw);  // link 0 is the trunk

  // Before the failure: trunk up, cross-side route exists (host-sw-sw-host).
  EXPECT_TRUE(t.links()[0].up);
  EXPECT_EQ(t.Distance(left_host, right_host), 3);

  // Mid-outage: the event script took the trunk down and routes recomputed —
  // the sides are partitioned and the left switch has no port toward the
  // right-side host.
  e.RunUntil(sim::Us(300));
  EXPECT_FALSE(t.links()[0].up);
  EXPECT_LT(t.Distance(left_host, right_host), 0);
  net::Packet probe;
  probe.dst = right_host;
  probe.flow_id = 1;
  EXPECT_LT(t.switch_node(left_sw).RoutePort(probe), 0);
  // Same-side routing is unaffected.
  EXPECT_EQ(t.Distance(left_host, e.hosts()[1]), 2);
  // The incast fired before the failure, so flows exist and are in flight.
  ASSERT_EQ(e.AllFlows().size(), 2u);
  EXPECT_EQ(e.flows_completed(), 0u);

  // After the repair event: connectivity and ECMP tables are back.
  e.RunUntil(sim::Us(1000));
  EXPECT_TRUE(t.links()[0].up);
  EXPECT_EQ(t.Distance(left_host, right_host), 3);
  EXPECT_GE(t.switch_node(left_sw).RoutePort(probe), 0);

  // Flows stalled by the outage recover and finish.
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_created, 2u);
  EXPECT_EQ(r.flows_completed, 2u);
}

TEST(ScenarioEvents, RunOneExecutesTheFullScript) {
  const Scenario s = ParseScenarioText(kLinkScript);
  ScenarioRun run;
  run.label = "linkscript";
  run.scenario = s;
  const SweepRunResult r = ScenarioRunner::RunOne(run);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.flows_created, 2u);
  EXPECT_EQ(r.result.flows_completed, 2u);
}

TEST(ScenarioEvents, LoadPhasePausesBackgroundTraffic) {
  const char* base = R"({
    "name": "phase",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.3, "trace": "fbhadoop"},
    "duration_ms": 1%s
  })";
  char with_pause[512];
  std::snprintf(with_pause, sizeof(with_pause), base,
                R"(,
    "events": [{"type": "load_phase", "at_us": 200, "load": 0}])");
  char constant[512];
  std::snprintf(constant, sizeof(constant), base, "");

  ScenarioRun a;
  a.scenario = ParseScenarioText(constant);
  ScenarioRun b;
  b.scenario = ParseScenarioText(with_pause);
  const SweepRunResult ra = ScenarioRunner::RunOne(a);
  const SweepRunResult rb = ScenarioRunner::RunOne(b);
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
  // Pausing the generator at 200us of a 1ms horizon must cut flow count
  // hard; both runs still complete everything they created.
  EXPECT_GT(ra.result.flows_created, 2 * rb.result.flows_created);
  EXPECT_GT(rb.result.flows_created, 0u);
  EXPECT_EQ(rb.result.flows_completed, rb.result.flows_created);
}

TEST(ScenarioEvents, MaxFlowsCapsTheWholeBackgroundAcrossPhases) {
  // One load_phase event splits the background into two generators; the
  // max_flows cap must still apply globally, exactly as it would without
  // the event.
  const Scenario s = ParseScenarioText(R"({
    "name": "cap",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.4, "trace": "fbhadoop", "max_flows": 20},
    "duration_ms": 1,
    "events": [{"type": "load_phase", "at_us": 100, "load": 0.8}]
  })");
  ScenarioRun run;
  run.scenario = s;
  const SweepRunResult r = ScenarioRunner::RunOne(run);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.flows_created, 20u);
}

TEST(ScenarioEvents, InstallValidatesAgainstLiveTopology) {
  // Link index out of range (star with 3 hosts has 3 links).
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "link_down", "at_us": 1, "link": 99}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
  // Incast fan-in larger than the host count.
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "incast", "at_us": 1, "fan_in": 8,
                  "flow_bytes": 1000}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
  // Incast receiver index out of range.
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "incast", "at_us": 1, "fan_in": 2,
                  "flow_bytes": 1000, "receiver": 5}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
}

constexpr char kSeedSweep[] = R"({
  "name": "seeds",
  "topology": {"kind": "star", "hosts": 4},
  "workload": {"load": 0.3, "trace": "fbhadoop", "max_flows": 30},
  "duration_ms": 1,
  "sweep": {"seed": [1, 2, 3, 4]}
})";

TEST(ScenarioRunnerTest, ParallelSweepIsByteIdenticalToSerial) {
  const Scenario s = ParseScenarioText(kSeedSweep);

  ScenarioRunnerOptions serial;
  serial.jobs = 1;
  ScenarioRunnerOptions parallel;
  parallel.jobs = 4;
  const auto r1 = ScenarioRunner(serial).RunAll(s);
  const auto r4 = ScenarioRunner(parallel).RunAll(s);

  ASSERT_EQ(r1.size(), 4u);
  ASSERT_EQ(r4.size(), 4u);
  ExpectSameOutputs(r1, r4);
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i].ok()) << r1[i].error;
    // Same grid point -> bit-identical simulation regardless of scheduling,
    // down to the event count no output shows.
    EXPECT_EQ(r1[i].result.events_executed, r4[i].result.events_executed);
  }

  // Different seeds really are different runs.
  EXPECT_NE(r1[0].result.events_executed, r1[1].result.events_executed);
}

TEST(ScenarioRunnerTest, CompareOutputsNamesEachDifference) {
  const Scenario s = ParseScenarioText(kSeedSweep);
  const auto sweep = [&s](const std::string& tag) {
    ScenarioRunnerOptions o;
    o.manifest = true;
    o.out_base = testing::TempDir() + "/" + tag;
    o.trace_out = o.out_base + ".trace.json";
    return ScenarioRunner(o).RunAll(s);
  };
  const std::vector<SweepRunResult> a = sweep("compare_a");
  std::vector<SweepRunResult> b = sweep("compare_b");
  ASSERT_EQ(b.size(), 4u);
  for (const SweepRunResult& r : b) {
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.manifest_path.empty());
    ASSERT_FALSE(r.trace_path.empty());
  }
  EXPECT_TRUE(ScenarioRunner::CompareOutputs(a, b).empty());

  // Each single perturbation of `b` is exactly one difference, naming its
  // point and item (and, for differing artifact bytes, the line).
  const auto expect_one = [&a](std::span<const SweepRunResult> other,
                               size_t point, const std::string& item,
                               bool at_line = false) {
    const std::vector<OutputDiff> diffs =
        ScenarioRunner::CompareOutputs(a, other);
    ASSERT_EQ(diffs.size(), 1u) << item;
    EXPECT_EQ(diffs[0].point, point);
    EXPECT_EQ(diffs[0].label, a[point].label);
    EXPECT_EQ(diffs[0].item, item);
    EXPECT_EQ(diffs[0].line > 0, at_line);
  };
  // Twice restores the file.
  const auto flip_middle_byte = [](const std::string& path) {
    std::string text;
    ASSERT_TRUE(obs::ReadTextFile(path, &text));
    text[text.size() / 2] ^= 1;
    ASSERT_TRUE(obs::WriteTextFile(path, text));
  };
  expect_one(std::span(b).first(3), 3, "point");
  b[1].label += "'";
  expect_one(b, 1, "label");
  b[1].label = a[1].label;
  ++b[2].result.retx_timeouts;
  expect_one(b, 2, "retx_timeouts");
  --b[2].result.retx_timeouts;
  b[0].result.trace_hash ^= 1;
  expect_one(b, 0, "trace_hash");
  b[0].result.trace_hash ^= 1;
  flip_middle_byte(b[3].manifest_path);
  expect_one(b, 3, "manifest", true);
  flip_middle_byte(b[3].manifest_path);
  flip_middle_byte(b[1].trace_path);
  expect_one(b, 1, "trace", true);
  flip_middle_byte(b[1].trace_path);
  // An artifact only one side wrote.
  const std::string trace = std::exchange(b[2].trace_path, "");
  expect_one(b, 2, "trace");
  b[2].trace_path = trace;
  EXPECT_TRUE(ScenarioRunner::CompareOutputs(a, b).empty());

  for (const std::vector<SweepRunResult>* sweep : {&a, &std::as_const(b)}) {
    for (const SweepRunResult& r : *sweep) {
      std::remove(r.manifest_path.c_str());
      std::remove(r.trace_path.c_str());
    }
  }
}

TEST(ScenarioRunnerTest, CsvShapeIsRectangular) {
  const Scenario s = ParseScenarioText(kSeedSweep);
  const auto results = ScenarioRunner(ScenarioRunnerOptions{}).RunAll(s);
  const auto header = ScenarioRunner::CsvHeader(results);
  for (const auto& r : results) {
    EXPECT_EQ(ScenarioRunner::CsvRow(r).size(), header.size());
  }
  // run + 1 sweep axis + 16 metrics + status + error.
  EXPECT_EQ(header.size(), 1u + 1u + 18u);
  EXPECT_EQ(header[1], "seed");
}

TEST(ScenarioRunnerTest, FailedPointRecordsErrorWithoutAbortingSweep) {
  // Link 99 passes the parser; only the built 4-link star rejects it.
  const Scenario s = ParseScenarioText(R"({
    "name": "badlink",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.3, "max_flows": 5},
    "duration_ms": 1,
    "events": [{"type": "link_up", "at_us": 100, "link": 0}],
    "sweep": {"events.0.link": [0, 99]}
  })");
  const auto results = ScenarioRunner(ScenarioRunnerOptions{}).RunAll(s);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("out of range"), std::string::npos);
  // The failed row still fits the header.
  EXPECT_EQ(ScenarioRunner::CsvRow(results[1]).size(),
            ScenarioRunner::CsvHeader(results).size());
}

}  // namespace
}  // namespace hpcc::scenario
