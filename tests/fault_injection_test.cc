// Fault-injection and resilience tests: RTO exponential backoff (doubling,
// cap, max_retx give-up), the switch_down ≡ link_down-sequence contract,
// corruption-window and NIC-flap determinism across engines/shards, per-point
// wall deadlines, retry-once sweep accounting, crash-resume from manifest
// journals, and the post-run no-progress audit.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/monitors.h"
#include "host/flow.h"
#include "host/host_node.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/time.h"
#include "topo/topology.h"

namespace hpcc::scenario {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Cell(const SweepRunResult& r, const std::string& column) {
  for (const auto& [name, value] : ScenarioRunner::MetricCells(r)) {
    if (name == column) return value;
  }
  ADD_FAILURE() << "no cell named " << column;
  return {};
}

// Link index of the (only) NIC link attached to host `host_index`.
size_t HostLink(runner::Experiment& e, size_t host_index) {
  const uint32_t node_id = e.hosts()[host_index];
  const auto& links = e.topology().links();
  for (size_t li = 0; li < links.size(); ++li) {
    if (links[li].a == node_id || links[li].b == node_id) return li;
  }
  ADD_FAILURE() << "host " << host_index << " has no link";
  return 0;
}

// ---------------------------------------------------------------------------
// Transport backoff: doubling, cap, give-up.
// ---------------------------------------------------------------------------

// Generous drain horizon: the recovery test's first post-repair RTO fires
// at ~7ms, which must stay inside FinishRun's duration * (1 + drain) cap.
constexpr char kTwoHostStar[] = R"({
  "name": "backoff",
  "topology": {"kind": "star", "hosts": 2},
  "duration_ms": 1,
  "drain_factor": 12
})";

TEST(RtoBackoff, DoublesCapsAndGivesUpAfterMaxRetx) {
  const Scenario s = ParseScenarioText(kTwoHostStar);
  runner::Experiment e(MakeExperimentConfig(s));
  const uint32_t h0 = e.hosts()[0];
  const uint32_t h1 = e.hosts()[1];
  const host::HostConfig& hc = e.topology().host(h0).config();
  ASSERT_GT(hc.max_retx, 0);

  host::Flow* flow = e.AddFlow(h0, h1, 5'000'000, 0);
  // Sever the receiver's NIC link mid-transfer; it never comes back.
  e.InstallLinkEvent(sim::Us(100), HostLink(e, 1), /*up=*/false);

  // Before the outage: ACKs flowing, backoff idle at the base RTO.
  e.RunUntil(sim::Us(90));
  ASSERT_TRUE(flow->started);
  EXPECT_GT(flow->snd_una, 0u);
  EXPECT_EQ(flow->consecutive_rtos, 0u);
  EXPECT_EQ(flow->cur_rto, hc.rto);

  // During the outage the effective RTO doubles per expiry up to the cap:
  // cur_rto == min(rto << consecutive_rtos, rto_max) at all times.
  const auto expect_backoff_invariant = [&] {
    sim::TimePs expect = hc.rto;
    for (uint32_t i = 0; i < flow->consecutive_rtos && expect < hc.rto_max;
         ++i) {
      expect = std::min(expect * 2, hc.rto_max);
    }
    EXPECT_EQ(flow->cur_rto, expect)
        << "after " << flow->consecutive_rtos << " consecutive expiries";
  };
  e.RunUntil(sim::Ms(5));
  EXPECT_GE(flow->consecutive_rtos, 1u);
  EXPECT_FALSE(flow->failed);
  expect_backoff_invariant();
  const uint32_t rtos_at_5ms = flow->consecutive_rtos;

  e.RunUntil(sim::Ms(100));
  EXPECT_GT(flow->consecutive_rtos, rtos_at_5ms);
  EXPECT_EQ(flow->cur_rto, hc.rto_max);  // cap reached
  expect_backoff_invariant();

  // Give-up: the (max_retx + 1)-th consecutive expiry abandons the flow.
  e.RunUntil(sim::Ms(260));
  EXPECT_TRUE(flow->failed);
  EXPECT_TRUE(flow->done);
  EXPECT_EQ(flow->consecutive_rtos,
            static_cast<uint32_t>(hc.max_retx) + 1);
  EXPECT_EQ(flow->retx_timeouts, static_cast<uint64_t>(hc.max_retx) + 1);

  const runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_created, 1u);
  EXPECT_EQ(r.flows_completed, 0u);
  EXPECT_EQ(r.flows_failed, 1u);
  EXPECT_EQ(r.retx_timeouts, flow->retx_timeouts);
}

TEST(RtoBackoff, ForwardProgressResetsTheBackoffSchedule) {
  const Scenario s = ParseScenarioText(kTwoHostStar);
  runner::Experiment e(MakeExperimentConfig(s));
  const uint32_t h0 = e.hosts()[0];
  const uint32_t h1 = e.hosts()[1];
  const host::HostConfig& hc = e.topology().host(h0).config();

  host::Flow* flow = e.AddFlow(h0, h1, 5'000'000, 0);
  const size_t link = HostLink(e, 1);
  e.InstallLinkEvent(sim::Us(100), link, /*up=*/false);
  e.InstallLinkEvent(sim::Ms(5), link, /*up=*/true);

  // Mid-outage: backed off.
  e.RunUntil(sim::Ms(4));
  EXPECT_GE(flow->consecutive_rtos, 1u);
  EXPECT_GT(flow->cur_rto, hc.rto);

  // After the repair the retransmission goes through, ACK progress resumes
  // and the backoff schedule starts over; the flow completes, not fails.
  const runner::ExperimentResult r = e.Run();
  EXPECT_TRUE(flow->done);
  EXPECT_FALSE(flow->failed);
  EXPECT_EQ(flow->consecutive_rtos, 0u);  // reset by forward progress
  EXPECT_EQ(r.flows_completed, 1u);
  EXPECT_EQ(r.flows_failed, 0u);
  EXPECT_GE(r.retx_timeouts, 1u);  // the outage did cost real expiries
}

// ---------------------------------------------------------------------------
// switch_down ≡ the equivalent hand-written link_down sequence.
// ---------------------------------------------------------------------------

// 2-pod fat-tree with agg/core redundancy; %s is the events array.
constexpr char kSwitchFailTemplate[] = R"({
  "name": "swfail",
  "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 1,
               "aggs_per_pod": 2, "cores_per_agg": 2, "hosts_per_tor": 2},
  "workload": {"load": 0.3, "trace": "websearch", "max_flows": 25},
  "duration_ms": 0.6,
  "drain_factor": 8,
  "sweep": {"seed": [1, 2]},
  "events": [%s]
})";

TEST(FaultEvents, SwitchDownEqualsExpandedLinkScript) {
  // Scenario A: switch_down/switch_up on the last switch (a core — built
  // after ToRs and aggs — so the fabric keeps full connectivity).
  char a_text[1024];
  std::string probe_text;
  {
    const Scenario probe = ParseScenarioText(R"({
      "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 1,
                   "aggs_per_pod": 2, "cores_per_agg": 2,
                   "hosts_per_tor": 2}})");
    runner::Experiment e(MakeExperimentConfig(probe));
    const auto& switches = e.topology().switches();
    const size_t sw_index = switches.size() - 1;
    const uint32_t node_id = switches[sw_index];

    std::snprintf(a_text, sizeof(a_text), kSwitchFailTemplate,
                  ("{\"type\": \"switch_down\", \"at_us\": 100, \"switch\": " +
                   std::to_string(sw_index) +
                   "}, {\"type\": \"switch_up\", \"at_us\": 300, \"switch\": " +
                   std::to_string(sw_index) + "}")
                      .c_str());

    // Scenario B: the per-link expansion, written out by hand — every link
    // attached to that switch, ascending, downs first then ups.
    std::string events;
    for (const char* type : {"link_down", "link_up"}) {
      const auto& links = e.topology().links();
      for (size_t li = 0; li < links.size(); ++li) {
        if (links[li].a != node_id && links[li].b != node_id) continue;
        if (!events.empty()) events += ", ";
        events += std::string("{\"type\": \"") + type + "\", \"at_us\": " +
                  (type[5] == 'd' ? "100" : "300") +
                  ", \"link\": " + std::to_string(li) + "}";
      }
    }
    char b_text[2048];
    std::snprintf(b_text, sizeof(b_text), kSwitchFailTemplate, events.c_str());
    probe_text = b_text;
  }
  const Scenario a = ParseScenarioText(a_text);
  const Scenario b = ParseScenarioText(probe_text);

  // The contract must hold for any job count and both transmit engines:
  // equal combined trace hashes and byte-identical aggregate CSVs.
  struct Config {
    int jobs;
    int fastpath;
  };
  const Config configs[] = {{1, -1}, {4, -1}, {1, 0}};
  std::string first_csv;
  for (const Config& c : configs) {
    ScenarioRunnerOptions o;
    o.jobs = c.jobs;
    o.check = true;
    o.fastpath_override = c.fastpath;
    const auto ra = ScenarioRunner(o).RunAll(a);
    const auto rb = ScenarioRunner(o).RunAll(b);
    ASSERT_EQ(ra.size(), 2u);
    ASSERT_EQ(rb.size(), 2u);
    for (size_t i = 0; i < ra.size(); ++i) {
      ASSERT_TRUE(ra[i].ok()) << ra[i].error;
      ASSERT_TRUE(rb[i].ok()) << rb[i].error;
      // Faults repaired at 300us: everything the workload created finishes.
      EXPECT_GT(ra[i].result.flows_created, 0u);
      EXPECT_EQ(ra[i].result.flows_completed + ra[i].result.flows_failed,
                ra[i].result.flows_created);
    }
    EXPECT_EQ(ScenarioRunner::CombinedTraceHash(ra),
              ScenarioRunner::CombinedTraceHash(rb))
        << "jobs=" << c.jobs << " fastpath=" << c.fastpath;

    const std::string pa = testing::TempDir() + "/swfail_a.csv";
    const std::string pb = testing::TempDir() + "/swfail_b.csv";
    ASSERT_TRUE(ScenarioRunner::WriteCsv(pa, ra));
    ASSERT_TRUE(ScenarioRunner::WriteCsv(pb, rb));
    const std::string ca = ReadFile(pa);
    EXPECT_FALSE(ca.empty());
    EXPECT_EQ(ca, ReadFile(pb)) << "jobs=" << c.jobs
                                << " fastpath=" << c.fastpath;
    std::remove(pa.c_str());
    std::remove(pb.c_str());
    // And the whole suite is engine/job invariant: every config's CSV
    // matches the first one byte for byte.
    if (first_csv.empty()) first_csv = ca;
    EXPECT_EQ(ca, first_csv);
  }
}

TEST(FaultEvents, InstallValidatesSwitchAndHostIndices) {
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "switch_down", "at_us": 1, "switch": 9}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "nic_down", "at_us": 1, "host": 3}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
  {
    const Scenario s = ParseScenarioText(R"({
      "topology": {"kind": "star", "hosts": 3},
      "events": [{"type": "corrupt", "at_us": 1, "link": 99, "ber": 0.01,
                  "until_us": 50}]
    })");
    runner::Experiment e(MakeExperimentConfig(s));
    EXPECT_THROW(InstallEvents(e, s), ScenarioError);
  }
}

// ---------------------------------------------------------------------------
// Corruption windows and NIC flaps: deterministic, engine- and
// shard-invariant, fully accounted.
// ---------------------------------------------------------------------------

TEST(FaultEvents, CorruptWindowIsDeterministicAcrossEnginesAndShards) {
  // ber 0.05 on the dumbbell trunk (link 0) for 650us of a loaded run:
  // plenty of corruption drops, all recovered by retransmission.
  ScenarioRun run;
  run.label = "corrupt";
  run.scenario = ParseScenarioText(R"({
    "name": "corrupt",
    "topology": {"kind": "dumbbell", "hosts_per_side": 2},
    "workload": {"load": 0.3, "trace": "websearch", "max_flows": 20},
    "duration_ms": 1.5,
    "drain_factor": 8,
    "seed": 7,
    "events": [{"type": "corrupt", "at_us": 50, "link": 0, "ber": 0.05,
                "until_us": 700}]
  })");

  RunOneOptions checked;
  checked.check = true;
  const SweepRunResult base = ScenarioRunner::RunOne(run, checked);
  ASSERT_TRUE(base.ok()) << base.error;
  EXPECT_GT(base.result.dropped_by_reason[static_cast<int>(
                check::DropReason::kCorrupt)],
            0u);
  // Every flow is accounted: completed or recorded as failed.
  EXPECT_GT(base.result.flows_created, 0u);
  EXPECT_EQ(base.result.flows_completed + base.result.flows_failed,
            base.result.flows_created);
  // The corruption drops surface in their own CSV column.
  EXPECT_NE(Cell(base, "drops_corrupt"), "0");
  EXPECT_EQ(Cell(base, "status"), "ok");

  // Same seed stream -> bit-identical replay...
  const SweepRunResult again = ScenarioRunner::RunOne(run, checked);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(base.result.trace_hash, again.result.trace_hash);
  EXPECT_EQ(ScenarioRunner::CsvRow(base, true),
            ScenarioRunner::CsvRow(again, true));

  // ...on the reference engine...
  RunOneOptions reference = checked;
  reference.fastpath_override = 0;
  const SweepRunResult ref = ScenarioRunner::RunOne(run, reference);
  ASSERT_TRUE(ref.ok()) << ref.error;
  EXPECT_EQ(base.result.trace_hash, ref.result.trace_hash);

  // ...and under sharded execution.
  RunOneOptions opts = checked;
  opts.shards_override = 2;
  const SweepRunResult sharded = ScenarioRunner::RunOne(run, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error;
  EXPECT_EQ(base.result.trace_hash, sharded.result.trace_hash);
}

TEST(FaultEvents, NicFlapIsolatesHostThenRecovers) {
  ScenarioRun run;
  run.label = "nicflap";
  run.scenario = ParseScenarioText(R"({
    "name": "nicflap",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.3, "trace": "fbhadoop", "max_flows": 20},
    "duration_ms": 1,
    "drain_factor": 8,
    "seed": 11,
    "events": [{"type": "nic_down", "at_us": 100, "host": 0},
               {"type": "nic_up", "at_us": 400, "host": 0}]
  })");
  RunOneOptions checked;
  checked.check = true;
  const SweepRunResult base = ScenarioRunner::RunOne(run, checked);
  ASSERT_TRUE(base.ok()) << base.error;
  EXPECT_GT(base.result.flows_created, 0u);
  // The 300us outage delays flows touching host 0 but everything recovers
  // (give-up needs ~200ms of consecutive dead time).
  EXPECT_EQ(base.result.flows_completed, base.result.flows_created);
  EXPECT_EQ(base.result.flows_failed, 0u);

  const SweepRunResult again = ScenarioRunner::RunOne(run, checked);
  EXPECT_EQ(base.result.trace_hash, again.result.trace_hash);

  RunOneOptions opts = checked;
  opts.shards_override = 2;
  const SweepRunResult sharded = ScenarioRunner::RunOne(run, opts);
  ASSERT_TRUE(sharded.ok()) << sharded.error;
  EXPECT_EQ(base.result.trace_hash, sharded.result.trace_hash);
}

// ---------------------------------------------------------------------------
// Per-point wall deadlines and the sweep's retry-once policy.
// ---------------------------------------------------------------------------

TEST(Deadline, TripsAndReportsInsteadOfWedging) {
  ScenarioRun run;
  run.label = "deadline";
  run.scenario = ParseScenarioText(R"({
    "name": "deadline",
    "topology": {"kind": "star", "hosts": 8},
    "workload": {"load": 0.7, "trace": "websearch"},
    "duration_ms": 20,
    "seed": 3
  })");
  RunOneOptions opts;
  opts.deadline_s = 1e-9;  // already in the past when the event loop starts
  const SweepRunResult r = ScenarioRunner::RunOne(run, opts);
  ASSERT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
  EXPECT_EQ(ScenarioRunner::StatusOf(r), "error");
  EXPECT_EQ(Cell(r, "status"), "error");
}

TEST(Deadline, ScenarioDeadlineFieldIsHonored) {
  ScenarioRun run;
  run.label = "deadline2";
  run.scenario = ParseScenarioText(R"({
    "name": "deadline2",
    "topology": {"kind": "star", "hosts": 8},
    "workload": {"load": 0.7, "trace": "websearch"},
    "duration_ms": 20,
    "deadline_s": 0.000001,
    "seed": 3
  })");
  const SweepRunResult r = ScenarioRunner::RunOne(run);
  ASSERT_FALSE(r.error.empty());
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
}

TEST(Retry, ErrorsRetryOnceButDeadlinesDoNot) {
  // A genuinely broken point fails identically on its retry: the sweep
  // records attempt == 1 for it (it was retried once) and attempt == 0 for
  // the healthy point.
  {
    const Scenario s = ParseScenarioText(R"({
      "name": "retry",
      "topology": {"kind": "star", "hosts": 4},
      "workload": {"load": 0.3, "max_flows": 5},
      "duration_ms": 1,
      "events": [{"type": "link_up", "at_us": 100, "link": 0}],
      "sweep": {"events.0.link": [0, 99]}
    })");
    const auto results = ScenarioRunner(ScenarioRunnerOptions{}).RunAll(s);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_EQ(results[0].attempt, 0);
    ASSERT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].attempt, 1);
  }
  // Deadline trips are deterministic with respect to the budget, so the
  // sweep must not burn the wall-clock twice: no retry.
  {
    const Scenario s = ParseScenarioText(R"({
      "name": "nodretry",
      "topology": {"kind": "star", "hosts": 8},
      "workload": {"load": 0.7, "trace": "websearch"},
      "duration_ms": 20,
      "seed": 3
    })");
    ScenarioRunnerOptions o;
    o.deadline_s = 1e-9;
    const auto results = ScenarioRunner(o).RunAll(s);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].ok());
    EXPECT_NE(results[0].error.find("deadline exceeded"), std::string::npos);
    EXPECT_EQ(results[0].attempt, 0);
  }
}

// ---------------------------------------------------------------------------
// Crash-resumable sweeps: manifests double as a journal.
// ---------------------------------------------------------------------------

TEST(Resume, SkipsValidatedPointsByteIdentically) {
  const Scenario s = ParseScenarioText(R"({
    "name": "resume",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.3, "trace": "fbhadoop", "max_flows": 15},
    "duration_ms": 0.5,
    "sweep": {"seed": [1, 2, 3]}
  })");
  const std::string base = testing::TempDir() + "/fault_resume";

  // Pass 1: a full sweep journaling every point.
  ScenarioRunnerOptions o1;
  o1.jobs = 1;
  o1.manifest = true;
  o1.out_base = base;
  const auto pass1 = ScenarioRunner(o1).RunAll(s);
  ASSERT_EQ(pass1.size(), 3u);
  for (const auto& r : pass1) {
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.manifest_path.empty());
    EXPECT_FALSE(ReadFile(r.manifest_path).empty());
  }
  const std::string csv1_path = base + "_pass1.csv";
  ASSERT_TRUE(ScenarioRunner::WriteCsv(csv1_path, pass1));
  const std::string csv1 = ReadFile(csv1_path);
  const uint64_t hash1 = ScenarioRunner::CombinedTraceHash(pass1);

  // Simulate a crash that lost point 1's journal and tore point 2's.
  ASSERT_EQ(std::remove(pass1[1].manifest_path.c_str()), 0);
  {
    std::ofstream torn(pass1[2].manifest_path, std::ios::trunc);
    torn << "{\"schema\": \"hpccsim-manifest-v1\", \"label\": trunc";
  }

  // Pass 2: --resume skips the intact point and re-simulates the rest.
  ScenarioRunnerOptions o2;
  o2.jobs = 1;
  o2.resume = true;  // implies manifest
  o2.out_base = base;
  const auto pass2 = ScenarioRunner(o2).RunAll(s);
  ASSERT_EQ(pass2.size(), 3u);
  EXPECT_TRUE(pass2[0].resumed);
  EXPECT_FALSE(pass2[1].resumed);
  EXPECT_FALSE(pass2[2].resumed);
  for (const auto& r : pass2) ASSERT_TRUE(r.ok()) << r.error;

  // The resumed sweep's aggregate outputs are byte-identical to pass 1.
  const std::string csv2_path = base + "_pass2.csv";
  ASSERT_TRUE(ScenarioRunner::WriteCsv(csv2_path, pass2));
  EXPECT_EQ(csv1, ReadFile(csv2_path));
  EXPECT_EQ(hash1, ScenarioRunner::CombinedTraceHash(pass2));

  // Re-run points re-journaled themselves: a third resume skips everything.
  const auto pass3 = ScenarioRunner(o2).RunAll(s);
  ASSERT_EQ(pass3.size(), 3u);
  for (const auto& r : pass3) {
    EXPECT_TRUE(r.resumed) << r.label;
    ASSERT_TRUE(r.ok()) << r.error;
  }
  const std::string csv3_path = base + "_pass3.csv";
  ASSERT_TRUE(ScenarioRunner::WriteCsv(csv3_path, pass3));
  EXPECT_EQ(csv1, ReadFile(csv3_path));

  for (const auto& r : pass3) std::remove(r.manifest_path.c_str());
  std::remove(csv1_path.c_str());
  std::remove(csv2_path.c_str());
  std::remove(csv3_path.c_str());
}

TEST(Resume, ScenarioMismatchInvalidatesTheJournal) {
  // A journal written for a different scenario (same label, different seed)
  // must not be resumed: the scenario echo comparison rejects it.
  const char* tmpl = R"({
    "name": "resume_mismatch",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.3, "trace": "fbhadoop", "max_flows": 10},
    "duration_ms": 0.5,
    "seed": %d
  })";
  char text[512];
  const std::string base = testing::TempDir() + "/fault_resume_mismatch";

  std::snprintf(text, sizeof(text), tmpl, 1);
  ScenarioRunnerOptions o;
  o.jobs = 1;
  o.manifest = true;
  o.out_base = base;
  const auto first = ScenarioRunner(o).RunAll(ParseScenarioText(text));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].ok()) << first[0].error;
  ASSERT_FALSE(first[0].manifest_path.empty());

  std::snprintf(text, sizeof(text), tmpl, 2);
  o.resume = true;
  const auto second = ScenarioRunner(o).RunAll(ParseScenarioText(text));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(second[0].resumed);  // journal is for seed 1, not seed 2
  ASSERT_TRUE(second[0].ok()) << second[0].error;

  std::remove(second[0].manifest_path.c_str());
}

// ---------------------------------------------------------------------------
// Post-run no-progress audit.
// ---------------------------------------------------------------------------

TEST(NoProgress, FlagsWedgedFlowsOnly) {
  const Scenario s = ParseScenarioText(kTwoHostStar);
  runner::Experiment e(MakeExperimentConfig(s));
  const uint32_t h0 = e.hosts()[0];
  const uint32_t h1 = e.hosts()[1];
  host::Flow* flow = e.AddFlow(h0, h1, 50'000'000, 0);
  e.RunUntil(sim::Us(200));
  ASSERT_TRUE(flow->started);
  ASSERT_FALSE(flow->done);

  // Recent activity: clean.
  {
    check::MonitorRegistry reg;
    check::CheckFlowProgress(reg, e, e.simulator().now());
    EXPECT_EQ(reg.violation_count(), 0u);
  }
  // The same snapshot audited far past the stall threshold: flagged.
  {
    check::MonitorRegistry reg;
    check::CheckFlowProgress(reg, e, e.simulator().now() + sim::Ms(200));
    ASSERT_EQ(reg.violation_count(), 1u);
    EXPECT_EQ(reg.violations()[0].monitor, "no-progress");
  }
}

}  // namespace
}  // namespace hpcc::scenario
