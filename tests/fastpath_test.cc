// Fastpath determinism suite: the transmission-train transmit engine
// (--fastpath=on, the default) must be observably indistinguishable from the
// per-packet reference engine (--fastpath=off) — equal golden-trace hashes
// and byte-identical scenario CSVs — while executing measurably fewer
// simulator events. Covers the committed example scenarios, the whole fuzz
// corpus, and targeted burst boundary cases: PFC pause arriving mid-train,
// queue overflow (lossy drops) mid-train, and link_down mid-train.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Runs every sweep point of `path` under both engines; expects equal trace
// hashes, byte-identical CSVs, and (when `expect_fewer_events`) a strictly
// smaller event count on the fast path somewhere in the grid.
void ExpectEngineEquivalence(const std::string& path,
                             bool expect_fewer_events = true) {
  SCOPED_TRACE(path);
  const scenario::Scenario sc = scenario::LoadScenarioFile(path);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());

  scenario::ScenarioRunnerOptions on;
  on.jobs = 1;
  on.fastpath_override = 1;
  scenario::ScenarioRunnerOptions off = on;
  off.fastpath_override = 0;
  const auto r_on = scenario::ScenarioRunner(on).RunAll(runs);
  const auto r_off = scenario::ScenarioRunner(off).RunAll(runs);
  ASSERT_EQ(r_on.size(), r_off.size());

  uint64_t ev_on = 0, ev_off = 0;
  for (size_t i = 0; i < r_on.size(); ++i) {
    SCOPED_TRACE(r_on[i].label);
    ASSERT_TRUE(r_on[i].error.empty()) << r_on[i].error;
    ASSERT_TRUE(r_off[i].error.empty()) << r_off[i].error;
    EXPECT_EQ(r_on[i].result.trace_hash, r_off[i].result.trace_hash);
    EXPECT_EQ(r_on[i].result.packets_forwarded,
              r_off[i].result.packets_forwarded);
    ev_on += r_on[i].result.events_executed;
    ev_off += r_off[i].result.events_executed;
  }
  EXPECT_EQ(scenario::ScenarioRunner::CombinedTraceHash(r_on),
            scenario::ScenarioRunner::CombinedTraceHash(r_off));
  if (expect_fewer_events) {
    // The suite must not pass vacuously with the fast path disabled.
    EXPECT_LT(ev_on, ev_off);
  }

  const std::string f_on = "fastpath_on.csv";
  const std::string f_off = "fastpath_off.csv";
  ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(f_on, r_on));
  ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(f_off, r_off));
  const std::string b_on = ReadFile(f_on);
  EXPECT_FALSE(b_on.empty());
  EXPECT_EQ(b_on, ReadFile(f_off));
  std::remove(f_on.c_str());
  std::remove(f_off.c_str());
}

// Runs one ExperimentConfig under both engines and compares every
// engine-independent observable.
struct PairResult {
  runner::ExperimentResult on, off;
};
PairResult RunPair(runner::ExperimentConfig cfg) {
  cfg.fast_path = true;
  runner::Experiment e_on(cfg);
  PairResult r;
  r.on = e_on.Run();
  cfg.fast_path = false;
  runner::Experiment e_off(cfg);
  r.off = e_off.Run();
  EXPECT_EQ(r.on.trace_hash, r.off.trace_hash);
  EXPECT_EQ(r.on.flows_completed, r.off.flows_completed);
  EXPECT_EQ(r.on.packets_forwarded, r.off.packets_forwarded);
  EXPECT_EQ(r.on.dropped_packets, r.off.dropped_packets);
  EXPECT_EQ(r.on.pause_events, r.off.pause_events);
  EXPECT_EQ(r.on.max_queue_bytes, r.off.max_queue_bytes);
  EXPECT_EQ(r.on.sim_time, r.off.sim_time);
  return r;
}

TEST(Fastpath, ExampleScenariosIdenticalAcrossEngines) {
  const std::string dir = std::string(HPCC_SOURCE_DIR) + "/examples/scenarios";
  ExpectEngineEquivalence(dir + "/fig11_load_sweep.json");
  ExpectEngineEquivalence(dir + "/fig13_link_failure.json");
}

TEST(Fastpath, Fattree16BurstIdenticalAcrossEngines) {
  // The large-fabric 512-way incast: deep multi-tier backlogs, long trains.
  ExpectEngineEquivalence(std::string(HPCC_SOURCE_DIR) +
                          "/examples/scenarios/fattree16_hadoop_burst.json");
}

TEST(Fastpath, PaperIncastsIdenticalAcrossEngines) {
  // 16-to-1 incasts of 100 Gbps senders replayed from the flow traces beside
  // the files, which open from here because a relative trace_file resolves
  // against its scenario's directory: the densest trains in the repo, on a
  // star and across the dumbbell trunk, run to duration (drain_factor 0).
  const std::string dir =
      std::string(HPCC_SOURCE_DIR) + "/examples/scenarios/paper";
  ExpectEngineEquivalence(dir + "/fig13_reaction.json");
  ExpectEngineEquivalence(dir + "/fig14_wai.json");
  ExpectEngineEquivalence(dir + "/ablation_alpha_fair.json");
}

TEST(Fastpath, CorpusIdenticalAcrossEngines) {
  // Every committed fuzz reproducer (includes link-flap scripts).
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HPCC_SOURCE_DIR) + "/tests/corpus")) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& f : files) {
    // Tiny corpus runs may not form a single train; don't require savings.
    ExpectEngineEquivalence(f, /*expect_fewer_events=*/false);
  }
}

// PFC pause mid-train: a small shared buffer under a hard incast forces
// PAUSE frames while the bottleneck egress holds committed trains — the
// pause must rewind unemitted train items exactly like the reference engine
// re-picking at its next per-packet boundary.
TEST(Fastpath, PfcPauseMidTrain) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 17;
  // Rate-based DCQCN with ECN marking disabled: every sender streams at
  // line rate, so the shared buffer actually reaches the PFC threshold
  // (HPCC would keep it orders of magnitude below).
  cfg.cc.scheme = "dcqcn";
  cfg.red_override = net::RedConfig{};  // marking off
  cfg.incast = true;
  cfg.incast_opts.fan_in = 16;
  // Per-ingress PFC pauses need ~20 MB of shared-buffer occupancy with 16
  // equal ingresses (pause when ingress share > 11% of free buffer).
  cfg.incast_opts.flow_bytes = 2'000'000;
  cfg.incast_opts.first_event = sim::Us(10);
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 60.0;
  PairResult r = RunPair(cfg);
  EXPECT_GT(r.on.pause_events, 0u);  // the case actually exercised pauses
  EXPECT_EQ(r.on.flows_completed, r.on.flows_created);
}

// Queue overflow mid-train (lossy mode): dynamic egress-threshold drops land
// while the egress is committed to a train; admission decisions must observe
// exactly the reference engine's queue/buffer state.
TEST(Fastpath, LossyOverflowMidTrain) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 17;
  // Unthrottled line-rate senders against the lossy-mode dynamic egress
  // threshold: the bottleneck queue must overflow mid-train.
  cfg.cc.scheme = "dcqcn";
  cfg.red_override = net::RedConfig{};  // marking off
  cfg.pfc_enabled = false;
  cfg.incast = true;
  cfg.incast_opts.fan_in = 16;
  cfg.incast_opts.flow_bytes = 1'500'000;
  cfg.incast_opts.first_event = sim::Us(10);
  cfg.duration = sim::Ms(1);
  cfg.drain_factor = 60.0;
  PairResult r = RunPair(cfg);
  EXPECT_GT(r.on.dropped_packets, 0u);  // overflow actually happened
}

// link_down / link_up mid-train: a failing trunk freezes committed-but-
// unemitted packets back into the queue; repair resumes them. Driven through
// the scenario event script against a congested dumbbell.
TEST(Fastpath, LinkFlapMidTrain) {
  const char* doc = R"({
    "name": "flap_under_burst",
    "topology": {"kind": "dumbbell", "hosts_per_side": 6,
                  "host_gbps": 100, "trunk_gbps": 100},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.4, "trace": "websearch", "max_flows": 40,
                  "incast": {"fan_in": 5, "flow_bytes": 200000,
                             "first_event_us": 20, "period_us": 200}},
    "duration_ms": 0.6,
    "drain_factor": 30,
    "events": [
      {"type": "link_down", "at_us": 80, "link": 12},
      {"type": "link_up",   "at_us": 220, "link": 12}
    ]
  })";
  const std::string path = "fastpath_flap_tmp.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << doc;
  }
  ExpectEngineEquivalence(path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hpcc
