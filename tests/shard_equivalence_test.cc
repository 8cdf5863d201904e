// Shard-equivalence suite: a sharded run (conservative PDES over per-pod /
// per-block lanes, see topo/partition.h and runner::Experiment::RunRounds)
// must be observably indistinguishable from the one-lane run — identical
// outputs (ScenarioRunner::CompareOutputs: every CSV cell, the golden-trace
// hash and the run manifest of every point) at every shard count. Covers
// the committed example scenarios and the whole fuzz corpus at shards
// {1, 2, 4}, all under the full invariant-monitor set (each lane's registry
// must also stay clean).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "same_outputs.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};

// One full checked sweep of `runs` at `shards` lanes, each point writing its
// manifest. Registers failures for run errors and invariant violations.
std::vector<scenario::SweepRunResult> RunChecked(
    const std::vector<scenario::ScenarioRun>& runs, int shards) {
  std::vector<scenario::SweepRunResult> results;
  for (size_t i = 0; i < runs.size(); ++i) {
    scenario::RunOneOptions opts;
    opts.check = true;
    opts.shards_override = shards;
    obs::TelemetryConfig tcfg = runs[i].scenario.telemetry;
    tcfg.manifest = true;
    opts.telemetry = tcfg;
    opts.manifest_path = "shard_eq_s" + std::to_string(shards) + "_run" +
                         std::to_string(i) + ".manifest.json";
    results.push_back(scenario::ScenarioRunner::RunOne(runs[i], opts));
    const scenario::SweepRunResult& r = results.back();
    EXPECT_TRUE(r.error.empty()) << r.label << ": " << r.error;
    EXPECT_EQ(r.violation_count, 0u) << r.label;
    EXPECT_EQ(r.manifest_path, opts.manifest_path) << r.label;
  }
  return results;
}

// Runs every sweep point of `path` at shards {1, 2, 4} and expects the
// outputs of every lane count identical to the shards=1 run's.
void ExpectShardEquivalence(const std::string& path) {
  SCOPED_TRACE(path);
  const scenario::Scenario sc = scenario::LoadScenarioFile(path);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());

  std::vector<std::vector<scenario::SweepRunResult>> sweeps;
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sweeps.push_back(RunChecked(runs, shards));
    scenario::ExpectSameOutputs(sweeps.front(), sweeps.back());
  }
  for (const auto& sweep : sweeps) {
    for (const scenario::SweepRunResult& r : sweep) {
      std::remove(r.manifest_path.c_str());
    }
  }
}

TEST(ShardEquivalence, Fig11LoadSweep) {
  ExpectShardEquivalence(std::string(HPCC_SOURCE_DIR) +
                         "/examples/scenarios/fig11_load_sweep.json");
}

TEST(ShardEquivalence, Fig13LinkFailure) {
  // Link flaps across the cut: the barrier coordinator applies the script
  // and recomputes the lookahead while every lane is blocked.
  ExpectShardEquivalence(std::string(HPCC_SOURCE_DIR) +
                         "/examples/scenarios/fig13_link_failure.json");
}

TEST(ShardEquivalence, Fattree32Websearch) {
  ExpectShardEquivalence(std::string(HPCC_SOURCE_DIR) +
                         "/examples/scenarios/fattree32_websearch.json");
}

TEST(ShardEquivalence, Fattree16HadoopBurst) {
  // The large-fabric 512-way incast: heavy cross-pod traffic, so nearly
  // every flow crosses a lane boundary at least twice.
  ExpectShardEquivalence(std::string(HPCC_SOURCE_DIR) +
                         "/examples/scenarios/fattree16_hadoop_burst.json");
}

TEST(ShardEquivalence, Corpus) {
  // Every committed fuzz reproducer (dumbbell topologies exercise the
  // contiguous-block partition fallback; storm_fattree_flaps exercises
  // repeated lookahead recomputation).
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HPCC_SOURCE_DIR) + "/tests/corpus")) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& f : files) ExpectShardEquivalence(f);
}

// The scenario "shards" key must itself be honored (not just the override):
// a document asking for shards=4 produces the exact outputs of the same
// document without the key.
TEST(ShardEquivalence, ScenarioShardsKey) {
  const char* doc = R"({
    "name": "shards_key",
    "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
                  "aggs_per_pod": 2, "hosts_per_tor": 4},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.4, "trace": "websearch", "max_flows": 60},
    "duration_ms": 0.3,
    "seed": 11,
    "shards": 4
  })";
  const std::string path = "shard_eq_key_tmp.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << doc;
  }
  scenario::Scenario sc = scenario::LoadScenarioFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(sc.config.shards, 4);
  scenario::RunOneOptions checked;
  checked.check = true;
  const auto with = scenario::ScenarioRunner::RunOne(
      scenario::ExpandSweep(sc).front(), checked);
  ASSERT_TRUE(with.error.empty()) << with.error;
  EXPECT_EQ(with.violation_count, 0u);

  sc.config.shards = 1;
  const auto without = scenario::ScenarioRunner::RunOne(
      scenario::ExpandSweep(sc).front(), checked);
  scenario::ExpectSameOutputs({&with, 1}, {&without, 1});
}

}  // namespace
}  // namespace hpcc
