// Shard-equivalence suite: a sharded run (conservative PDES over per-pod /
// per-block lanes, see topo/partition.h and runner::Experiment::RunRounds)
// must be observably indistinguishable from the one-lane run — equal
// golden-trace hashes, byte-identical scenario CSVs and byte-identical run
// manifests — at every shard count. Covers the committed example scenarios
// and the whole fuzz corpus at shards {1, 2, 4}, all under the full
// invariant-monitor set (each lane's registry must also stay clean).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc {
namespace {

constexpr int kShardCounts[] = {1, 2, 4};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One full checked sweep of `runs` at `shards` lanes, with per-run manifests
// written under `tag`. Returns the results; registers failures for run
// errors and invariant violations.
std::vector<scenario::SweepRunResult> RunChecked(
    const std::vector<scenario::ScenarioRun>& runs, int shards,
    std::vector<std::string>* manifest_paths) {
  std::vector<scenario::SweepRunResult> results;
  results.reserve(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    scenario::RunOneOptions opts;
    opts.check = true;
    opts.shards_override = shards;
    obs::TelemetryConfig tcfg = runs[i].scenario.telemetry;
    tcfg.manifest = true;
    opts.telemetry = tcfg;
    opts.manifest_path = "shard_eq_s" + std::to_string(shards) + "_run" +
                         std::to_string(i) + ".manifest.json";
    manifest_paths->push_back(opts.manifest_path);
    results.push_back(scenario::ScenarioRunner::RunOne(runs[i], opts));
    const scenario::SweepRunResult& r = results.back();
    EXPECT_TRUE(r.error.empty()) << r.label << ": " << r.error;
    EXPECT_EQ(r.violation_count, 0u) << r.label;
    EXPECT_EQ(r.manifest_path, opts.manifest_path) << r.label;
  }
  return results;
}

// Runs every sweep point of `path` at shards {1, 2, 4} and expects the
// deterministic outputs — trace hashes, the aggregate CSV and every per-run
// manifest — byte-equal to the shards=1 run.
void ExpectShardEquivalence(const std::string& path) {
  SCOPED_TRACE(path);
  const scenario::Scenario sc = scenario::LoadScenarioFile(path);
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());

  std::vector<std::string> cleanup;
  std::string base_csv_bytes;
  std::vector<std::string> base_manifest_bytes;
  uint64_t base_hash = 0;
  for (int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<std::string> manifests;
    const auto results = RunChecked(runs, shards, &manifests);
    cleanup.insert(cleanup.end(), manifests.begin(), manifests.end());

    const uint64_t hash = scenario::ScenarioRunner::CombinedTraceHash(results);
    const std::string csv = "shard_eq_s" + std::to_string(shards) + ".csv";
    cleanup.push_back(csv);
    ASSERT_TRUE(scenario::ScenarioRunner::WriteCsv(csv, results));
    const std::string csv_bytes = ReadFile(csv);
    ASSERT_FALSE(csv_bytes.empty());

    if (shards == kShardCounts[0]) {
      base_hash = hash;
      base_csv_bytes = csv_bytes;
      for (const std::string& m : manifests) {
        base_manifest_bytes.push_back(ReadFile(m));
        EXPECT_FALSE(base_manifest_bytes.back().empty()) << m;
      }
    } else {
      EXPECT_EQ(hash, base_hash);
      EXPECT_EQ(csv_bytes, base_csv_bytes);
      ASSERT_EQ(manifests.size(), base_manifest_bytes.size());
      for (size_t i = 0; i < manifests.size(); ++i) {
        EXPECT_EQ(ReadFile(manifests[i]), base_manifest_bytes[i])
            << manifests[i];
      }
    }
  }
  for (const std::string& f : cleanup) std::remove(f.c_str());
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
  ASSERT_TRUE(without.error.empty()) << without.error;
  EXPECT_EQ(with.result.trace_hash, without.result.trace_hash);
  EXPECT_EQ(with.result.flows_completed, without.result.flows_completed);
  EXPECT_EQ(with.result.sim_time, without.result.sim_time);
}

}  // namespace
}  // namespace hpcc
