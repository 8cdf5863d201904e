// Warm-start equivalence suite: a sweep run with fabric-snapshot sharing and
// warm_start checkpoint/restore enabled must be observably indistinguishable
// from the all-cold run — identical outputs (ScenarioRunner::CompareOutputs:
// every CSV cell, the golden-trace hash and the manifest of every point) —
// at any worker count and any lane count, including configurations where
// warm capture is ineligible and every point silently falls back to cold
// (pre-checkpoint link flaps, a non-quiescent checkpoint instant). Covers
// the committed example scenarios and the whole fuzz corpus, plus
// scenarios where the checkpoint provably engages (warm_built/warm_restored
// are asserted, not hoped for), the k=32 warm sweep among them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "same_outputs.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/time.h"

namespace hpcc {
namespace {

// Expands `sc` and injects a checkpoint instant at 40% of each point's
// horizon when the scenario doesn't set one itself. Mutating the parsed
// scenario (not the document) keeps the injected value in both the warm and
// the cold variant, so the manifests' warm_start/snapshot sections stay
// byte-comparable.
std::vector<scenario::ScenarioRun> ExpandWithWarm(const scenario::Scenario& sc) {
  std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  for (scenario::ScenarioRun& run : runs) {
    if (run.scenario.warm_until == 0) {
      run.scenario.warm_until = run.scenario.config.duration * 2 / 5;
    }
  }
  return runs;
}

// A sweep's results and how many of its points built / restored a warm
// checkpoint.
struct WarmSweep {
  std::vector<scenario::SweepRunResult> points;
  size_t built = 0;
  size_t restored = 0;
};

// One full sweep under the given warm/jobs/shards configuration, every point
// writing its manifest under `tag`. Registers failures for run errors.
WarmSweep RunVariant(const std::vector<scenario::ScenarioRun>& runs, bool warm,
                     int jobs, int shards, const std::string& tag) {
  scenario::ScenarioRunnerOptions opts;
  opts.jobs = jobs;
  opts.warm = warm;
  opts.shards_override = shards;
  opts.manifest = true;
  opts.out_base = tag;
  WarmSweep out;
  out.points = scenario::ScenarioRunner(opts).RunAll(runs);
  for (const scenario::SweepRunResult& r : out.points) {
    EXPECT_TRUE(r.error.empty()) << r.label << ": " << r.error;
    EXPECT_FALSE(r.manifest_path.empty()) << r.label;
    out.built += r.warm_built ? 1 : 0;
    out.restored += r.warm_restored ? 1 : 0;
  }
  return out;
}

void RemoveManifests(const WarmSweep& sweep) {
  for (const scenario::SweepRunResult& r : sweep.points) {
    std::remove(r.manifest_path.c_str());
  }
}

// Expects `other`'s outputs identical to the cold sweep's, then removes
// `other`'s manifests.
void ExpectLikeCold(const WarmSweep& cold, const WarmSweep& other) {
  scenario::ExpectSameOutputs(cold.points, other.points);
  RemoveManifests(other);
}

// Cold baseline vs warm at jobs {1, 4} vs warm on 4 execution lanes: all
// four must produce the same outputs, and the lanes must checkpoint exactly
// where one lane does (a checkpoint instant is quiescent at any lane count
// or at none). Returns the warm jobs=1 sweep's {built, restored} counts.
std::pair<size_t, size_t> ExpectWarmEquivalence(
    const std::vector<scenario::ScenarioRun>& runs, const std::string& tag) {
  const WarmSweep cold = RunVariant(runs, /*warm=*/false, 1, 0, tag + "_cold");
  std::pair<size_t, size_t> engaged;
  {
    SCOPED_TRACE("warm jobs=1");
    const WarmSweep warm1 = RunVariant(runs, true, 1, 0, tag + "_w1");
    engaged = {warm1.built, warm1.restored};
    ExpectLikeCold(cold, warm1);
  }
  {
    SCOPED_TRACE("warm jobs=4");
    ExpectLikeCold(cold, RunVariant(runs, true, 4, 0, tag + "_w4"));
  }
  {
    SCOPED_TRACE("warm shards=4");
    const WarmSweep sharded = RunVariant(runs, true, 1, 4, tag + "_ws4");
    EXPECT_EQ(sharded.built, engaged.first);
    EXPECT_EQ(sharded.restored, engaged.second);
    ExpectLikeCold(cold, sharded);
  }
  RemoveManifests(cold);
  return engaged;
}

std::pair<size_t, size_t> ExpectWarmEquivalenceFile(const std::string& path,
                                                    const std::string& tag) {
  SCOPED_TRACE(path);
  const scenario::Scenario sc = scenario::LoadScenarioFile(path);
  const std::vector<scenario::ScenarioRun> runs = ExpandWithWarm(sc);
  EXPECT_FALSE(runs.empty());
  return ExpectWarmEquivalence(runs, tag);
}

TEST(WarmStart, Fig11LoadSweep) {
  ExpectWarmEquivalenceFile(std::string(HPCC_SOURCE_DIR) +
                                "/examples/scenarios/fig11_load_sweep.json",
                            "warm_eq_fig11");
}

TEST(WarmStart, Fig13LinkFailure) {
  // The trunk flap lands before the injected checkpoint instant, so warm
  // capture must refuse and every point runs cold (with the fabric snapshot
  // still shared) — bytes must not move.
  ExpectWarmEquivalenceFile(std::string(HPCC_SOURCE_DIR) +
                                "/examples/scenarios/fig13_link_failure.json",
                            "warm_eq_fig13");
}

TEST(WarmStart, Fattree16HadoopBurst) {
  // The 512-way incast is still draining at the checkpoint instant: the
  // quiescence gate must reject the capture and fall back cold.
  ExpectWarmEquivalenceFile(
      std::string(HPCC_SOURCE_DIR) +
          "/examples/scenarios/fattree16_hadoop_burst.json",
      "warm_eq_ft16");
}

TEST(WarmStart, Fattree32WarmSweep) {
  // The k=32 sweep engages: background load stops at 40 us, the fabric
  // drains before the 1.4 ms checkpoint, and only the post-checkpoint
  // incast's fan-in varies, so one point builds and seven restore — at one
  // lane and at four.
  const auto [built, restored] = ExpectWarmEquivalenceFile(
      std::string(HPCC_SOURCE_DIR) +
          "/examples/scenarios/fattree32_warm_sweep.json",
      "warm_eq_ft32");
  EXPECT_EQ(built, 1u);
  EXPECT_EQ(restored, 7u);
}

TEST(WarmStart, FabricSnapshotThenLinkFlaps) {
  // The second seed adopts the fabric snapshot the first one built, then
  // its link events flap fabric links the snapshot shares: the flaps land
  // before the injected checkpoint instant, so every point runs cold on the
  // shared snapshot.
  scenario::Json doc =
      scenario::LoadScenarioFile(std::string(HPCC_SOURCE_DIR) +
                                 "/tests/corpus/storm_fattree_flaps.json")
          .source;
  doc.Set("sweep", scenario::Json::Parse(R"({"seed": [505, 506]})"));
  const std::vector<scenario::ScenarioRun> runs =
      ExpandWithWarm(scenario::ParseScenario(doc));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(scenario::FabricSignature(runs[0].scenario),
            scenario::FabricSignature(runs[1].scenario));
  const auto [built, restored] = ExpectWarmEquivalence(runs, "warm_eq_flaps");
  EXPECT_EQ(built, 0u);
  EXPECT_EQ(restored, 0u);
}

TEST(WarmStart, Corpus) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(HPCC_SOURCE_DIR) + "/tests/corpus")) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (size_t i = 0; i < files.size(); ++i) {
    ExpectWarmEquivalenceFile(files[i],
                              "warm_eq_corpus" + std::to_string(i));
  }
}

// A scenario shaped so the checkpoint provably engages: background load that
// a zero-load phase shuts off early (all flows complete well before the
// checkpoint instant), then a post-checkpoint incast burst whose parameters
// are the sweep axis. Every grid point shares one WarmFingerprint, so the
// first run captures and all others restore.
std::vector<scenario::ScenarioRun> WarmEngagedRuns() {
  const char* doc = R"({
    "name": "warm_engaged",
    "topology": {"kind": "dumbbell", "hosts_per_side": 4,
                  "host_gbps": 100, "trunk_gbps": 400},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.3, "trace": "websearch", "max_flows": 30},
    "duration_ms": 0.5,
    "seed": 3,
    "events": [
      {"type": "load_phase", "at_us": 80, "load": 0.0},
      {"type": "incast", "at_us": 420, "fan_in": 4, "flow_bytes": 100000}
    ],
    "warm_start": {"until_us": 400}
  })";
  const scenario::Scenario base = scenario::ParseScenarioText(doc);
  // Post-checkpoint sweep axis, built programmatically: grid points differ
  // only in the burst's fan-in and size, which the fingerprint reduces to a
  // bare type marker.
  std::vector<scenario::ScenarioRun> runs;
  for (int i = 0; i < 4; ++i) {
    scenario::ScenarioRun run;
    run.scenario = base;
    run.scenario.events[1].incast.fan_in = 2 + (i % 3);
    run.scenario.events[1].incast.flow_bytes =
        50'000 + static_cast<uint64_t>(i) * 25'000;
    run.label = "warm_engaged[burst=" + std::to_string(i) + "]";
    run.params.emplace_back("burst", std::to_string(i));
    runs.push_back(std::move(run));
  }
  return runs;
}

// A warm restore must carry the load phases' shared max_flows counter. The
// cap binds in phase 0 (12 flows before the zero-load phase at 100 us) and
// the post-checkpoint phase at 450 us may emit nothing more, so every point
// creates exactly 12 + fan_in flows. A restore that dropped the counter would
// let the 450 us phase emit again.
std::vector<scenario::ScenarioRun> PhaseCapRuns() {
  const char* doc = R"({
    "name": "warm_phase_cap",
    "topology": {"kind": "dumbbell", "hosts_per_side": 4,
                  "host_gbps": 100, "trunk_gbps": 400},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.9, "trace": "fbhadoop", "max_flows": 12},
    "duration_ms": 0.6,
    "seed": 4,
    "events": [
      {"type": "load_phase", "at_us": 100, "load": 0.0},
      {"type": "load_phase", "at_us": 450, "load": 0.9},
      {"type": "incast", "at_us": 420, "fan_in": 3, "flow_bytes": 50000}
    ],
    "warm_start": {"until_us": 400},
    "sweep": {"events.2.fan_in": [2, 3, 4]}
  })";
  return scenario::ExpandSweep(scenario::ParseScenarioText(doc));
}

// Every point shares one WarmFingerprint; the sweep runs cold on one lane,
// then warm on `shards` lanes at jobs 1 and 4, where exactly one point
// builds the checkpoint and every other point restores it, with outputs
// identical to the cold run's. Returns the points' flows_created.
std::vector<uint64_t> ExpectCheckpointEngages(
    const std::vector<scenario::ScenarioRun>& runs, int shards,
    const std::string& tag) {
  const uint64_t fp = scenario::WarmFingerprint(runs[0].scenario);
  for (const scenario::ScenarioRun& run : runs) {
    EXPECT_EQ(scenario::WarmFingerprint(run.scenario), fp) << run.label;
  }

  const WarmSweep cold = RunVariant(runs, /*warm=*/false, 1, 0, tag + "_cold");
  EXPECT_EQ(cold.built, 0u);
  EXPECT_EQ(cold.restored, 0u);
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const WarmSweep warm =
        RunVariant(runs, /*warm=*/true, jobs, shards,
                   tag + "_w" + std::to_string(jobs));
    // Exactly one point builds the checkpoint; every other point restores.
    EXPECT_EQ(warm.built, 1u);
    EXPECT_EQ(warm.restored, runs.size() - 1);
    ExpectLikeCold(cold, warm);
  }
  RemoveManifests(cold);
  std::vector<uint64_t> flows;
  for (const scenario::SweepRunResult& r : cold.points) {
    flows.push_back(r.result.flows_created);
  }
  return flows;
}

TEST(WarmStart, CheckpointEngagesAndMatchesCold) {
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string lanes = "_s" + std::to_string(shards);
    {
      SCOPED_TRACE("post-checkpoint burst");
      const std::vector<scenario::ScenarioRun> runs = WarmEngagedRuns();
      ASSERT_EQ(runs.size(), 4u);
      ExpectCheckpointEngages(runs, shards, "warm_engaged" + lanes);
    }
    {
      SCOPED_TRACE("phase flow cap");
      const std::vector<scenario::ScenarioRun> runs = PhaseCapRuns();
      ASSERT_EQ(runs.size(), 3u);
      const std::vector<uint64_t> flows =
          ExpectCheckpointEngages(runs, shards, "warm_phase_cap" + lanes);
      ASSERT_EQ(flows.size(), runs.size());
      for (size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(flows[i],
                  12u + static_cast<uint64_t>(
                            runs[i].scenario.events[2].incast.fan_in))
            << runs[i].label;
      }
    }
  }
}

// The committed warm-sweep showcase must expand through the array-indexing
// sweep axis ("events.1.fan_in") into 8 points that all share one warm
// fingerprint — i.e. the scenario file really is warm-shareable as written.
// Expansion only; WarmStart.Fattree32WarmSweep runs it.
TEST(WarmStart, Fattree32WarmSweepExampleSharesOneFingerprint) {
  const scenario::Scenario sc = scenario::LoadScenarioFile(
      std::string(HPCC_SOURCE_DIR) +
      "/examples/scenarios/fattree32_warm_sweep.json");
  EXPECT_EQ(sc.warm_until, sim::Us(1400));
  const std::vector<scenario::ScenarioRun> runs = scenario::ExpandSweep(sc);
  ASSERT_EQ(runs.size(), 8u);
  const uint64_t fp = scenario::WarmFingerprint(runs[0].scenario);
  const uint64_t fab = scenario::FabricSignature(runs[0].scenario);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].scenario.events[1].incast.fan_in,
              4 + 2 * static_cast<int>(i))
        << runs[i].label;
    EXPECT_EQ(scenario::WarmFingerprint(runs[i].scenario), fp)
        << runs[i].label;
    EXPECT_EQ(scenario::FabricSignature(runs[i].scenario), fab)
        << runs[i].label;
  }
}

// The scenario-level schema surface: warm_start round-trips through
// ScenarioToJson, and malformed blocks are rejected loudly.
TEST(WarmStart, SchemaRoundTripAndValidation) {
  const char* doc = R"({
    "name": "warm_schema",
    "topology": {"kind": "star", "hosts": 4},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.2, "trace": "websearch", "max_flows": 5},
    "duration_ms": 0.2,
    "warm_start": {"until_us": 120}
  })";
  const scenario::Scenario sc = scenario::ParseScenarioText(doc);
  EXPECT_EQ(sc.warm_until, sim::Us(120));
  const scenario::Scenario round =
      scenario::ParseScenario(scenario::ScenarioToJson(sc));
  EXPECT_EQ(round.warm_until, sim::Us(120));
  EXPECT_EQ(scenario::ScenarioToJson(round).Dump(),
            scenario::ScenarioToJson(sc).Dump());

  EXPECT_THROW(scenario::ParseScenarioText(R"({
    "name": "bad", "topology": {"kind": "star", "hosts": 4},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.2, "trace": "websearch", "max_flows": 5},
    "duration_ms": 0.2, "warm_start": {"until_us": 0}
  })"),
               scenario::ScenarioError);
  EXPECT_THROW(scenario::ParseScenarioText(R"({
    "name": "bad", "topology": {"kind": "star", "hosts": 4},
    "cc": {"scheme": "hpcc"},
    "workload": {"load": 0.2, "trace": "websearch", "max_flows": 5},
    "duration_ms": 0.2, "warm_start": {"until_ms": 1}
  })"),
               scenario::ScenarioError);
}

// Fingerprint semantics: post-checkpoint event *parameters* don't split the
// cache key, but their count/order does (install-time schedule draws), and
// pre-checkpoint parameters always do.
TEST(WarmStart, FingerprintSkeletonizesPostCheckpointEvents) {
  const std::vector<scenario::ScenarioRun> runs = WarmEngagedRuns();
  scenario::Scenario a = runs[0].scenario;

  // Moving the post-T burst's time (still >= T) keeps the fingerprint.
  scenario::Scenario b = a;
  b.events[1].at = sim::Us(460);
  EXPECT_EQ(scenario::WarmFingerprint(a), scenario::WarmFingerprint(b));

  // Moving it before T exposes its full parameters.
  scenario::Scenario c = a;
  c.events[1].at = sim::Us(100);
  EXPECT_NE(scenario::WarmFingerprint(a), scenario::WarmFingerprint(c));

  // Dropping a post-T event changes the install-time draw pattern.
  scenario::Scenario d = a;
  d.events.pop_back();
  EXPECT_NE(scenario::WarmFingerprint(a), scenario::WarmFingerprint(d));

  // Load phases stay verbatim wherever they sit: a post-T phase time bounds
  // the previous generation window.
  scenario::Scenario e = a;
  e.events[0].load = 0.1;
  EXPECT_NE(scenario::WarmFingerprint(a), scenario::WarmFingerprint(e));

  // The fabric key ignores everything but the topology block.
  EXPECT_EQ(scenario::FabricSignature(a), scenario::FabricSignature(b));
  scenario::Scenario f = a;
  f.config.dumbbell.hosts_per_side = 6;
  EXPECT_NE(scenario::FabricSignature(a), scenario::FabricSignature(f));
}

}  // namespace
}  // namespace hpcc
