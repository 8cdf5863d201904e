// Telemetry determinism + shape regression tests (src/obs).
//
// The headline pins: the manifest and the Perfetto trace are byte-identical
// across --jobs=1/4, --fastpath=on/off and --shards=1/4 (the same contract
// the CSVs honor), and a run with telemetry on produces the exact CSV a run
// with telemetry off does. Plus schema smoke tests for both artifacts and the
// per-reason drop columns' appear-only-with-drops rule.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant.h"
#include "host/flow.h"
#include "obs/manifest.h"
#include "obs/telemetry.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ScenarioPath(const char* name) {
  return std::string(HPCC_SOURCE_DIR) + "/examples/scenarios/" + name;
}

std::string CorpusPath(const char* name) {
  return std::string(HPCC_SOURCE_DIR) + "/tests/corpus/" + name;
}

// Runs one sweep point with manifest + trace on, writing to `tag`-derived
// file names, and returns {manifest bytes, trace bytes}.
std::pair<std::string, std::string> RunWithTelemetry(const ScenarioRun& run,
                                                     const std::string& tag,
                                                     int fastpath_override) {
  RunOneOptions opts;
  opts.fastpath_override = fastpath_override;
  obs::TelemetryConfig tcfg = run.scenario.telemetry;
  tcfg.manifest = true;
  tcfg.trace = true;
  opts.telemetry = tcfg;
  opts.manifest_path = tag + ".manifest.json";
  opts.trace_path = tag + ".trace.json";
  const SweepRunResult r = ScenarioRunner::RunOne(run, opts);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.manifest_path, opts.manifest_path);
  EXPECT_EQ(r.trace_path, opts.trace_path);
  std::pair<std::string, std::string> out{ReadFile(opts.manifest_path),
                                          ReadFile(opts.trace_path)};
  std::remove(opts.manifest_path.c_str());
  std::remove(opts.trace_path.c_str());
  return out;
}

TEST(Telemetry, ArtifactsIdenticalAcrossJobs) {
  const Scenario sc = LoadScenarioFile(ScenarioPath("fig11_load_sweep.json"));
  const std::vector<ScenarioRun> runs = ExpandSweep(sc);
  ASSERT_GT(runs.size(), 1u);

  auto run_with_jobs = [&](int jobs, const std::string& base) {
    ScenarioRunnerOptions o;
    o.jobs = jobs;
    o.manifest = true;
    o.trace_out = base + ".trace.json";
    o.out_base = base;
    return ScenarioRunner(o).RunAll(runs);
  };
  const auto r1 = run_with_jobs(1, "telemetry_jobs1");
  const auto r4 = run_with_jobs(4, "telemetry_jobs4");
  ASSERT_EQ(r1.size(), runs.size());
  ASSERT_EQ(r4.size(), runs.size());

  for (size_t i = 0; i < r1.size(); ++i) {
    SCOPED_TRACE(r1[i].label);
    ASSERT_TRUE(r1[i].error.empty()) << r1[i].error;
    ASSERT_FALSE(r1[i].manifest_path.empty());
    ASSERT_FALSE(r1[i].trace_path.empty());
    const std::string m1 = ReadFile(r1[i].manifest_path);
    const std::string m4 = ReadFile(r4[i].manifest_path);
    const std::string t1 = ReadFile(r1[i].trace_path);
    const std::string t4 = ReadFile(r4[i].trace_path);
    EXPECT_FALSE(m1.empty());
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(m1, m4);
    EXPECT_EQ(t1, t4);
    std::remove(r1[i].manifest_path.c_str());
    std::remove(r4[i].manifest_path.c_str());
    std::remove(r1[i].trace_path.c_str());
    std::remove(r4[i].trace_path.c_str());
  }
}

TEST(Telemetry, ArtifactsIdenticalAcrossEngines) {
  // One sweep point of the fig11 sweep, one fuzz-corpus scenario and one
  // Fig. 2b run that pauses (pause depths, suppressed bandwidth): the
  // manifest and trace must not leak which transmit engine ran (that is
  // profile-section-only data).
  const std::vector<std::string> files = {
      ScenarioPath("fig11_load_sweep.json"), CorpusPath("fuzz_42_0.json"),
      ScenarioPath("fig2b_dcqcn_ti300_td4.json")};
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const Scenario sc = LoadScenarioFile(file);
    const std::vector<ScenarioRun> runs = ExpandSweep(sc);
    ASSERT_FALSE(runs.empty());
    const auto fast = RunWithTelemetry(runs[0], "telemetry_fast", 1);
    const auto ref = RunWithTelemetry(runs[0], "telemetry_ref", 0);
    EXPECT_FALSE(fast.first.empty());
    EXPECT_FALSE(fast.second.empty());
    EXPECT_EQ(fast.first, ref.first);    // manifest
    EXPECT_EQ(fast.second, ref.second);  // trace
  }
}

TEST(Telemetry, ArtifactsIdenticalAcrossShards) {
  // Traced + manifest sweeps at one and four lanes: each lane samples its
  // own switches and flows, and trace export merges the lanes, so the CSV,
  // every manifest and every trace must come out byte for byte the same.
  // Fig. 2b's hundreds of pause windows, each with its depth, span several
  // lanes.
  for (const char* name :
       {"fig13_link_failure.json", "fattree16_hadoop_burst.json",
        "fig2b_dcqcn_ti300_td4.json"}) {
    SCOPED_TRACE(name);
    const std::vector<ScenarioRun> runs =
        ExpandSweep(LoadScenarioFile(ScenarioPath(name)));
    ASSERT_FALSE(runs.empty());
    std::vector<std::string> base;  // CSV, then manifest + trace per point
    for (const int shards : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const std::string tag = "telemetry_s" + std::to_string(shards);
      ScenarioRunnerOptions o;
      o.jobs = 1;
      o.shards_override = shards;
      o.manifest = true;
      o.trace_out = tag + ".trace.json";
      o.out_base = tag;
      const std::vector<SweepRunResult> results =
          ScenarioRunner(o).RunAll(runs);
      ASSERT_TRUE(ScenarioRunner::WriteCsv(tag + ".csv", results));
      std::vector<std::string> bytes = {ReadFile(tag + ".csv")};
      std::remove((tag + ".csv").c_str());
      for (const SweepRunResult& r : results) {
        ASSERT_TRUE(r.ok()) << r.label << ": " << r.error;
        ASSERT_FALSE(r.manifest_path.empty());
        ASSERT_FALSE(r.trace_path.empty());
        bytes.push_back(ReadFile(r.manifest_path));
        bytes.push_back(ReadFile(r.trace_path));
        std::remove(r.manifest_path.c_str());
        std::remove(r.trace_path.c_str());
      }
      if (shards == 1) {
        base = std::move(bytes);
        continue;
      }
      ASSERT_EQ(bytes.size(), base.size());
      for (size_t i = 0; i < bytes.size(); ++i) {
        EXPECT_FALSE(bytes[i].empty()) << "artifact " << i;
        EXPECT_EQ(bytes[i], base[i]) << "artifact " << i;
      }
    }
  }
}

TEST(Telemetry, TraceSamplersRunOnEveryLane) {
  // The session's samplers start on a four-lane experiment, and every queue,
  // flow and INT track equals its one-lane counterpart point for point.
  std::vector<std::vector<obs::TelemetryTrack>> per_shards;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    runner::ExperimentConfig cfg;  // 2-pod fat-tree, 32 hosts
    cfg.load = 0.5;
    cfg.max_flows = 40;
    cfg.duration = sim::Us(300);
    cfg.shards = shards;
    runner::Experiment e(cfg);
    std::vector<check::MonitorRegistry> registries(shards);
    std::vector<check::MonitorRegistry*> regs;
    for (int lane = 0; lane < shards; ++lane) {
      registries[lane].set_clock(&e.lane_simulator(lane));
      registries[lane].AttachTo(e.topology(), e.lane_nodes(lane));
      regs.push_back(&registries[lane]);
    }
    obs::TelemetryConfig tcfg;
    tcfg.trace = true;
    tcfg.flow_tracks = 16;
    tcfg.int_tracks = 16;
    obs::TelemetrySession session(tcfg, regs, &e);
    ASSERT_NO_THROW(session.Start());
    e.Run();
    std::vector<obs::TelemetryTrack> tracks = session.TopQueueTracks();
    EXPECT_FALSE(tracks.empty());
    const std::vector<obs::TelemetryTrack> flows = session.FlowTracks();
    ASSERT_EQ(flows.size(), 16u);
    for (size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(flows[i].name, "flow " + std::to_string(i + 1));
    }
    tracks.insert(tracks.end(), flows.begin(), flows.end());
    const std::vector<obs::TelemetryTrack> ints = session.IntTracks();
    ASSERT_EQ(ints.size(), 32u);  // qlen, then util, per flow id
    tracks.insert(tracks.end(), ints.begin(), ints.end());
    per_shards.push_back(std::move(tracks));
  }
  ASSERT_EQ(per_shards[1].size(), per_shards[0].size());
  size_t sampled = 0;
  for (size_t i = 0; i < per_shards[0].size(); ++i) {
    sampled += per_shards[0][i].series.empty() ? 0 : 1;
    SCOPED_TRACE(per_shards[0][i].name);
    EXPECT_EQ(per_shards[1][i].name, per_shards[0][i].name);
    EXPECT_EQ(per_shards[1][i].series.points(),
              per_shards[0][i].series.points());
  }
  EXPECT_GT(sampled, per_shards[0].size() / 2);
}

TEST(Telemetry, ManifestShape) {
  const Scenario sc = LoadScenarioFile(ScenarioPath("fig11_load_sweep.json"));
  const std::vector<ScenarioRun> runs = ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());
  const auto arts = RunWithTelemetry(runs[0], "telemetry_shape", -1);

  const Json doc = Json::Parse(arts.first);
  ASSERT_NE(doc.Find("schema"), nullptr);
  EXPECT_EQ(doc.Find("schema")->AsString(), "hpccsim-manifest-v1");
  ASSERT_NE(doc.Find("scenario"), nullptr);
  ASSERT_NE(doc.Find("telemetry"), nullptr);
  ASSERT_NE(doc.Find("counters"), nullptr);
  ASSERT_NE(doc.Find("metrics"), nullptr);
  ASSERT_NE(doc.Find("trace_hash"), nullptr);
  // profile is opt-in and must be absent by default (engine-dependent).
  EXPECT_EQ(doc.Find("profile"), nullptr);
  const Json* counters = doc.Find("counters");
  ASSERT_NE(counters->Find("packets"), nullptr);
  ASSERT_NE(counters->Find("drops"), nullptr);
  ASSERT_NE(counters->Find("pfc"), nullptr);
  const Json* drops = counters->Find("drops");
  ASSERT_NE(drops->Find("no_route"), nullptr);
  ASSERT_NE(drops->Find("buffer_full"), nullptr);
  ASSERT_NE(drops->Find("egress_threshold"), nullptr);

  const Json trace = Json::Parse(arts.second);
  const Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->size(), 0u);
  // Every event carries the mandatory Chrome-trace fields.
  bool saw_flow_span = false, saw_counter = false;
  for (const Json& ev : events->items()) {
    ASSERT_NE(ev.Find("ph"), nullptr);
    ASSERT_NE(ev.Find("pid"), nullptr);
    const std::string ph = ev.Find("ph")->AsString();
    if (ph == "b") saw_flow_span = true;
    if (ph == "C") saw_counter = true;
  }
  EXPECT_TRUE(saw_flow_span);
  EXPECT_TRUE(saw_counter);
}

TEST(Telemetry, ProfileSectionIsOptIn) {
  const Scenario sc = LoadScenarioFile(ScenarioPath("fig11_load_sweep.json"));
  const std::vector<ScenarioRun> runs = ExpandSweep(sc);
  ASSERT_FALSE(runs.empty());
  RunOneOptions opts;
  obs::TelemetryConfig tcfg;
  tcfg.manifest = true;
  tcfg.profile = true;
  opts.telemetry = tcfg;
  opts.manifest_path = "telemetry_profile.manifest.json";
  const SweepRunResult r = ScenarioRunner::RunOne(runs[0], opts);
  ASSERT_TRUE(r.error.empty()) << r.error;
  const Json doc = Json::Parse(ReadFile(opts.manifest_path));
  std::remove(opts.manifest_path.c_str());
  const Json* profile = doc.Find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_NE(profile->Find("events_executed"), nullptr);
  ASSERT_NE(profile->Find("wall"), nullptr);
  EXPECT_GT(profile->Find("events_executed")->AsDouble(), 0.0);
}

TEST(Telemetry, CsvUnchangedByTelemetry) {
  // A run with full telemetry must produce the exact CSV a plain run does:
  // the samplers are read-only and zero-drop scenarios keep their historical
  // columns.
  const Scenario sc = LoadScenarioFile(ScenarioPath("fig11_load_sweep.json"));
  const std::vector<ScenarioRun> runs = ExpandSweep(sc);

  ScenarioRunnerOptions plain;
  plain.jobs = 2;
  const auto rp = ScenarioRunner(plain).RunAll(runs);

  ScenarioRunnerOptions tele;
  tele.jobs = 2;
  tele.manifest = true;
  tele.trace_out = "telemetry_csv.trace.json";
  tele.out_base = "telemetry_csv";
  const auto rt = ScenarioRunner(tele).RunAll(runs);

  ASSERT_TRUE(ScenarioRunner::WriteCsv("telemetry_plain.csv", rp));
  ASSERT_TRUE(ScenarioRunner::WriteCsv("telemetry_on.csv", rt));
  const std::string a = ReadFile("telemetry_plain.csv");
  const std::string b = ReadFile("telemetry_on.csv");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // fig11 is a PFC scenario: no drops, so no drops_* columns.
  EXPECT_EQ(a.find("drops_no_route"), std::string::npos);
  std::remove("telemetry_plain.csv");
  std::remove("telemetry_on.csv");
  for (const auto& r : rt) {
    if (!r.manifest_path.empty()) std::remove(r.manifest_path.c_str());
    if (!r.trace_path.empty()) std::remove(r.trace_path.c_str());
  }
}

TEST(Telemetry, DropReasonColumnsOnlyWithDrops) {
  std::vector<SweepRunResult> results(2);
  results[0].label = "a";
  results[1].label = "b";
  EXPECT_FALSE(ScenarioRunner::HasDrops(results));
  auto header = ScenarioRunner::CsvHeader(results);
  for (const std::string& col : header) {
    EXPECT_TRUE(col.find("drops_") == std::string::npos) << col;
  }
  const size_t plain_cols = header.size();

  results[1].result.dropped_packets = 5;
  results[1].result.dropped_by_reason[1] = 5;  // buffer_full
  EXPECT_TRUE(ScenarioRunner::HasDrops(results));
  header = ScenarioRunner::CsvHeader(results);
  EXPECT_EQ(header.size(), plain_cols + 4);
  // The reason columns sit right after dropped_packets, before retx_timeouts.
  size_t at = 0;
  while (at < header.size() && header[at] != "dropped_packets") ++at;
  ASSERT_LT(at + 4, header.size());
  EXPECT_EQ(header[at + 1], "drops_no_route");
  EXPECT_EQ(header[at + 2], "drops_buffer_full");
  EXPECT_EQ(header[at + 3], "drops_egress_threshold");
  EXPECT_EQ(header[at + 4], "drops_corrupt");

  // Error rows stay rectangular under either shape.
  results[0].error = "boom";
  EXPECT_EQ(ScenarioRunner::CsvRow(results[0], true).size(), header.size());
  EXPECT_EQ(ScenarioRunner::CsvRow(results[0], false).size(),
            header.size() - 4);
}

TEST(Telemetry, FlowTrackCountsBytesAckedBeforeTheFirstTick) {
  // A 20 KB flow from t = 0 is fully acked within the first 20 us sampling
  // interval. Its track's first sample sits at that first tick and carries
  // every byte acked since the flow began: the adopting tick must not treat
  // them as already reported.
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 3;
  runner::Experiment e(cfg);
  check::MonitorRegistry registry;
  obs::TelemetryConfig tcfg;
  tcfg.trace = true;
  tcfg.queue_tracks = 0;
  tcfg.flow_tracks = 1;
  tcfg.flow_sample_us = 20;
  obs::TelemetrySession session(tcfg, {&registry}, &e);
  session.Start();
  const host::Flow* f = e.AddFlow(e.hosts()[0], e.hosts()[2], 20'000, 0);
  e.RunUntil(sim::Us(100));
  ASSERT_TRUE(f->done);
  const std::vector<obs::TelemetryTrack> tracks = session.FlowTracks();
  ASSERT_EQ(tracks.size(), 1u);
  const auto& points = tracks[0].series.points();
  ASSERT_EQ(points.size(), 1u);  // nothing after completion
  EXPECT_EQ(points[0].first, sim::Us(20));
  EXPECT_DOUBLE_EQ(points[0].second, 20'000 * 8 / 20e-6 / 1e9);  // Gbps
}

TEST(Telemetry, ScenarioTelemetryBlockRoundTrips) {
  const std::string text = R"({
    "name": "tele_rt",
    "topology": {"kind": "dumbbell", "hosts_per_side": 2},
    "workload": {"load": 0.2, "max_flows": 10},
    "duration_ms": 0.2,
    "telemetry": {"manifest": true, "trace": true, "queue_tracks": 4,
                  "queue_sample_us": 5.0, "int_tracks": 2}
  })";
  const Scenario sc = ParseScenarioText(text);
  EXPECT_TRUE(sc.telemetry.manifest);
  EXPECT_TRUE(sc.telemetry.trace);
  EXPECT_FALSE(sc.telemetry.profile);
  EXPECT_EQ(sc.telemetry.queue_tracks, 4);
  EXPECT_EQ(sc.telemetry.int_tracks, 2);
  EXPECT_DOUBLE_EQ(sc.telemetry.queue_sample_us, 5.0);

  // Canonicalization fixed point, telemetry block included.
  const Json doc = ScenarioToJson(sc);
  const Scenario again = ParseScenario(doc);
  EXPECT_TRUE(again.telemetry == sc.telemetry);
  EXPECT_EQ(ScenarioToJson(again).Dump(2), doc.Dump(2));

  // Unknown telemetry keys fail loudly like everywhere else in the schema.
  EXPECT_THROW(ParseScenarioText(R"({
    "name": "bad",
    "topology": {"kind": "dumbbell", "hosts_per_side": 2},
    "workload": {"load": 0.2, "max_flows": 10},
    "duration_ms": 0.2,
    "telemetry": {"manifets": true}
  })"),
               ScenarioError);
}

}  // namespace
}  // namespace hpcc::scenario
