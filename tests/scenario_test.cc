// Scenario subsystem parsing tests: the zero-dependency JSON value type,
// schema validation (malformed inputs must be rejected loudly), sweep-grid
// expansion, a full-scenario JSON round trip and the canonical-dump goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "cc/factory.h"
#include "check/fuzzer.h"
#include "scenario/json.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

std::string ReadSourceFile(const std::string& relative) {
  std::ifstream in(std::string(HPCC_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The message of the E that parsing and expanding `text` throws ("" when
// nothing is thrown); any other exception fails the test.
template <class E>
std::string ErrorOf(const std::string& text) {
  try {
    ExpandSweep(ParseScenarioText(text));
  } catch (const E& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception type: " << e.what();
  }
  return "";
}

// ---- JSON value + parser ----------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null").is_null());
  EXPECT_TRUE(Json::Parse("true").AsBool());
  EXPECT_FALSE(Json::Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("-2.5e3").AsDouble(), -2500.0);
  EXPECT_EQ(Json::Parse("42").AsInt(), 42);
  EXPECT_EQ(Json::Parse("\"hi\\n\\\"there\\\"\"").AsString(), "hi\n\"there\"");
}

TEST(Json, ParsesNestedStructures) {
  const Json j = Json::Parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.Get("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.Get("a").at(1).AsDouble(), 2.0);
  EXPECT_TRUE(j.Get("a").at(2).Get("b").AsBool());
  EXPECT_EQ(j.Get("c").Get("d").AsString(), "x");
  EXPECT_TRUE(j.Get("e").is_null());
  EXPECT_EQ(j.Find("missing"), nullptr);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::Parse("\"\\u0041\"").AsString(), "A");
  EXPECT_EQ(Json::Parse("\"\\u00e9\"").AsString(), "\xc3\xa9");  // é in UTF-8
  EXPECT_THROW(Json::Parse("\"\\ud800\""), JsonError);  // surrogate
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::Parse(""), JsonError);
  EXPECT_THROW(Json::Parse("{"), JsonError);
  EXPECT_THROW(Json::Parse("[1, 2"), JsonError);
  EXPECT_THROW(Json::Parse("[1,]"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::Parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::Parse("{a: 1}"), JsonError);
  EXPECT_THROW(Json::Parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::Parse("tru"), JsonError);
  EXPECT_THROW(Json::Parse("01x"), JsonError);
  EXPECT_THROW(Json::Parse("012"), JsonError);   // leading zero
  EXPECT_THROW(Json::Parse("-07.5"), JsonError);
  EXPECT_NO_THROW(Json::Parse("0.5"));
  EXPECT_NO_THROW(Json::Parse("-0.5"));
  EXPECT_THROW(Json::Parse("1 2"), JsonError);       // trailing content
  EXPECT_THROW(Json::Parse("{\"a\":1,\"a\":2}"), JsonError);  // dup key
  EXPECT_THROW(Json::Parse("1e999"), JsonError);     // overflow
}

TEST(Json, RejectsDeepNesting) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "[";
  EXPECT_THROW(Json::Parse(bomb), JsonError);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    Json::Parse("{\n  \"a\": nope\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, DumpParsesBackIdentically) {
  const std::string text =
      R"({"s":"a\"b","n":0.95,"i":-7,"b":true,"x":null,"arr":[1,2.5,"z"],)"
      R"("o":{"k":3}})";
  const Json j = Json::Parse(text);
  EXPECT_EQ(Json::Parse(j.Dump()), j);
  EXPECT_EQ(Json::Parse(j.Dump(2)), j);  // pretty-print too
  EXPECT_EQ(j.Dump(), Json::Parse(j.Dump()).Dump());
}

TEST(Json, NumberFormattingRoundTrips) {
  for (const double v : {0.95, 1.0 / 3.0, 1e-12, 123456789012345.0, -0.125}) {
    EXPECT_DOUBLE_EQ(Json::Parse(FormatNumber(v)).AsDouble(), v) << v;
  }
  EXPECT_EQ(FormatNumber(3.0), "3");  // integral values stay integer-shaped
}

TEST(Json, SetPathCreatesIntermediateObjects) {
  Json j = Json::MakeObject();
  j.SetPath("workload.load", Json::MakeNumber(0.5));
  EXPECT_DOUBLE_EQ(j.Get("workload").Get("load").AsDouble(), 0.5);
  j.SetPath("workload.load", Json::MakeNumber(0.7));  // overwrite
  EXPECT_DOUBLE_EQ(j.Get("workload").Get("load").AsDouble(), 0.7);
  EXPECT_THROW(j.SetPath("workload.load.deeper", Json()), JsonError);
}

TEST(Json, SetPathIndexesArrayElements) {
  Json j = Json::Parse(R"({"events": [
    {"type": "load_phase", "load": 0.5},
    {"type": "incast", "fan_in": 4}
  ]})");
  j.SetPath("events.1.fan_in", Json::MakeNumber(8));
  EXPECT_EQ(j.Get("events").at(1).Get("fan_in").AsInt(), 8);
  j.SetPath("events.0", Json::Parse(R"({"type": "link_down", "link": 2})"));
  EXPECT_EQ(j.Get("events").at(0).Get("type").AsString(), "link_down");
  // Arrays are indexed, never extended; segments must be numeric.
  EXPECT_THROW(j.SetPath("events.2.fan_in", Json::MakeNumber(1)), JsonError);
  EXPECT_THROW(j.SetPath("events.first.fan_in", Json::MakeNumber(1)), JsonError);
}

// ---- scenario schema --------------------------------------------------------

constexpr char kMinimal[] = R"({
  "name": "t",
  "topology": {"kind": "star", "hosts": 4}
})";

TEST(Scenario, MinimalDocumentUsesDefaults) {
  const Scenario s = ParseScenarioText(kMinimal);
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.config.topology, runner::TopologyKind::kStar);
  EXPECT_EQ(s.config.star.num_hosts, 4);
  EXPECT_EQ(s.config.cc.scheme, "hpcc");
  EXPECT_EQ(s.config.duration, sim::Ms(10));
  EXPECT_TRUE(s.config.pfc_enabled);
  EXPECT_TRUE(s.events.empty());
  EXPECT_TRUE(s.sweep.empty());
}

TEST(Scenario, ParsesFullDocument) {
  const Scenario s = ParseScenarioText(R"({
    "name": "full",
    "description": "everything at once",
    "topology": {"kind": "dumbbell", "hosts_per_side": 3, "host_gbps": 25,
                 "trunk_gbps": 100, "link_delay_us": 2},
    "cc": {"scheme": "dcqcn+win", "eta": 0.9, "expected_flows": 6},
    "workload": {"load": 0.4, "trace": "fbhadoop", "max_flows": 50,
                 "incast": {"fan_in": 4, "flow_bytes": 100000,
                            "first_event_us": 50, "period_us": 500}},
    "duration_ms": 1.5,
    "seed": 9,
    "pfc": false,
    "recovery": "irn",
    "events": [
      {"type": "link_down", "at_us": 100, "link": 0},
      {"type": "link_up", "at_us": 200, "link": 0},
      {"type": "incast", "at_us": 300, "fan_in": 2, "flow_bytes": 5000},
      {"type": "load_phase", "at_us": 400, "load": 0.8}
    ]
  })");
  EXPECT_EQ(s.config.topology, runner::TopologyKind::kDumbbell);
  EXPECT_EQ(s.config.dumbbell.hosts_per_side, 3);
  EXPECT_EQ(s.config.dumbbell.host_bps, 25'000'000'000);
  EXPECT_EQ(s.config.dumbbell.trunk_bps, 100'000'000'000);
  EXPECT_EQ(s.config.dumbbell.link_delay, sim::Us(2));
  EXPECT_EQ(s.config.cc.scheme, "dcqcn+win");
  EXPECT_DOUBLE_EQ(s.config.cc.hpcc.eta, 0.9);
  EXPECT_DOUBLE_EQ(s.config.load, 0.4);
  EXPECT_EQ(s.config.trace, "fbhadoop");
  EXPECT_EQ(s.config.max_flows, 50u);
  EXPECT_TRUE(s.config.incast);
  EXPECT_EQ(s.config.incast_opts.fan_in, 4);
  EXPECT_EQ(s.config.duration, sim::TimePs(1'500'000'000));
  EXPECT_EQ(s.config.seed, 9u);
  EXPECT_FALSE(s.config.pfc_enabled);
  EXPECT_EQ(s.config.recovery, host::RecoveryMode::kIrn);

  ASSERT_EQ(s.events.size(), 4u);
  EXPECT_EQ(s.events[0].kind, ScenarioEvent::Kind::kLinkDown);
  EXPECT_EQ(s.events[0].at, sim::Us(100));
  EXPECT_EQ(s.events[0].link, 0u);
  EXPECT_EQ(s.events[1].kind, ScenarioEvent::Kind::kLinkUp);
  EXPECT_EQ(s.events[2].kind, ScenarioEvent::Kind::kIncast);
  EXPECT_EQ(s.events[2].incast.fan_in, 2);
  EXPECT_EQ(s.events[2].incast.first_event, sim::Us(300));
  EXPECT_EQ(s.events[2].incast.period, 0);  // one-shot
  EXPECT_EQ(s.events[3].kind, ScenarioEvent::Kind::kLoadPhase);
  EXPECT_DOUBLE_EQ(s.events[3].load, 0.8);
}

TEST(Scenario, RejectsMalformedDocuments) {
  // Not an object / not JSON at all.
  EXPECT_THROW(ParseScenarioText("[1,2]"), ScenarioError);
  EXPECT_THROW(ParseScenarioText("{nope"), JsonError);
  // Missing / bad topology.
  EXPECT_THROW(ParseScenarioText(R"({"name": "x"})"), ScenarioError);
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"kind": "torus"}})"),
               ScenarioError);
  EXPECT_THROW(ParseScenarioText(R"({"topology": {"hosts": 3}})"),
               ScenarioError);
  // Unknown keys anywhere are rejected (typo protection).
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duation_ms": 2})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hostz": 3}})"),
      ScenarioError);
  // Type and range violations.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duration_ms": -1})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "duration_ms": "x"})"),
      JsonError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3}, "recovery": "tcp"})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "workload": {"load": -0.1}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "workload": {"trace": "websearch2"}})"),
      ScenarioError);
  // Incast shapes the topology can never host are parse errors (the
  // generator's own guard is a debug-only assert).
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 8,
                                                    "flow_bytes": 1000}}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 2,
                                                    "flow_bytes": 1000,
                                                    "receiver": 9}}})"),
      ScenarioError);
  // Bad events.
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "events": [{"type": "link_down", "at_us": 1}]})"),
      ScenarioError);  // missing link
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "events": [{"type": "warp", "at_us": 1}]})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "events": [{"type": "link_up", "at_us": -5, "link": 0}]})"),
      ScenarioError);
  // Values past the representable range would be UB to cast; reject loudly.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3, "host_gbps": 1e12}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 4},
                            "workload": {"incast": {"fan_in": 2,
                                                    "flow_bytes": 1e20}}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 4},
              "workload": {"incast": {"fan_in": 2, "flow_bytes": 1000,
                                      "receiver": 4294967295}}})"),
      ScenarioError);
  // Times beyond the int64 picosecond clock would be UB to cast; they must
  // fail like any other malformed input.
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "duration_ms": 1e300})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(
          R"({"topology": {"kind": "star", "hosts": 3},
              "events": [{"type": "link_up", "at_us": 1e300, "link": 0}]})"),
      ScenarioError);
  // Bad sweep shapes.
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "sweep": {"workload.load": []}})"),
      ScenarioError);
  EXPECT_THROW(
      ParseScenarioText(R"({"topology": {"kind": "star", "hosts": 3},
                            "sweep": [0.3]})"),
      ScenarioError);
}

TEST(Scenario, ErrorsNameTheKeyAndBlock) {
  struct Case {
    const char* doc;
    const char* message;
  };
  // Wrong-typed values stay JsonError.
  for (const Case& c : std::initializer_list<Case>{
           {R"({"topology": {"kind": "star", "hosts": "5"}})",
            R"("hosts" in topology: expected a number)"},
           {R"({"topology": {"kind": "star"}, "workload": {"load": "0.3"}})",
            R"("load" in workload: expected a number)"},
           {R"({"topology": {"kind": "star"},
                "events": [{"type": "link_up", "at_us": 1, "link": 1.5}]})",
            R"("link" in events[0]: expected an integer)"},
           {R"({"topology": {"kind": "star"}, "telemetry": {"manifest": 1}})",
            R"("manifest" in telemetry: expected a boolean)"}}) {
    EXPECT_PRED_FORMAT2(testing::IsSubstring, c.message,
                        ErrorOf<JsonError>(c.doc));
  }
  for (const Case& c : std::initializer_list<Case>{
           // Blocks of the wrong shape say so.
           {R"({"topology": [1]})", "topology must be an object"},
           {R"({"topology": {"kind": "star"}, "events": [5]})",
            "events[0] must be an object"},
           {R"({"topology": {"kind": "star"}, "cc": "hpcc"})",
            "cc must be an object"},
           {R"({"topology": {"kind": "star"}, "workload": {"incast": 5}})",
            "workload.incast must be an object"},
           // Rule violations name the key and block.
           {R"({"topology": {"kind": "star"},
                "events": [{"type": "link_up", "at_us": -1, "link": 0}]})",
            R"("at_us" in events[0] must be >= 0)"},
           {R"({"topology": {"kind": "star", "host_gbps": 1e12}})",
            R"("host_gbps" in topology must be within the representable)"},
           // Sweep axis values are scalars.
           {R"({"topology": {"kind": "star"}, "sweep": {"seed": [[1, 2]]}})",
            R"("seed" in sweep must be a non-empty array of scalars)"},
           // A point that fails to parse is named by its label.
           {R"({"name": "g", "topology": {"kind": "star"},
                "sweep": {"cc.eta": [0.9, -1]}})",
            R"(g[eta=-1]: "eta" in cc must be > 0)"},
           // The RED thresholds come as a pair, in order.
           {R"({"topology": {"kind": "star"}, "cc": {"red_kmax_kb": 50}})",
            R"("red_kmin_kb" and "red_kmax_kb" in cc must be given together)"},
           {R"({"topology": {"kind": "star"},
                "cc": {"red_kmin_kb": 60, "red_kmax_kb": 50}})",
            R"("red_kmin_kb" in cc must be <= "red_kmax_kb")"},
           {R"({"topology": {"kind": "star"}, "cc": {"dcqcn_ti_us": 0}})",
            R"("dcqcn_ti_us" in cc must be > 0)"},
           {R"({"topology": {"kind": "star"}, "drain_factor": -1})",
            R"("drain_factor" in scenario must be >= 0)"}}) {
    EXPECT_PRED_FORMAT2(testing::IsSubstring, c.message,
                        ErrorOf<ScenarioError>(c.doc));
  }
}

// The keys the figure files set beyond the scheme's defaults: DCQCN's
// timers (Fig. 2), the RED thresholds (Fig. 3), the ablation's HPCC switches
// and drain_factor 0. The canonical dump writes each only when it differs
// from its default.
TEST(Scenario, FigureKnobsSetTheirConfigFields) {
  const Scenario s = ParseScenarioText(R"({
    "topology": {"kind": "star"},
    "cc": {"dcqcn_ti_us": 300, "dcqcn_td_us": 50, "red_kmin_kb": 12,
           "red_kmax_kb": 50, "min_qlen_filter": false, "ewma": false,
           "div_table": true, "wire_format": true},
    "drain_factor": 0
  })");
  const runner::ExperimentConfig& c = s.config;
  EXPECT_EQ(c.cc.dcqcn.rate_inc_timer, sim::Us(300));
  EXPECT_EQ(c.cc.dcqcn.min_dec_interval, sim::Us(50));
  ASSERT_TRUE(c.red_override.has_value());
  EXPECT_TRUE(c.red_override->enabled);
  EXPECT_DOUBLE_EQ(c.red_override->kmin_bytes, 12'000);
  EXPECT_DOUBLE_EQ(c.red_override->kmax_bytes, 50'000);
  EXPECT_FALSE(c.cc.hpcc.use_min_qlen_filter);
  EXPECT_FALSE(c.cc.hpcc.use_ewma);
  EXPECT_TRUE(c.cc.hpcc.use_div_table);
  EXPECT_TRUE(c.cc.hpcc.wire_format);
  EXPECT_EQ(c.drain_factor, 0.0);

  const Json set = ScenarioToJson(s).Get("cc");
  const Json defaults = ScenarioToJson(ParseScenarioText(kMinimal)).Get("cc");
  for (const char* key : {"dcqcn_ti_us", "dcqcn_td_us", "red_kmin_kb",
                          "red_kmax_kb", "min_qlen_filter", "ewma",
                          "div_table", "wire_format"}) {
    EXPECT_NE(set.Find(key), nullptr) << key;
    EXPECT_EQ(defaults.Find(key), nullptr) << key;
  }
}

// A relative workload.trace_file opens beside the scenario file, whatever
// the working directory; every echo of the scenario keeps it as written.
TEST(Scenario, RelativeTraceFileOpensBesideTheScenarioFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hpcc_scenario_test_trace";
  std::filesystem::create_directories(dir);
  ASSERT_NE(std::filesystem::current_path(), dir);
  std::ofstream(dir / "flows.csv")
      << "arrival_us,src,dst,bytes\n0,0,2,1000\n5,1,2,2000\n";
  const std::string doc = R"({
    "name": "relative_trace",
    "topology": {"kind": "star", "hosts": 3},
    "workload": {"trace_file": "flows.csv"},
    "duration_ms": 0.1,
    "sweep": {"seed": [1, 2]}
  })";
  std::ofstream(dir / "s.json") << doc;

  const Scenario s = LoadScenarioFile((dir / "s.json").string());
  EXPECT_EQ(MakeExperimentConfig(s).trace_file, (dir / "flows.csv").string());
  for (const ScenarioRun& run : ExpandSweep(s)) {
    SCOPED_TRACE(run.label);
    const SweepRunResult r = ScenarioRunner::RunOne(run);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.result.flows_created, 2u);  // one per row
    const Json echo = ScenarioToJson(run.scenario);
    EXPECT_EQ(echo.Get("workload").Get("trace_file").AsString(), "flows.csv");
  }
  // A document parsed from text keeps the working directory.
  EXPECT_EQ(MakeExperimentConfig(ParseScenarioText(doc)).trace_file,
            "flows.csv");
  std::filesystem::remove_all(dir);
}

TEST(Scenario, UnknownSchemeIsAParseError) {
  for (const std::string& scheme : cc::AllSchemes()) {
    EXPECT_EQ(ErrorOf<ScenarioError>(R"({"topology": {"kind": "star"},
                                         "cc": {"scheme": ")" +
                                      scheme + R"("}})"),
              "")
        << scheme;
  }
  EXPECT_PRED_FORMAT2(testing::IsSubstring, R"("scheme" in cc must be hpcc|)",
                      ErrorOf<ScenarioError>(R"({"topology": {"kind": "star"},
                                               "cc": {"scheme": "nosuch"}})"));
  // The hybrid INT check no longer takes a made-up hpcc-prefixed name.
  EXPECT_PRED_FORMAT2(testing::IsSubstring, R"("scheme" in cc must be)",
                      ErrorOf<ScenarioError>(R"({"topology": {"kind": "star"},
                                                 "cc": {"scheme": "hpccx"},
                                                 "hybrid": {}})"));
  // Through a sweep axis the bad point fails at expansion, before any run.
  EXPECT_PRED_FORMAT2(testing::IsSubstring,
                      R"(g[scheme=nosuch]: "scheme" in cc must be)",
                      ErrorOf<ScenarioError>(R"({
                        "name": "g", "topology": {"kind": "star"},
                        "sweep": {"cc.scheme": ["hpcc", "nosuch"]}})"));
}

TEST(Scenario, SweepExpansionIsTheCrossProduct) {
  const Scenario s = ParseScenarioText(R"({
    "name": "grid",
    "topology": {"kind": "star", "hosts": 4},
    "workload": {"load": 0.1},
    "sweep": {
      "workload.load": [0.3, 0.5, 0.7],
      "cc.scheme": ["hpcc", "dcqcn"]
    }
  })");
  const std::vector<ScenarioRun> runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 6u);  // 3 loads x 2 schemes

  // Declaration order: first axis slowest, second fastest.
  EXPECT_EQ(runs[0].label, "grid[load=0.3,scheme=hpcc]");
  EXPECT_EQ(runs[1].label, "grid[load=0.3,scheme=dcqcn]");
  EXPECT_EQ(runs[5].label, "grid[load=0.7,scheme=dcqcn]");

  // Patched values land in the resolved configs; sweeps don't nest.
  EXPECT_DOUBLE_EQ(runs[0].scenario.config.load, 0.3);
  EXPECT_EQ(runs[0].scenario.config.cc.scheme, "hpcc");
  EXPECT_DOUBLE_EQ(runs[5].scenario.config.load, 0.7);
  EXPECT_EQ(runs[5].scenario.config.cc.scheme, "dcqcn");
  EXPECT_TRUE(runs[0].scenario.sweep.empty());

  // Params echo the axis assignments for the CSV columns.
  ASSERT_EQ(runs[3].params.size(), 2u);
  EXPECT_EQ(runs[3].params[0].first, "workload.load");
  EXPECT_EQ(runs[3].params[0].second, "0.5");
  EXPECT_EQ(runs[3].params[1].second, "dcqcn");
}

TEST(Scenario, SweepOverUnknownKeyFailsAtExpansion) {
  const Scenario s = ParseScenarioText(R"({
    "topology": {"kind": "star", "hosts": 4},
    "sweep": {"cc.bogus_knob": [1, 2]}
  })");
  EXPECT_THROW(ExpandSweep(s), ScenarioError);
}

TEST(Scenario, NoSweepExpandsToSingleRun) {
  const Scenario s = ParseScenarioText(kMinimal);
  const auto runs = ExpandSweep(s);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "t");
  EXPECT_TRUE(runs[0].params.empty());
}

TEST(Scenario, JsonRoundTripIsAFixedPoint) {
  const Scenario s1 = ParseScenarioText(R"({
    "name": "rt",
    "description": "round-trip fixture",
    "topology": {"kind": "fattree", "pods": 2, "tors_per_pod": 2,
                 "aggs_per_pod": 2, "hosts_per_tor": 4},
    "cc": {"scheme": "timely+win", "eta": 0.9},
    "workload": {"load": 0.35, "trace": "fbhadoop", "max_flows": 77,
                 "incast": {"fan_in": 6, "flow_bytes": 250000,
                            "first_event_us": 150, "period_us": 900}},
    "duration_ms": 2.5,
    "seed": 13,
    "pfc": false,
    "recovery": "irn",
    "events": [
      {"type": "incast", "at_us": 20, "fan_in": 3, "flow_bytes": 9000},
      {"type": "link_down", "at_us": 111, "link": 2},
      {"type": "link_up", "at_us": 222.5, "link": 2},
      {"type": "load_phase", "at_us": 500, "load": 0.6}
    ],
    "sweep": {"seed": [1, 2, 3, 4]}
  })");
  const Json d1 = ScenarioToJson(s1);
  const Scenario s2 = ParseScenario(d1);
  const Json d2 = ScenarioToJson(s2);
  // Canonical form is a fixed point, byte for byte.
  EXPECT_EQ(d1.Dump(), d2.Dump());
  EXPECT_EQ(d1, d2);

  // And the reparsed scenario is semantically identical.
  EXPECT_EQ(s2.name, s1.name);
  EXPECT_EQ(s2.description, "round-trip fixture");
  EXPECT_EQ(s2.config.topology, s1.config.topology);
  EXPECT_EQ(s2.config.fattree.hosts_per_tor, s1.config.fattree.hosts_per_tor);
  EXPECT_EQ(s2.config.cc.scheme, s1.config.cc.scheme);
  EXPECT_DOUBLE_EQ(s2.config.load, s1.config.load);
  EXPECT_EQ(s2.config.duration, s1.config.duration);
  EXPECT_EQ(s2.config.seed, s1.config.seed);
  EXPECT_EQ(s2.config.recovery, s1.config.recovery);
  ASSERT_EQ(s2.events.size(), s1.events.size());
  for (size_t i = 0; i < s1.events.size(); ++i) {
    EXPECT_EQ(s2.events[i].kind, s1.events[i].kind) << i;
    EXPECT_EQ(s2.events[i].at, s1.events[i].at) << i;
  }
  ASSERT_EQ(s2.sweep.size(), 1u);
  EXPECT_EQ(s2.sweep[0].key, "seed");
  EXPECT_EQ(s2.sweep[0].values.size(), 4u);
  // The round-tripped document still expands.
  EXPECT_EQ(ExpandSweep(s2).size(), 4u);
}

// Canonical-dump goldens: documents that together set every key of every
// block, every topology kind and every event type to a non-default value,
// plus an all-defaults one. Each X.dump is `hpccsim tests/dump_golden/X.json
// --dump`; regenerate it that way only when the canonical form is meant to
// change.
TEST(Scenario, CanonicalDumpMatchesGolden) {
  for (const char* name : {"defaults", "paper_scale", "fattree", "testbed",
                           "star", "dumbbell"}) {
    const std::string base = std::string("tests/dump_golden/") + name;
    const std::string input = ReadSourceFile(base + ".json");
    ASSERT_FALSE(input.empty()) << base;
    const std::string dump =
        ScenarioToJson(ParseScenarioText(input)).Dump(2) + "\n";
    EXPECT_EQ(dump, ReadSourceFile(base + ".dump")) << base;
    // The dump reads back to itself.
    EXPECT_EQ(ScenarioToJson(ParseScenarioText(dump)).Dump(2) + "\n", dump)
        << base;
  }
}

// Splits a SchemaKeyPaths() entry into its block and key.
std::pair<std::string, std::string> BlockAndKey(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return {"", path};
  return {path.substr(0, dot), path.substr(dot + 1)};
}

TEST(Scenario, EveryKeyIsDocumented) {
  const std::string doc = ReadSourceFile("docs/SCENARIO_FORMAT.md");
  ASSERT_FALSE(doc.empty());
  // A block's section runs from its "## " heading to the next heading.
  const std::map<std::string, std::string> kSections = {
      {"", "Top level"},         {"topology", "Topology"},
      {"cc", "CC"},              {"workload", "Workload"},
      {"events", "Event script"}, {"telemetry", "Telemetry"},
      {"warm_start", "Warm start"}, {"hybrid", "Hybrid co-simulation"}};
  const auto section = [&](const std::string& block) {
    const std::string top = block.substr(0, block.find_first_of(".["));
    const auto it = kSections.find(top);
    if (it == kSections.end()) return std::string();
    const size_t at = doc.find("\n## " + it->second + "\n");
    if (at == std::string::npos) return std::string();
    return doc.substr(at, doc.find("\n## ", at + 1) - at);
  };
  for (const std::string& path : SchemaKeyPaths()) {
    const auto [block, key] = BlockAndKey(path);
    const std::string text = section(block);
    EXPECT_NE(text.find("`" + key + "`"), std::string::npos)
        << path << " is not documented in its SCENARIO_FORMAT.md section";
    // So is the variant a block belongs to: the topology kind, event type.
    const size_t open = block.find('[');
    if (open != std::string::npos) {
      const std::string variant =
          block.substr(open + 1, block.find(']') - open - 1);
      EXPECT_NE(text.find("`" + variant + "`"), std::string::npos) << path;
    }
  }
}

// Adds the SchemaKeyPaths() form of every key in `obj`, a block at `path`.
void CollectKeyPaths(const Json& obj, const std::string& path,
                     std::set<std::string>* out) {
  for (const auto& [key, value] : obj.members()) {
    const std::string at = path.empty() ? key : path + "." + key;
    out->insert(at);
    if (value.is_object()) {
      const Json* kind = value.Find("kind");
      CollectKeyPaths(value, kind ? at + "[" + kind->AsString() + "]" : at,
                      out);
    } else if (value.is_array()) {
      for (const Json& event : value.items()) {
        CollectKeyPaths(event, at + "[" + event.Get("type").AsString() + "]",
                        out);
      }
    }
  }
}

TEST(Scenario, EveryKeyIsFuzzedOrExempt) {
  std::set<std::string> fuzzed;
  for (const bool faults : {false, true}) {
    for (int i = 0; i < 200; ++i) {
      CollectKeyPaths(check::GenerateScenarioDoc(42, i, faults), "", &fuzzed);
    }
  }
  // Keys GenerateScenarioDoc never draws, each with its reason. This is the
  // to-do list of the ROADMAP's "Fuzz every feature" item: a key leaves it
  // when the generator learns to draw it.
  const std::map<std::string, std::string> kExempt = {
      {"description", "free text; no effect on a run"},
      {"topology[fattree].paper_scale",
       "a preset of sizes that are drawn directly"},
      {"topology[fattree].host_gbps",
       "fat-trees are drawn at the default rates"},
      {"topology[fattree].fabric_gbps",
       "fat-trees are drawn at the default rates"},
      {"topology[fattree].link_delay_us",
       "links are drawn at the default delay"},
      {"topology[testbed].kind", "no testbed fabrics are drawn"},
      {"topology[testbed].servers_per_pair", "no testbed fabrics are drawn"},
      {"topology[testbed].host_gbps", "no testbed fabrics are drawn"},
      {"topology[testbed].fabric_gbps", "no testbed fabrics are drawn"},
      {"topology[testbed].link_delay_us", "no testbed fabrics are drawn"},
      {"topology[star].kind", "no star fabrics are drawn"},
      {"topology[star].hosts", "no star fabrics are drawn"},
      {"topology[star].host_gbps", "no star fabrics are drawn"},
      {"topology[star].link_delay_us", "no star fabrics are drawn"},
      {"topology[dumbbell].link_delay_us",
       "links are drawn at the default delay"},
      {"cc.eta", "schemes are drawn at their default parameters"},
      {"cc.wai_bytes", "schemes are drawn at their default parameters"},
      {"cc.max_stage", "schemes are drawn at their default parameters"},
      {"cc.expected_flows", "schemes are drawn at their default parameters"},
      {"cc.alpha_fair", "schemes are drawn at their default parameters"},
      {"cc.min_qlen_filter", "schemes are drawn at their default parameters"},
      {"cc.ewma", "schemes are drawn at their default parameters"},
      {"cc.div_table", "schemes are drawn at their default parameters"},
      {"cc.wire_format", "schemes are drawn at their default parameters"},
      {"cc.dcqcn_ti_us", "schemes are drawn at their default parameters"},
      {"cc.dcqcn_td_us", "schemes are drawn at their default parameters"},
      {"cc.red_kmin_kb", "schemes are drawn at their default parameters"},
      {"cc.red_kmax_kb", "schemes are drawn at their default parameters"},
      {"workload.flow_class", "fluid flows need a hybrid block, never drawn"},
      {"workload.trace_file", "no flow-trace files are generated"},
      {"workload.incast.receiver", "periodic incasts keep the random receiver"},
      {"workload.incast.flow_class",
       "fluid flows need a hybrid block, never drawn"},
      {"drain_factor", "runs keep the default drain horizon"},
      {"shards", "covered by the fuzzer's shards=2 replay override"},
      {"fastpath", "covered by the fuzzer's fastpath=off replay override"},
      {"short_flow_bytes", "a reporting threshold; no effect on a run"},
      {"telemetry", "fuzz runs force telemetry off"},
      {"telemetry.manifest", "fuzz runs force telemetry off"},
      {"telemetry.trace", "fuzz runs force telemetry off"},
      {"telemetry.profile", "fuzz runs force telemetry off"},
      {"telemetry.queue_tracks", "fuzz runs force telemetry off"},
      {"telemetry.queue_track_points", "fuzz runs force telemetry off"},
      {"telemetry.queue_sample_us", "fuzz runs force telemetry off"},
      {"telemetry.flow_tracks", "fuzz runs force telemetry off"},
      {"telemetry.flow_track_points", "fuzz runs force telemetry off"},
      {"telemetry.flow_sample_us", "fuzz runs force telemetry off"},
      {"telemetry.int_tracks", "fuzz runs force telemetry off"},
      {"telemetry.int_track_points", "fuzz runs force telemetry off"},
      {"warm_start", "covered by the fuzzer's warm replay, which injects it"},
      {"warm_start.until_us",
       "covered by the fuzzer's warm replay, which injects it"},
      {"deadline_s", "a wall-clock limit would make runs nondeterministic"},
      {"hybrid", "no hybrid blocks are drawn yet"},
      {"hybrid.tick_us", "no hybrid blocks are drawn yet"},
      {"events[incast].flow_class",
       "fluid flows need a hybrid block, never drawn"},
      {"sweep", "the fuzzer runs single points"},
  };
  const std::vector<std::string> schema = SchemaKeyPaths();
  for (const std::string& path : schema) {
    const bool exempt = kExempt.count(path) > 0;
    if (fuzzed.count(path) > 0) {
      EXPECT_FALSE(exempt) << path << " is fuzzed now: drop its exemption";
    } else {
      EXPECT_TRUE(exempt) << path << " is neither fuzzed nor exempt";
    }
  }
  for (const auto& [path, reason] : kExempt) {
    EXPECT_NE(std::find(schema.begin(), schema.end(), path), schema.end())
        << path << " is not a schema key";
  }
}

// docs/PAPER_MAPPING.md names every paper scenario file, and every .json
// path it names exists: scenario paths relative to examples/scenarios/,
// other files relative to the repo root.
TEST(Scenario, EveryPaperFileIsMapped) {
  const std::string mapping = ReadSourceFile("docs/PAPER_MAPPING.md");
  ASSERT_FALSE(mapping.empty());
  const std::filesystem::path root(HPCC_SOURCE_DIR);
  const std::filesystem::path scenarios = root / "examples" / "scenarios";
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenarios / "paper")) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string name = "`paper/" + entry.path().filename().string();
    EXPECT_NE(mapping.find(name), std::string::npos)
        << name << "` is not named in docs/PAPER_MAPPING.md";
  }
  EXPECT_GT(files, 0u);
  const std::regex named("`([^`\\s]+\\.json)`");
  for (std::sregex_iterator it(mapping.begin(), mapping.end(), named), end;
       it != end; ++it) {
    const std::string path = (*it)[1];
    EXPECT_TRUE(std::filesystem::exists(scenarios / path) ||
                std::filesystem::exists(root / path))
        << "docs/PAPER_MAPPING.md names a missing file: " << path;
  }
}

TEST(Scenario, LoadScenarioFileReportsMissingFile) {
  EXPECT_THROW(LoadScenarioFile("/nonexistent/path.json"), ScenarioError);
}

}  // namespace
}  // namespace hpcc::scenario
