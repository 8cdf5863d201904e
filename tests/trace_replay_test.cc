// Trace replay: CSV parse/format round-trip, strict-parse rejection, and
// end-to-end emission through TraceReplaySource and the experiment runner.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "runner/experiment.h"
#include "sim/simulator.h"
#include "workload/trace_replay.h"

namespace hpcc::workload {
namespace {

std::vector<TraceRecord> Parse(const std::string& text) {
  std::istringstream in(text);
  return ParseFlowTrace(in);
}

TEST(FlowTrace, ParseBasic) {
  const auto r = Parse(
      "# exported 2026-08-01\n"
      "arrival_us,src,dst,bytes\n"
      "0,0,4,31250\n"
      "12.5,3,1,1000000\n"
      "12.5,1,3,64\n");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].at, 0);
  EXPECT_EQ(r[0].src, 0u);
  EXPECT_EQ(r[0].dst, 4u);
  EXPECT_EQ(r[0].bytes, 31'250u);
  EXPECT_EQ(r[1].at, sim::TimePs(12'500'000));  // 12.5 us in ps
  EXPECT_EQ(r[2].at, r[1].at);                  // ties allowed
}

TEST(FlowTrace, FormatParseRoundTripIsIdentity) {
  const std::vector<TraceRecord> records = {
      {0, 0, 4, 31'250},
      {sim::TimePs(1), 2, 3, 1},  // 1 ps = 0.000001 us, the finest grain
      {sim::Us(12) + 500'000, 3, 1, 1'000'000},
      {sim::Sec(2), 9, 0, 77},
  };
  const std::string text = FormatFlowTrace(records);
  EXPECT_EQ(Parse(text), records);
  // Format is also a fixed point of parse-then-format.
  EXPECT_EQ(FormatFlowTrace(Parse(text)), text);
}

TEST(FlowTrace, StrictParseRejectsMalformedRows) {
  auto expect_error = [](const std::string& text, const std::string& needle) {
    try {
      Parse(text);
      FAIL() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("1,2,3\n", "expected 4 fields");
  expect_error("1,2,3,4,5\n", "expected 4 fields");
  expect_error("1,7,7,100\n", "src == dst");
  expect_error("1,0,1,0\n", "zero-byte flow");
  expect_error("5,0,1,10\n3,1,0,10\n", "not sorted");
  expect_error("1.2e3,0,1,10\n", "non-numeric");
  expect_error("0.0000001,0,1,10\n", "finer than 1 ps");
  // Errors name the offending line (comments and header count too).
  expect_error("# c\narrival_us,src,dst,bytes\n1,0,1,10\nbogus,0,1,10\n",
               "line 4");
}

TEST(TraceReplay, EmitsRecordsInOrderAtRecordedTimes) {
  sim::Simulator s;
  auto records = std::make_shared<const std::vector<TraceRecord>>(
      std::vector<TraceRecord>{{sim::Us(1), 0, 1, 100},
                               {sim::Us(1), 1, 0, 200},  // same-instant tie
                               {sim::Us(5), 2, 3, 300}});
  struct Got {
    uint32_t src, dst;
    uint64_t bytes;
    sim::TimePs at;
  };
  std::vector<Got> got;
  TraceReplaySource src(&s, records,
                        [&](uint32_t a, uint32_t b, uint64_t n,
                            sim::TimePs at) { got.push_back({a, b, n, at}); });
  EXPECT_EQ(src.first_activity(), sim::Us(1));
  src.Start();
  s.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(src.emitted(), 3u);
  EXPECT_FALSE(src.warm_pending());
  EXPECT_EQ(got[0].src, 0u);
  EXPECT_EQ(got[0].at, sim::Us(1));
  EXPECT_EQ(got[1].src, 1u);  // trace order preserved across the tie
  EXPECT_EQ(got[1].at, sim::Us(1));
  EXPECT_EQ(got[2].bytes, 300u);
  EXPECT_EQ(got[2].at, sim::Us(5));
}

std::string WriteTempTrace(const std::string& name, const std::string& text) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(TraceReplay, DrivesExperimentFromTraceFile) {
  const std::string path = WriteTempTrace("replay_ok.csv",
                                          "arrival_us,src,dst,bytes\n"
                                          "10,0,1,20000\n"
                                          "20,2,3,20000\n"
                                          "20,3,0,20000\n");
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 4;
  cfg.cc.scheme = "hpcc";
  cfg.trace_file = path;
  cfg.duration = sim::Ms(1);
  runner::Experiment e(cfg);
  runner::ExperimentResult r = e.Run();
  EXPECT_EQ(r.flows_created, 3u);
  EXPECT_EQ(r.flows_completed, 3u);
  EXPECT_EQ(r.flows_failed, 0u);
}

TEST(TraceReplay, HostIndexOutOfRangeFailsLoudly) {
  const std::string path =
      WriteTempTrace("replay_oob.csv", "0,0,9,1000\n");  // 9 >= 4 hosts
  // The sink throws inside a lane's event loop; on two lanes the exception
  // must still reach the caller (after the worker lane has joined) instead
  // of terminating the process.
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    runner::ExperimentConfig cfg;
    cfg.topology = runner::TopologyKind::kStar;
    cfg.star.num_hosts = 4;
    cfg.cc.scheme = "hpcc";
    cfg.trace_file = path;
    cfg.duration = sim::Ms(1);
    cfg.shards = shards;
    runner::Experiment e(cfg);
    EXPECT_THROW(e.Run(), std::out_of_range);
  }
}

TEST(TraceReplay, MissingFileFailsAtConstruction) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 2;
  cfg.trace_file = "/nonexistent/trace.csv";
  EXPECT_THROW(runner::Experiment e(cfg), std::runtime_error);
}

}  // namespace
}  // namespace hpcc::workload
