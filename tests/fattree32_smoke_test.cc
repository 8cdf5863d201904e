// 8-seed monitor-clean smoke of the k=32 payoff scenario
// (examples/scenarios/fattree32_websearch.json): 8192 hosts, WebSearch load,
// link flaps across both fabric tiers repaired incrementally. Every seed
// must finish with zero invariant violations — this is the scale point the
// scale-out routing core exists for, so it runs against the committed file,
// not a scaled-down copy.
#include <gtest/gtest.h>

#include <string>

#include "check/fuzzer.h"
#include "scenario/scenario.h"

namespace hpcc::check {
namespace {

TEST(FatTree32Smoke, WebsearchScenarioRunsMonitorCleanAcrossSeeds) {
  const std::string path = std::string(HPCC_SOURCE_DIR) +
                           "/examples/scenarios/fattree32_websearch.json";
  const scenario::Scenario s = scenario::LoadScenarioFile(path);
  ASSERT_EQ(s.config.fattree.num_hosts(), 8192);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kSeeds = 2;  // sanitizer runs are ~5x slower; keep CI sane
#else
  constexpr int kSeeds = 8;
#endif
  for (int seed = 1; seed <= kSeeds; ++seed) {
    scenario::Json doc = s.source;
    doc.Set("seed", scenario::Json::MakeNumber(seed));
    const scenario::SweepRunResult rep = RunScenarioDocChecked(doc, 100'000'000);
    ASSERT_TRUE(rep.error.empty()) << "seed " << seed << ": " << rep.error;
    EXPECT_EQ(rep.violation_count, 0u)
        << "seed " << seed << ": " << rep.violations.front().Format();
    EXPECT_GT(rep.result.flows_created, 0u);
  }
}

}  // namespace
}  // namespace hpcc::check
