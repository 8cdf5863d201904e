// Determinism regression: the committed fig11 load sweep must produce the
// same outputs (ScenarioRunner::CompareOutputs: every CSV cell and the
// golden-trace hash of every point) for --jobs=1 and --jobs=4. This pins
// the ScenarioRunner contract (results keyed by grid index, nothing shared
// between workers) that the pooled hot path and the fuzzer's determinism
// checks both rely on.
#include <gtest/gtest.h>

#include <string>

#include "same_outputs.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::scenario {
namespace {

TEST(Determinism, Fig11LoadSweepIdenticalAcrossJobs) {
  const std::string path =
      std::string(HPCC_SOURCE_DIR) + "/examples/scenarios/fig11_load_sweep.json";
  const Scenario sc = LoadScenarioFile(path);
  const std::vector<ScenarioRun> runs = ExpandSweep(sc);
  ASSERT_GT(runs.size(), 1u);

  ScenarioRunnerOptions o1;
  o1.jobs = 1;
  ScenarioRunnerOptions o4;
  o4.jobs = 4;
  const auto r1 = ScenarioRunner(o1).RunAll(runs);
  const auto r4 = ScenarioRunner(o4).RunAll(runs);
  ASSERT_EQ(r1.size(), runs.size());
  for (const SweepRunResult& r : r1) ASSERT_TRUE(r.ok()) << r.error;
  ExpectSameOutputs(r1, r4);
}

}  // namespace
}  // namespace hpcc::scenario
