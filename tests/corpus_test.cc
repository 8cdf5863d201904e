// Fuzz regression corpus: every scenario committed under tests/corpus/ runs
// under the full invariant-monitor set and must finish violation-free and
// deterministically. CMake also registers one ctest case per corpus file
// (corpus_<name>), selected via the HPCC_CORPUS_FILE environment variable;
// without it this binary sweeps the whole directory.
//
// Corpus policy (docs/TESTING.md): files are frozen fuzzer outputs — add a
// file when a fuzz run finds a bug (commit the reproducer with the fix) or
// when a new feature's scenario space deserves a pin; never edit one in
// place, since the value of a reproducer is that it stays bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "same_outputs.h"
#include "scenario/scenario.h"

namespace hpcc::check {
namespace {

std::vector<std::string> CorpusFiles() {
  if (const char* one = std::getenv("HPCC_CORPUS_FILE")) {
    return {one};
  }
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HPCC_CORPUS_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(Corpus, ScenariosRunCleanUnderAllMonitors) {
  const std::vector<std::string> files = CorpusFiles();
  ASSERT_FALSE(files.empty()) << "no corpus files found under "
                              << HPCC_CORPUS_DIR;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const scenario::Scenario s = scenario::LoadScenarioFile(path);
    const scenario::SweepRunResult rep =
        RunScenarioDocChecked(s.source, 50'000'000);
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_EQ(rep.violation_count, 0u)
        << rep.violations.front().Format();
    EXPECT_GT(rep.result.flows_created, 0u);

    // Replay determinism: a corpus file is also a golden-trace pin.
    const scenario::SweepRunResult again =
        RunScenarioDocChecked(s.source, 50'000'000);
    scenario::ExpectSameOutputs({&rep, 1}, {&again, 1});
  }
}

}  // namespace
}  // namespace hpcc::check
