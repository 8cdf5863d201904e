// fuzz_scenarios — deterministic scenario fuzzer CLI.
//
// Generates --runs random-but-valid scenarios from --seed, runs each under
// the full invariant-monitor set (conservation, queue bounds, PFC sanity,
// INT monotonicity, CC sanity, lossless drops) plus an event-budget
// watchdog, and replays each clean run to cross-check the golden-trace hash
// (repeat, reference engine, two lanes, warm start; see check::FuzzMain).
// Any violation writes the offending scenario as a runnable reproducer JSON:
//
//   fuzz_scenarios --seed=42 --runs=50
//   hpccsim repro_fuzz_42_17.json --check   # replay a violation
//
// Exit code 0 iff every run was violation-free.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "check/fuzzer.h"
#include "tools/cli_util.h"

int main(int argc, char** argv) {
  hpcc::check::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (hpcc::cli::ConsumeFlag(argv[i], "--seed", &v)) {
      options.seed = hpcc::cli::ParseNumber<uint64_t>("--seed", v);
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--runs", &v)) {
      options.runs = hpcc::cli::ParseNumber<int>("--runs", v);
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--out-dir", &v)) {
      options.reproducer_dir = v;
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--max-events", &v)) {
      options.max_events =
          hpcc::cli::ParseNumber<uint64_t>("--max-events", v);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      options.faults = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      options.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N] [--runs=N] [--out-dir=DIR]\n"
                   "          [--max-events=N] [--faults] [--verbose]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.runs <= 0) {
    std::fprintf(stderr, "error: --runs must be positive\n");
    return 2;
  }
  return hpcc::check::FuzzMain(options);
}
