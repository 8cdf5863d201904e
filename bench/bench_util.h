// Shared helpers for the per-figure bench binaries: a tiny flag parser and
// common report formatting. Every bench runs a scaled-down instance by
// default (documented in EXPERIMENTS.md) and accepts:
//   --full            paper-scale topology / duration
//   --duration-ms=N   workload horizon
//   --seed=N
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/experiment.h"

namespace hpcc::bench {

struct Flags {
  bool full = false;
  double duration_ms = 0;  // 0 = bench default
  uint64_t seed = 1;
};

inline Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      f.full = true;
    } else if (arg.rfind("--duration-ms=", 0) == 0) {
      f.duration_ms = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--seed=", 0) == 0) {
      f.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--full] [--duration-ms=N] [--seed=N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return f;
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("==============================================================\n");
}

// Standard per-run report: FCT slowdown table + queue/PFC summary.
inline void PrintResult(const char* label,
                        const runner::ExperimentResult& r) {
  std::printf("--- %s ---\n", label);
  std::printf("%s\n", r.Summary().c_str());
  std::printf("%s", r.fct->FormatTable().c_str());
  if (r.short_fct_us.Count() > 0) {
    std::printf("  short-flow latency p50/p95/p99: %.1f / %.1f / %.1f us\n",
                r.short_fct_us.Percentile(50), r.short_fct_us.Percentile(95),
                r.short_fct_us.Percentile(99));
  }
  std::printf("\n");
}

// Mini fattree used by the simulation benches unless --full.
inline topo::FatTreeOptions BenchFatTree(bool full) {
  if (full) return topo::FatTreeOptions::PaperScale();
  topo::FatTreeOptions o;
  o.pods = 2;
  o.tors_per_pod = 2;
  o.aggs_per_pod = 2;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 4;  // 16 hosts
  return o;
}

inline topo::TestbedOptions BenchTestbed(bool full) {
  topo::TestbedOptions o;  // paper scale is already small (32 hosts)
  if (!full) o.servers_per_pair = 8;  // 16 hosts for quick runs
  return o;
}

}  // namespace hpcc::bench
