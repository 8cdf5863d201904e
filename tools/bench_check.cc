// bench_check — the perf regression gate behind the committed BENCH files.
//
// Compares one or more fresh bench_report outputs against a committed
// baseline and fails when any benchmark regresses by more than the allowed
// percentage. Multiple CURRENT files are folded with a per-benchmark max
// (best-of-N), which is how the CI gate absorbs shared-runner noise:
//
//   build/bench_report --quick --out=fresh1.json   # x3
//   build/bench_check BENCH_current.json fresh1.json fresh2.json fresh3.json \
//       --max-drop-pct=15
//
// Benchmarks are matched by (name, unit); a unit change (e.g. the macro
// benches' events -> pkts move) makes old numbers incomparable, so such
// entries are reported as new/retired rather than compared.
//
// `--calibrate=NAME` rescales the whole baseline by the current/baseline
// ratio of one benchmark before comparing, turning cross-host absolute
// comparisons into same-host-ish relative ones: the committed pair is
// measured on a dev host, while CI runs on shared runners whose constant
// hardware gap would otherwise trip (or mask) the drop threshold on every
// benchmark. The calibration benchmark itself is reported but never gated.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/json.h"
#include "tools/cli_util.h"

namespace {

using hpcc::scenario::Json;

struct Bench {
  std::string unit;
  double per_sec = 0;
};

std::map<std::string, Bench> LoadReport(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::map<std::string, Bench> out;
  const Json doc = Json::Parse(text.str());
  const Json* benches = doc.Find("benchmarks");
  if (benches == nullptr || !benches->is_array()) {
    std::fprintf(stderr, "bench_check: %s has no benchmarks array\n",
                 path.c_str());
    std::exit(2);
  }
  for (const Json& b : benches->items()) {
    const Json* name = b.Find("name");
    const Json* unit = b.Find("unit");
    const Json* per_sec = b.Find("items_per_sec");
    if (name == nullptr || per_sec == nullptr) continue;
    Bench& entry = out[name->AsString()];
    entry.unit = unit != nullptr ? unit->AsString() : "";
    entry.per_sec = std::max(entry.per_sec, per_sec->AsDouble());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double max_drop_pct = 15.0;
  std::string calibrate;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (hpcc::cli::ConsumeFlag(argv[i], "--max-drop-pct", &v)) {
      max_drop_pct = hpcc::cli::ParseNumber<double>("--max-drop-pct", v);
    } else if (hpcc::cli::ConsumeFlag(argv[i], "--calibrate", &v)) {
      calibrate = v;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: bench_check BASELINE CURRENT [CURRENT...]\n"
                   "                   [--max-drop-pct=P]   (default 15)\n"
                   "                   [--calibrate=BENCH]  (scale baseline\n"
                   "                    by BENCH's current/baseline ratio —\n"
                   "                    for cross-host runs, e.g. CI)\n");
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.size() < 2) {
    std::fprintf(stderr, "bench_check: need BASELINE and >=1 CURRENT file\n");
    return 2;
  }

  const std::map<std::string, Bench> base = LoadReport(files[0]);
  std::map<std::string, Bench> cur;
  for (size_t i = 1; i < files.size(); ++i) {
    for (const auto& [name, b] : LoadReport(files[i])) {
      Bench& entry = cur[name];
      entry.unit = b.unit;
      entry.per_sec = std::max(entry.per_sec, b.per_sec);
    }
  }

  double scale = 1.0;
  if (!calibrate.empty()) {
    const auto b = base.find(calibrate);
    const auto c = cur.find(calibrate);
    if (b == base.end() || c == cur.end() || b->second.per_sec <= 0) {
      std::fprintf(stderr,
                   "bench_check: calibration benchmark \"%s\" missing from "
                   "baseline or current\n",
                   calibrate.c_str());
      return 2;
    }
    scale = c->second.per_sec / b->second.per_sec;
    std::printf("calibrated by %s: host speed factor %.3f\n",
                calibrate.c_str(), scale);
  }

  int failures = 0;
  for (const auto& [name, b] : base) {
    auto it = cur.find(name);
    if (it == cur.end()) {
      std::printf("%-28s RETIRED (in baseline only)\n", name.c_str());
      continue;
    }
    if (it->second.unit != b.unit) {
      std::printf("%-28s UNIT CHANGED (%s -> %s), not compared\n",
                  name.c_str(), b.unit.c_str(), it->second.unit.c_str());
      continue;
    }
    // Dimensionless entries (unit "x1000", e.g. the routing-table
    // compression ratio) are hardware-independent: calibrating them by the
    // host speed factor would manufacture regressions on faster runners.
    const bool dimensionless = b.unit == std::string("x1000");
    const double expected = b.per_sec * (dimensionless ? 1.0 : scale);
    const double drop = (1.0 - it->second.per_sec / expected) * 100.0;
    const bool gated = name != calibrate;
    const bool bad = gated && drop > max_drop_pct;
    std::printf("%-28s %12.0f -> %12.0f %s/sec  (%+.1f%%)%s%s\n", name.c_str(),
                expected, it->second.per_sec, b.unit.c_str(), -drop,
                gated ? "" : "  (calibration ref, not gated)",
                bad ? "  ** REGRESSION **" : "");
    if (bad) ++failures;
  }
  for (const auto& [name, b] : cur) {
    if (base.find(name) == base.end()) {
      std::printf("%-28s NEW: %.0f %s/sec\n", name.c_str(), b.per_sec,
                  b.unit.c_str());
    }
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_check: %d benchmark(s) dropped more than %.0f%%\n",
                 failures, max_drop_pct);
    return 1;
  }
  std::printf("bench_check: OK (max allowed drop %.0f%%)\n", max_drop_pct);
  return 0;
}
