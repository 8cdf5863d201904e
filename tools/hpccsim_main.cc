// hpccsim — the simulator's command-line driver.
//
// Runs a declarative JSON scenario (topology + CC scheme + workload + timed
// event script + sweep grid): expands the sweep, executes the points on a
// thread pool, prints each point's summary line and FCT slowdown table, and
// writes one aggregated CSV. Without a FILE, the experiment flags describe a
// one-point scenario named "hpccsim" that takes the same path, so the
// parser's validation and every run flag apply to it too. Examples:
//
//   hpccsim examples/scenarios/fig13_link_failure.json
//   hpccsim examples/scenarios/fig11_load_sweep.json --jobs=4
//   hpccsim sweep.json --expand            # list points, don't run
//   hpccsim sweep.json --out=results.csv --quiet
//   hpccsim --scheme=hpcc --topo=fattree --load=0.5 --trace=fbhadoop
//   hpccsim --scheme=dcqcn --topo=testbed --load=0.3 --duration-ms=10
//   hpccsim --scheme=hpcc --topo=star --hosts=17 --incast=16
//           --incast-bytes=500000
//   hpccsim --scheme=timely+win --topo=dumbbell --hosts=8 --load=0.4
//   hpccsim --topo=star --incast=8 --dump > incast.json   # flags -> FILE
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/runner.h"
#include "tools/cli_util.h"

using namespace hpcc;

namespace {

struct Options {
  std::string file;       // scenario FILE; empty = flag mode
  std::string out;        // empty = "<scenario name>.csv"
  std::string trace_out;  // non-empty forces trace export to this path
  int jobs = 0;           // 0 = hardware concurrency
  int fastpath = -1;      // -1 scenario default, 0 reference engine, 1 trains
  int shards = 0;         // 0 scenario default, >= 1 forces that lane count
  bool warm = true;       // --warm=off forces every sweep point to run cold
  bool expand_only = false;
  bool quiet = false;
  bool dump = false;
  bool check = false;
  bool manifest = false;
  bool progress = false;
  double deadline = 0;  // per-point wall deadline in seconds (0 = scenario)
  bool resume = false;  // skip points with a validated "ok" manifest journal

  // Experiment flags: they describe the scenario when there is no FILE.
  // `experiment_flag` names the first one given, so a FILE run can reject it.
  std::string experiment_flag;
  std::string scheme = "hpcc";
  std::string topo = "fattree";
  std::string trace = "websearch";
  double load = 0.3;
  double duration_ms = 3;
  int hosts = 16;         // star/dumbbell sizing
  int incast_fan_in = 0;  // 0 = no incast add-on
  uint64_t incast_bytes = 500'000;
  uint64_t seed = 1;
  bool lossy = false;
  bool irn = false;
  bool paper_scale = false;
  double eta = 0.95;
  double wai = -1;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s FILE [run options]\n"
      "       %s [experiment options] [run options]\n"
      "Run options:\n"
      "  --jobs=N           parallel sweep workers (default: hardware)\n"
      "  --out=PATH         aggregated CSV path (default: <name>.csv, and\n"
      "                     hpccsim.csv without a FILE)\n"
      "  --expand           print the expanded sweep points and exit\n"
      "  --dump             print the canonicalized scenario JSON and exit\n"
      "                     (without a FILE: the scenario the flags describe)\n"
      "  --check            run every point under the invariant monitors\n"
      "                     (violations fail the run)\n"
      "  --fastpath=on|off  force the transmission-train fast path on or off\n"
      "                     (default: as the scenario says; both engines\n"
      "                     produce identical results)\n"
      "  --shards=N         force N execution lanes per point (default: as\n"
      "                     the scenario says; any N produces byte-identical\n"
      "                     results)\n"
      "  --warm=on|off      share fabric snapshots and warm_start checkpoints\n"
      "                     across sweep points (default: on; off forces cold\n"
      "                     runs — results are byte-identical either way)\n"
      "  --trace-out=FILE   write a Chrome/Perfetto trace (sweeps write one\n"
      "                     file per point: <stem>.runN.json)\n"
      "  --manifest         write a run manifest JSON next to the CSV\n"
      "  --deadline=SECONDS per-point wall-clock deadline; a point that\n"
      "                     exceeds it fails with \"deadline exceeded\"\n"
      "                     instead of wedging the sweep (default: the\n"
      "                     scenario's deadline_s, if any)\n"
      "  --resume           skip sweep points whose manifest journal from a\n"
      "                     previous (partial) invocation validates as\n"
      "                     complete; implies --manifest\n"
      "  --progress         live sweep progress line on stderr\n"
      "  --quiet            suppress per-run progress\n"
      "Experiment options (no FILE; each sets one scenario key):\n"
      "  --scheme=NAME      hpcc|hpcc-rxrate|hpcc-perack|hpcc-perrtt|\n"
      "                     hpcc-alpha|dcqcn|dcqcn+win|timely|timely+win|\n"
      "                     dctcp|rcp|rcp+win\n"
      "  --topo=KIND        fattree|testbed|star|dumbbell\n"
      "  --trace=NAME       websearch|fbhadoop\n"
      "  --load=F           Poisson load as a fraction of host capacity\n"
      "  --duration-ms=F    workload horizon\n"
      "  --hosts=N          hosts for star/dumbbell\n"
      "  --incast=N         add N-to-1 incast events\n"
      "  --incast-bytes=N   bytes per incast flow\n"
      "  --eta=F --wai=F    HPCC parameters\n"
      "  --lossy            disable PFC (dynamic-threshold drops)\n"
      "  --irn              IRN loss recovery instead of go-back-N\n"
      "  --paper-scale      320-host FatTree / 32-host testbed\n"
      "  --seed=N\n",
      argv0, argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    const char* flag = nullptr;  // the experiment flag `v` belongs to
    const auto experiment = [&](const char* key) {
      const bool hit = cli::ConsumeFlag(argv[i], key, &v);
      if (hit) flag = key;
      if (hit && o.experiment_flag.empty()) o.experiment_flag = key;
      return hit;
    };
    // `v` parsed strictly as the type of the option it sets.
    const auto number = [&](auto current) {
      return cli::ParseNumber<decltype(current)>(flag, v);
    };
    const auto experiment_switch = [&](const char* key) {
      const bool hit = std::strcmp(argv[i], key) == 0;
      if (hit && o.experiment_flag.empty()) o.experiment_flag = key;
      return hit;
    };
    if (cli::ConsumeFlag(argv[i], "--jobs", &v)) {
      o.jobs = cli::ParseNumber<int>("--jobs", v);
    }
    else if (cli::ConsumeFlag(argv[i], "--out", &v)) o.out = v;
    else if (cli::ConsumeFlag(argv[i], "--fastpath", &v)) {
      if (std::strcmp(v, "on") == 0) o.fastpath = 1;
      else if (std::strcmp(v, "off") == 0) o.fastpath = 0;
      else Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--shards", &v)) {
      o.shards = cli::ParseNumber<int>("--shards", v);
      if (o.shards < 1) Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--warm", &v)) {
      if (std::strcmp(v, "on") == 0) o.warm = true;
      else if (std::strcmp(v, "off") == 0) o.warm = false;
      else Usage(argv[0]);
    }
    else if (cli::ConsumeFlag(argv[i], "--trace-out", &v)) o.trace_out = v;
    else if (std::strcmp(argv[i], "--expand") == 0) o.expand_only = true;
    else if (std::strcmp(argv[i], "--dump") == 0) o.dump = true;
    else if (std::strcmp(argv[i], "--check") == 0) o.check = true;
    else if (std::strcmp(argv[i], "--manifest") == 0) o.manifest = true;
    else if (cli::ConsumeFlag(argv[i], "--deadline", &v)) {
      o.deadline = cli::ParseNumber<double>("--deadline", v);
      if (!(o.deadline > 0)) Usage(argv[0]);
    }
    else if (std::strcmp(argv[i], "--resume") == 0) o.resume = true;
    else if (std::strcmp(argv[i], "--progress") == 0) o.progress = true;
    else if (std::strcmp(argv[i], "--quiet") == 0) o.quiet = true;
    else if (experiment("--scheme")) o.scheme = v;
    else if (experiment("--topo")) o.topo = v;
    else if (experiment("--trace")) o.trace = v;
    else if (experiment("--load")) o.load = number(o.load);
    else if (experiment("--duration-ms")) o.duration_ms = number(o.duration_ms);
    else if (experiment("--hosts")) o.hosts = number(o.hosts);
    else if (experiment("--incast")) o.incast_fan_in = number(o.incast_fan_in);
    else if (experiment("--incast-bytes"))
      o.incast_bytes = number(o.incast_bytes);
    else if (experiment("--eta")) o.eta = number(o.eta);
    else if (experiment("--wai")) o.wai = number(o.wai);
    else if (experiment("--seed")) o.seed = number(o.seed);
    else if (experiment_switch("--lossy")) o.lossy = true;
    else if (experiment_switch("--irn")) o.irn = true;
    else if (experiment_switch("--paper-scale")) o.paper_scale = true;
    else if (argv[i][0] == '-') Usage(argv[0]);
    else if (o.file.empty()) o.file = argv[i];
    else Usage(argv[0]);
  }
  // A FILE is the whole experiment; silently running it while an experiment
  // flag asked for something else would report results nobody requested.
  if (!o.file.empty() && !o.experiment_flag.empty()) {
    std::fprintf(stderr,
                 "error: %s sets up a flag-mode experiment and cannot be "
                 "combined with the scenario FILE %s (edit the file, or drop "
                 "FILE to run from flags)\n",
                 o.experiment_flag.c_str(), o.file.c_str());
    std::exit(2);
  }
  return o;
}

// The scenario document the experiment flags describe: a mini fat-tree
// (2 pods x 2 ToRs x 2 aggs, 4 hosts per ToR) or a 16-host testbed unless
// --paper-scale, and incast bursts from 200 us every duration/3.
scenario::Json FlagScenario(const Options& o) {
  using scenario::Json;
  const auto num = [](double v) { return Json::MakeNumber(v); };
  const auto str = [](const std::string& v) { return Json::MakeString(v); };

  Json topology = Json::MakeObject();
  topology.Set("kind", str(o.topo));
  if (o.topo == "fattree") {
    if (o.paper_scale) {
      topology.Set("paper_scale", Json::MakeBool(true));
    } else {
      topology.Set("pods", num(2));
      topology.Set("tors_per_pod", num(2));
      topology.Set("aggs_per_pod", num(2));
      topology.Set("hosts_per_tor", num(4));
    }
  } else if (o.topo == "testbed") {
    if (!o.paper_scale) topology.Set("servers_per_pair", num(8));
  } else if (o.topo == "star") {
    topology.Set("hosts", num(o.hosts));
  } else if (o.topo == "dumbbell") {
    topology.Set("hosts_per_side", num(o.hosts / 2));
  }

  Json cc = Json::MakeObject();
  cc.Set("scheme", str(o.scheme));
  cc.Set("eta", num(o.eta));
  cc.Set("wai_bytes", num(o.wai));

  Json workload = Json::MakeObject();
  workload.Set("load", num(o.load));
  workload.Set("trace", str(o.trace));
  if (o.incast_fan_in > 0) {
    // The parser truncates period_us * 1e6 to whole picoseconds; round the
    // microsecond value up until that lands exactly on duration / 3.
    const auto duration =
        static_cast<sim::TimePs>(o.duration_ms * sim::kPsPerMs);
    const sim::TimePs period = duration / 3;
    const auto us = static_cast<double>(sim::kPsPerUs);
    double period_us = static_cast<double>(period) / us;
    while (static_cast<sim::TimePs>(period_us * us) < period) {
      period_us = std::nextafter(period_us, HUGE_VAL);
    }
    Json incast = Json::MakeObject();
    incast.Set("fan_in", num(o.incast_fan_in));
    incast.Set("flow_bytes", num(static_cast<double>(o.incast_bytes)));
    incast.Set("first_event_us", num(200));
    incast.Set("period_us", num(period_us));
    workload.Set("incast", std::move(incast));
  }

  Json doc = Json::MakeObject();
  doc.Set("name", str("hpccsim"));
  doc.Set("topology", std::move(topology));
  doc.Set("cc", std::move(cc));
  doc.Set("workload", std::move(workload));
  doc.Set("duration_ms", num(o.duration_ms));
  doc.Set("seed", num(static_cast<double>(o.seed)));
  doc.Set("pfc", Json::MakeBool(!o.lossy));
  doc.Set("recovery", str(o.irn ? "irn" : "gbn"));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  scenario::Scenario sc;
  try {
    sc = o.file.empty() ? scenario::ParseScenario(FlagScenario(o))
                        : scenario::LoadScenarioFile(o.file);
    if (o.dump) {
      std::printf("%s\n", scenario::ScenarioToJson(sc).Dump(2).c_str());
      return 0;
    }
    if (o.expand_only) {
      const auto runs = scenario::ExpandSweep(sc);
      for (const auto& run : runs) std::printf("%s\n", run.label.c_str());
      std::printf("%zu run(s)\n", runs.size());
      return 0;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  }

  scenario::ScenarioRunnerOptions ro;
  ro.jobs = o.jobs;
  ro.verbose = !o.quiet;
  ro.check = o.check;
  ro.fastpath_override = o.fastpath;
  ro.shards_override = o.shards;
  ro.trace_out = o.trace_out;
  ro.manifest = o.manifest;
  ro.progress = o.progress;
  ro.warm = o.warm;
  ro.deadline_s = o.deadline;
  ro.resume = o.resume;
  return scenario::RunScenario(sc, ro, o.out);
}
