#include "check/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "cc/factory.h"
#include "core/hash.h"
#include "obs/telemetry.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/rng.h"

namespace hpcc::check {
namespace {

using scenario::Json;

double Round2(double v) { return std::round(v * 100.0) / 100.0; }

Json Num(double v) { return Json::MakeNumber(v); }
Json Str(const std::string& s) { return Json::MakeString(s); }

// Topology generation: dumbbells (the shared-trunk stress shape), small
// fat-trees (multipath + redundancy, so link failures reroute), and — since
// the burst fast path and the scale-out routing core target large fabrics —
// occasional wide fat-trees in the shape of the
// fattree16_hadoop_burst/fattree32_websearch scenario family, scaled down
// enough to fuzz quickly but wide enough (up to 16 pods) that link flaps
// exercise the incremental route-repair classification across tiers.
Json RandomTopology(sim::Rng& rng) {
  Json t = Json::MakeObject();
  const double shape = rng.Uniform();
  if (shape < 0.45) {
    const double host_gbps[] = {25, 50, 100};
    const double g = host_gbps[rng.Index(3)];
    t.Set("kind", Str("dumbbell"));
    t.Set("hosts_per_side", Num(2 + static_cast<double>(rng.Index(5))));
    t.Set("host_gbps", Num(g));
    // Trunk at 1-4x the host rate: 1x makes it the bottleneck.
    t.Set("trunk_gbps", Num(g * static_cast<double>(1 + rng.Index(4))));
  } else if (shape < 0.85) {
    t.Set("kind", Str("fattree"));
    t.Set("pods", Num(2));
    t.Set("tors_per_pod", Num(1 + static_cast<double>(rng.Index(2))));
    t.Set("aggs_per_pod", Num(1 + static_cast<double>(rng.Index(2))));
    t.Set("cores_per_agg", Num(1 + static_cast<double>(rng.Index(2))));
    t.Set("hosts_per_tor", Num(2 + static_cast<double>(rng.Index(3))));
  } else {
    t.Set("kind", Str("fattree"));
    t.Set("pods", Num(4 * static_cast<double>(1 << rng.Index(3))));  // 4/8/16
    t.Set("tors_per_pod", Num(2 + static_cast<double>(rng.Index(2))));
    t.Set("aggs_per_pod", Num(2 + static_cast<double>(rng.Index(2))));
    t.Set("cores_per_agg", Num(2 + static_cast<double>(rng.Index(2))));
    t.Set("hosts_per_tor", Num(2 + static_cast<double>(rng.Index(3))));
  }
  return t;
}

Json RandomWorkload(sim::Rng& rng) {
  Json w = Json::MakeObject();
  w.Set("load", Num(Round2(0.1 + rng.Uniform() * 0.6)));
  w.Set("trace", Str(rng.Uniform() < 0.5 ? "websearch" : "fbhadoop"));
  w.Set("max_flows", Num(20 + static_cast<double>(rng.Index(61))));
  return w;
}

// Valid incast fan-in for `num_hosts` hosts: the schema requires
// fan_in < num_hosts (one host must be left over to receive).
double RandFanIn(sim::Rng& rng, size_t num_hosts) {
  const size_t lo = 2;
  const size_t hi = std::min<size_t>(num_hosts - 1, 8);
  return static_cast<double>(lo + rng.Index(hi - lo + 1));
}

}  // namespace

Json GenerateScenarioDoc(uint64_t seed, int index, bool faults) {
  sim::Rng rng(core::SplitMix64(seed * 0x9e3779b97f4a7c15ULL +
                                static_cast<uint64_t>(index)));

  const double duration_us = 300 + static_cast<double>(rng.Index(301));
  Json doc = Json::MakeObject();
  doc.Set("name", Str("fuzz_" + std::to_string(seed) + "_" +
                      std::to_string(index)));
  doc.Set("topology", RandomTopology(rng));

  Json cc = Json::MakeObject();
  const std::vector<std::string>& schemes = cc::AllSchemes();
  cc.Set("scheme", Str(schemes[rng.Index(schemes.size())]));
  doc.Set("cc", std::move(cc));

  doc.Set("workload", RandomWorkload(rng));
  doc.Set("duration_ms", Num(Round2(duration_us / 1000.0)));
  doc.Set("seed", Num(static_cast<double>(1 + rng.Index(1'000'000))));
  const bool pfc = rng.Uniform() < 0.8;  // 20% lossy-mode coverage
  doc.Set("pfc", Json::MakeBool(pfc));
  if (rng.Uniform() < 0.25) doc.Set("recovery", Str("irn"));
  if (rng.Uniform() < 0.3) {
    doc.Set("int_sample_every", Num(1 + static_cast<double>(rng.Index(4))));
  }

  // Probe build: the generated document must be *valid*, so every
  // host-count- or link-count-dependent choice (incast fan-in, receivers,
  // flap targets) is made against the actually-built topology, not against
  // duplicated sizing formulas.
  scenario::Scenario probe_sc = scenario::ParseScenario(doc);
  runner::Experiment probe(scenario::MakeExperimentConfig(probe_sc));
  const size_t num_links = probe.topology().links().size();
  const size_t num_hosts = probe.hosts().size();

  // 30%: periodic incast on top of the background load (Fig. 11a's shape).
  if (rng.Uniform() < 0.3 && num_hosts >= 3) {
    Json inc = Json::MakeObject();
    inc.Set("fan_in", Num(RandFanIn(rng, num_hosts)));
    inc.Set("flow_bytes",
            Num(20'000 + static_cast<double>(rng.Index(81)) * 1000));
    inc.Set("first_event_us", Num(50 + static_cast<double>(rng.Index(100))));
    inc.Set("period_us", Num(150 + static_cast<double>(rng.Index(250))));
    Json workload = *doc.Find("workload");
    workload.Set("incast", std::move(inc));
    doc.Set("workload", std::move(workload));
  }

  Json events = Json::MakeArray();
  // 70%: one link flap, always repaired before the end so flows can finish.
  if (rng.Uniform() < 0.7 && num_links > 0) {
    const double down_us = 50 + rng.Uniform() * duration_us * 0.4;
    const double up_us =
        down_us + 20 + rng.Uniform() * (duration_us * 0.9 - down_us);
    const double link = static_cast<double>(rng.Index(num_links));
    Json down = Json::MakeObject();
    down.Set("type", Str("link_down"));
    down.Set("at_us", Num(Round2(down_us)));
    down.Set("link", Num(link));
    events.Append(std::move(down));
    Json up = Json::MakeObject();
    up.Set("type", Str("link_up"));
    up.Set("at_us", Num(Round2(up_us)));
    up.Set("link", Num(link));
    events.Append(std::move(up));
  }
  // 40%: a one-shot incast burst.
  if (rng.Uniform() < 0.4 && num_hosts >= 3) {
    Json burst = Json::MakeObject();
    burst.Set("type", Str("incast"));
    burst.Set("at_us", Num(Round2(30 + rng.Uniform() * duration_us * 0.7)));
    burst.Set("fan_in", Num(RandFanIn(rng, num_hosts)));
    burst.Set("flow_bytes",
              Num(10'000 + static_cast<double>(rng.Index(91)) * 1000));
    if (rng.Uniform() < 0.5) {
      burst.Set("receiver", Num(static_cast<double>(rng.Index(num_hosts))));
    }
    events.Append(std::move(burst));
  }
  // Up to two background-load phase changes.
  const size_t phases = rng.Index(3);
  for (size_t p = 0; p < phases; ++p) {
    Json phase = Json::MakeObject();
    phase.Set("type", Str("load_phase"));
    phase.Set("at_us", Num(Round2(50 + rng.Uniform() * duration_us * 0.8)));
    phase.Set("load", Num(Round2(rng.Uniform())));
    events.Append(std::move(phase));
  }
  // Chaos mode: fault-injection events on top of whatever the scenario
  // already does. All extra draws happen after the base document's, so
  // faults=false reproduces the historical documents byte-identically.
  if (faults) {
    const size_t num_switches = probe.topology().switches().size();
    // ~50%: a seeded corruption window on one link (bounded, so flows can
    // retransmit their way out after it closes).
    if (rng.Uniform() < 0.5 && num_links > 0) {
      const double bers[] = {0.0001, 0.001, 0.01, 0.05};
      const double from_us = 30 + rng.Uniform() * duration_us * 0.4;
      const double until_us =
          from_us + 20 + rng.Uniform() * (duration_us * 0.8 - from_us);
      Json ev = Json::MakeObject();
      ev.Set("type", Str("corrupt"));
      ev.Set("at_us", Num(Round2(from_us)));
      ev.Set("link", Num(static_cast<double>(rng.Index(num_links))));
      ev.Set("ber", Num(bers[rng.Index(4)]));
      ev.Set("until_us", Num(Round2(until_us)));
      events.Append(std::move(ev));
    }
    // ~35%: a switch flap, always repaired before the end.
    if (rng.Uniform() < 0.35 && num_switches > 0) {
      const double down_us = 50 + rng.Uniform() * duration_us * 0.4;
      const double up_us =
          down_us + 20 + rng.Uniform() * (duration_us * 0.85 - down_us);
      const double sw = static_cast<double>(rng.Index(num_switches));
      Json down = Json::MakeObject();
      down.Set("type", Str("switch_down"));
      down.Set("at_us", Num(Round2(down_us)));
      down.Set("switch", Num(sw));
      events.Append(std::move(down));
      Json up = Json::MakeObject();
      up.Set("type", Str("switch_up"));
      up.Set("at_us", Num(Round2(up_us)));
      up.Set("switch", Num(sw));
      events.Append(std::move(up));
    }
    // ~25%: a NIC flap (host isolation), also repaired.
    if (rng.Uniform() < 0.25 && num_hosts > 1) {
      const double down_us = 50 + rng.Uniform() * duration_us * 0.4;
      const double up_us =
          down_us + 20 + rng.Uniform() * (duration_us * 0.85 - down_us);
      const double host = static_cast<double>(rng.Index(num_hosts));
      Json down = Json::MakeObject();
      down.Set("type", Str("nic_down"));
      down.Set("at_us", Num(Round2(down_us)));
      down.Set("host", Num(host));
      events.Append(std::move(down));
      Json up = Json::MakeObject();
      up.Set("type", Str("nic_up"));
      up.Set("at_us", Num(Round2(up_us)));
      up.Set("host", Num(host));
      events.Append(std::move(up));
    }
  }
  if (events.size() > 0) doc.Set("events", std::move(events));
  return doc;
}

namespace {

// One side of the equivalence contracts FuzzMain pins on every clean run: it
// differs from the checked run only in how it executes, so its outputs must
// equal that run's (ScenarioRunner::CompareOutputs).
struct Replay {
  const char* contract;   // the violation's monitor name
  const char* side;       // names the replay in violations and file names
  int fastpath_override;  // -1: as the scenario says
  int shards_override;    // 0: as the scenario says
  // Inject warm_start.until_us at ~40% of the horizon and run twice through
  // one shared fabric-snapshot/warm-checkpoint cache: the first pass builds
  // the checkpoint (or publishes a cold fallback: not quiescent at T, a
  // pre-T link flap, ...), the second restores it (or re-runs cold).
  bool warm;
};

// The checked run every replay is compared with.
constexpr Replay kChecked = {"", "", -1, 0, false};

constexpr Replay kReplays[] = {
    {"determinism", "repeat", -1, 0, false},
    {"fastpath-equivalence", "fastpath-off", 0, 0, false},
    {"shard-equivalence", "shards2", -1, 2, false},
    {"warm-equivalence", "warm", -1, 0, true},
    {"warm-equivalence", "warm.shards2", -1, 2, true},
};

// Runs `row`'s side of `doc`: one result, or one per pass of a warm row.
// Other sides run under the standard monitors (plus `extra`) within
// `budget` events; warm sides run unchecked and unbudgeted, since warm
// capture is ineligible under either. A non-empty `flight` base also
// writes each pass's manifest next to it, plus a profiled trace where that
// keeps the side as it ran (a trace or profile sends a warm pass cold).
std::vector<scenario::SweepRunResult> RunSide(const Json& doc,
                                              const Replay& row,
                                              uint64_t budget,
                                              const MonitorInstaller& extra,
                                              const std::string& flight) {
  std::vector<scenario::SweepRunResult> out;
  scenario::ScenarioRun run;
  try {
    run.scenario = scenario::ParseScenario(doc);
  } catch (const std::exception& ex) {
    out.emplace_back().error = ex.what();
    return out;
  }
  run.label = run.scenario.name;
  scenario::RunOneOptions ro;
  ro.fastpath_override = row.fastpath_override;
  ro.shards_override = row.shards_override;
  // A document's telemetry block writes no artifacts here; a flight record
  // writes its own.
  obs::TelemetryConfig tcfg;
  if (!flight.empty()) {
    tcfg = run.scenario.telemetry;
    tcfg.manifest = true;
    tcfg.trace = !row.warm;
    tcfg.profile = !row.warm;
  }
  ro.telemetry = tcfg;
  if (row.warm) {
    run.scenario.warm_until = run.scenario.config.duration * 2 / 5;
    ro.fabric_cache = std::make_shared<scenario::FabricCache>();
    ro.warm_cache = std::make_shared<scenario::WarmCache>();
  } else {
    ro.check = true;
    ro.extra_monitors = extra;
    ro.event_budget = budget;
  }
  for (int pass = 0; pass < (row.warm ? 2 : 1); ++pass) {
    if (!flight.empty()) {
      std::string stem = flight;
      if (row.side[0] != '\0') stem += std::string(".") + row.side;
      if (row.warm) stem += ".pass" + std::to_string(pass + 1);
      ro.manifest_path = stem + ".manifest.json";
      if (tcfg.trace) ro.trace_path = stem + ".trace.json";
    }
    out.push_back(scenario::ScenarioRunner::RunOne(run, ro));
  }
  return out;
}

}  // namespace

scenario::SweepRunResult RunScenarioDocChecked(const Json& doc,
                                               uint64_t max_events,
                                               const MonitorInstaller& extra) {
  return std::move(RunSide(doc, kChecked, max_events, extra, "").front());
}

std::string WriteReproducer(const Json& doc, const std::string& dir,
                            const std::string& name) {
  const std::string path =
      (dir.empty() ? std::string(".") : dir) + "/repro_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "";
  const std::string text = doc.Dump(2) + "\n";
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;  // always close, even on short write
  return (written == text.size() && closed) ? path : "";
}

namespace {

// The replay budget: the reference engine executes ~1.5x the events for the
// same simulated work and lanes add no-op barrier markers, so a replay gets
// headroom — a watchdog-truncated replay would otherwise masquerade as a
// difference.
uint64_t ReplayBudget(const FuzzOptions& options) {
  return options.max_events > 0 ? options.max_events * 3 : 0;
}

// Writes the reproducer and, beside it, a flight record: the checked run and
// the side of each failed contract replayed with telemetry on, so triage
// diffs the two sides' manifests and traces without re-running anything.
void WriteAndAnnounceReproducer(const Json& doc, const std::string& name,
                                const std::vector<const Replay*>& failed,
                                const FuzzOptions& options,
                                const MonitorInstaller& extra) {
  const std::string path = WriteReproducer(doc, options.reproducer_dir, name);
  if (path.empty()) {
    std::fprintf(stderr, "    (could not write reproducer under %s)\n",
                 options.reproducer_dir.c_str());
    return;
  }
  std::fprintf(stderr, "    reproducer: %s  (replay: hpccsim %s --check)\n",
               path.c_str(), path.c_str());
  const std::string base = path.substr(0, path.size() - 5);  // strip ".json"
  std::vector<const Replay*> sides = {&kChecked};
  sides.insert(sides.end(), failed.begin(), failed.end());
  for (const Replay* row : sides) {
    const std::string tag =
        row->side[0] != '\0' ? std::string(" ") + row->side : "";
    for (const scenario::SweepRunResult& flight :
         RunSide(doc, *row, ReplayBudget(options), extra, base)) {
      if (!flight.manifest_path.empty()) {
        std::fprintf(stderr, "    flight record%s: %s%s%s\n", tag.c_str(),
                     flight.manifest_path.c_str(),
                     flight.trace_path.empty() ? "" : " ",
                     flight.trace_path.c_str());
      } else {
        std::fprintf(stderr, "    (flight record%s failed: %s)\n",
                     tag.c_str(), flight.error.c_str());
      }
    }
  }
}

}  // namespace

int FuzzMain(const FuzzOptions& options, const MonitorInstaller& extra) {
  int bad_runs = 0;
  size_t total_violations = 0;
  size_t warm_pairs = 0, warm_built = 0, warm_restored = 0;
  for (int i = 0; i < options.runs; ++i) {
    Json doc;
    try {
      doc = GenerateScenarioDoc(options.seed, i, options.faults);
    } catch (const std::exception& ex) {
      // A generator that emits an invalid scenario is itself a bug; report
      // it like a violation instead of tearing the whole fuzz run down.
      ++bad_runs;
      std::fprintf(stderr, "[%d/%d] generation failed: %s\n", i + 1,
                   options.runs, ex.what());
      continue;
    }
    scenario::SweepRunResult rep =
        RunScenarioDocChecked(doc, options.max_events, extra);
    // Every replay row until the first whose side differs from `rep`.
    std::vector<Violation> broken;
    std::vector<const Replay*> failed;
    for (const Replay& row : kReplays) {
      if (!rep.ok() || !failed.empty()) break;
      const std::vector<scenario::SweepRunResult> passes =
          RunSide(doc, row, ReplayBudget(options), extra, "");
      for (size_t pass = 0; pass < passes.size(); ++pass) {
        const scenario::SweepRunResult& side = passes[pass];
        bool truncated = false;
        for (const Violation& v : side.violations) {
          truncated = truncated || v.monitor == "event-budget";
        }
        if (truncated) {
          std::fprintf(stderr,
                       "[%s] %s replay exceeded %llu events; comparison "
                       "skipped\n",
                       rep.label.c_str(), row.side,
                       static_cast<unsigned long long>(ReplayBudget(options)));
          continue;
        }
        const std::vector<scenario::OutputDiff> diffs =
            scenario::ScenarioRunner::CompareOutputs({&rep, 1}, {&side, 1});
        if (diffs.empty()) continue;
        std::string detail = std::string(row.side) + " replay";
        if (row.warm) {
          detail += " " + std::to_string(pass + 1) +
                    (side.warm_restored ? " (restored checkpoint)"
                     : side.warm_built  ? " (built checkpoint)"
                                        : " (cold)");
        }
        detail += " differs: " + diffs.front().Format();
        if (!side.violations.empty()) {
          detail += "; its first violation: " + side.violations.front().Format();
        }
        broken.push_back(Violation{row.contract, detail, 0});
        if (failed.empty() || failed.back() != &row) failed.push_back(&row);
      }
      if (row.warm) {
        ++warm_pairs;
        warm_built += passes.front().warm_built ? 1 : 0;
        warm_restored += passes.back().warm_restored ? 1 : 0;
      }
    }
    rep.violation_count += broken.size();
    rep.violations.insert(rep.violations.end(), broken.begin(), broken.end());
    if (!rep.error.empty()) {
      ++bad_runs;
      std::fprintf(stderr, "[%d/%d] %s: ERROR: %s\n", i + 1, options.runs,
                   rep.label.c_str(), rep.error.c_str());
      WriteAndAnnounceReproducer(doc, rep.label, failed, options, extra);
      continue;
    }
    if (rep.violation_count > 0) {
      ++bad_runs;
      total_violations += rep.violation_count;
      std::fprintf(stderr, "[%d/%d] %s: %zu invariant violation(s)\n", i + 1,
                   options.runs, rep.label.c_str(), rep.violation_count);
      for (const Violation& v : rep.violations) {
        std::fprintf(stderr, "    %s\n", v.Format().c_str());
      }
      WriteAndAnnounceReproducer(doc, rep.label, failed, options, extra);
      continue;
    }
    if (options.verbose) {
      std::fprintf(stderr,
                   "[%d/%d] %s: ok  flows %llu/%llu  trace %016llx\n", i + 1,
                   options.runs, rep.label.c_str(),
                   static_cast<unsigned long long>(rep.result.flows_completed),
                   static_cast<unsigned long long>(rep.result.flows_created),
                   static_cast<unsigned long long>(rep.result.trace_hash));
    }
  }
  std::printf("fuzz: %d run(s), seed %llu: %d bad, %zu violation(s)\n",
              options.runs, static_cast<unsigned long long>(options.seed),
              bad_runs, total_violations);
  std::printf("fuzz: warm replays: %zu of %zu pair(s) built a checkpoint, "
              "%zu restored one\n",
              warm_built, warm_pairs, warm_restored);
  return bad_runs == 0 ? 0 : 1;
}

}  // namespace hpcc::check
