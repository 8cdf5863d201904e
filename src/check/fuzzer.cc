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

FuzzRunReport RunScenarioDocChecked(const Json& doc, uint64_t max_events,
                                    const MonitorInstaller& extra,
                                    int fastpath_override,
                                    int shards_override) {
  FuzzRunReport rep;
  rep.doc = doc;
  scenario::ScenarioRun run;
  try {
    run.scenario = scenario::ParseScenario(doc);
  } catch (const std::exception& ex) {
    rep.error = ex.what();
    return rep;
  }
  rep.name = run.scenario.name;
  run.label = rep.name;
  scenario::RunOneOptions ro;
  ro.check = true;
  ro.event_budget = max_events;
  ro.extra_monitors = extra;
  ro.fastpath_override = fastpath_override;
  ro.shards_override = shards_override;
  // Monitors only: a document's telemetry block writes no artifacts here.
  ro.telemetry = obs::TelemetryConfig{};
  const scenario::SweepRunResult r = scenario::ScenarioRunner::RunOne(run, ro);
  rep.error = r.error;
  rep.violations = r.violations;
  rep.violation_count = r.violation_count;
  rep.trace_hash = r.result.trace_hash;
  rep.flows_created = r.result.flows_created;
  rep.flows_completed = r.result.flows_completed;
  return rep;
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

// Flight recorder: replay the violating scenario once more with telemetry on
// and drop a manifest + Perfetto trace next to the reproducer, so the first
// triage step (what was queued where, which flows stalled, when PFC fired)
// needs no extra tooling run.
void RecordFlight(const Json& doc, const FuzzOptions& options,
                  FuzzRunReport* rep) {
  const std::string base = rep->reproducer_path.substr(
      0, rep->reproducer_path.size() - 5);  // strip ".json"
  try {
    scenario::ScenarioRun run;
    run.label = rep->name;
    run.scenario = scenario::ParseScenario(doc);
    scenario::RunOneOptions ro;
    ro.check = true;
    obs::TelemetryConfig tcfg = run.scenario.telemetry;
    tcfg.manifest = true;
    tcfg.trace = true;
    tcfg.profile = true;
    ro.telemetry = tcfg;
    ro.manifest_path = base + ".manifest.json";
    ro.trace_path = base + ".trace.json";
    // The replay must terminate even when the violation was an event storm.
    ro.event_budget = options.max_events > 0 ? options.max_events * 3 : 0;
    const scenario::SweepRunResult flight =
        scenario::ScenarioRunner::RunOne(run, ro);
    if (!flight.manifest_path.empty() || !flight.trace_path.empty()) {
      std::fprintf(stderr, "    flight record: %s %s\n",
                   flight.manifest_path.c_str(), flight.trace_path.c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "    (flight record replay failed: %s)\n", ex.what());
  }

  // A shard-equivalence failure triages by diffing the single-lane manifest
  // and trace above against the sharded run's: record the shards=2 side too.
  bool shard_mismatch = false;
  for (const Violation& v : rep->violations) {
    if (v.monitor == "shard-equivalence") shard_mismatch = true;
  }
  if (!shard_mismatch) return;
  try {
    scenario::ScenarioRun run;
    run.label = rep->name;
    run.scenario = scenario::ParseScenario(doc);
    scenario::RunOneOptions ro;
    ro.check = true;
    ro.shards_override = 2;
    obs::TelemetryConfig tcfg = run.scenario.telemetry;
    tcfg.manifest = true;
    tcfg.trace = true;
    tcfg.profile = true;
    ro.telemetry = tcfg;
    ro.manifest_path = base + ".shards2.manifest.json";
    ro.trace_path = base + ".shards2.trace.json";
    ro.event_budget = options.max_events > 0 ? options.max_events * 3 : 0;
    const scenario::SweepRunResult flight =
        scenario::ScenarioRunner::RunOne(run, ro);
    if (!flight.manifest_path.empty() || !flight.trace_path.empty()) {
      std::fprintf(stderr, "    flight record (shards=2): %s %s\n",
                   flight.manifest_path.c_str(), flight.trace_path.c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "    (shards=2 flight record replay failed: %s)\n",
                 ex.what());
  }
}

// One warm-equivalence replay: runs `doc` through RunOne on
// `shards_override` lanes with the shared snapshot/checkpoint caches
// attached (no monitors, no event budget — warm capture is ineligible under
// either, and the scenario already ran clean twice within budget). Returns
// the golden-trace hash plus whether this replay built or restored the
// checkpoint.
struct WarmReplay {
  uint64_t trace_hash = 0;
  bool built = false;
  bool restored = false;
  std::string error;
};

WarmReplay ReplayWarm(const Json& doc, int shards_override,
                      const std::shared_ptr<scenario::FabricCache>& fabrics,
                      const std::shared_ptr<scenario::WarmCache>& warms) {
  WarmReplay out;
  try {
    scenario::ScenarioRun run;
    run.scenario = scenario::ParseScenario(doc);
    run.label = run.scenario.name;
    scenario::RunOneOptions ro;
    ro.shards_override = shards_override;
    ro.fabric_cache = fabrics;
    ro.warm_cache = warms;
    const scenario::SweepRunResult r =
        scenario::ScenarioRunner::RunOne(run, ro);
    out.error = r.error;
    out.trace_hash = r.result.trace_hash;
    out.built = r.warm_built;
    out.restored = r.warm_restored;
  } catch (const std::exception& ex) {
    out.error = ex.what();
  }
  return out;
}

void WriteAndAnnounceReproducer(const Json& doc, const FuzzOptions& options,
                                FuzzRunReport* rep) {
  rep->reproducer_path =
      WriteReproducer(doc, options.reproducer_dir, rep->name);
  if (!rep->reproducer_path.empty()) {
    std::fprintf(stderr,
                 "    reproducer: %s  (replay: hpccsim %s --check)\n",
                 rep->reproducer_path.c_str(), rep->reproducer_path.c_str());
    RecordFlight(doc, options, rep);
  } else {
    std::fprintf(stderr, "    (could not write reproducer under %s)\n",
                 options.reproducer_dir.c_str());
  }
}

}  // namespace

int FuzzMain(const FuzzOptions& options, const MonitorInstaller& extra) {
  int bad_runs = 0;
  size_t total_violations = 0;
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
    FuzzRunReport rep = RunScenarioDocChecked(doc, options.max_events, extra);
    if (rep.ok()) {
      const FuzzRunReport again =
          RunScenarioDocChecked(doc, options.max_events, extra);
      if (again.trace_hash != rep.trace_hash) {
        rep.violations.push_back(Violation{
            "determinism",
            "two runs of the identical scenario produced different "
            "golden-trace hashes",
            0});
        ++rep.violation_count;
      }
    }
    if (rep.ok()) {
      // Equivalence pin: the per-packet reference engine must produce the
      // same per-flow outcomes as the train fast path. The reference engine
      // executes ~1.5x the events for the same simulated work, so give the
      // replay budget headroom — a watchdog-truncated replay would otherwise
      // masquerade as a hash mismatch.
      const uint64_t replay_budget =
          options.max_events > 0 ? options.max_events * 3 : 0;
      const FuzzRunReport reference = RunScenarioDocChecked(
          doc, replay_budget, extra, /*fastpath_override=*/0);
      bool truncated = false;
      for (const Violation& v : reference.violations) {
        if (v.monitor == "event-budget") truncated = true;
      }
      if (truncated) {
        std::fprintf(stderr,
                     "[%s] fastpath-equivalence replay exceeded %llu events; "
                     "comparison skipped\n",
                     rep.name.c_str(),
                     static_cast<unsigned long long>(replay_budget));
      } else if (!reference.error.empty() ||
                 reference.trace_hash != rep.trace_hash) {
        rep.violations.push_back(Violation{
            "fastpath-equivalence",
            reference.error.empty()
                ? "reference (--fastpath=off) replay produced a different "
                  "golden-trace hash"
                : "reference (--fastpath=off) replay failed: " +
                      reference.error,
            0});
        ++rep.violation_count;
      }
    }
    if (rep.ok()) {
      // Equivalence pin for sharded execution: a two-lane replay must
      // produce the same per-flow outcomes and a clean monitor log. Same
      // budget headroom as the fastpath replay (the lanes execute a handful
      // of extra no-op barrier markers); a truncated replay stops at an
      // arbitrary event, so its hash is skipped rather than compared.
      const uint64_t replay_budget =
          options.max_events > 0 ? options.max_events * 3 : 0;
      const FuzzRunReport sharded =
          RunScenarioDocChecked(doc, replay_budget, extra,
                                /*fastpath_override=*/-1,
                                /*shards_override=*/2);
      bool truncated = false;
      for (const Violation& v : sharded.violations) {
        if (v.monitor == "event-budget") truncated = true;
      }
      if (truncated) {
        std::fprintf(stderr,
                     "[%s] shard-equivalence replay exceeded %llu events; "
                     "comparison skipped\n",
                     rep.name.c_str(),
                     static_cast<unsigned long long>(replay_budget));
      } else if (!sharded.error.empty() ||
                 sharded.trace_hash != rep.trace_hash ||
                 sharded.violation_count > 0) {
        std::string detail;
        if (!sharded.error.empty()) {
          detail = "sharded (--shards=2) replay failed: " + sharded.error;
        } else if (sharded.trace_hash != rep.trace_hash) {
          detail = "sharded (--shards=2) replay produced a different "
                   "golden-trace hash";
        } else {
          detail = "sharded (--shards=2) replay tripped " +
                   std::to_string(sharded.violation_count) +
                   " invariant violation(s) on a clean scenario";
        }
        rep.violations.push_back(
            Violation{"shard-equivalence", detail, 0});
        ++rep.violation_count;
      }
    }
    if (rep.ok()) {
      // Equivalence pin for warm-start sweeps: inject a checkpoint instant at
      // ~40% of the horizon and replay twice through one shared cache, at
      // the scenario's lane count and at two lanes. The first replay either
      // captures the checkpoint or (not quiescent at T, pre-T link flap,
      // ...) publishes a cold fallback; the second restores or re-runs cold.
      // Either way both hashes must match the cold run — warm-start must
      // never change a single output byte.
      Json warm_doc = doc;
      const double duration_us = doc.Find("duration_ms")->AsDouble() * 1000.0;
      Json ws = Json::MakeObject();
      ws.Set("until_us", Num(Round2(duration_us * 0.4)));
      warm_doc.Set("warm_start", std::move(ws));
      for (const int shards : {0, 2}) {
        auto fabrics = std::make_shared<scenario::FabricCache>();
        auto warms = std::make_shared<scenario::WarmCache>();
        const WarmReplay first = ReplayWarm(warm_doc, shards, fabrics, warms);
        const WarmReplay second = ReplayWarm(warm_doc, shards, fabrics, warms);
        const std::string lanes = shards > 0 ? " at shards=2" : "";
        for (const WarmReplay* w : {&first, &second}) {
          const char* which = w == &first ? "first" : "second";
          if (!w->error.empty()) {
            rep.violations.push_back(Violation{
                "warm-equivalence",
                std::string(which) + " warm_start replay" + lanes +
                    " failed: " + w->error,
                0});
            ++rep.violation_count;
          } else if (w->trace_hash != rep.trace_hash) {
            rep.violations.push_back(Violation{
                "warm-equivalence",
                std::string(which) + " warm_start replay" + lanes + " (" +
                    (w->restored ? "restored checkpoint"
                                 : w->built ? "built checkpoint" : "cold") +
                    ") produced a different golden-trace hash",
                0});
            ++rep.violation_count;
          }
        }
      }
    }
    if (!rep.error.empty()) {
      ++bad_runs;
      std::fprintf(stderr, "[%d/%d] %s: ERROR: %s\n", i + 1, options.runs,
                   rep.name.c_str(), rep.error.c_str());
      WriteAndAnnounceReproducer(doc, options, &rep);
      continue;
    }
    if (rep.violation_count > 0) {
      ++bad_runs;
      total_violations += rep.violation_count;
      std::fprintf(stderr, "[%d/%d] %s: %zu invariant violation(s)\n", i + 1,
                   options.runs, rep.name.c_str(), rep.violation_count);
      for (const Violation& v : rep.violations) {
        std::fprintf(stderr, "    %s\n", v.Format().c_str());
      }
      WriteAndAnnounceReproducer(doc, options, &rep);
      continue;
    }
    if (options.verbose) {
      std::fprintf(stderr,
                   "[%d/%d] %s: ok  flows %llu/%llu  trace %016llx\n", i + 1,
                   options.runs, rep.name.c_str(),
                   static_cast<unsigned long long>(rep.flows_completed),
                   static_cast<unsigned long long>(rep.flows_created),
                   static_cast<unsigned long long>(rep.trace_hash));
    }
  }
  std::printf("fuzz: %d run(s), seed %llu: %d bad, %zu violation(s)\n",
              options.runs, static_cast<unsigned long long>(options.seed),
              bad_runs, total_violations);
  return bad_runs == 0 ? 0 : 1;
}

}  // namespace hpcc::check
