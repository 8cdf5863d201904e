#include "obs/manifest.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/progress.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "scenario/scenario.h"
#include "sim/time.h"

namespace hpcc::obs {
namespace {

scenario::Json Num(double v) { return scenario::Json::MakeNumber(v); }
// Distribution metrics are NaN when no samples were collected; JSON has no
// NaN, so emit null (mirrors the empty CSV cell).
scenario::Json NumOrNull(double v) {
  return std::isnan(v) ? scenario::Json() : scenario::Json::MakeNumber(v);
}
scenario::Json NumU(uint64_t v) {
  return scenario::Json::MakeNumber(static_cast<double>(v));
}
scenario::Json Str(std::string v) {
  return scenario::Json::MakeString(std::move(v));
}

std::string HashHex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

scenario::Json BuildManifest(const ManifestInputs& in) {
  const runner::ExperimentResult& res = *in.result;
  scenario::Json m = scenario::Json::MakeObject();
  m.Set("schema", Str("hpccsim-manifest-v1"));
  m.Set("label", Str(in.label));
  if (!in.params.empty()) {
    scenario::Json p = scenario::Json::MakeObject();
    for (const auto& [key, value] : in.params) p.Set(key, Str(value));
    m.Set("params", p);
  }
  // CI exports the commit under HPCC_GIT_REV (same value for every job of a
  // sweep, so byte-identity across jobs/fastpath holds).
  if (const char* rev = std::getenv("HPCC_GIT_REV")) {
    m.Set("git_rev", Str(rev));
  }
  if (in.scenario) m.Set("scenario", scenario::ScenarioToJson(*in.scenario));
  if (in.telemetry) {
    m.Set("telemetry", scenario::TelemetryToJson(*in.telemetry));
  }

  // -- warm-start provenance ----------------------------------------------
  // Purely scenario-derived (which fabric/checkpoint cache keys this run
  // maps to), so the bytes are identical whether the run actually went warm
  // or fell back to cold — the warm-vs-cold byte-compare depends on that.
  if (in.scenario && in.scenario->warm_until > 0) {
    scenario::Json snap = scenario::Json::MakeObject();
    snap.Set("fabric_signature",
             Str(HashHex(scenario::FabricSignature(*in.scenario))));
    snap.Set("warm_fingerprint",
             Str(HashHex(scenario::WarmFingerprint(*in.scenario))));
    snap.Set("until_us", Num(sim::ToUs(in.scenario->warm_until)));
    m.Set("snapshot", snap);
  }

  // -- counter tree -------------------------------------------------------
  scenario::Json counters = scenario::Json::MakeObject();
  {
    scenario::Json flows = scenario::Json::MakeObject();
    flows.Set("created", NumU(res.flows_created));
    flows.Set("completed", NumU(res.flows_completed));
    flows.Set("failed", NumU(res.flows_failed));
    flows.Set("retx_timeouts", NumU(res.retx_timeouts));
    counters.Set("flows", flows);

    scenario::Json packets = scenario::Json::MakeObject();
    packets.Set("forwarded", NumU(res.packets_forwarded));
    scenario::Json drops = scenario::Json::MakeObject();
    drops.Set("total", NumU(res.dropped_packets));
    for (int i = 0; i < check::kNumDropReasons; ++i) {
      drops.Set(DropReasonToken(static_cast<check::DropReason>(i)),
                NumU(res.dropped_by_reason[i]));
    }
    scenario::Json pfc = scenario::Json::MakeObject();
    pfc.Set("pause_events", NumU(res.pause_events));
    pfc.Set("pause_time_pct", Num(res.pause_time_fraction * 100));
    // Fig. 1a/1b, only when the run paused (pause-free manifests keep their
    // bytes).
    if (res.pause_events > 0) {
      scenario::Json depth = scenario::Json::MakeArray();
      for (uint64_t n : res.pause_depth_counts) depth.Append(NumU(n));
      pfc.Set("depth", depth);
      const runner::ExperimentResult::SuppressedBandwidth& bw =
          res.suppressed_host_bw_pct;
      scenario::Json suppressed = scenario::Json::MakeObject();
      suppressed.Set("p50", NumOrNull(bw.p50));
      suppressed.Set("p90", NumOrNull(bw.p90));
      suppressed.Set("p99", NumOrNull(bw.p99));
      suppressed.Set("max", NumOrNull(bw.max));
      pfc.Set("suppressed_host_bw_pct", suppressed);
    }

    if (in.session) {
      const TelemetryCounters c = in.session->counters();
      packets.Set("enqueued", NumU(c.enqueued_packets));
      packets.Set("dequeued", NumU(c.dequeued_packets));
      packets.Set("enqueued_bytes", NumU(c.enqueued_bytes));
      packets.Set("dequeued_bytes", NumU(c.dequeued_bytes));
      pfc.Set("pause_on", NumU(c.pause_on));
      pfc.Set("pause_off", NumU(c.pause_off));
      scenario::Json cc = scenario::Json::MakeObject();
      cc.Set("updates", NumU(c.cc_updates));
      counters.Set("cc", cc);
      scenario::Json intc = scenario::Json::MakeObject();
      intc.Set("echoes", NumU(c.int_echoes));
      counters.Set("int", intc);
    }
    counters.Set("packets", packets);
    counters.Set("drops", drops);
    counters.Set("pfc", pfc);

    // Hybrid fluid-engine accounting, present only when the run carried
    // fluid flows (per-reason: every fluid flow is also folded into
    // counters.flows, so the totals stay engine-inclusive).
    if (in.experiment != nullptr &&
        in.experiment->config().hybrid.enabled) {
      scenario::Json fluid = scenario::Json::MakeObject();
      fluid.Set("flows_admitted", NumU(res.fluid_flows_created));
      fluid.Set("flows_completed", NumU(res.fluid_flows_completed));
      fluid.Set("ticks", NumU(res.fluid_ticks));
      fluid.Set("coupled_links", NumU(res.fluid_coupled_links));
      fluid.Set("delivered_bytes", NumU(res.fluid_delivered_bytes));
      fluid.Set("peak_queue_bytes",
                NumU(static_cast<uint64_t>(
                    res.fluid_peak_queue_bytes < 0
                        ? 0
                        : res.fluid_peak_queue_bytes)));
      counters.Set("fluid", fluid);
    }
  }
  m.Set("counters", counters);

  // -- CSV-mirror metrics -------------------------------------------------
  {
    scenario::Json metrics = scenario::Json::MakeObject();
    const stats::PercentileTracker& slow = res.fct->overall();
    metrics.Set("slowdown_p50", NumOrNull(slow.Percentile(50)));
    metrics.Set("slowdown_p95", NumOrNull(slow.Percentile(95)));
    metrics.Set("slowdown_p99", NumOrNull(slow.Percentile(99)));
    metrics.Set("short_fct_p95_us",
                NumOrNull(res.short_fct_us.Percentile(95)));
    metrics.Set("queue_p50_kb",
                NumOrNull(res.queue_dist.Percentile(50) / 1e3));
    metrics.Set("queue_p99_kb",
                NumOrNull(res.queue_dist.Percentile(99) / 1e3));
    metrics.Set("queue_max_kb",
                Num(static_cast<double>(res.max_queue_bytes) / 1e3));
    metrics.Set("sim_time_ms", Num(sim::ToMs(res.sim_time)));
    metrics.Set("base_rtt_us", Num(sim::ToUs(res.base_rtt)));
    m.Set("metrics", metrics);
  }

  // -- invariant-monitor summary ------------------------------------------
  {
    scenario::Json v = scenario::Json::MakeObject();
    v.Set("checked", scenario::Json::MakeBool(in.checked));
    v.Set("count", NumU(in.violation_count));
    if (in.violations && !in.violations->empty()) {
      scenario::Json items = scenario::Json::MakeArray();
      for (const check::Violation& viol : *in.violations) {
        items.Append(Str(viol.Format()));
      }
      v.Set("items", items);
    }
    m.Set("violations", v);
  }

  m.Set("trace_hash", Str(HashHex(res.trace_hash)));

  // -- sweep journal (resume support) -------------------------------------
  // Deterministic for clean runs (attempt 0, cells formatted from the
  // deterministic metrics), so the jobs/fastpath byte-identity contract
  // still holds.
  if (in.csv_cells != nullptr) {
    scenario::Json sweep = scenario::Json::MakeObject();
    sweep.Set("index", NumU(in.sweep_index));
    sweep.Set("count", NumU(in.sweep_count));
    sweep.Set("attempt", Num(in.attempt));
    sweep.Set("status", Str(in.status));
    scenario::Json cells = scenario::Json::MakeObject();
    for (const auto& [name, value] : *in.csv_cells) cells.Set(name, Str(value));
    sweep.Set("cells", cells);
    m.Set("sweep", sweep);
  }

  // -- opt-in, engine/machine-dependent -----------------------------------
  if (in.telemetry && in.telemetry->profile) {
    scenario::Json prof = scenario::Json::MakeObject();
    prof.Set("engine", Str(in.experiment->config().fast_path
                               ? "trains"
                               : "reference"));
    prof.Set("events_executed", NumU(res.events_executed));
    prof.Set("train_aborts", NumU(res.train_aborts));
    if (in.phases) {
      scenario::Json wall = scenario::Json::MakeObject();
      wall.Set("build_s", Num(in.phases->build_s));
      wall.Set("routes_s", Num(in.phases->routes_s));
      wall.Set("run_s", Num(in.phases->run_s));
      wall.Set("aggregate_s", Num(in.phases->aggregate_s));
      prof.Set("wall", wall);
    }
    m.Set("profile", prof);
  }
  return m;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  // Temp + rename: readers (the sweep resume journal probe) either see the
  // previous complete file or the new complete file, never a torn write.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (n != content.size() || !closed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace hpcc::obs
