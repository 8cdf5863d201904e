#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <limits>

#include "core/hash.h"
#include "obs/manifest.h"

namespace hpcc::scenario {
namespace {

constexpr size_t kMaxSweepRuns = 100'000;

// Largest double that still fits the int64 picosecond clock: casting beyond
// it is undefined behavior, so absurd (but positive-checked) times like
// "at_us": 1e300 must be rejected loudly like every other malformed input.
constexpr double kMaxTimePs = 9.2e18;

sim::TimePs CheckedPs(double value, double ps_per_unit, const char* what) {
  const double ps = value * ps_per_unit;
  if (!(ps > -kMaxTimePs && ps < kMaxTimePs)) {
    throw ScenarioError(std::string(what) +
                        " is outside the simulator's time range");
  }
  return static_cast<sim::TimePs>(ps);
}

sim::TimePs UsToPs(double us, const char* what = "time value") {
  return CheckedPs(us, static_cast<double>(sim::kPsPerUs), what);
}

double PsToUs(sim::TimePs t) { return sim::ToUs(t); }

int64_t GbpsToBps(double gbps) {
  const double bps = gbps * static_cast<double>(sim::kGbps);
  // Same loud-failure rule as CheckedPs: casting past int64 is UB.
  if (!(bps < 9.2e18)) {
    throw ScenarioError("link rate is outside the representable range");
  }
  return static_cast<int64_t>(bps);
}

uint64_t CheckedBytes(double v, const char* what) {
  if (!(v < 9.2e18)) {
    throw ScenarioError(std::string(what) + " is too large");
  }
  return static_cast<uint64_t>(v);
}

double BpsToGbps(int64_t bps) {
  return static_cast<double>(bps) / static_cast<double>(sim::kGbps);
}

// Every object in the schema rejects unknown keys so typos fail loudly
// instead of silently running defaults.
void CheckKeys(const Json& obj, const char* where,
               std::initializer_list<const char*> allowed) {
  for (const auto& m : obj.members()) {
    bool ok = false;
    for (const char* k : allowed) {
      if (m.first == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      throw ScenarioError("unknown key \"" + m.first + "\" in " + where);
    }
  }
}

const Json& Require(const Json& obj, const char* key, const char* where) {
  const Json* v = obj.Find(key);
  if (v == nullptr) {
    throw ScenarioError(std::string("missing required key \"") + key +
                        "\" in " + where);
  }
  return *v;
}

double NumOr(const Json& obj, const char* key, double def) {
  const Json* v = obj.Find(key);
  return v == nullptr ? def : v->AsDouble();
}

int64_t IntOr(const Json& obj, const char* key, int64_t def) {
  const Json* v = obj.Find(key);
  return v == nullptr ? def : v->AsInt();
}

bool BoolOr(const Json& obj, const char* key, bool def) {
  const Json* v = obj.Find(key);
  return v == nullptr ? def : v->AsBool();
}

std::string StrOr(const Json& obj, const char* key, const std::string& def) {
  const Json* v = obj.Find(key);
  return v == nullptr ? def : v->AsString();
}

int PositiveInt(const Json& obj, const char* key, int64_t def,
                const char* where) {
  const int64_t v = IntOr(obj, key, def);
  if (v <= 0 || v > 1'000'000) {
    throw ScenarioError(std::string("\"") + key + "\" in " + where +
                        " must be a positive integer");
  }
  return static_cast<int>(v);
}

double PositiveNum(const Json& obj, const char* key, double def,
                   const char* where) {
  const double v = NumOr(obj, key, def);
  if (!(v > 0)) {
    throw ScenarioError(std::string("\"") + key + "\" in " + where +
                        " must be > 0");
  }
  return v;
}

void ParseTopology(const Json& t, runner::ExperimentConfig* cfg) {
  const std::string kind = Require(t, "kind", "topology").AsString();
  if (kind == "fattree") {
    CheckKeys(t, "topology",
              {"kind", "paper_scale", "pods", "tors_per_pod", "aggs_per_pod",
               "cores_per_agg", "hosts_per_tor", "host_gbps", "fabric_gbps",
               "link_delay_us"});
    cfg->topology = runner::TopologyKind::kFatTree;
    topo::FatTreeOptions o = BoolOr(t, "paper_scale", false)
                                 ? topo::FatTreeOptions::PaperScale()
                                 : topo::FatTreeOptions{};
    o.pods = PositiveInt(t, "pods", o.pods, "topology");
    o.tors_per_pod = PositiveInt(t, "tors_per_pod", o.tors_per_pod, "topology");
    o.aggs_per_pod = PositiveInt(t, "aggs_per_pod", o.aggs_per_pod, "topology");
    o.cores_per_agg =
        PositiveInt(t, "cores_per_agg", o.cores_per_agg, "topology");
    o.hosts_per_tor =
        PositiveInt(t, "hosts_per_tor", o.hosts_per_tor, "topology");
    o.host_bps = GbpsToBps(
        PositiveNum(t, "host_gbps", BpsToGbps(o.host_bps), "topology"));
    o.fabric_bps = GbpsToBps(
        PositiveNum(t, "fabric_gbps", BpsToGbps(o.fabric_bps), "topology"));
    o.link_delay = UsToPs(
        PositiveNum(t, "link_delay_us", PsToUs(o.link_delay), "topology"));
    cfg->fattree = o;
  } else if (kind == "testbed") {
    CheckKeys(t, "topology",
              {"kind", "servers_per_pair", "host_gbps", "fabric_gbps",
               "link_delay_us"});
    cfg->topology = runner::TopologyKind::kTestbed;
    topo::TestbedOptions o;
    o.servers_per_pair =
        PositiveInt(t, "servers_per_pair", o.servers_per_pair, "topology");
    o.host_bps = GbpsToBps(
        PositiveNum(t, "host_gbps", BpsToGbps(o.host_bps), "topology"));
    o.fabric_bps = GbpsToBps(
        PositiveNum(t, "fabric_gbps", BpsToGbps(o.fabric_bps), "topology"));
    o.link_delay = UsToPs(
        PositiveNum(t, "link_delay_us", PsToUs(o.link_delay), "topology"));
    cfg->testbed = o;
  } else if (kind == "star") {
    CheckKeys(t, "topology", {"kind", "hosts", "host_gbps", "link_delay_us"});
    cfg->topology = runner::TopologyKind::kStar;
    topo::StarOptions o;
    o.num_hosts = PositiveInt(t, "hosts", o.num_hosts, "topology");
    o.host_bps = GbpsToBps(
        PositiveNum(t, "host_gbps", BpsToGbps(o.host_bps), "topology"));
    o.link_delay = UsToPs(
        PositiveNum(t, "link_delay_us", PsToUs(o.link_delay), "topology"));
    cfg->star = o;
  } else if (kind == "dumbbell") {
    CheckKeys(t, "topology",
              {"kind", "hosts_per_side", "host_gbps", "trunk_gbps",
               "link_delay_us"});
    cfg->topology = runner::TopologyKind::kDumbbell;
    topo::DumbbellOptions o;
    o.hosts_per_side =
        PositiveInt(t, "hosts_per_side", o.hosts_per_side, "topology");
    o.host_bps = GbpsToBps(
        PositiveNum(t, "host_gbps", BpsToGbps(o.host_bps), "topology"));
    o.trunk_bps = GbpsToBps(
        PositiveNum(t, "trunk_gbps", BpsToGbps(o.trunk_bps), "topology"));
    o.link_delay = UsToPs(
        PositiveNum(t, "link_delay_us", PsToUs(o.link_delay), "topology"));
    cfg->dumbbell = o;
  } else {
    throw ScenarioError("unknown topology kind \"" + kind +
                        "\" (fattree|testbed|star|dumbbell)");
  }
}

void ParseCc(const Json& c, runner::ExperimentConfig* cfg) {
  CheckKeys(c, "cc",
            {"scheme", "eta", "wai_bytes", "max_stage", "expected_flows",
             "alpha_fair"});
  cfg->cc.scheme = StrOr(c, "scheme", cfg->cc.scheme);
  if (cfg->cc.scheme.empty()) throw ScenarioError("cc.scheme must be set");
  cfg->cc.hpcc.eta = PositiveNum(c, "eta", cfg->cc.hpcc.eta, "cc");
  cfg->cc.hpcc.wai_bytes = NumOr(c, "wai_bytes", cfg->cc.hpcc.wai_bytes);
  cfg->cc.hpcc.max_stage =
      PositiveInt(c, "max_stage", cfg->cc.hpcc.max_stage, "cc");
  cfg->cc.hpcc.expected_flows =
      PositiveInt(c, "expected_flows", cfg->cc.hpcc.expected_flows, "cc");
  cfg->cc.alpha_fair = PositiveNum(c, "alpha_fair", cfg->cc.alpha_fair, "cc");
}

// "flow_class": "packet" (default) | "fluid" — which transport engine the
// emitted flows ride (workload/traffic_source.h). Fluid requires the
// top-level "hybrid" block; that cross-field check runs after the whole
// document parses.
workload::FlowClass ParseFlowClass(const Json& obj, const char* where) {
  const std::string v = StrOr(obj, "flow_class", "packet");
  if (v == "packet") return workload::FlowClass::kPacket;
  if (v == "fluid") return workload::FlowClass::kFluid;
  throw ScenarioError(std::string("\"flow_class\" in ") + where +
                      " must be packet|fluid");
}

// Reads the incast fields shared between "workload.incast" and incast
// events; key whitelisting is the caller's job (the allowed sets differ).
workload::IncastOptions ParseIncast(const Json& inc, const char* where) {
  workload::IncastOptions io;
  io.fan_in = PositiveInt(inc, "fan_in", io.fan_in, where);
  io.flow_bytes = CheckedBytes(
      PositiveNum(inc, "flow_bytes", static_cast<double>(io.flow_bytes),
                  where),
      "flow_bytes");
  io.first_event =
      UsToPs(PositiveNum(inc, "first_event_us", PsToUs(io.first_event),
                         where));
  const double period_us = NumOr(inc, "period_us", PsToUs(io.period));
  if (period_us < 0) {
    throw ScenarioError(std::string("\"period_us\" in ") + where +
                        " must be >= 0");
  }
  io.period = UsToPs(period_us);
  const int64_t receiver = IntOr(inc, "receiver", io.fixed_receiver);
  // Upper bound before the int32 narrowing: a huge index must be rejected,
  // not wrapped (e.g. 4294967295 would wrap to -1, "random receiver").
  if (receiver < -1 || receiver > 1'000'000) {
    throw ScenarioError(std::string("\"receiver\" in ") + where +
                        " must be a host index or -1 (random)");
  }
  io.fixed_receiver = static_cast<int32_t>(receiver);
  io.flow_class = ParseFlowClass(inc, where);
  return io;
}

void ParseWorkload(const Json& w, runner::ExperimentConfig* cfg) {
  CheckKeys(w, "workload",
            {"load", "trace", "max_flows", "incast", "flow_class",
             "trace_file"});
  cfg->load = NumOr(w, "load", cfg->load);
  if (cfg->load < 0 || cfg->load > 4) {
    throw ScenarioError("workload.load must be in [0, 4]");
  }
  cfg->trace = StrOr(w, "trace", cfg->trace);
  if (cfg->trace != "websearch" && cfg->trace != "fbhadoop") {
    throw ScenarioError("workload.trace must be websearch|fbhadoop");
  }
  const int64_t max_flows = IntOr(w, "max_flows", 0);
  if (max_flows < 0) throw ScenarioError("workload.max_flows must be >= 0");
  cfg->max_flows = static_cast<uint64_t>(max_flows);
  // Engine class for background flows: the Poisson generator, trace replay
  // and scripted load phases. Incast carries its own class below.
  cfg->flow_class = ParseFlowClass(w, "workload");
  // CSV flow-trace replay (workload/trace_replay.h), relative to the CWD.
  cfg->trace_file = StrOr(w, "trace_file", "");
  if (const Json* inc = w.Find("incast")) {
    CheckKeys(*inc, "workload.incast",
              {"fan_in", "flow_bytes", "first_event_us", "period_us",
               "receiver", "flow_class"});
    cfg->incast = true;
    cfg->incast_opts = ParseIncast(*inc, "workload.incast");
  }
}

ScenarioEvent ParseEvent(const Json& ev, size_t index) {
  const std::string where = "events[" + std::to_string(index) + "]";
  const std::string type = Require(ev, "type", where.c_str()).AsString();
  const double at_us = Require(ev, "at_us", where.c_str()).AsDouble();
  if (at_us < 0) throw ScenarioError(where + ".at_us must be >= 0");

  ScenarioEvent out;
  out.at = UsToPs(at_us, "at_us");
  if (type == "link_down" || type == "link_up") {
    CheckKeys(ev, where.c_str(), {"type", "at_us", "link"});
    out.kind = type == "link_down" ? ScenarioEvent::Kind::kLinkDown
                                   : ScenarioEvent::Kind::kLinkUp;
    const int64_t link = Require(ev, "link", where.c_str()).AsInt();
    if (link < 0) throw ScenarioError(where + ".link must be >= 0");
    out.link = static_cast<size_t>(link);
  } else if (type == "incast") {
    CheckKeys(ev, where.c_str(),
              {"type", "at_us", "fan_in", "flow_bytes", "receiver",
               "flow_class"});
    out.kind = ScenarioEvent::Kind::kIncast;
    out.incast = ParseIncast(ev, where.c_str());
    // `at_us` is authoritative; fold it into the one-shot generator.
    out.incast.first_event = out.at;
    out.incast.period = 0;
  } else if (type == "load_phase") {
    CheckKeys(ev, where.c_str(), {"type", "at_us", "load"});
    out.kind = ScenarioEvent::Kind::kLoadPhase;
    out.load = Require(ev, "load", where.c_str()).AsDouble();
    if (out.load < 0 || out.load > 4) {
      throw ScenarioError(where + ".load must be in [0, 4]");
    }
  } else if (type == "switch_down" || type == "switch_up") {
    CheckKeys(ev, where.c_str(), {"type", "at_us", "switch"});
    out.kind = type == "switch_down" ? ScenarioEvent::Kind::kSwitchDown
                                     : ScenarioEvent::Kind::kSwitchUp;
    const int64_t sw = Require(ev, "switch", where.c_str()).AsInt();
    if (sw < 0) throw ScenarioError(where + ".switch must be >= 0");
    out.node = static_cast<size_t>(sw);
  } else if (type == "nic_down" || type == "nic_up") {
    CheckKeys(ev, where.c_str(), {"type", "at_us", "host"});
    out.kind = type == "nic_down" ? ScenarioEvent::Kind::kNicDown
                                  : ScenarioEvent::Kind::kNicUp;
    const int64_t h = Require(ev, "host", where.c_str()).AsInt();
    if (h < 0) throw ScenarioError(where + ".host must be >= 0");
    out.node = static_cast<size_t>(h);
  } else if (type == "corrupt") {
    CheckKeys(ev, where.c_str(), {"type", "at_us", "link", "ber", "until_us"});
    out.kind = ScenarioEvent::Kind::kCorrupt;
    const int64_t link = Require(ev, "link", where.c_str()).AsInt();
    if (link < 0) throw ScenarioError(where + ".link must be >= 0");
    out.link = static_cast<size_t>(link);
    out.ber = Require(ev, "ber", where.c_str()).AsDouble();
    if (!(out.ber > 0 && out.ber < 1)) {
      throw ScenarioError(where + ".ber must be in (0, 1)");
    }
    const double until_us = Require(ev, "until_us", where.c_str()).AsDouble();
    out.until = UsToPs(until_us, "until_us");
    if (out.until <= out.at) {
      throw ScenarioError(where + ".until_us must be > at_us");
    }
  } else {
    throw ScenarioError(
        "unknown event type \"" + type +
        "\" (link_down|link_up|incast|load_phase|switch_down|switch_up|"
        "nic_down|nic_up|corrupt)");
  }
  return out;
}

std::vector<SweepAxis> ParseSweep(const Json& sw) {
  std::vector<SweepAxis> axes;
  for (const auto& [key, values] : sw.members()) {
    if (key.empty()) throw ScenarioError("empty sweep key");
    if (!values.is_array() || values.size() == 0) {
      throw ScenarioError("sweep axis \"" + key +
                          "\" must be a non-empty array");
    }
    axes.push_back(SweepAxis{key, values.items()});
  }
  return axes;
}

std::string ValueText(const Json& v) {
  return v.is_string() ? v.AsString() : v.Dump();
}

// 0 disables a track family, so "positive" is too strict here.
int TrackCount(const Json& t, const char* key, int def) {
  const int64_t v = IntOr(t, key, def);
  if (v < 0 || v > 1'000'000) {
    throw ScenarioError(std::string("\"") + key +
                        "\" in telemetry must be a non-negative integer");
  }
  return static_cast<int>(v);
}

obs::TelemetryConfig ParseTelemetry(const Json& t) {
  CheckKeys(t, "telemetry",
            {"manifest", "trace", "profile", "queue_tracks",
             "queue_track_points", "queue_sample_us", "flow_tracks",
             "flow_track_points", "flow_sample_us", "int_tracks",
             "int_track_points"});
  obs::TelemetryConfig c;
  c.manifest = BoolOr(t, "manifest", c.manifest);
  c.trace = BoolOr(t, "trace", c.trace);
  c.profile = BoolOr(t, "profile", c.profile);
  c.queue_tracks = TrackCount(t, "queue_tracks", c.queue_tracks);
  c.queue_track_points =
      PositiveInt(t, "queue_track_points", c.queue_track_points, "telemetry");
  c.queue_sample_us =
      PositiveNum(t, "queue_sample_us", c.queue_sample_us, "telemetry");
  c.flow_tracks = TrackCount(t, "flow_tracks", c.flow_tracks);
  c.flow_track_points =
      PositiveInt(t, "flow_track_points", c.flow_track_points, "telemetry");
  c.flow_sample_us =
      PositiveNum(t, "flow_sample_us", c.flow_sample_us, "telemetry");
  c.int_tracks = TrackCount(t, "int_tracks", c.int_tracks);
  c.int_track_points =
      PositiveInt(t, "int_track_points", c.int_track_points, "telemetry");
  return c;
}

// Host count every topology kind will build — lets the parser reject incast
// shapes that could never run (the generator's own guard is a debug assert,
// compiled out in Release).
int NumHosts(const runner::ExperimentConfig& cfg) {
  switch (cfg.topology) {
    case runner::TopologyKind::kFatTree:
      return cfg.fattree.num_hosts();
    case runner::TopologyKind::kTestbed:
      return 2 * cfg.testbed.servers_per_pair;
    case runner::TopologyKind::kStar:
      return cfg.star.num_hosts;
    case runner::TopologyKind::kDumbbell:
      return 2 * cfg.dumbbell.hosts_per_side;
  }
  return 0;
}

}  // namespace

Scenario ParseScenario(const Json& doc) {
  if (!doc.is_object()) {
    throw ScenarioError("scenario document must be a JSON object");
  }
  CheckKeys(doc, "scenario",
            {"name", "description", "topology", "cc", "workload",
             "duration_ms", "drain_factor", "seed", "shards", "pfc",
             "fastpath", "recovery", "int_sample_every", "short_flow_bytes",
             "telemetry", "warm_start", "deadline_s", "hybrid", "events",
             "sweep"});

  Scenario s;
  s.source = doc;
  s.name = StrOr(doc, "name", s.name);
  if (s.name.empty()) throw ScenarioError("name must not be empty");
  s.description = StrOr(doc, "description", "");

  ParseTopology(Require(doc, "topology", "scenario"), &s.config);
  if (const Json* c = doc.Find("cc")) ParseCc(*c, &s.config);
  if (const Json* w = doc.Find("workload")) ParseWorkload(*w, &s.config);
  if (s.config.incast) {
    const int hosts = NumHosts(s.config);
    if (s.config.incast_opts.fan_in >= hosts) {
      throw ScenarioError("workload.incast.fan_in " +
                          std::to_string(s.config.incast_opts.fan_in) +
                          " needs more hosts than the topology's " +
                          std::to_string(hosts));
    }
    if (s.config.incast_opts.fixed_receiver >= hosts) {
      throw ScenarioError("workload.incast.receiver index out of range");
    }
  }

  s.config.duration = CheckedPs(
      PositiveNum(doc, "duration_ms", sim::ToMs(s.config.duration),
                  "scenario"),
      static_cast<double>(sim::kPsPerMs), "duration_ms");
  s.config.drain_factor =
      PositiveNum(doc, "drain_factor", s.config.drain_factor, "scenario");
  const int64_t seed = IntOr(doc, "seed", static_cast<int64_t>(s.config.seed));
  if (seed < 0) throw ScenarioError("seed must be >= 0");
  s.config.seed = static_cast<uint64_t>(seed);
  // Execution sharding (conservative PDES). Results are pinned byte-equal to
  // shards=1, so this is a performance knob, not a semantic one.
  s.config.shards = PositiveInt(doc, "shards", s.config.shards, "scenario");
  if (s.config.shards > 64) {
    throw ScenarioError("shards must be <= 64");
  }
  s.config.pfc_enabled = BoolOr(doc, "pfc", s.config.pfc_enabled);
  s.config.fast_path = BoolOr(doc, "fastpath", s.config.fast_path);
  const std::string recovery = StrOr(doc, "recovery", "gbn");
  if (recovery == "gbn") {
    s.config.recovery = host::RecoveryMode::kGoBackN;
  } else if (recovery == "irn") {
    s.config.recovery = host::RecoveryMode::kIrn;
  } else {
    throw ScenarioError("recovery must be gbn|irn");
  }
  s.config.int_sample_every = PositiveInt(doc, "int_sample_every",
                                          s.config.int_sample_every,
                                          "scenario");
  const int64_t short_bytes = IntOr(doc, "short_flow_bytes",
                                    static_cast<int64_t>(
                                        s.config.short_flow_bytes));
  if (short_bytes < 0) throw ScenarioError("short_flow_bytes must be >= 0");
  s.config.short_flow_bytes = static_cast<uint64_t>(short_bytes);

  if (const Json* t = doc.Find("telemetry")) {
    if (!t->is_object()) throw ScenarioError("telemetry must be an object");
    s.telemetry = ParseTelemetry(*t);
  }

  if (const Json* ws = doc.Find("warm_start")) {
    if (!ws->is_object()) throw ScenarioError("warm_start must be an object");
    CheckKeys(*ws, "warm_start", {"until_us"});
    const double until_us =
        Require(*ws, "until_us", "warm_start").AsDouble();
    if (!(until_us > 0)) {
      throw ScenarioError("warm_start.until_us must be > 0");
    }
    s.warm_until = UsToPs(until_us, "warm_start.until_us");
  }

  if (const Json* dl = doc.Find("deadline_s")) {
    s.deadline_s = dl->AsDouble();
    if (!(s.deadline_s > 0)) {
      throw ScenarioError("deadline_s must be > 0");
    }
  }

  // Hybrid fluid/packet co-simulation: presence of the block enables the
  // fluid engine. tick_us = fluid round period (default: one MaxBaseRtt).
  if (const Json* hy = doc.Find("hybrid")) {
    if (!hy->is_object()) throw ScenarioError("hybrid must be an object");
    CheckKeys(*hy, "hybrid", {"tick_us"});
    s.config.hybrid.enabled = true;
    if (hy->Find("tick_us") != nullptr) {
      s.config.hybrid.tick = UsToPs(
          PositiveNum(*hy, "tick_us", 0, "hybrid"), "hybrid.tick_us");
    }
    if (s.config.shards != 1) {
      throw ScenarioError("hybrid requires shards = 1");
    }
    if (!cc::SchemeUsesInt(s.config.cc.scheme)) {
      throw ScenarioError(
          "hybrid fluid coupling needs an INT-carrying cc.scheme (the fluid "
          "engine injects congestion state through INT stamps)");
    }
  } else if (s.config.flow_class == workload::FlowClass::kFluid ||
             (s.config.incast && s.config.incast_opts.flow_class ==
                                     workload::FlowClass::kFluid)) {
    throw ScenarioError(
        "flow_class \"fluid\" requires the top-level \"hybrid\" block");
  }

  if (const Json* evs = doc.Find("events")) {
    if (!evs->is_array()) throw ScenarioError("events must be an array");
    for (size_t i = 0; i < evs->size(); ++i) {
      s.events.push_back(ParseEvent(evs->at(i), i));
    }
  }
  for (const ScenarioEvent& ev : s.events) {
    if (ev.kind == ScenarioEvent::Kind::kIncast &&
        ev.incast.flow_class == workload::FlowClass::kFluid &&
        !s.config.hybrid.enabled) {
      throw ScenarioError(
          "flow_class \"fluid\" requires the top-level \"hybrid\" block");
    }
  }
  if (const Json* sw = doc.Find("sweep")) {
    if (!sw->is_object()) throw ScenarioError("sweep must be an object");
    s.sweep = ParseSweep(*sw);
  }
  return s;
}

Scenario ParseScenarioText(const std::string& text) {
  return ParseScenario(Json::Parse(text));
}

Scenario LoadScenarioFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw ScenarioError("cannot open scenario file: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    // Without this, a truncated read would surface as a misleading JSON
    // parse error on the partial text.
    throw ScenarioError("read error on scenario file: " + path);
  }
  try {
    return ParseScenarioText(text);
  } catch (const std::runtime_error& e) {
    throw ScenarioError(path + ": " + e.what());
  }
}

namespace {

Json IncastToJson(const workload::IncastOptions& io, bool with_schedule) {
  Json inc = Json::MakeObject();
  inc.Set("fan_in", Json::MakeNumber(io.fan_in));
  inc.Set("flow_bytes", Json::MakeNumber(static_cast<double>(io.flow_bytes)));
  if (with_schedule) {
    inc.Set("first_event_us", Json::MakeNumber(PsToUs(io.first_event)));
    inc.Set("period_us", Json::MakeNumber(PsToUs(io.period)));
  }
  inc.Set("receiver", Json::MakeNumber(io.fixed_receiver));
  // Default-elided so pre-hybrid documents round-trip unchanged.
  if (io.flow_class == workload::FlowClass::kFluid) {
    inc.Set("flow_class", Json::MakeString("fluid"));
  }
  return inc;
}

Json TopologyToJson(const runner::ExperimentConfig& cfg) {
  Json t = Json::MakeObject();
  switch (cfg.topology) {
    case runner::TopologyKind::kFatTree: {
      const topo::FatTreeOptions& o = cfg.fattree;
      t.Set("kind", Json::MakeString("fattree"));
      t.Set("pods", Json::MakeNumber(o.pods));
      t.Set("tors_per_pod", Json::MakeNumber(o.tors_per_pod));
      t.Set("aggs_per_pod", Json::MakeNumber(o.aggs_per_pod));
      t.Set("cores_per_agg", Json::MakeNumber(o.cores_per_agg));
      t.Set("hosts_per_tor", Json::MakeNumber(o.hosts_per_tor));
      t.Set("host_gbps", Json::MakeNumber(BpsToGbps(o.host_bps)));
      t.Set("fabric_gbps", Json::MakeNumber(BpsToGbps(o.fabric_bps)));
      t.Set("link_delay_us", Json::MakeNumber(PsToUs(o.link_delay)));
      break;
    }
    case runner::TopologyKind::kTestbed: {
      const topo::TestbedOptions& o = cfg.testbed;
      t.Set("kind", Json::MakeString("testbed"));
      t.Set("servers_per_pair", Json::MakeNumber(o.servers_per_pair));
      t.Set("host_gbps", Json::MakeNumber(BpsToGbps(o.host_bps)));
      t.Set("fabric_gbps", Json::MakeNumber(BpsToGbps(o.fabric_bps)));
      t.Set("link_delay_us", Json::MakeNumber(PsToUs(o.link_delay)));
      break;
    }
    case runner::TopologyKind::kStar: {
      const topo::StarOptions& o = cfg.star;
      t.Set("kind", Json::MakeString("star"));
      t.Set("hosts", Json::MakeNumber(o.num_hosts));
      t.Set("host_gbps", Json::MakeNumber(BpsToGbps(o.host_bps)));
      t.Set("link_delay_us", Json::MakeNumber(PsToUs(o.link_delay)));
      break;
    }
    case runner::TopologyKind::kDumbbell: {
      const topo::DumbbellOptions& o = cfg.dumbbell;
      t.Set("kind", Json::MakeString("dumbbell"));
      t.Set("hosts_per_side", Json::MakeNumber(o.hosts_per_side));
      t.Set("host_gbps", Json::MakeNumber(BpsToGbps(o.host_bps)));
      t.Set("trunk_gbps", Json::MakeNumber(BpsToGbps(o.trunk_bps)));
      t.Set("link_delay_us", Json::MakeNumber(PsToUs(o.link_delay)));
      break;
    }
  }
  return t;
}

Json EventToJson(const ScenarioEvent& ev) {
  Json e = Json::MakeObject();
  switch (ev.kind) {
    case ScenarioEvent::Kind::kLinkDown:
    case ScenarioEvent::Kind::kLinkUp:
      e.Set("type", Json::MakeString(ev.kind == ScenarioEvent::Kind::kLinkDown
                                         ? "link_down"
                                         : "link_up"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("link", Json::MakeNumber(static_cast<double>(ev.link)));
      break;
    case ScenarioEvent::Kind::kIncast: {
      e.Set("type", Json::MakeString("incast"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("fan_in", Json::MakeNumber(ev.incast.fan_in));
      e.Set("flow_bytes",
            Json::MakeNumber(static_cast<double>(ev.incast.flow_bytes)));
      e.Set("receiver", Json::MakeNumber(ev.incast.fixed_receiver));
      if (ev.incast.flow_class == workload::FlowClass::kFluid) {
        e.Set("flow_class", Json::MakeString("fluid"));
      }
      break;
    }
    case ScenarioEvent::Kind::kLoadPhase:
      e.Set("type", Json::MakeString("load_phase"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("load", Json::MakeNumber(ev.load));
      break;
    case ScenarioEvent::Kind::kSwitchDown:
    case ScenarioEvent::Kind::kSwitchUp:
      e.Set("type",
            Json::MakeString(ev.kind == ScenarioEvent::Kind::kSwitchDown
                                 ? "switch_down"
                                 : "switch_up"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("switch", Json::MakeNumber(static_cast<double>(ev.node)));
      break;
    case ScenarioEvent::Kind::kNicDown:
    case ScenarioEvent::Kind::kNicUp:
      e.Set("type", Json::MakeString(ev.kind == ScenarioEvent::Kind::kNicDown
                                         ? "nic_down"
                                         : "nic_up"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("host", Json::MakeNumber(static_cast<double>(ev.node)));
      break;
    case ScenarioEvent::Kind::kCorrupt:
      e.Set("type", Json::MakeString("corrupt"));
      e.Set("at_us", Json::MakeNumber(PsToUs(ev.at)));
      e.Set("link", Json::MakeNumber(static_cast<double>(ev.link)));
      e.Set("ber", Json::MakeNumber(ev.ber));
      e.Set("until_us", Json::MakeNumber(PsToUs(ev.until)));
      break;
  }
  return e;
}

}  // namespace

Json ScenarioToJson(const Scenario& s) {
  const runner::ExperimentConfig& cfg = s.config;
  Json doc = Json::MakeObject();
  doc.Set("name", Json::MakeString(s.name));
  if (!s.description.empty()) {
    doc.Set("description", Json::MakeString(s.description));
  }
  doc.Set("topology", TopologyToJson(cfg));

  Json c = Json::MakeObject();
  c.Set("scheme", Json::MakeString(cfg.cc.scheme));
  c.Set("eta", Json::MakeNumber(cfg.cc.hpcc.eta));
  c.Set("wai_bytes", Json::MakeNumber(cfg.cc.hpcc.wai_bytes));
  c.Set("max_stage", Json::MakeNumber(cfg.cc.hpcc.max_stage));
  c.Set("expected_flows", Json::MakeNumber(cfg.cc.hpcc.expected_flows));
  c.Set("alpha_fair", Json::MakeNumber(cfg.cc.alpha_fair));
  doc.Set("cc", std::move(c));

  Json w = Json::MakeObject();
  w.Set("load", Json::MakeNumber(cfg.load));
  w.Set("trace", Json::MakeString(cfg.trace));
  w.Set("max_flows", Json::MakeNumber(static_cast<double>(cfg.max_flows)));
  if (cfg.flow_class == workload::FlowClass::kFluid) {
    w.Set("flow_class", Json::MakeString("fluid"));
  }
  if (!cfg.trace_file.empty()) {
    w.Set("trace_file", Json::MakeString(cfg.trace_file));
  }
  if (cfg.incast) {
    w.Set("incast", IncastToJson(cfg.incast_opts, /*with_schedule=*/true));
  }
  doc.Set("workload", std::move(w));

  doc.Set("duration_ms", Json::MakeNumber(sim::ToMs(cfg.duration)));
  doc.Set("drain_factor", Json::MakeNumber(cfg.drain_factor));
  doc.Set("seed", Json::MakeNumber(static_cast<double>(cfg.seed)));
  // Default-elided so pre-sharding documents round-trip unchanged.
  if (cfg.shards != 1) doc.Set("shards", Json::MakeNumber(cfg.shards));
  doc.Set("pfc", Json::MakeBool(cfg.pfc_enabled));
  doc.Set("fastpath", Json::MakeBool(cfg.fast_path));
  doc.Set("recovery",
          Json::MakeString(cfg.recovery == host::RecoveryMode::kIrn ? "irn"
                                                                    : "gbn"));
  doc.Set("int_sample_every", Json::MakeNumber(cfg.int_sample_every));
  doc.Set("short_flow_bytes",
          Json::MakeNumber(static_cast<double>(cfg.short_flow_bytes)));

  // Like "events": emitted only when it says something (non-default), so
  // telemetry-free documents round-trip unchanged.
  if (!(s.telemetry == obs::TelemetryConfig{})) {
    doc.Set("telemetry", obs::TelemetryConfigToJson(s.telemetry));
  }
  if (s.warm_until > 0) {
    Json ws = Json::MakeObject();
    ws.Set("until_us", Json::MakeNumber(PsToUs(s.warm_until)));
    doc.Set("warm_start", std::move(ws));
  }
  if (s.deadline_s > 0) {
    doc.Set("deadline_s", Json::MakeNumber(s.deadline_s));
  }
  if (cfg.hybrid.enabled) {
    Json hy = Json::MakeObject();
    if (cfg.hybrid.tick > 0) {
      hy.Set("tick_us", Json::MakeNumber(PsToUs(cfg.hybrid.tick)));
    }
    doc.Set("hybrid", std::move(hy));
  }

  if (!s.events.empty()) {
    Json evs = Json::MakeArray();
    for (const ScenarioEvent& ev : s.events) evs.Append(EventToJson(ev));
    doc.Set("events", std::move(evs));
  }
  if (!s.sweep.empty()) {
    Json sw = Json::MakeObject();
    for (const SweepAxis& axis : s.sweep) {
      Json vals = Json::MakeArray();
      for (const Json& v : axis.values) vals.Append(v);
      sw.Set(axis.key, std::move(vals));
    }
    doc.Set("sweep", std::move(sw));
  }
  return doc;
}

std::vector<ScenarioRun> ExpandSweep(const Scenario& s) {
  if (s.sweep.empty()) {
    ScenarioRun run;
    run.label = s.name;
    run.scenario = s;
    run.scenario.sweep.clear();
    return {std::move(run)};
  }
  if (!s.source.is_object()) {
    throw ScenarioError(
        "sweep expansion needs the source document (scenario was built "
        "programmatically)");
  }
  size_t total = 1;
  for (const SweepAxis& axis : s.sweep) {
    if (axis.values.empty()) {
      throw ScenarioError("sweep axis \"" + axis.key + "\" is empty");
    }
    total *= axis.values.size();
    if (total > kMaxSweepRuns) {
      throw ScenarioError("sweep grid exceeds " +
                          std::to_string(kMaxSweepRuns) + " runs");
    }
  }

  std::vector<ScenarioRun> runs;
  runs.reserve(total);
  for (size_t flat = 0; flat < total; ++flat) {
    // Mixed-radix decode, last axis fastest.
    std::vector<size_t> idx(s.sweep.size(), 0);
    size_t rem = flat;
    for (size_t a = s.sweep.size(); a-- > 0;) {
      idx[a] = rem % s.sweep[a].values.size();
      rem /= s.sweep[a].values.size();
    }

    Json doc = s.source;
    doc.Remove("sweep");
    ScenarioRun run;
    std::string suffix;
    for (size_t a = 0; a < s.sweep.size(); ++a) {
      const SweepAxis& axis = s.sweep[a];
      const Json& value = axis.values[idx[a]];
      doc.SetPath(axis.key, value);
      // Short key for the label: last path segment.
      const size_t dot = axis.key.rfind('.');
      const std::string leaf =
          dot == std::string::npos ? axis.key : axis.key.substr(dot + 1);
      if (!suffix.empty()) suffix += ",";
      suffix += leaf + "=" + ValueText(value);
      run.params.emplace_back(axis.key, ValueText(value));
    }
    run.scenario = ParseScenario(doc);
    run.label = s.name + "[" + suffix + "]";
    runs.push_back(std::move(run));
  }
  return runs;
}

bool MutatesTopology(const Scenario& s) {
  for (const ScenarioEvent& ev : s.events) {
    switch (ev.kind) {
      case ScenarioEvent::Kind::kLinkDown:
      case ScenarioEvent::Kind::kLinkUp:
      case ScenarioEvent::Kind::kSwitchDown:
      case ScenarioEvent::Kind::kSwitchUp:
      case ScenarioEvent::Kind::kNicDown:
      case ScenarioEvent::Kind::kNicUp:
        return true;
      case ScenarioEvent::Kind::kIncast:
      case ScenarioEvent::Kind::kLoadPhase:
      case ScenarioEvent::Kind::kCorrupt:
        // Corruption drops packets but never rewires routes.
        break;
    }
  }
  return false;
}

// True when the scenario injects faults the warm-start machinery does not
// model: switch/NIC events consume install-time schedule seqs per attached
// link (degree-dependent, so the bare-marker fingerprint reduction would be
// wrong) and corruption windows carry per-port RNG state no checkpoint
// captures. The sweep runner runs such scenarios cold.
bool HasFaultEvents(const Scenario& s) {
  for (const ScenarioEvent& ev : s.events) {
    switch (ev.kind) {
      case ScenarioEvent::Kind::kSwitchDown:
      case ScenarioEvent::Kind::kSwitchUp:
      case ScenarioEvent::Kind::kNicDown:
      case ScenarioEvent::Kind::kNicUp:
      case ScenarioEvent::Kind::kCorrupt:
        return true;
      case ScenarioEvent::Kind::kLinkDown:
      case ScenarioEvent::Kind::kLinkUp:
      case ScenarioEvent::Kind::kIncast:
      case ScenarioEvent::Kind::kLoadPhase:
        break;
    }
  }
  return false;
}

uint64_t FabricSignature(const Scenario& s) {
  return core::Fnv1a64(TopologyToJson(s.config).Dump());
}

uint64_t WarmFingerprint(const Scenario& s) {
  Json doc = ScenarioToJson(s);
  if (!s.events.empty()) {
    Json evs = Json::MakeArray();
    for (const ScenarioEvent& ev : s.events) {
      // Post-checkpoint link/incast events only contribute their install-time
      // schedule draws to the pre-T prefix, which depend on the event's type
      // and position alone — reduce them to a bare type marker so grid
      // points differing only in their parameters share one checkpoint.
      // Load phases stay verbatim at any time: a phase event's time closes
      // the previous phase's generation window, wherever it sits. Fault
      // events (switch/NIC/corrupt) also stay verbatim — their scenarios run
      // cold (HasFaultEvents), so the fingerprint only needs to keep them
      // distinct, not reduced.
      if ((ev.kind == ScenarioEvent::Kind::kLinkDown ||
           ev.kind == ScenarioEvent::Kind::kLinkUp ||
           ev.kind == ScenarioEvent::Kind::kIncast) &&
          ev.at >= s.warm_until) {
        Json e = Json::MakeObject();
        e.Set("type",
              Json::MakeString(ev.kind == ScenarioEvent::Kind::kIncast
                                   ? "incast"
                                   : ev.kind == ScenarioEvent::Kind::kLinkDown
                                         ? "link_down"
                                         : "link_up"));
        evs.Append(std::move(e));
      } else {
        evs.Append(EventToJson(ev));
      }
    }
    doc.Set("events", std::move(evs));
  }
  return core::Fnv1a64(doc.Dump());
}

runner::ExperimentConfig MakeExperimentConfig(const Scenario& s) {
  runner::ExperimentConfig cfg = s.config;
  for (const ScenarioEvent& ev : s.events) {
    if (ev.kind == ScenarioEvent::Kind::kLoadPhase) {
      // Phase generators (including phase 0) are owned by InstallEvents.
      cfg.load = 0;
      break;
    }
  }
  return cfg;
}

InstalledEvents InstallEvents(runner::Experiment& e, const Scenario& s) {
  InstalledEvents out;
  topo::Topology& topology = e.topology();
  // Every generator is replicated in every lane (same seeds, all hosts, the
  // lane's own event arena); AddFlowOnLane keeps only the flows a lane owns
  // while consuming its flow-id counter for the rest, so ids and draws match
  // the shards=1 run exactly. The inner per-lane loops preserve the one-lane
  // install order within each lane.
  const int shards = e.shards();
  const size_t num_links = topology.links().size();
  const size_t num_hosts = e.hosts().size();

  // Load phases, in time order. Phase 0 is the configured workload.load
  // starting at t=0; each load_phase event ends the previous phase.
  struct Phase {
    sim::TimePs start;
    double load;
  };
  std::vector<Phase> phases;
  size_t incast_index = 0;
  size_t corrupt_index = 0;
  for (const ScenarioEvent& ev : s.events) {
    switch (ev.kind) {
      case ScenarioEvent::Kind::kLinkDown:
      case ScenarioEvent::Kind::kLinkUp: {
        if (ev.link >= num_links) {
          throw ScenarioError("event link index " + std::to_string(ev.link) +
                              " out of range (topology has " +
                              std::to_string(num_links) + " links)");
        }
        e.InstallLinkEvent(ev.at, ev.link,
                           ev.kind == ScenarioEvent::Kind::kLinkUp);
        break;
      }
      case ScenarioEvent::Kind::kIncast: {
        workload::IncastOptions io = ev.incast;
        if (static_cast<size_t>(io.fan_in) >= num_hosts) {
          throw ScenarioError("incast fan_in " + std::to_string(io.fan_in) +
                              " needs more hosts than the topology's " +
                              std::to_string(num_hosts));
        }
        if (io.fixed_receiver >= 0 &&
            static_cast<size_t>(io.fixed_receiver) >= num_hosts) {
          throw ScenarioError("incast receiver index out of range");
        }
        io.first_event = ev.at;
        io.period = 0;  // one-shot
        // Mix, don't add: affine derivation collided across (seed, index)
        // pairs (seed 1/index 31 == seed 2/index 0). Streams 1000+ are
        // incast events; 2000+ are load phases; 3000+ are corruption
        // windows; 7 is the workload incast.
        io.seed = core::DeriveSeed(s.config.seed, 1000 + incast_index++);
        for (int lane = 0; lane < shards; ++lane) {
          const workload::FlowClass fc = io.flow_class;
          workload::FlowSink sink = [&e, lane, fc](uint32_t src, uint32_t dst,
                                                   uint64_t size,
                                                   sim::TimePs start) {
            e.AddWorkloadFlow(fc, lane, src, dst, size, start);
          };
          auto gen = std::make_unique<workload::IncastGenerator>(
              &e.lane_simulator(lane), e.hosts(), io, std::move(sink));
          gen->Start();
          out.bursts.push_back(std::move(gen));
        }
        break;
      }
      case ScenarioEvent::Kind::kLoadPhase:
        phases.push_back(Phase{ev.at, ev.load});
        break;
      case ScenarioEvent::Kind::kSwitchDown:
      case ScenarioEvent::Kind::kSwitchUp:
      case ScenarioEvent::Kind::kNicDown:
      case ScenarioEvent::Kind::kNicUp: {
        // Node faults expand to per-link events over the node's attached
        // links, in ascending link order — exactly the script a hand-written
        // link_down/link_up sequence would install, so determinism, sharding
        // (coordinator barriers) and the equivalence tests all get the
        // composed behavior for free.
        const bool is_switch = ev.kind == ScenarioEvent::Kind::kSwitchDown ||
                               ev.kind == ScenarioEvent::Kind::kSwitchUp;
        const bool up = ev.kind == ScenarioEvent::Kind::kSwitchUp ||
                        ev.kind == ScenarioEvent::Kind::kNicUp;
        uint32_t node_id = 0;
        if (is_switch) {
          const std::vector<uint32_t>& switches = topology.switches();
          if (ev.node >= switches.size()) {
            throw ScenarioError("event switch index " +
                                std::to_string(ev.node) +
                                " out of range (topology has " +
                                std::to_string(switches.size()) +
                                " switches)");
          }
          node_id = switches[ev.node];
        } else {
          if (ev.node >= num_hosts) {
            throw ScenarioError("event host index " + std::to_string(ev.node) +
                                " out of range (topology has " +
                                std::to_string(num_hosts) + " hosts)");
          }
          node_id = e.hosts()[ev.node];
        }
        for (size_t li = 0; li < num_links; ++li) {
          const topo::LinkSpec& L = topology.links()[li];
          if (L.a == node_id || L.b == node_id) {
            e.InstallLinkEvent(ev.at, li, up);
          }
        }
        break;
      }
      case ScenarioEvent::Kind::kCorrupt: {
        if (ev.link >= num_links) {
          throw ScenarioError("corrupt link index " + std::to_string(ev.link) +
                              " out of range (topology has " +
                              std::to_string(num_links) + " links)");
        }
        const topo::LinkSpec& L = topology.links()[ev.link];
        // BER scaled to the full 64-bit draw range; guard the cast against
        // rounding up to exactly 2^64 for ber -> 1.
        const double scaled = ev.ber * 18446744073709551616.0;
        const uint64_t threshold = scaled >= 18446744073709551615.0
                                       ? std::numeric_limits<uint64_t>::max()
                                       : static_cast<uint64_t>(scaled);
        // One seed stream per (event, direction): delivery order on each
        // receiving port is deterministic, so the drop pattern is pinned
        // across engines, shard counts and job counts.
        const uint64_t ev_seed =
            core::DeriveSeed(s.config.seed, 3000 + corrupt_index++);
        topology.node(L.b).AddCorruptWindow(L.port_b, ev.at, ev.until,
                                            threshold,
                                            core::DeriveSeed(ev_seed, 0));
        topology.node(L.a).AddCorruptWindow(L.port_a, ev.at, ev.until,
                                            threshold,
                                            core::DeriveSeed(ev_seed, 1));
        break;
      }
    }
  }

  if (!phases.empty()) {
    std::stable_sort(phases.begin(), phases.end(),
                     [](const Phase& a, const Phase& b) {
                       return a.start < b.start;
                     });
    phases.insert(phases.begin(), Phase{0, s.config.load});

    // Aggregate NIC rate of one host (testbed hosts are dual-homed), matching
    // the Experiment's own load accounting.
    const host::HostNode& h0 = topology.host(e.hosts().front());
    int64_t host_bps = 0;
    for (int p = 0; p < h0.num_ports(); ++p) {
      host_bps += h0.port(p).bandwidth_bps();
    }
    const workload::SizeCdf cdf = s.config.trace == "fbhadoop"
                                      ? workload::SizeCdf::FbHadoop()
                                      : workload::SizeCdf::WebSearch();
    // max_flows caps the whole background workload, not each phase — same
    // meaning as in a phase-less scenario. One counter per lane, shared
    // across that lane's phase sinks (phases run sequentially in sim time);
    // every lane replays the same draws, so the counters advance in lockstep
    // and the cap cuts at the same flow in every lane.
    for (int lane = 0; lane < shards; ++lane) {
      out.background_flows.push_back(std::make_shared<uint64_t>(0));
    }
    const std::vector<std::shared_ptr<uint64_t>>& background_flows =
        out.background_flows;
    const uint64_t max_flows = s.config.max_flows;
    for (size_t i = 0; i < phases.size(); ++i) {
      const sim::TimePs end =
          i + 1 < phases.size() ? phases[i + 1].start : s.config.duration;
      if (phases[i].load <= 0 || phases[i].start >= end) continue;
      workload::PoissonOptions po;
      po.load = phases[i].load;
      po.host_bps = host_bps;
      po.start = phases[i].start;
      po.end = std::min(end, s.config.duration);
      po.max_flows = max_flows;  // per-generator bound; sink enforces global
      po.seed = core::DeriveSeed(s.config.seed, 2000 + i);
      for (int lane = 0; lane < shards; ++lane) {
        // Phase flows ride the workload's configured engine class, exactly
        // like the phase-less background generator would.
        const workload::FlowClass fc = s.config.flow_class;
        workload::FlowSink sink = [&e, lane, fc,
                                   counter = background_flows[lane],
                                   max_flows](uint32_t src, uint32_t dst,
                                              uint64_t size,
                                              sim::TimePs start) {
          if (max_flows > 0 && *counter >= max_flows) return;
          ++*counter;
          e.AddWorkloadFlow(fc, lane, src, dst, size, start);
        };
        auto gen = std::make_unique<workload::PoissonGenerator>(
            &e.lane_simulator(lane), e.hosts(), cdf, po, std::move(sink));
        gen->Start();
        out.phases.push_back(std::move(gen));
      }
    }
  }
  return out;
}

}  // namespace hpcc::scenario
