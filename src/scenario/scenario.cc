#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/hash.h"

namespace hpcc::scenario {
namespace {

constexpr size_t kMaxSweepRuns = 100'000;

// Keys that code outside their block's visit also names.
constexpr char kTypeKey[] = "type";
constexpr char kEventsKey[] = "events";
constexpr char kSweepKey[] = "sweep";

// ---- schema vocabulary ------------------------------------------------------

// Unit conversions between a field and its JSON number. Scaled::FromJson is
// the int64 range guard: casting past int64 is undefined behavior, so absurd
// (but positive-checked) values like an event at 1e300 us must fail loudly
// like every other malformed input; the key then "must be <range>".
struct Plain {
  const char* range = "";
  double ToJson(double v) const { return v; }
  bool FromJson(double v, double& out) const {
    out = v;
    return true;
  }
};
template <class T>
struct Scaled {
  double per_unit;  // field units per JSON unit
  const char* range;
  double ToJson(T v) const { return static_cast<double>(v) / per_unit; }
  bool FromJson(double v, T& out) const {
    const double x = v * per_unit;
    if (!(x > -9.2e18 && x < 9.2e18)) return false;  // just inside 2^63
    out = static_cast<T>(x);
    return true;
  }
};
constexpr char kTimeRange[] = "within the simulator's time range";
constexpr Plain kPlain{};
constexpr Scaled<sim::TimePs> kUs{static_cast<double>(sim::kPsPerUs),
                                  kTimeRange};
constexpr Scaled<sim::TimePs> kMs{static_cast<double>(sim::kPsPerMs),
                                  kTimeRange};
constexpr Scaled<int64_t> kGbps{static_cast<double>(sim::kGbps),
                                "within the representable range"};
constexpr Scaled<uint64_t> kBytes{1, "within the representable range"};

// Admissible range of a number. A value outside it fails as
// `"<key>" in <block> must be <text>`.
struct Rule {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;
  const char* text;
  bool Admits(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Rule kAnyNumber{-kInf, kInf, false, false, "a number"};
constexpr Rule kPositive{0, kInf, true, false, "> 0"};
constexpr Rule kNonNegative{0, kInf, false, false, ">= 0"};
constexpr Rule kLoad{0, 4, false, false, "in [0, 4]"};
constexpr Rule kBer{0, 1, true, true, "in (0, 1)"};
// Integer rules (the JSON value must be integral). The 1,000,000 caps keep
// counts safe to narrow to int; 0 disables a telemetry track family.
constexpr Rule kPositiveInt{1, 1e6, false, false, "a positive integer"};
constexpr Rule kTrackCount{0, 1e6, false, false, "a non-negative integer"};
constexpr Rule kNonNegativeInt{0, kInf, false, false, "a non-negative integer"};
constexpr Rule kShards{1, 64, false, false, "an integer in [1, 64]"};
constexpr Rule kReceiver{-1, 1e6, false, false,
                         "a host index or -1 (random)"};

// Admissible strings: any, non-empty, or one of a list.
struct TextRule {
  bool non_empty = false;
  const std::vector<std::string>* one_of = nullptr;
};
constexpr TextRule kAnyText{};
constexpr TextRule kNonEmpty{.non_empty = true};
TextRule OneOf(const std::vector<std::string>& names) {
  return TextRule{.one_of = &names};
}
const std::vector<std::string> kTraces = {"websearch", "fbhadoop"};

// The JSON names of an enum's values.
template <class E>
struct Named {
  E value;
  const char* name;
};
constexpr Named<runner::TopologyKind> kTopologyKinds[] = {
    {runner::TopologyKind::kFatTree, "fattree"},
    {runner::TopologyKind::kTestbed, "testbed"},
    {runner::TopologyKind::kStar, "star"},
    {runner::TopologyKind::kDumbbell, "dumbbell"}};
constexpr Named<ScenarioEvent::Kind> kEventTypes[] = {
    {ScenarioEvent::Kind::kLinkDown, "link_down"},
    {ScenarioEvent::Kind::kLinkUp, "link_up"},
    {ScenarioEvent::Kind::kIncast, "incast"},
    {ScenarioEvent::Kind::kLoadPhase, "load_phase"},
    {ScenarioEvent::Kind::kSwitchDown, "switch_down"},
    {ScenarioEvent::Kind::kSwitchUp, "switch_up"},
    {ScenarioEvent::Kind::kNicDown, "nic_down"},
    {ScenarioEvent::Kind::kNicUp, "nic_up"},
    {ScenarioEvent::Kind::kCorrupt, "corrupt"}};
constexpr Named<host::RecoveryMode> kRecoveryModes[] = {
    {host::RecoveryMode::kGoBackN, "gbn"}, {host::RecoveryMode::kIrn, "irn"}};
constexpr Named<workload::FlowClass> kFlowClasses[] = {
    {workload::FlowClass::kPacket, "packet"},
    {workload::FlowClass::kFluid, "fluid"}};

template <class E, size_t N>
const char* NameOf(const Named<E> (&names)[N], E value) {
  for (const Named<E>& n : names) {
    if (n.value == value) return n.name;
  }
  return "";
}

// What a key does beyond its rule: `required` makes absence a reader error,
// `write` false makes the writer elide it, and `present` (object keys) is
// set by the reader when the block appears. Any other absent key leaves its
// field at its default.
struct Opt {
  bool required = false;
  bool write = true;
  bool* present = nullptr;
};
constexpr Opt kRequired{.required = true};
constexpr Opt kParseOnly{.write = false};
Opt WriteIf(bool write) { return Opt{.write = write}; }
Opt Presence(bool& flag) { return Opt{.write = flag, .present = &flag}; }

std::vector<SweepAxis> ParseSweep(const Json& sw) {
  const auto scalar = [](const Json& v) {
    return !v.is_array() && !v.is_object();
  };
  std::vector<SweepAxis> axes;
  for (const auto& [key, values] : sw.members()) {
    if (key.empty()) throw ScenarioError("empty sweep key");
    if (!values.is_array() || values.size() == 0 ||
        !std::all_of(values.items().begin(), values.items().end(), scalar)) {
      throw ScenarioError("\"" + key + "\" in " + kSweepKey +
                          " must be a non-empty array of scalars");
    }
    axes.push_back(SweepAxis{key, values.items()});
  }
  return axes;
}

// ---- drivers ----------------------------------------------------------------
//
// A visit declares each key of one block as one call on its driver `io`:
//   io.Num(key, field, unit, rule[, opt])  JSON number, unit-converted
//   io.Int(key, field, rule[, opt])        JSON integer
//   io.Bool(key, field[, opt])
//   io.Str(key, field, text_rule[, opt])
//   io.Enum(key, field, names[, opt])      JSON string naming an enum value
//   io.Select(key, field, names)           required Enum that picks the
//                                          block's variant (topology kind,
//                                          event type)
//   io.Object(key, opt, visit)             nested block
//   io.Array(key, items, visit)            array of blocks
//   io.Sweep(key, axes)                    the free-form sweep grid
// Reader parses and validates, Writer emits the canonical document in visit
// order, and Lister names every key.

// Dotted path of `key` in the block at `path` ("" is the top level).
std::string KeyPath(const std::string& path, const char* key) {
  return path.empty() ? key : path + "." + key;
}

// Reads one JSON object into fields, then rejects the keys it did not read.
class Reader {
 public:
  // `path` is the block's dotted path, empty for the top level.
  Reader(const Json& obj, std::string path)
      : obj_(obj), path_(std::move(path)) {
    if (!obj_.is_object()) throw ScenarioError(path_ + " must be an object");
  }

  template <class T, class U>
  void Num(const char* key, T& field, const U& unit, const Rule& rule,
           Opt opt = {}) {
    Read(key, opt, [&](const Json& v) {
      const double x = v.AsDouble();
      if (!rule.Admits(x)) Fail(key, rule.text);
      if (!unit.FromJson(x, field)) Fail(key, unit.range);
    });
  }

  template <class T>
  void Int(const char* key, T& field, const Rule& rule, Opt opt = {}) {
    Read(key, opt, [&](const Json& v) {
      const int64_t x = v.AsInt();
      if (!rule.Admits(static_cast<double>(x))) Fail(key, rule.text);
      field = static_cast<T>(x);
    });
  }

  void Bool(const char* key, bool& field, Opt opt = {}) {
    Read(key, opt, [&](const Json& v) { field = v.AsBool(); });
  }

  void Str(const char* key, std::string& field, const TextRule& rule,
           Opt opt = {}) {
    Read(key, opt, [&](const Json& v) {
      const std::string& x = v.AsString();
      if (rule.non_empty && x.empty()) Fail(key, "a non-empty string");
      if (rule.one_of != nullptr) {
        std::string alternatives;
        for (const std::string& name : *rule.one_of) {
          if (x == name) {
            field = x;
            return;
          }
          alternatives.append(alternatives.empty() ? "" : "|").append(name);
        }
        Fail(key, alternatives);
      }
      field = x;
    });
  }

  template <class E, size_t N>
  void Enum(const char* key, E& field, const Named<E> (&names)[N],
            Opt opt = {}) {
    Read(key, opt, [&](const Json& v) {
      std::string alternatives;
      for (const Named<E>& n : names) {
        if (v.AsString() == n.name) {
          field = n.value;
          return;
        }
        alternatives.append(alternatives.empty() ? "" : "|").append(n.name);
      }
      Fail(key, alternatives);
    });
  }

  template <class E, size_t N>
  void Select(const char* key, E& field, const Named<E> (&names)[N]) {
    Enum(key, field, names, kRequired);
  }

  template <class Fn>
  void Object(const char* key, Opt opt, Fn visit) {
    if (const Json* v = Take(key, opt)) {
      Reader block(*v, KeyPath(path_, key));
      if (opt.present != nullptr) *opt.present = true;
      visit(block);
      block.Finish();
    }
  }

  template <class T, class Fn>
  void Array(const char* key, std::vector<T>& items, Fn visit) {
    if (const Json* v = Take(key, {})) {
      const std::string path = KeyPath(path_, key);
      if (!v->is_array()) throw ScenarioError(path + " must be an array");
      for (size_t i = 0; i < v->size(); ++i) {
        Reader block(v->at(i), path + "[" + std::to_string(i) + "]");
        T item;
        visit(block, item);
        block.Finish();
        items.push_back(std::move(item));
      }
    }
  }

  void Sweep(const char* key, std::vector<SweepAxis>& axes) {
    if (const Json* v = Take(key, {})) {
      if (!v->is_object()) {
        throw ScenarioError(KeyPath(path_, key) + " must be an object");
      }
      axes = ParseSweep(*v);
    }
  }

  // Every object in the schema rejects unknown keys so typos fail loudly
  // instead of silently running defaults.
  void Finish() const {
    for (const auto& m : obj_.members()) {
      if (std::none_of(read_.begin(), read_.end(),
                       [&](const char* key) { return m.first == key; })) {
        throw ScenarioError("unknown key \"" + m.first + "\" in " + Block());
      }
    }
  }

 private:
  std::string Block() const { return path_.empty() ? "scenario" : path_; }
  std::string Name(const char* key) const {
    return std::string(1, '"').append(key).append("\" in ") + Block();
  }
  [[noreturn]] void Fail(const char* key, const std::string& rule) const {
    throw ScenarioError(Name(key) + " must be " + rule);
  }

  const Json* Take(const char* key, const Opt& opt) {
    read_.push_back(key);
    const Json* v = obj_.Find(key);
    if (v == nullptr && opt.required) {
      throw ScenarioError(std::string("missing required key \"") + key +
                          "\" in " + Block());
    }
    return v;
  }

  // Reads `key` when present. Type mismatches stay JsonError, now naming
  // the key and block.
  template <class F>
  void Read(const char* key, const Opt& opt, F read) {
    if (const Json* v = Take(key, opt)) {
      try {
        read(*v);
      } catch (const JsonError& e) {
        throw JsonError(Name(key) + ": " + e.what());
      }
    }
  }

  const Json& obj_;
  std::string path_;
  std::vector<const char*> read_;
};

// Emits the canonical document: every key in visit order, minus the elided.
class Writer {
 public:
  Json out = Json::MakeObject();

  template <class T, class U>
  void Num(const char* key, const T& field, const U& unit, const Rule&,
           Opt opt = {}) {
    if (opt.write) out.Set(key, Json::MakeNumber(unit.ToJson(field)));
  }
  template <class T>
  void Int(const char* key, const T& field, const Rule&, Opt opt = {}) {
    if (opt.write) out.Set(key, Json::MakeNumber(static_cast<double>(field)));
  }
  void Bool(const char* key, bool field, Opt opt = {}) {
    if (opt.write) out.Set(key, Json::MakeBool(field));
  }
  void Str(const char* key, const std::string& field, const TextRule&,
           Opt opt = {}) {
    if (opt.write) out.Set(key, Json::MakeString(field));
  }
  template <class E, size_t N>
  void Enum(const char* key, E field, const Named<E> (&names)[N],
            Opt opt = {}) {
    if (opt.write) out.Set(key, Json::MakeString(NameOf(names, field)));
  }
  template <class E, size_t N>
  void Select(const char* key, E field, const Named<E> (&names)[N]) {
    Enum(key, field, names);
  }
  template <class Fn>
  void Object(const char* key, Opt opt, Fn visit) {
    if (!opt.write) return;
    Writer block;
    visit(block);
    out.Set(key, std::move(block.out));
  }
  template <class T, class Fn>
  void Array(const char* key, std::vector<T>& items, Fn visit) {
    if (items.empty()) return;
    Json array = Json::MakeArray();
    for (T& item : items) {
      Writer block;
      visit(block, item);
      array.Append(std::move(block.out));
    }
    out.Set(key, std::move(array));
  }
  void Sweep(const char* key, const std::vector<SweepAxis>& axes) {
    if (axes.empty()) return;
    Json sw = Json::MakeObject();
    for (const SweepAxis& axis : axes) {
      Json values = Json::MakeArray();
      for (const Json& v : axis.values) values.Append(v);
      sw.Set(axis.key, std::move(values));
    }
    out.Set(key, std::move(sw));
  }
};

// Names every key as a dotted path. A block with a Select is listed once per
// variant, as "block[variant]".
class Lister {
 public:
  explicit Lister(std::string path, int variant = -1)
      : path_(std::move(path)), variant_(variant) {}

  std::vector<std::string> keys;

  template <class... A>
  void Num(const char* key, A&&...) { Add(key); }
  template <class... A>
  void Int(const char* key, A&&...) { Add(key); }
  template <class... A>
  void Bool(const char* key, A&&...) { Add(key); }
  template <class... A>
  void Str(const char* key, A&&...) { Add(key); }
  template <class... A>
  void Enum(const char* key, A&&...) { Add(key); }
  template <class... A>
  void Sweep(const char* key, A&&...) { Add(key); }

  template <class E, size_t N>
  void Select(const char* key, E& field, const Named<E> (&names)[N]) {
    Add(key);
    if (variant_ >= 0) {
      field = names[variant_].value;
    } else {
      for (const Named<E>& n : names) variants_.emplace_back(n.name);
    }
  }
  template <class Fn>
  void Object(const char* key, Opt, Fn visit) {
    Add(key);
    Nested(KeyPath(path_, key), visit);
  }
  template <class T, class Fn>
  void Array(const char* key, std::vector<T>&, Fn visit) {
    Add(key);
    Nested(KeyPath(path_, key), [&](Lister& block) {
      T item;
      visit(block, item);
    });
  }

 private:
  void Add(const char* key) { keys.push_back(KeyPath(path_, key)); }

  template <class Fn>
  void Nested(const std::string& path, Fn visit) {
    Lister probe(path);
    visit(probe);
    if (probe.variants_.empty()) {
      keys.insert(keys.end(), probe.keys.begin(), probe.keys.end());
      return;
    }
    for (size_t i = 0; i < probe.variants_.size(); ++i) {
      Lister one(path + "[" + probe.variants_[i] + "]", static_cast<int>(i));
      visit(one);
      keys.insert(keys.end(), one.keys.begin(), one.keys.end());
    }
  }

  std::string path_;
  int variant_;
  std::vector<std::string> variants_;
};

// ---- the schema: one visit per block ---------------------------------------

template <class Io>
void VisitFatTree(Io& io, topo::FatTreeOptions& o) {
  // Parse-only: loads the §5.1 instance, which the keys below then override.
  bool paper_scale = false;
  io.Bool("paper_scale", paper_scale, kParseOnly);
  if (paper_scale) o = topo::FatTreeOptions::PaperScale();
  io.Int("pods", o.pods, kPositiveInt);
  io.Int("tors_per_pod", o.tors_per_pod, kPositiveInt);
  io.Int("aggs_per_pod", o.aggs_per_pod, kPositiveInt);
  io.Int("cores_per_agg", o.cores_per_agg, kPositiveInt);
  io.Int("hosts_per_tor", o.hosts_per_tor, kPositiveInt);
  io.Num("host_gbps", o.host_bps, kGbps, kPositive);
  io.Num("fabric_gbps", o.fabric_bps, kGbps, kPositive);
  io.Num("link_delay_us", o.link_delay, kUs, kPositive);
}

template <class Io>
void VisitTestbed(Io& io, topo::TestbedOptions& o) {
  io.Int("servers_per_pair", o.servers_per_pair, kPositiveInt);
  io.Num("host_gbps", o.host_bps, kGbps, kPositive);
  io.Num("fabric_gbps", o.fabric_bps, kGbps, kPositive);
  io.Num("link_delay_us", o.link_delay, kUs, kPositive);
}

template <class Io>
void VisitStar(Io& io, topo::StarOptions& o) {
  io.Int("hosts", o.num_hosts, kPositiveInt);
  io.Num("host_gbps", o.host_bps, kGbps, kPositive);
  io.Num("link_delay_us", o.link_delay, kUs, kPositive);
}

template <class Io>
void VisitDumbbell(Io& io, topo::DumbbellOptions& o) {
  io.Int("hosts_per_side", o.hosts_per_side, kPositiveInt);
  io.Num("host_gbps", o.host_bps, kGbps, kPositive);
  io.Num("trunk_gbps", o.trunk_bps, kGbps, kPositive);
  io.Num("link_delay_us", o.link_delay, kUs, kPositive);
}

template <class Io>
void VisitTopology(Io& io, runner::ExperimentConfig& c) {
  io.Select("kind", c.topology, kTopologyKinds);
  switch (c.topology) {
    case runner::TopologyKind::kFatTree:
      return VisitFatTree(io, c.fattree);
    case runner::TopologyKind::kTestbed:
      return VisitTestbed(io, c.testbed);
    case runner::TopologyKind::kStar:
      return VisitStar(io, c.star);
    case runner::TopologyKind::kDumbbell:
      return VisitDumbbell(io, c.dumbbell);
  }
}

template <class Io>
void VisitCc(Io& io, cc::CcConfig& c) {
  io.Str("scheme", c.scheme, OneOf(cc::AllSchemes()));
  io.Num("eta", c.hpcc.eta, kPlain, kPositive);
  io.Num("wai_bytes", c.hpcc.wai_bytes, kPlain, kAnyNumber);
  io.Int("max_stage", c.hpcc.max_stage, kPositiveInt);
  io.Int("expected_flows", c.hpcc.expected_flows, kPositiveInt);
  io.Num("alpha_fair", c.alpha_fair, kPlain, kPositive);
}

// The incast keys shared by "workload.incast" and incast events. Events
// leave out the schedule: their time is the event's own.
template <class Io>
void VisitIncast(Io& io, workload::IncastOptions& o, bool schedule) {
  io.Int("fan_in", o.fan_in, kPositiveInt);
  io.Num("flow_bytes", o.flow_bytes, kBytes, kPositive);
  if (schedule) {
    io.Num("first_event_us", o.first_event, kUs, kPositive);
    io.Num("period_us", o.period, kUs, kNonNegative);
  }
  io.Int("receiver", o.fixed_receiver, kReceiver);
  // The burst's own engine class, independent of the background's.
  io.Enum("flow_class", o.flow_class, kFlowClasses,
          WriteIf(o.flow_class != workload::FlowClass::kPacket));
}

template <class Io>
void VisitWorkload(Io& io, runner::ExperimentConfig& c) {
  io.Num("load", c.load, kPlain, kLoad);
  io.Str("trace", c.trace, OneOf(kTraces));
  io.Int("max_flows", c.max_flows, kNonNegativeInt);
  // Engine class of the background flows: the Poisson generator, trace
  // replay and load phases. Fluid requires the top-level hybrid block.
  io.Enum("flow_class", c.flow_class, kFlowClasses,
          WriteIf(c.flow_class != workload::FlowClass::kPacket));
  // CSV flow-trace replay (workload/trace_replay.h), relative to the CWD.
  io.Str("trace_file", c.trace_file, kAnyText, WriteIf(!c.trace_file.empty()));
  io.Object("incast", Presence(c.incast), [&](auto& block) {
    VisitIncast(block, c.incast_opts, /*schedule=*/true);
  });
}

template <class Io>
void VisitEvent(Io& io, ScenarioEvent& ev) {
  using Kind = ScenarioEvent::Kind;
  io.Select(kTypeKey, ev.kind, kEventTypes);
  io.Num("at_us", ev.at, kUs, kNonNegative, kRequired);
  switch (ev.kind) {
    case Kind::kLinkDown:
    case Kind::kLinkUp:
      io.Int("link", ev.link, kNonNegativeInt, kRequired);
      break;
    case Kind::kIncast:
      VisitIncast(io, ev.incast, /*schedule=*/false);
      break;
    case Kind::kLoadPhase:
      io.Num("load", ev.load, kPlain, kLoad, kRequired);
      break;
    case Kind::kSwitchDown:
    case Kind::kSwitchUp:
      io.Int("switch", ev.node, kNonNegativeInt, kRequired);
      break;
    case Kind::kNicDown:
    case Kind::kNicUp:
      io.Int("host", ev.node, kNonNegativeInt, kRequired);
      break;
    case Kind::kCorrupt:
      io.Int("link", ev.link, kNonNegativeInt, kRequired);
      io.Num("ber", ev.ber, kPlain, kBer, kRequired);
      io.Num("until_us", ev.until, kUs, kAnyNumber, kRequired);
      break;
  }
}

template <class Io>
void VisitTelemetry(Io& io, obs::TelemetryConfig& t) {
  io.Bool("manifest", t.manifest);
  io.Bool("trace", t.trace);
  io.Bool("profile", t.profile);
  io.Int("queue_tracks", t.queue_tracks, kTrackCount);
  io.Int("queue_track_points", t.queue_track_points, kPositiveInt);
  io.Num("queue_sample_us", t.queue_sample_us, kPlain, kPositive);
  io.Int("flow_tracks", t.flow_tracks, kTrackCount);
  io.Int("flow_track_points", t.flow_track_points, kPositiveInt);
  io.Num("flow_sample_us", t.flow_sample_us, kPlain, kPositive);
  io.Int("int_tracks", t.int_tracks, kTrackCount);
  io.Int("int_track_points", t.int_track_points, kPositiveInt);
}

template <class Io>
void VisitScenario(Io& io, Scenario& s) {
  runner::ExperimentConfig& c = s.config;
  io.Str("name", s.name, kNonEmpty);
  io.Str("description", s.description, kAnyText,
         WriteIf(!s.description.empty()));
  io.Object("topology", kRequired,
            [&](auto& block) { VisitTopology(block, c); });
  io.Object("cc", {}, [&](auto& block) { VisitCc(block, c.cc); });
  io.Object("workload", {}, [&](auto& block) { VisitWorkload(block, c); });
  io.Num("duration_ms", c.duration, kMs, kPositive);
  io.Num("drain_factor", c.drain_factor, kPlain, kPositive);
  io.Int("seed", c.seed, kNonNegativeInt);
  // Execution sharding (conservative PDES). Results are pinned byte-equal
  // to shards=1, so this is a performance knob, not a semantic one.
  io.Int("shards", c.shards, kShards, WriteIf(c.shards != 1));
  io.Bool("pfc", c.pfc_enabled);
  io.Bool("fastpath", c.fast_path);
  io.Enum("recovery", c.recovery, kRecoveryModes);
  io.Int("int_sample_every", c.int_sample_every, kPositiveInt);
  io.Int("short_flow_bytes", c.short_flow_bytes, kNonNegativeInt);
  io.Object("telemetry", WriteIf(!(s.telemetry == obs::TelemetryConfig{})),
            [&](auto& block) { VisitTelemetry(block, s.telemetry); });
  io.Object("warm_start", WriteIf(s.warm_until > 0), [&](auto& block) {
    block.Num("until_us", s.warm_until, kUs, kPositive, kRequired);
  });
  io.Num("deadline_s", s.deadline_s, kPlain, kPositive,
         WriteIf(s.deadline_s > 0));
  // Hybrid fluid/packet co-simulation: the block's presence enables the
  // fluid engine; tick_us is its round period (default one MaxBaseRtt).
  io.Object("hybrid", Presence(c.hybrid.enabled), [&](auto& block) {
    block.Num("tick_us", c.hybrid.tick, kUs, kPositive,
              WriteIf(c.hybrid.tick > 0));
  });
  io.Array(kEventsKey, s.events, VisitEvent<Io>);
  io.Sweep(kSweepKey, s.sweep);
}

// Canonical JSON of one block. Visits take mutable references because the
// reader fills them; the writer only reads through them.
template <class T>
Json Write(void (*visit)(Writer&, T&), const T& value) {
  Writer io;
  visit(io, const_cast<T&>(value));
  return std::move(io.out);
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

std::string ValueText(const Json& v) {
  return v.is_string() ? v.AsString() : v.Dump();
}

}  // namespace

Scenario ParseScenario(const Json& doc) {
  if (!doc.is_object()) {
    throw ScenarioError("scenario document must be a JSON object");
  }
  Scenario s;
  s.source = doc;
  Reader io(doc, "");
  VisitScenario(io, s);
  io.Finish();

  // Cross-field checks.
  const runner::ExperimentConfig& c = s.config;
  if (c.incast) {
    const int hosts = NumHosts(c);
    if (c.incast_opts.fan_in >= hosts) {
      throw ScenarioError("workload.incast.fan_in " +
                          std::to_string(c.incast_opts.fan_in) +
                          " needs more hosts than the topology's " +
                          std::to_string(hosts));
    }
    if (c.incast_opts.fixed_receiver >= hosts) {
      throw ScenarioError("workload.incast.receiver index out of range");
    }
  }
  if (c.hybrid.enabled) {
    if (c.shards != 1) throw ScenarioError("hybrid requires shards = 1");
    if (!cc::SchemeUsesInt(c.cc.scheme)) {
      throw ScenarioError(
          "hybrid fluid coupling needs an INT-carrying cc.scheme (the fluid "
          "engine injects congestion state through INT stamps)");
    }
  }
  bool fluid = c.flow_class == workload::FlowClass::kFluid ||
               (c.incast &&
                c.incast_opts.flow_class == workload::FlowClass::kFluid);
  for (size_t i = 0; i < s.events.size(); ++i) {
    ScenarioEvent& ev = s.events[i];
    if (ev.kind == ScenarioEvent::Kind::kIncast) {
      // The event time is authoritative; fold it into the one-shot
      // generator.
      ev.incast.first_event = ev.at;
      ev.incast.period = 0;
      fluid = fluid || ev.incast.flow_class == workload::FlowClass::kFluid;
    }
    if (ev.kind == ScenarioEvent::Kind::kCorrupt && ev.until <= ev.at) {
      throw ScenarioError("events[" + std::to_string(i) +
                          "].until_us must be > at_us");
    }
  }
  if (fluid && !c.hybrid.enabled) {
    throw ScenarioError(
        "flow_class \"fluid\" requires the top-level \"hybrid\" block");
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

Json ScenarioToJson(const Scenario& s) {
  return Write(VisitScenario<Writer>, s);
}

Json TelemetryToJson(const obs::TelemetryConfig& t) {
  return Write(VisitTelemetry<Writer>, t);
}

std::vector<std::string> SchemaKeyPaths() {
  Scenario s;
  Lister io("");
  VisitScenario(io, s);
  return io.keys;
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

    ScenarioRun run;
    std::string suffix;
    for (size_t a = 0; a < s.sweep.size(); ++a) {
      const SweepAxis& axis = s.sweep[a];
      const Json& value = axis.values[idx[a]];
      // Short key for the label: last path segment.
      const size_t dot = axis.key.rfind('.');
      const std::string leaf =
          dot == std::string::npos ? axis.key : axis.key.substr(dot + 1);
      if (!suffix.empty()) suffix += ",";
      suffix += leaf + "=" + ValueText(value);
      run.params.emplace_back(axis.key, ValueText(value));
    }
    run.label = s.name + "[" + suffix + "]";
    // Errors name the point they come from, keeping their type.
    try {
      Json doc = s.source;
      doc.Remove(kSweepKey);
      for (size_t a = 0; a < s.sweep.size(); ++a) {
        doc.SetPath(s.sweep[a].key, s.sweep[a].values[idx[a]]);
      }
      run.scenario = ParseScenario(doc);
    } catch (const ScenarioError& e) {
      throw ScenarioError(run.label + ": " + e.what());
    } catch (const JsonError& e) {
      throw JsonError(run.label + ": " + e.what());
    }
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
  return core::Fnv1a64(Write(VisitTopology<Writer>, s.config).Dump());
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
        Json marker = Json::MakeObject();
        marker.Set(kTypeKey, Json::MakeString(NameOf(kEventTypes, ev.kind)));
        evs.Append(std::move(marker));
      } else {
        evs.Append(Write(VisitEvent<Writer>, ev));
      }
    }
    doc.Set(kEventsKey, std::move(evs));
  }
  return core::Fnv1a64(doc.Dump());
}

runner::ExperimentConfig MakeExperimentConfig(const Scenario& s) {
  runner::ExperimentConfig cfg = s.config;
  for (const ScenarioEvent& ev : s.events) {
    if (ev.kind == ScenarioEvent::Kind::kLoadPhase) {
      cfg.load_phases.push_back({ev.at, ev.load});
    }
  }
  std::stable_sort(cfg.load_phases.begin(), cfg.load_phases.end(),
                   [](const runner::ExperimentConfig::LoadPhase& a,
                      const runner::ExperimentConfig::LoadPhase& b) {
                     return a.start < b.start;
                   });
  return cfg;
}

void InstallEvents(runner::Experiment& e, const Scenario& s) {
  topo::Topology& topology = e.topology();
  const size_t num_links = topology.links().size();
  const size_t num_hosts = e.hosts().size();
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
        e.AddIncastBurst(io);
        break;
      }
      case ScenarioEvent::Kind::kLoadPhase:
        break;  // MakeExperimentConfig hands the phases to the Experiment
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
}

}  // namespace hpcc::scenario
