#include "obs/trace_export.h"

#include <algorithm>
#include <map>
#include <utility>

#include "host/flow.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "scenario/json.h"
#include "scenario/scenario.h"
#include "sim/time.h"
#include "stats/pfc_monitor.h"
#include "topo/topology.h"

namespace hpcc::obs {
namespace {

// JSON string literal (quoted + escaped) via the scenario Json dumper.
std::string JStr(const std::string& s) {
  return scenario::Json::MakeString(s).Dump();
}
// Shortest-roundtrip number, same formatter the scenario dumper uses, so
// the trace inherits its byte-determinism.
std::string Num(double v) { return scenario::FormatNumber(v); }
// Trace timestamps are microseconds (the trace-event convention).
std::string TsUs(sim::TimePs t) { return Num(sim::ToUs(t)); }

// Accumulates the traceEvents array with deterministic separators.
struct Writer {
  std::string buf;
  bool first = true;
  void Add(std::string event) {
    buf += first ? "\n  " : ",\n  ";
    first = false;
    buf += event;
  }
};

std::string ProcessName(int pid, const std::string& name) {
  return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":" + JStr(name) + "}}";
}

std::string ProcessSortIndex(int pid) {
  return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":" +
         std::to_string(pid) + "}}";
}

std::string ThreadName(int pid, int tid, const std::string& name) {
  return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" + JStr(name) + "}}";
}

std::string Instant(int pid, int tid, sim::TimePs at, const std::string& name,
                    const std::string& args_json = "") {
  std::string e = "{\"name\":" + JStr(name) +
                  ",\"ph\":\"i\",\"s\":\"g\",\"pid\":" + std::to_string(pid) +
                  ",\"tid\":" + std::to_string(tid) + ",\"ts\":" + TsUs(at);
  if (!args_json.empty()) e += ",\"args\":" + args_json;
  return e + "}";
}

// Size-binned lane so thousands of flows share three async tracks.
const char* FlowLane(uint64_t bytes) {
  if (bytes <= 100'000) return "short flows (<=100kB)";
  if (bytes <= 1'000'000) return "mid flows (<=1MB)";
  return "long flows (>1MB)";
}

void CounterTrack(Writer& w, int pid, const TelemetryTrack& track) {
  const std::string head = "{\"name\":" + JStr(track.name) +
                           ",\"ph\":\"C\",\"pid\":" + std::to_string(pid) +
                           ",\"tid\":0,\"ts\":";
  const std::string tail = ",\"u\":\"" + track.unit + "\",\"args\":{\"" +
                           track.unit + "\":";
  for (const auto& [t, v] : track.series.points()) {
    w.Add(head + TsUs(t) + tail + Num(v) + "}}");
  }
}

}  // namespace

std::string BuildTraceJson(const TraceExportInputs& in) {
  runner::Experiment& e = *in.experiment;
  const runner::ExperimentResult& result = *in.result;
  const sim::TimePs sim_end = result.sim_time;
  const std::string& scheme = e.config().cc.scheme;

  Writer w;
  w.Add(ProcessName(1, "scenario"));
  w.Add(ProcessName(2, "flows"));
  w.Add(ProcessName(3, "pfc"));
  w.Add(ProcessName(4, "queues"));
  w.Add(ProcessName(5, "rates"));
  for (int pid = 1; pid <= 5; ++pid) w.Add(ProcessSortIndex(pid));
  w.Add(ThreadName(1, 0, "script"));
  w.Add(ThreadName(1, 1, "violations"));

  // -- pid 1: scenario script events + violations -------------------------
  if (in.events) {
    for (const scenario::ScenarioEvent& ev : *in.events) {
      std::string name;
      switch (ev.kind) {
        case scenario::ScenarioEvent::Kind::kLinkDown:
          name = "link_down " + std::to_string(ev.link);
          break;
        case scenario::ScenarioEvent::Kind::kLinkUp:
          name = "link_up " + std::to_string(ev.link);
          break;
        case scenario::ScenarioEvent::Kind::kIncast:
          name = "incast " + std::to_string(ev.incast.fan_in) + "x" +
                 std::to_string(ev.incast.flow_bytes) + "B";
          break;
        case scenario::ScenarioEvent::Kind::kLoadPhase:
          name = "load " + Num(ev.load);
          break;
        case scenario::ScenarioEvent::Kind::kSwitchDown:
          name = "switch_down " + std::to_string(ev.node);
          break;
        case scenario::ScenarioEvent::Kind::kSwitchUp:
          name = "switch_up " + std::to_string(ev.node);
          break;
        case scenario::ScenarioEvent::Kind::kNicDown:
          name = "nic_down " + std::to_string(ev.node);
          break;
        case scenario::ScenarioEvent::Kind::kNicUp:
          name = "nic_up " + std::to_string(ev.node);
          break;
        case scenario::ScenarioEvent::Kind::kCorrupt:
          name = "corrupt " + std::to_string(ev.link) + " ber " + Num(ev.ber);
          break;
      }
      w.Add(Instant(1, 0, ev.at, name));
    }
  }
  if (in.violations) {
    for (const check::Violation& v : *in.violations) {
      w.Add(Instant(1, 1, v.at, "violation: " + v.monitor,
                    "{\"message\":" + JStr(v.message) + "}"));
    }
  }
  w.Add(Instant(1, 0, sim_end, "simulation end"));

  // -- pid 2: flow lifetime spans, id order ------------------------------
  for (const host::Flow* f : e.AllFlows()) {
    const host::FlowSpec& spec = f->spec();
    const std::string id = std::to_string(spec.id);
    const std::string lane = JStr(FlowLane(spec.size_bytes));
    std::string args = "{\"flow\":" + id +
                       ",\"bytes\":" + std::to_string(spec.size_bytes) +
                       ",\"src\":" + std::to_string(spec.src) +
                       ",\"dst\":" + std::to_string(spec.dst) +
                       ",\"scheme\":" + JStr(scheme);
    const sim::TimePs end = f->done ? f->finish_time : sim_end;
    if (f->done) {
      const sim::TimePs ideal =
          e.topology().IdealFct(spec.src, spec.dst, spec.size_bytes);
      args += ",\"fct_us\":" + Num(sim::ToUs(end - spec.start_time));
      if (ideal > 0) {
        args += ",\"slowdown\":" +
                Num(static_cast<double>(end - spec.start_time) /
                    static_cast<double>(ideal));
      }
    } else {
      args += ",\"done\":false";
    }
    args += "}";
    w.Add("{\"name\":" + lane + ",\"cat\":\"flow\",\"ph\":\"b\",\"id\":\"" +
          id + "\",\"pid\":2,\"tid\":0,\"ts\":" + TsUs(spec.start_time) +
          ",\"args\":" + args + "}");
    w.Add("{\"name\":" + lane + ",\"cat\":\"flow\",\"ph\":\"e\",\"id\":\"" +
          id + "\",\"pid\":2,\"tid\":0,\"ts\":" + TsUs(end) + "}");
  }

  // -- pid 3: PFC pause windows, one lane per paused (node, port) ---------
  {
    const std::vector<stats::PfcMonitor::PauseEvent> pauses = e.PauseEvents();
    std::map<std::pair<uint32_t, int>, int> lane;  // (node, port) -> tid
    for (const stats::PfcMonitor::PauseEvent& pe : pauses) {
      if (pe.end < pe.start) continue;
      lane.emplace(std::make_pair(pe.node, pe.port), 0);
    }
    int next_tid = 0;
    for (auto& [key, tid] : lane) {  // std::map: sorted, deterministic
      tid = next_tid++;
      w.Add(ThreadName(3, tid,
                       "sw" + std::to_string(key.first) + " p" +
                           std::to_string(key.second)));
    }
    for (const stats::PfcMonitor::PauseEvent& pe : pauses) {
      if (pe.end < pe.start) continue;
      const int tid = lane.at({pe.node, pe.port});
      const int64_t bps =
          e.topology().node(pe.node).port(pe.port).bandwidth_bps();
      w.Add("{\"name\":\"pause\",\"ph\":\"X\",\"pid\":3,\"tid\":" +
            std::to_string(tid) + ",\"ts\":" + TsUs(pe.start) +
            ",\"dur\":" + TsUs(pe.end - pe.start) +
            ",\"args\":{\"port_gbps\":" + Num(bps / 1e9) +
            ",\"depth\":" + std::to_string(pe.depth) + "}}");
    }
  }

  // -- pid 4/5/6: sampled counter tracks ----------------------------------
  if (in.session) {
    for (const TelemetryTrack& t : in.session->TopQueueTracks()) {
      CounterTrack(w, 4, t);
    }
    for (const TelemetryTrack& t : in.session->FlowTracks()) {
      CounterTrack(w, 5, t);
    }
    const std::vector<TelemetryTrack> int_tracks = in.session->IntTracks();
    if (!int_tracks.empty()) {
      w.Add(ProcessName(6, "int"));
      w.Add(ProcessSortIndex(6));
      for (const TelemetryTrack& t : int_tracks) CounterTrack(w, 6, t);
    }
  }

  return "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":" +
         JStr(in.label) + "},\"traceEvents\":[" + w.buf + "\n]}\n";
}

}  // namespace hpcc::obs
