#include "obs/telemetry.h"

#include <algorithm>

#include "core/int_header.h"
#include "host/flow.h"
#include "net/packet.h"
#include "net/switch_node.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hpcc::obs {

const char* DropReasonToken(check::DropReason reason) {
  switch (reason) {
    case check::DropReason::kNoRoute: return "no_route";
    case check::DropReason::kBufferFull: return "buffer_full";
    case check::DropReason::kEgressThreshold: return "egress_threshold";
    case check::DropReason::kCorrupt: return "corrupt";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TelemetryRecorder

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig& cfg) : cfg_(cfg) {
  const int n = (cfg.trace && cfg.int_tracks > 0) ? cfg.int_tracks : 0;
  int_qlen_.resize(n);
  int_util_.resize(n);
  for (int i = 0; i < n; ++i) {
    const std::string id = std::to_string(i + 1);
    int_qlen_[i].name = "int f" + id + " qlen";
    int_qlen_[i].unit = "kB";
    int_qlen_[i].series.set_max_points(cfg.int_track_points);
    int_util_[i].name = "int f" + id + " util";
    int_util_[i].unit = "frac";
    int_util_[i].series.set_max_points(cfg.int_track_points);
  }
  hop_state_.resize(static_cast<size_t>(n) * core::kMaxIntHops);
}

unsigned TelemetryRecorder::interests() const {
  return kEnqueue | kDequeue | kPause | kCcUpdate | kIntEcho;
}

void TelemetryRecorder::OnEnqueue(uint32_t, int, const net::Packet& pkt,
                                  int64_t) {
  ++counters_.enqueued_packets;
  counters_.enqueued_bytes += pkt.size_bytes();
}

void TelemetryRecorder::OnDequeue(uint32_t, int, const net::Packet& pkt,
                                  int64_t) {
  ++counters_.dequeued_packets;
  counters_.dequeued_bytes += pkt.size_bytes();
}

void TelemetryRecorder::OnDequeueBurst(uint32_t, int,
                                       const check::DequeueRecord* recs,
                                       size_t n) {
  counters_.dequeued_packets += n;
  for (size_t i = 0; i < n; ++i) {
    counters_.dequeued_bytes += recs[i].pkt->size_bytes();
  }
}

void TelemetryRecorder::OnPauseChange(uint32_t, int, int, bool paused,
                                      sim::TimePs) {
  if (paused) {
    ++counters_.pause_on;
  } else {
    ++counters_.pause_off;
  }
}

void TelemetryRecorder::OnCcUpdate(uint64_t, int64_t, int64_t, sim::TimePs) {
  ++counters_.cc_updates;
}

void TelemetryRecorder::OnIntEcho(uint64_t flow_id, const core::IntStack& stack,
                                  sim::TimePs now) {
  ++counters_.int_echoes;
  if (int_qlen_.empty()) return;
  // Flow ids are assigned 1.. in creation order, so ids 1..int_tracks are
  // the first flows — a stable flight-recorder selection.
  if (flow_id < 1 || flow_id > int_qlen_.size()) return;
  const size_t idx = static_cast<size_t>(flow_id - 1);
  int64_t max_qlen = 0;
  double max_util = 0;
  bool have_util = false;
  for (int h = 0; h < stack.n_hops(); ++h) {
    const core::IntHop& hop = stack.hop(h);
    max_qlen = std::max(max_qlen, hop.qlen_bytes);
    HopState& hs = hop_state_[idx * core::kMaxIntHops + h];
    if (hs.ts >= 0 && hop.ts > hs.ts && hop.tx_bytes >= hs.tx_bytes &&
        hop.bandwidth_bps > 0) {
      const double dt = sim::ToSec(hop.ts - hs.ts);
      const double bps =
          static_cast<double>(hop.tx_bytes - hs.tx_bytes) * 8.0 / dt;
      max_util = std::max(max_util, bps / hop.bandwidth_bps);
      have_util = true;
    }
    hs.ts = hop.ts;
    hs.tx_bytes = hop.tx_bytes;
  }
  int_qlen_[idx].series.Add(now, static_cast<double>(max_qlen) / 1000.0);
  if (have_util) int_util_[idx].series.Add(now, max_util);
}

// ---------------------------------------------------------------------------
// TelemetrySession

TelemetrySession::TelemetrySession(
    const TelemetryConfig& cfg,
    const std::vector<check::MonitorRegistry*>& registries,
    runner::Experiment* experiment)
    : cfg_(cfg), experiment_(experiment) {
  for (check::MonitorRegistry* registry : registries) {
    recorders_.push_back(static_cast<TelemetryRecorder*>(
        registry->Add(std::make_unique<TelemetryRecorder>(cfg))));
  }
}

TelemetryCounters TelemetrySession::counters() const {
  TelemetryCounters total;
  for (const TelemetryRecorder* r : recorders_) {
    const TelemetryCounters& c = r->counters();
    total.enqueued_packets += c.enqueued_packets;
    total.enqueued_bytes += c.enqueued_bytes;
    total.dequeued_packets += c.dequeued_packets;
    total.dequeued_bytes += c.dequeued_bytes;
    total.pause_on += c.pause_on;
    total.pause_off += c.pause_off;
    total.cc_updates += c.cc_updates;
    total.int_echoes += c.int_echoes;
  }
  return total;
}

void TelemetrySession::Start() {
  const runner::ExperimentConfig& c = experiment_->config();
  // Cover the drain window too — that is where incast queues empty out.
  until_ = c.duration +
           static_cast<sim::TimePs>(c.drain_factor *
                                    static_cast<double>(c.duration));
  if (!cfg_.trace) return;
  const bool queues = cfg_.queue_tracks > 0 && cfg_.queue_sample_us > 0;
  const bool flows = cfg_.flow_tracks > 0 && cfg_.flow_sample_us > 0;
  if (queues) {
    queue_interval_ = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(cfg_.queue_sample_us * sim::kPsPerUs));
  }
  if (flows) {
    flow_interval_ = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(cfg_.flow_sample_us * sim::kPsPerUs));
  }
  // Sized once: the scheduled samplers hold pointers into it.
  lanes_.resize(static_cast<size_t>(experiment_->shards()));
  topo::Topology& topo = experiment_->topology();
  for (int lane = 0; lane < experiment_->shards(); ++lane) {
    LaneSamplers& ls = lanes_[static_cast<size_t>(lane)];
    ls.lane = lane;
    sim::Simulator& sim = experiment_->lane_simulator(lane);
    if (queues) {
      for (uint32_t id : experiment_->partition().lane_switches[lane]) {
        const net::Node& node = topo.node(id);
        for (int p = 0; p < node.num_ports(); ++p) {
          QueueTrack qt;
          qt.node = id;
          qt.port = p;
          qt.series.set_max_points(cfg_.queue_track_points);
          ls.queues.push_back(std::move(qt));
        }
      }
      sim.ScheduleIn(queue_interval_, [this, &ls] { SampleQueues(ls); });
    }
    if (flows) {
      sim.ScheduleIn(flow_interval_, [this, &ls] { SampleFlows(ls); });
    }
  }
}

void TelemetrySession::SampleQueues(LaneSamplers& ls) {
  sim::Simulator& sim = experiment_->lane_simulator(ls.lane);
  const sim::TimePs now = sim.now();
  topo::Topology& topo = experiment_->topology();
  for (QueueTrack& qt : ls.queues) {
    const int64_t q = topo.node(qt.node).port(qt.port).queue_bytes(
        net::kDataPriority);
    // Idle ports stay pointless (most of a big fabric never queues); the
    // first nonzero sample retroactively adds a zero so ramps render.
    if (q == 0 && qt.series.empty()) continue;
    if (qt.series.empty() && now > queue_interval_) {
      qt.series.Add(now - queue_interval_, 0);
    }
    qt.max_bytes = std::max(qt.max_bytes, q);
    qt.series.Add(now, static_cast<double>(q) / 1000.0);
  }
  if (now + queue_interval_ <= until_) {
    sim.ScheduleIn(queue_interval_, [this, &ls] { SampleQueues(ls); });
  }
}

void TelemetrySession::SampleFlows(LaneSamplers& ls) {
  sim::Simulator& sim = experiment_->lane_simulator(ls.lane);
  const sim::TimePs now = sim.now();
  // Adopt the lane's newly created flows with ids 1..flow_tracks. Ids grow
  // with creation order within a lane, so the scan stops at the first flow
  // past the range and every later one is past it too.
  const std::vector<host::Flow*>& flows = experiment_->lane_flows(ls.lane);
  while (ls.flows_scanned < flows.size() &&
         flows[ls.flows_scanned]->spec().id <=
             static_cast<uint64_t>(cfg_.flow_tracks)) {
    const host::Flow* f = flows[ls.flows_scanned++];
    // Every flow starts with nothing acked, so the first sample counts the
    // bytes acked since the flow began, however late the tick adopts it.
    FlowTrack ft;
    ft.flow = f;
    ft.track.name = "flow " + std::to_string(f->spec().id);
    ft.track.unit = "Gbps";
    ft.track.series.set_max_points(cfg_.flow_track_points);
    ls.flows.push_back(std::move(ft));
  }
  const double interval_sec = sim::ToSec(flow_interval_);
  for (FlowTrack& ft : ls.flows) {
    const host::Flow* f = static_cast<const host::Flow*>(ft.flow);
    const uint64_t acked = std::min(f->snd_una, f->spec().size_bytes);
    const double gbps = static_cast<double>(acked - ft.last_acked) * 8.0 /
                        interval_sec / 1e9;
    ft.last_acked = acked;
    stats::TimeSeries& s = ft.track.series;
    // Suppress flat zero tails after completion (and before first byte).
    if (gbps == 0 && (f->done || s.empty())) continue;
    s.Add(now, gbps);
  }
  if (now + flow_interval_ <= until_) {
    sim.ScheduleIn(flow_interval_, [this, &ls] { SampleFlows(ls); });
  }
}

std::vector<TelemetryTrack> TelemetrySession::TopQueueTracks() const {
  std::vector<const QueueTrack*> active;
  for (const LaneSamplers& ls : lanes_) {
    for (const QueueTrack& qt : ls.queues) {
      if (qt.max_bytes > 0 && !qt.series.empty()) active.push_back(&qt);
    }
  }
  std::sort(active.begin(), active.end(),
            [](const QueueTrack* a, const QueueTrack* b) {
              if (a->max_bytes != b->max_bytes)
                return a->max_bytes > b->max_bytes;
              if (a->node != b->node) return a->node < b->node;
              return a->port < b->port;
            });
  if (active.size() > static_cast<size_t>(cfg_.queue_tracks)) {
    active.resize(cfg_.queue_tracks);
  }
  std::vector<TelemetryTrack> out;
  out.reserve(active.size());
  for (const QueueTrack* qt : active) {
    TelemetryTrack t;
    t.name = "q sw" + std::to_string(qt->node) + " p" +
             std::to_string(qt->port);
    t.unit = "kB";
    t.series = qt->series;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<TelemetryTrack> TelemetrySession::FlowTracks() const {
  std::vector<const FlowTrack*> all;
  for (const LaneSamplers& ls : lanes_) {
    for (const FlowTrack& ft : ls.flows) all.push_back(&ft);
  }
  const auto id = [](const FlowTrack* ft) {
    return static_cast<const host::Flow*>(ft->flow)->spec().id;
  };
  std::sort(all.begin(), all.end(),
            [&](const FlowTrack* a, const FlowTrack* b) {
              return id(a) < id(b);
            });
  std::vector<TelemetryTrack> out;
  out.reserve(all.size());
  for (const FlowTrack* ft : all) out.push_back(ft->track);
  return out;
}

std::vector<TelemetryTrack> TelemetrySession::IntTracks() const {
  // Every lane recorder holds a slot per tracked flow id; only the lane of
  // the flow's source host fills it.
  const TelemetryRecorder& first = *recorders_.front();
  const size_t n = first.int_qlen_tracks().size();
  std::vector<TelemetryTrack> out = first.int_qlen_tracks();
  out.insert(out.end(), first.int_util_tracks().begin(),
             first.int_util_tracks().end());
  for (const TelemetryRecorder* r : recorders_) {
    for (size_t i = 0; i < n; ++i) {
      if (!r->int_qlen_tracks()[i].series.empty()) {
        out[i] = r->int_qlen_tracks()[i];
      }
      if (!r->int_util_tracks()[i].series.empty()) {
        out[n + i] = r->int_util_tracks()[i];
      }
    }
  }
  return out;
}

}  // namespace hpcc::obs
