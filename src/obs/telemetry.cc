#include "obs/telemetry.h"

#include <algorithm>
#include <stdexcept>

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
  return kEnqueue | kDequeue | kDrop | kPause | kCcUpdate | kIntEcho;
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

void TelemetryRecorder::OnDrop(uint32_t, const net::Packet&,
                               check::DropReason reason) {
  const int idx = static_cast<int>(reason);
  if (idx >= 0 && idx < check::kNumDropReasons) {
    ++counters_.drops_by_reason[idx];
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
  recorder_ = recorders_.front();
}

TelemetryCounters TelemetrySession::counters() const {
  TelemetryCounters total;
  for (const TelemetryRecorder* r : recorders_) {
    const TelemetryCounters& c = r->counters();
    total.enqueued_packets += c.enqueued_packets;
    total.enqueued_bytes += c.enqueued_bytes;
    total.dequeued_packets += c.dequeued_packets;
    total.dequeued_bytes += c.dequeued_bytes;
    for (int i = 0; i < check::kNumDropReasons; ++i) {
      total.drops_by_reason[i] += c.drops_by_reason[i];
    }
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
  if (experiment_->shards() > 1) {
    throw std::logic_error("telemetry trace samplers require shards=1");
  }
  sim::Simulator& sim = experiment_->simulator();
  if (cfg_.queue_tracks > 0 && cfg_.queue_sample_us > 0) {
    queue_interval_ = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(cfg_.queue_sample_us * sim::kPsPerUs));
    topo::Topology& topo = experiment_->topology();
    for (uint32_t id : topo.switches()) {
      const net::Node& node = topo.node(id);
      for (int p = 0; p < node.num_ports(); ++p) {
        QueueTrack qt;
        qt.node = id;
        qt.port = p;
        qt.series.set_max_points(cfg_.queue_track_points);
        queue_tracks_.push_back(std::move(qt));
      }
    }
    sim.ScheduleIn(queue_interval_, [this] { SampleQueues(); });
  }
  if (cfg_.flow_tracks > 0 && cfg_.flow_sample_us > 0) {
    flow_interval_ = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(cfg_.flow_sample_us * sim::kPsPerUs));
    sim.ScheduleIn(flow_interval_, [this] { SampleFlows(); });
  }
}

void TelemetrySession::SampleQueues() {
  sim::Simulator& sim = experiment_->simulator();
  const sim::TimePs now = sim.now();
  topo::Topology& topo = experiment_->topology();
  for (QueueTrack& qt : queue_tracks_) {
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
    sim.ScheduleIn(queue_interval_, [this] { SampleQueues(); });
  }
}

void TelemetrySession::SampleFlows() {
  sim::Simulator& sim = experiment_->simulator();
  const sim::TimePs now = sim.now();
  const auto& flows = experiment_->flows();
  // Adopt newly created flows (creation order) until the track budget fills.
  while (flow_states_.size() < flows.size() &&
         flow_states_.size() < static_cast<size_t>(cfg_.flow_tracks)) {
    const host::Flow* f = flows[flow_states_.size()];
    FlowTrack ft;
    ft.flow_id = f->spec().id;
    ft.last_acked = f->snd_una;
    ft.flow = f;
    flow_states_.push_back(ft);
    TelemetryTrack t;
    t.name = "flow " + std::to_string(f->spec().id);
    t.unit = "Gbps";
    t.series.set_max_points(cfg_.flow_track_points);
    flow_tracks_.push_back(std::move(t));
  }
  const double interval_sec = sim::ToSec(flow_interval_);
  for (size_t i = 0; i < flow_states_.size(); ++i) {
    FlowTrack& ft = flow_states_[i];
    const host::Flow* f = static_cast<const host::Flow*>(ft.flow);
    const uint64_t acked = std::min(f->snd_una, f->spec().size_bytes);
    const double gbps = static_cast<double>(acked - ft.last_acked) * 8.0 /
                        interval_sec / 1e9;
    ft.last_acked = acked;
    stats::TimeSeries& s = flow_tracks_[i].series;
    // Suppress flat zero tails after completion (and before first byte).
    if (gbps == 0 && (f->done || s.empty())) continue;
    s.Add(now, gbps);
  }
  if (now + flow_interval_ <= until_) {
    sim.ScheduleIn(flow_interval_, [this] { SampleFlows(); });
  }
}

std::vector<TelemetryTrack> TelemetrySession::TopQueueTracks() const {
  std::vector<const QueueTrack*> active;
  for (const QueueTrack& qt : queue_tracks_) {
    if (qt.max_bytes > 0 && !qt.series.empty()) active.push_back(&qt);
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

}  // namespace hpcc::obs
