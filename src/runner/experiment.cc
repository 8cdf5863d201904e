#include "runner/experiment.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/hash.h"

namespace hpcc::runner {

net::SwitchConfig Experiment::MakeSwitchConfig() const {
  net::SwitchConfig sw;
  sw.fast_path = config_.fast_path;
  sw.pfc_enabled = config_.pfc_enabled;
  sw.int_enabled = cc::SchemeUsesInt(config_.cc.scheme);
  sw.int_wire_format = config_.cc.hpcc.wire_format;
  sw.rcp_enabled = cc::SchemeUsesRcp(config_.cc.scheme);
  if (config_.red_override.has_value()) {
    sw.red = *config_.red_override;
  } else if (config_.cc.scheme == "dctcp") {
    sw.red = net::RedConfig::Dctcp();
  } else if (cc::SchemeUsesEcn(config_.cc.scheme)) {
    sw.red = net::RedConfig::Dcqcn();
  }
  return sw;
}

void Experiment::BuildTopology() {
  const net::SwitchConfig sw = MakeSwitchConfig();
  host::HostConfig hc;
  hc.int_sample_every = config_.int_sample_every;
  hc.fast_path = config_.fast_path;
  switch (config_.topology) {
    case TopologyKind::kFatTree: {
      topo::FatTreeOptions o = config_.fattree;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeFatTree(simulator_.get(), o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kTestbed: {
      topo::TestbedOptions o = config_.testbed;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeTestbed(simulator_.get(), o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kStar: {
      topo::StarOptions o = config_.star;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeStar(simulator_.get(), o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.host_ids;
      break;
    }
    case TopologyKind::kDumbbell: {
      topo::DumbbellOptions o = config_.dumbbell;
      o.sw = sw;
      o.host = hc;
      auto built = topo::MakeDumbbell(simulator_.get(), o, config_.fabric_snapshot);
      topology_ = std::move(built.topo);
      hosts_ = built.left_hosts;
      hosts_.insert(hosts_.end(), built.right_hosts.begin(),
                    built.right_hosts.end());
      break;
    }
  }
}

std::unique_ptr<stats::FctRecorder> Experiment::MakeFctRecorder() const {
  return std::make_unique<stats::FctRecorder>(
      config_.trace == "fbhadoop" ? stats::FctRecorder::FbHadoopBins()
                                  : stats::FctRecorder::WebSearchBins());
}

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  if (config_.shards < 1) {
    throw std::invalid_argument("shards must be >= 1");
  }
  if (config_.hybrid.enabled) {
    if (config_.shards > 1) {
      throw std::invalid_argument(
          "hybrid fluid/packet co-simulation requires shards=1");
    }
    if (!cc::SchemeUsesInt(config_.cc.scheme)) {
      throw std::invalid_argument(
          "hybrid fluid coupling needs an INT-carrying CC scheme");
    }
  } else if (config_.flow_class == workload::FlowClass::kFluid ||
             (config_.incast &&
              config_.incast_opts.flow_class == workload::FlowClass::kFluid)) {
    throw std::invalid_argument(
        "flow_class=fluid requires the hybrid engine (hybrid.enabled)");
  }
  if (!config_.trace_file.empty()) {
    // Parse once; replicated lane sources share the parsed records.
    trace_records_ =
        std::make_shared<const std::vector<workload::TraceRecord>>(
            workload::LoadFlowTrace(config_.trace_file));
  }
  simulator_ = std::make_unique<sim::Simulator>();
  BuildTopology();
  base_rtt_ = config_.base_rtt_override > 0 ? config_.base_rtt_override
                                            : topology_->MaxBaseRtt();
  if (cc::SchemeUsesRcp(config_.cc.scheme)) {
    for (uint32_t s : topology_->switches()) {
      topology_->switch_node(s).set_rcp_rtt(base_rtt_);
    }
  }

  if (config_.hybrid.enabled) {
    analytic::FluidRegionParams fp;
    fp.tick = config_.hybrid.tick > 0 ? config_.hybrid.tick : base_rtt_;
    // Projected fluid qLen is clamped to the same buffer bound the
    // IntSanityMonitor enforces on real queues.
    fp.qlen_cap_bytes = MakeSwitchConfig().buffer_bytes;
    fluid_ = std::make_unique<analytic::FluidRegion>(simulator_.get(),
                                                     topology_.get(), fp);
    // Hybrid runs are one-lane: fluid completions feed lane 0's recorders.
    fluid_->set_completion_callback(
        [this](const analytic::FluidRegion::FlowRecord& rec, sim::TimePs now) {
          Lane& lane = *lanes_[0];
          lane.fct->Record(rec.size_bytes, now - rec.start,
                           topology_->IdealFct(rec.src, rec.dst,
                                               rec.size_bytes));
          if (rec.size_bytes <= config_.short_flow_bytes) {
            lane.short_fct_us.Add(sim::ToUs(now - rec.start));
          }
        });
  }
  SetupLanes();
}

workload::FlowSink Experiment::Sink(workload::FlowClass flow_class,
                                    int lane) {
  return [this, flow_class, lane](uint32_t src, uint32_t dst, uint64_t size,
                                  sim::TimePs start) {
    AddWorkloadFlow(flow_class, lane, src, dst, size, start);
  };
}

void Experiment::MakeSources(int lane) {
  Lane& L = *lanes_[lane];
  sim::Simulator* sim = L.sim;
  const auto add_poisson = [&](double load, sim::TimePs start,
                               sim::TimePs end, uint64_t seed,
                               workload::FlowSink sink) {
    workload::PoissonOptions po;
    po.load = load;
    // Per-host capacity counts all NIC ports (testbed hosts are dual-homed).
    const host::HostNode& h0 = topology_->host(hosts_.front());
    for (int p = 0; p < h0.num_ports(); ++p) {
      po.host_bps += h0.port(p).bandwidth_bps();
    }
    po.start = start;
    po.end = end;
    po.max_flows = config_.max_flows;
    po.seed = seed;
    L.sources.push_back(std::make_unique<workload::PoissonGenerator>(
        sim, hosts_,
        config_.trace == "fbhadoop" ? workload::SizeCdf::FbHadoop()
                                    : workload::SizeCdf::WebSearch(),
        po, std::move(sink)));
  };
  if (config_.load_phases.empty()) {
    if (config_.load > 0) {
      add_poisson(config_.load, 0, config_.duration, config_.seed,
                  Sink(config_.flow_class, lane));
    }
  } else {
    // Phase 0 is the configured load from t=0; each phase ends where the
    // next one starts. Seed streams 2000+ are the phases.
    std::vector<ExperimentConfig::LoadPhase> phases = {{0, config_.load}};
    phases.insert(phases.end(), config_.load_phases.begin(),
                  config_.load_phases.end());
    // max_flows caps the phases together, as it caps the single background
    // generator: every generator stops at the cap by itself, and the lane's
    // shared counter drops the flows past it. Every lane replays the same
    // draws, so the counters advance in lockstep.
    workload::FlowSink capped = [this, lane](uint32_t src, uint32_t dst,
                                            uint64_t size, sim::TimePs start) {
      uint64_t& released = lanes_[lane]->phase_flows;
      if (config_.max_flows > 0 && released >= config_.max_flows) return;
      ++released;
      AddWorkloadFlow(config_.flow_class, lane, src, dst, size, start);
    };
    for (size_t i = 0; i < phases.size(); ++i) {
      const sim::TimePs end =
          i + 1 < phases.size() ? phases[i + 1].start : config_.duration;
      if (phases[i].load <= 0 || phases[i].start >= end) continue;
      add_poisson(phases[i].load, phases[i].start,
                  std::min(end, config_.duration),
                  core::DeriveSeed(config_.seed, 2000 + i), capped);
    }
  }
  if (trace_records_ != nullptr) {
    // Trace src/dst are indices into hosts() (stable across topologies);
    // translate to node ids here.
    workload::FlowSink sink = [this, lane](uint32_t src, uint32_t dst,
                                           uint64_t size, sim::TimePs start) {
      if (src >= hosts_.size() || dst >= hosts_.size()) {
        throw std::out_of_range("trace_file host index out of range");
      }
      AddWorkloadFlow(config_.flow_class, lane, hosts_[src], hosts_[dst], size,
                      start);
    };
    L.sources.push_back(std::make_unique<workload::TraceReplaySource>(
        sim, trace_records_, sink));
  }
  if (config_.incast) {
    workload::IncastOptions io = config_.incast_opts;
    io.end = io.end == 0 ? config_.duration : io.end;
    io.seed = core::DeriveSeed(config_.seed, 7);
    L.sources.push_back(std::make_unique<workload::IncastGenerator>(
        sim, hosts_, io, Sink(io.flow_class, lane)));
  }
}

void Experiment::AddIncastBurst(const workload::IncastOptions& options) {
  for (int i = 0; i < config_.shards; ++i) {
    Lane& lane = *lanes_[i];
    lane.sources.push_back(std::make_unique<workload::IncastGenerator>(
        lane.sim, hosts_, options, Sink(options.flow_class, i)));
    lane.sources.back()->Start();
  }
}

Experiment::~Experiment() = default;

void Experiment::SetupLanes() {
  const int n = config_.shards;
  std::vector<int> lane_of =
      config_.topology == TopologyKind::kFatTree
          ? topo::FatTreeLanes(config_.fattree, n)
          : topo::ContiguousLanes(topology_->num_nodes(), n);
  partition_ = topo::MakePartition(*topology_, std::move(lane_of), n);
  for (const topo::CutLink& c : partition_.cut_links) {
    if (c.delay <= 0) {
      throw std::invalid_argument(
          "sharded run needs a positive delay on every cut link");
    }
  }
  lane_node_ids_.resize(n);
  for (uint32_t id = 0; id < topology_->num_nodes(); ++id) {
    total_ports_ += topology_->node(id).num_ports();
    lane_node_ids_[partition_.lane_of_node[id]].push_back(id);
  }

  lanes_.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto lane = std::make_unique<Lane>();
    if (i == 0) {
      lane->sim = simulator_.get();
    } else {
      lane_sims_.push_back(std::make_unique<sim::Simulator>());
      lane->sim = lane_sims_.back().get();
    }
    lanes_.push_back(std::move(lane));
  }
  // Re-home every node (and its ports) onto its lane's event arena. The
  // topology was built quiescent on lane 0's simulator, so this is a plain
  // pointer swap.
  for (uint32_t id = 0; id < topology_->num_nodes(); ++id) {
    const int li = partition_.lane_of_node[id];
    if (li != 0) topology_->node(id).set_simulator(lanes_[li]->sim);
  }
  // Each direction of a cut link becomes an SPSC channel owned by the
  // consumer lane; the producer port commits arrivals into it instead of its
  // own arena.
  for (const topo::CutLink& c : partition_.cut_links) {
    Lane::Inbound in;
    in.channel = std::make_unique<net::HandoffChannel>();
    in.peer = &topology_->node(c.to_node);
    in.peer_port = c.to_port;
    in.key = (c.from_node << 8) | static_cast<uint32_t>(c.from_port);
    topology_->node(c.from_node).port(c.from_port).set_handoff(
        in.channel.get());
    lanes_[c.to_lane]->inbound.push_back(std::move(in));
  }

  for (int i = 0; i < n; ++i) {
    Lane& lane = *lanes_[i];
    lane.fct = MakeFctRecorder();
    lane.pfc = std::make_unique<stats::PfcMonitor>();
    lane.pfc->AttachTo(*topology_, lane_node_ids_[i]);
    lane.queue_monitor = std::make_unique<stats::QueueMonitor>(
        lane.sim, topology_.get(), config_.queue_sample_interval,
        partition_.lane_switches[i]);
  }
  // Flow completion wiring: every host reports into its owning lane's
  // recorder (IdealFct is a const query with local search state, so
  // concurrent lane callbacks are safe).
  for (uint32_t h : hosts_) {
    Lane* lane = lanes_[partition_.lane_of_node[h]].get();
    topology_->host(h).set_flow_done_callback(
        [this, lane](const host::Flow& f, sim::TimePs now) {
          if (f.failed) {
            // Give-up: the flow never delivered, so it must not feed the FCT
            // distributions — only the failure count.
            ++lane->flows_failed;
            return;
          }
          ++lane->flows_completed;
          const auto& s = f.spec();
          lane->fct->Record(s.size_bytes, now - s.start_time,
                            topology_->IdealFct(s.src, s.dst, s.size_bytes));
          if (s.size_bytes <= config_.short_flow_bytes) {
            lane->short_fct_us.Add(sim::ToUs(now - s.start_time));
          }
        });
  }
  // Replicated sources: every lane draws the full workload with the same
  // seeds over ALL hosts; AddFlowOnLane keeps only the flows the lane owns,
  // while phantom draws still consume the lane's flow-id counter, so ids
  // match shards=1 creation order exactly.
  for (int i = 0; i < n; ++i) MakeSources(i);
  configured_sources_ = lanes_[0]->sources.size();
}

void Experiment::RequireOneLane(const char* surface) const {
  if (config_.shards > 1) {
    throw std::logic_error(std::string(surface) +
                           " require shards=1 (they live in lane 0)");
  }
}

host::Flow* Experiment::AddFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                                sim::TimePs start) {
  // Replicate the draw in every lane so flow-id counters stay aligned;
  // exactly one lane owns `src` and returns the live flow.
  host::Flow* out = nullptr;
  for (int i = 0; i < config_.shards; ++i) {
    host::Flow* f = AddFlowOnLane(i, src, dst, bytes, start);
    if (f != nullptr) out = f;
  }
  return out;
}

host::Flow* Experiment::AddFlowOnLane(int lane, uint32_t src, uint32_t dst,
                                      uint64_t bytes, sim::TimePs start) {
  if (src == dst) throw std::invalid_argument("flow src == dst");
  Lane& L = *lanes_[lane];
  const uint64_t id = L.next_flow_id++;  // consumed whether owned or not
  if (partition_.lane_of_node[src] != lane) return nullptr;

  host::FlowSpec spec;
  spec.id = id;
  spec.src = src;
  spec.dst = dst;
  spec.size_bytes = bytes;
  spec.start_time = start;
  std::unique_ptr<host::Flow> flow = NewFlow(L, spec);
  host::Flow* raw = flow.get();
  topology_->host(src).AddFlow(std::move(flow));
  return raw;
}

std::unique_ptr<host::Flow> Experiment::NewFlow(Lane& lane,
                                                const host::FlowSpec& spec) {
  const host::HostNode& h = topology_->host(spec.src);
  cc::CcContext ctx;
  ctx.nic_bps = h.port(0).bandwidth_bps();
  ctx.base_rtt = base_rtt_;
  ctx.mtu_bytes = h.config().mtu_bytes;
  ctx.simulator = lane.sim;
  auto flow = std::make_unique<host::Flow>(spec, cc::MakeCc(config_.cc, ctx),
                                           config_.recovery);
  lane.flow_ptrs.push_back(flow.get());
  return flow;
}

void Experiment::AddWorkloadFlow(workload::FlowClass flow_class, int lane,
                                 uint32_t src, uint32_t dst, uint64_t bytes,
                                 sim::TimePs start) {
  if (flow_class == workload::FlowClass::kFluid) {
    AddFluidFlow(src, dst, bytes, start);
    return;
  }
  AddFlowOnLane(lane, src, dst, bytes, start);
}

void Experiment::AddFluidFlow(uint32_t src, uint32_t dst, uint64_t bytes,
                              sim::TimePs start) {
  if (fluid_ == nullptr) {
    throw std::logic_error("fluid flow without hybrid.enabled");
  }
  // Same id space as packet flows (hybrid runs are one-lane), so packet and
  // fluid flows interleave in one creation order and the trace hash stays
  // total.
  const uint64_t id = lanes_[0]->next_flow_id++;
  fluid_->AddFlow(id, src, dst, bytes, start);
}

void Experiment::InstallLinkEvent(sim::TimePs at, size_t link, bool up) {
  if (link >= topology_->links().size()) {
    throw std::invalid_argument("link event index out of range");
  }
  for (auto& lp : lanes_) {
    Lane& lane = *lp;
    const uint64_t seq = lane.sim->next_schedule_seq();
    lane.sim->ScheduleAt(at, [] {});
    lane.marks.push_back({at, seq});
  }
  script_.push_back({at, link, up});
}

host::Flow* Experiment::AddReadFlow(uint32_t requester, uint32_t responder,
                                    uint64_t bytes, sim::TimePs start) {
  RequireOneLane("read flows");
  if (requester == responder) {
    throw std::invalid_argument("read requester == responder");
  }
  Lane& lane = *lanes_[0];
  host::FlowSpec spec;
  spec.id = lane.next_flow_id++;
  spec.src = responder;  // data flows responder -> requester
  spec.dst = requester;
  spec.size_bytes = bytes;
  spec.start_time = start;
  std::unique_ptr<host::Flow> flow = NewFlow(lane, spec);
  host::Flow* raw = flow.get();
  topology_->host(responder).AddPendingFlow(std::move(flow));

  const uint64_t id = spec.id;
  lane.sim->ScheduleAt(start, [this, requester, responder, id]() {
    topology_->host(requester).SendReadRequest(id, responder);
  });
  return raw;
}

void Experiment::set_event_budget(uint64_t max_total_events) {
  for (auto& lp : lanes_) lp->sim->set_event_budget(max_total_events);
}

bool Experiment::budget_exhausted() const {
  for (const auto& lp : lanes_) {
    if (lp->sim->budget_exhausted()) return true;
  }
  return false;
}

void Experiment::set_wall_deadline(
    std::chrono::steady_clock::time_point deadline) {
  for (auto& lp : lanes_) lp->sim->set_wall_deadline(deadline);
}

bool Experiment::deadline_exceeded() const {
  for (const auto& lp : lanes_) {
    if (lp->sim->deadline_exceeded()) return true;
  }
  return false;
}

std::vector<const host::Flow*> Experiment::AllFlows() const {
  std::vector<const host::Flow*> out;
  for (const auto& lp : lanes_) {
    out.insert(out.end(), lp->flow_ptrs.begin(), lp->flow_ptrs.end());
  }
  return out;
}

void Experiment::DrainInbound(Lane& lane, sim::TimePs horizon) {
  for (Lane::Inbound& in : lane.inbound) {
    sim::TimePs at = 0;
    while (in.channel->PeekArrival(&at) && at <= horizon) {
      net::HandoffRecord rec;
      in.channel->Pop(&rec);
      net::Node* peer = in.peer;
      const int port = in.peer_port;
      net::Packet* pkt = rec.pkt;
      // Identical (at, emission, link_uid) key as the producer would have
      // used on its own arena, so the merged execution order is decided by
      // the EventClass tie-break contract, never by thread timing.
      lane.sim->ScheduleArrival(rec.at, rec.emission, in.key,
                                [peer, port, pkt] {
                                  peer->Deliver(net::PacketPtr(pkt), port);
                                });
    }
  }
}

void Experiment::RunRounds(sim::TimePs until, bool drain) {
  const int n = config_.shards;
  // Coordinator application order: the script events not yet applied, by
  // (time, install order). Lane marker lists stay install-ordered, so sorted
  // entries carry their install index to look up each lane's marker seq.
  std::vector<size_t> order;
  for (size_t i = 0; i < script_.size(); ++i) {
    if (!lanes_[0]->marks[i].applied) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return script_[a].at < script_[b].at;
  });

  const sim::TimePs cap =
      config_.duration +
      static_cast<sim::TimePs>(config_.drain_factor *
                               static_cast<double>(config_.duration));
  constexpr size_t kNoMark = std::numeric_limits<size_t>::max();

  struct Shared {
    sim::TimePs now = 0;       // barrier time (every lane's clock)
    sim::TimePs target = 0;    // current round horizon
    size_t mark = 0;           // script index bounding the round, or kNoMark
    sim::TimePs chunk = 0;     // next chunk horizon: `until`, then +1 ms
    size_t cursor = 0;         // next entry of `order`
    sim::TimePs lookahead = 0;
    bool done = false;
  } shared;
  shared.now = simulator_->now();
  shared.mark = kNoMark;
  shared.chunk = until;
  shared.lookahead = topo::UpLookahead(*topology_, partition_);

  auto retarget = [&] {
    sim::TimePs t = shared.chunk;
    shared.mark = kNoMark;
    if (shared.cursor < order.size() &&
        script_[order[shared.cursor]].at <= t) {
      shared.mark = order[shared.cursor];
      t = script_[shared.mark].at;
    }
    // The conservative window: a record committed after the last barrier
    // arrives strictly beyond now + lookahead (serialization takes > 0 ps),
    // so lanes never receive an arrival from their past. The guard form is
    // overflow-safe against a huge finite lookahead.
    if (shared.lookahead != topo::kUnboundedLookahead &&
        shared.lookahead < t - shared.now) {
      t = shared.now + shared.lookahead;
      shared.mark = kNoMark;
    }
    shared.target = t;
  };

  // One slot per lane: a lane whose round throws parks the exception here
  // and still arrives at the barrier, so no lane is left blocked.
  std::vector<std::exception_ptr> errors(lanes_.size());

  // Runs while every lane is blocked at the barrier, so single-threaded
  // access to the whole fabric (SetLinkUp rewires routes globally) is safe.
  auto coordinate = [&]() noexcept {
    // Lane clocks never run backwards: a horizon already behind them (the
    // first chunk after a longer RunUntil) leaves them where they were.
    shared.now = std::max(shared.now, shared.target);
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const sim::Simulator& s = *lanes_[i]->sim;
      if (errors[i] != nullptr || s.budget_exhausted() ||
          s.deadline_exceeded()) {
        shared.done = true;
        return;
      }
    }
    if (shared.mark != kNoMark) {
      const ScriptEvent& ev = script_[shared.mark];
      topology_->SetLinkUp(ev.link, ev.up);
      for (auto& lp : lanes_) lp->marks[shared.mark].applied = true;
      ++shared.cursor;
      shared.lookahead = topo::UpLookahead(*topology_, partition_);
    } else if (shared.target == shared.chunk) {
      // Chunk boundary: RunUntil stops here. A draining run continues in
      // 1 ms chunks until every flow — packet and fluid — has settled
      // (completed or failed) or the drain cap is reached.
      uint64_t created = 0;
      uint64_t finished = 0;
      for (const auto& lp : lanes_) {
        created += lp->flow_ptrs.size();
        finished += lp->flows_completed + lp->flows_failed;
      }
      const bool settled =
          finished >= created && (fluid_ == nullptr || !fluid_->active());
      if (!drain || settled || shared.now >= cap) {
        shared.done = true;
        return;
      }
      shared.chunk = shared.now + sim::Ms(1);
    }
    retarget();
  };

  std::barrier sync(n, coordinate);
  auto lane_loop = [&](int li) {
    Lane& lane = *lanes_[li];
    do {
      try {
        const uint64_t bound =
            shared.mark != kNoMark ? lane.marks[shared.mark].seq
                                   : std::numeric_limits<uint64_t>::max();
        DrainInbound(lane, shared.target);
        lane.sim->Run(shared.target, bound);
      } catch (...) {
        errors[li] = std::current_exception();
      }
      sync.arrive_and_wait();
    } while (!shared.done);
  };

  retarget();
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  for (int i = 1; i < n; ++i) workers.emplace_back(lane_loop, i);
  lane_loop(0);
  for (std::thread& w : workers) w.join();
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

void Experiment::StartQueueMonitor(Lane& lane) {
  if (lane.queue_monitor_started) return;
  lane.queue_monitor_started = true;
  lane.queue_monitor->Start(config_.duration);
}

void Experiment::RunUntil(sim::TimePs until) {
  for (auto& lp : lanes_) StartQueueMonitor(*lp);
  RunRounds(until, /*drain=*/false);
}

ExperimentResult Experiment::Run() {
  StartWorkload();
  return FinishRun();
}

void Experiment::StartWorkload() {
  for (auto& lp : lanes_) {
    for (size_t i = 0; i < configured_sources_; ++i) lp->sources[i]->Start();
    StartQueueMonitor(*lp);
  }
}

ExperimentResult Experiment::FinishRun() {
  RunRounds(config_.duration, /*drain=*/true);
  return Collect();
}

std::unique_ptr<Experiment::WarmState> Experiment::RunToWarmCheckpoint(
    sim::TimePs t) {
  RequireOneLane("warm checkpoints");
  simulator_->Run(t, /*until_seq=*/0);
  if (!QuiescentForWarmCheckpoint(t)) return nullptr;
  return CaptureWarmState();
}

bool Experiment::QuiescentForWarmCheckpoint(sim::TimePs t) const {
  // Hybrid runs are always cold: the fluid engine's continuous link/window
  // state has no warm capture surface.
  if (fluid_ != nullptr) return false;
  const Lane& lane = *lanes_[0];
  // Every created flow fully delivered and acknowledged.
  if (lane.flows_completed != lane.flow_ptrs.size()) return false;
  // Every egress queue empty and every fast-path train settled; no pacing
  // wake armed anywhere (see HostNode::pending_wake_count).
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      const net::Port& port = node.port(p);
      if (port.total_queue_bytes() != 0 || port.has_unsettled()) return false;
    }
  }
  for (uint32_t h : hosts_) {
    if (topology_->host(h).pending_wake_count() != 0) return false;
  }
  if (lane.pfc->has_open_pauses()) return false;
  // Every pending event must be accounted for: the link-script markers not
  // yet reached, the sources' own next steps, and the queue-monitor tick.
  // Anything else — an RTO, a CC timer — means live protocol state we
  // cannot capture.
  size_t expected = lane.queue_monitor->tick_pending() ? 1 : 0;
  for (const Lane::Mark& m : lane.marks) {
    if (m.at >= t) ++expected;
  }
  for (const auto& src : lane.sources) {
    if (src->warm_pending()) ++expected;
  }
  return simulator_->pending_events() == expected;
}

std::unique_ptr<Experiment::WarmState> Experiment::CaptureWarmState() const {
  const Lane& lane = *lanes_[0];
  auto w = std::make_unique<WarmState>();
  const sim::TimePs now = simulator_->now();
  w->now = now;
  w->next_schedule_seq = simulator_->next_schedule_seq();
  w->events_executed = simulator_->events_executed();
  w->next_flow_id = lane.next_flow_id;
  w->flows.reserve(lane.flow_ptrs.size());
  for (const host::Flow* f : lane.flow_ptrs) {
    const host::FlowSpec& s = f->spec();
    w->flows.push_back({s.id, s.src, s.dst, s.size_bytes, s.start_time,
                        f->finish_time, f->done});
  }
  w->fct = std::make_unique<stats::FctRecorder>(*lane.fct);
  w->short_fct_us = lane.short_fct_us;
  w->queue = lane.queue_monitor->CaptureWarm();
  w->pfc = lane.pfc->CaptureWarm();
  for (uint32_t s : topology_->switches()) {
    w->switches.push_back(topology_->switch_node(s).CaptureWarm());
  }
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      w->ports.push_back(node.port(p).CaptureWarm());
    }
  }
  for (uint32_t h : hosts_) {
    w->hosts.push_back(topology_->host(h).CaptureWarm());
  }
  w->sources.resize(lane.sources.size());
  for (size_t i = 0; i < lane.sources.size(); ++i) {
    if (lane.sources[i]->first_activity() < now) {
      w->sources[i] = lane.sources[i]->CaptureWarm();
    }
  }
  w->phase_flows = lane.phase_flows;
  return w;
}

bool Experiment::ValidateWarmState(const WarmState& w) const {
  const Lane& lane = *lanes_[0];
  if (!lane.queue_monitor_started) return false;
  if (w.fct == nullptr) return false;
  if (lane.sources.size() != w.sources.size()) return false;
  if (topology_->switches().size() != w.switches.size()) return false;
  if (hosts_.size() != w.hosts.size()) return false;
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  size_t num_ports = 0;
  for (uint32_t id = 0; id < num_nodes; ++id) {
    num_ports += static_cast<size_t>(topology_->node(id).num_ports());
  }
  if (num_ports != w.ports.size()) return false;
  if (w.now < simulator_->now()) return false;
  return true;
}

bool Experiment::RestoreWarmState(const WarmState& w) {
  RequireOneLane("warm checkpoints");
  // Validate the structural match completely before touching anything, so a
  // mismatch leaves this experiment cold-runnable.
  if (!ValidateWarmState(w)) return false;
  Lane& lane = *lanes_[0];
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());

  for (size_t i = 0; i < w.sources.size(); ++i) {
    if (w.sources[i].has_value()) lane.sources[i]->RestoreWarm(*w.sources[i]);
  }
  lane.phase_flows = w.phase_flows;
  lane.queue_monitor->RestoreWarm(w.queue);
  lane.pfc->RestoreWarm(w.pfc);
  for (size_t i = 0; i < w.switches.size(); ++i) {
    topology_->switch_node(topology_->switches()[i]).RestoreWarm(
        w.switches[i]);
  }
  size_t pi = 0;
  for (uint32_t id = 0; id < num_nodes; ++id) {
    net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      node.port(p).RestoreWarm(w.ports[pi++]);
    }
  }
  for (size_t i = 0; i < hosts_.size(); ++i) {
    topology_->host(hosts_[i]).RestoreWarm(w.hosts[i]);
  }
  lane.fct = std::make_unique<stats::FctRecorder>(*w.fct);
  lane.short_fct_us = w.short_fct_us;
  warm_flows_ = w.flows;
  lane.next_flow_id = w.next_flow_id;
  // Last: jump the clock and counters to T. Every event replayed above was
  // scheduled while now_ was still pre-T, so their captured (time, seq) keys
  // landed unchallenged; from here on the engine continues exactly as the
  // checkpointing run would have.
  simulator_->Restore(w.now, w.next_schedule_seq, w.events_executed);
  return true;
}

ExperimentResult Experiment::Collect() {
  ExperimentResult r;
  // Every lane clock agrees at the final barrier (budget exhaustion is the
  // diagnostic exception); lane 0 is the canonical one.
  const sim::TimePs now = simulator_->now();
  r.fct = MakeFctRecorder();
  stats::PfcMonitor pfc;
  stats::TraceHash th;
  for (const auto& lp : lanes_) {
    Lane& lane = *lp;
    lane.pfc->Finish(lane.sim->now());
    pfc.Merge(*lane.pfc);
    r.fct->Merge(*lane.fct);
    r.short_fct_us.Merge(lane.short_fct_us);
    r.queue_dist.Merge(lane.queue_monitor->distribution());
    r.max_queue_bytes =
        std::max(r.max_queue_bytes, lane.queue_monitor->max_seen_bytes());
    r.flows_created += lane.flow_ptrs.size();
    r.flows_completed += lane.flows_completed;
    r.flows_failed += lane.flows_failed;
    for (const host::Flow* f : lane.flow_ptrs) {
      r.retx_timeouts += f->retx_timeouts;
      const host::FlowSpec& s = f->spec();
      th.AddFlow(s.id, s.src, s.dst, s.size_bytes, s.start_time,
                 f->finish_time, f->done);
    }
    r.events_executed += lane.sim->events_executed();
  }
  r.pause_time_fraction = pfc.PauseTimeFraction(now, total_ports_);
  r.pause_events = pfc.pause_count();
  r.pause_durations_us = pfc.DurationDistributionUs();
  for (uint32_t s : topology_->switches()) {
    const net::SwitchNode& sw = topology_->switch_node(s);
    r.dropped_packets += sw.dropped_packets();
    r.dropped_bytes += sw.dropped_bytes();
    for (int d = 0; d < check::kNumDropReasons; ++d) {
      r.dropped_by_reason[d] +=
          sw.dropped_by_reason(static_cast<check::DropReason>(d));
    }
    r.packets_forwarded += sw.forwarded_packets();
  }
  const uint32_t num_nodes = static_cast<uint32_t>(topology_->num_nodes());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    const net::Node& node = topology_->node(id);
    for (int p = 0; p < node.num_ports(); ++p) {
      r.train_aborts += node.port(p).train_aborts();
    }
    // Corruption drops happen at delivery (hosts and switches alike), so
    // they live on the node, not inside the switch drop counters.
    r.dropped_packets += node.corrupt_dropped_packets();
    r.dropped_bytes += node.corrupt_dropped_bytes();
    r.dropped_by_reason[static_cast<int>(check::DropReason::kCorrupt)] +=
        node.corrupt_dropped_packets();
  }
  // Warm-restored runs fold the checkpoint's completed flows back in, so the
  // report covers [0, end) exactly like a cold run's.
  for (const WarmFlowRecord& wf : warm_flows_) {
    ++r.flows_created;
    if (wf.done) ++r.flows_completed;
    th.AddFlow(wf.id, wf.src, wf.dst, wf.size_bytes, wf.start, wf.finish,
               wf.done);
  }
  if (fluid_ != nullptr) {
    // Fluid flows fold into the engine-inclusive totals AND get their own
    // accounting block (manifest "fluid" subtree).
    r.fluid_flows_created = fluid_->flows_admitted();
    r.fluid_flows_completed = fluid_->flows_completed();
    r.fluid_ticks = fluid_->ticks();
    r.fluid_coupled_links = fluid_->coupled_links();
    r.fluid_delivered_bytes = fluid_->delivered_bytes();
    r.fluid_peak_queue_bytes = fluid_->peak_queue_bytes();
    r.flows_created += r.fluid_flows_created;
    r.flows_completed += r.fluid_flows_completed;
    for (const auto& rec : fluid_->flows()) {
      th.AddFlow(rec.id, rec.src, rec.dst, rec.size_bytes, rec.start,
                 rec.finish, rec.done);
    }
  }
  r.sim_time = now;
  r.base_rtt = base_rtt_;
  r.trace_hash = th.digest();
  SortResultDistributions(r);
  return r;
}

// Pre-sort every distribution at the collection boundary: const reads after
// this point (CSV rows, manifests, sweep aggregation across worker threads)
// are zero-copy and mutation-free.
void Experiment::SortResultDistributions(ExperimentResult& r) {
  if (r.fct != nullptr) r.fct->Sort();
  r.queue_dist.Sort();
  r.short_fct_us.Sort();
  r.pause_durations_us.Sort();
}

std::string ExperimentResult::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "flows %llu/%llu  q50 %.1fKB q95 %.1fKB q99 %.1fKB qmax %.1fKB  "
      "pfc %.4f%% (%zu events)  drops %llu  simtime %.2fms  events %llu",
      static_cast<unsigned long long>(flows_completed),
      static_cast<unsigned long long>(flows_created),
      queue_dist.Percentile(50) / 1e3, queue_dist.Percentile(95) / 1e3,
      queue_dist.Percentile(99) / 1e3,
      static_cast<double>(max_queue_bytes) / 1e3, pause_time_fraction * 100,
      pause_events, static_cast<unsigned long long>(dropped_packets),
      sim::ToMs(sim_time), static_cast<unsigned long long>(events_executed));
  return buf;
}

}  // namespace hpcc::runner
