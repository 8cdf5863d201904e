#include "topo/topology.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <limits>
#include <stdexcept>

#include "net/packet.h"

namespace hpcc::topo {
namespace {

// RTT contribution of one traversed link: both-way propagation + forward
// data serialization + returning ACK serialization.
sim::TimePs LinkRttCost(const LinkSpec& l) {
  const int data_bytes = net::kPayloadBytes + net::kDataHeaderBytes +
                         core::IntStack::kWorstCaseWireBytes;
  return 2 * l.delay +                                  // both directions
         sim::SerializationTime(data_bytes, l.bps) +    // data forward
         sim::SerializationTime(net::kAckHeaderBytes, l.bps);  // ack back
}

}  // namespace

Topology::Topology(sim::Simulator* simulator) : simulator_(simulator) {
  // Enabled by HPCC_ROUTE_ORACLE=1 (any non-empty value other than "0");
  // =0 or empty must keep the expensive oracle off.
  const char* oracle = std::getenv("HPCC_ROUTE_ORACLE");
  route_oracle_ =
      oracle != nullptr && oracle[0] != '\0' && std::string(oracle) != "0";
}

uint32_t Topology::AddHost(const host::HostConfig& config,
                           const std::string& name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(
      std::make_unique<host::HostNode>(simulator_, id, name, config));
  hosts_.push_back(id);
  adj_.emplace_back();
  return id;
}

uint32_t Topology::AddSwitch(const net::SwitchConfig& config,
                             const std::string& name) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  auto sw = std::make_unique<net::SwitchNode>(simulator_, id, name, config);
  switch_ptrs_.push_back(sw.get());
  nodes_.push_back(std::move(sw));
  switches_.push_back(id);
  adj_.emplace_back();
  return id;
}

void Topology::AddLink(uint32_t a, uint32_t b, int64_t bps,
                       sim::TimePs delay) {
  assert(!finalized_);
  net::Node& na = *nodes_[a];
  net::Node& nb = *nodes_[b];
  const int pa = na.AddPort(std::make_unique<net::Port>(&na, na.num_ports(),
                                                        bps, delay));
  const int pb = nb.AddPort(std::make_unique<net::Port>(&nb, nb.num_ports(),
                                                        bps, delay));
  na.port(pa).ConnectTo(&nb, pb);
  nb.port(pb).ConnectTo(&na, pa);
  const size_t link = links_.size();
  links_.push_back(LinkSpec{a, pa, b, pb, bps, delay});
  adj_[a].push_back(Edge{link, pa, b});
  adj_[b].push_back(Edge{link, pb, a});
}

host::HostNode& Topology::host(uint32_t id) {
  auto* h = dynamic_cast<host::HostNode*>(nodes_[id].get());
  if (h == nullptr) throw std::invalid_argument("node is not a host");
  return *h;
}

net::SwitchNode& Topology::switch_node(uint32_t id) {
  auto* s = dynamic_cast<net::SwitchNode*>(nodes_[id].get());
  if (s == nullptr) throw std::invalid_argument("node is not a switch");
  return *s;
}

std::vector<int> Topology::BfsDistances(uint32_t from,
                                        bool respect_link_state) const {
  std::vector<int> dist(nodes_.size(), -1);
  std::deque<uint32_t> q{from};
  dist[from] = 0;
  while (!q.empty()) {
    const uint32_t n = q.front();
    q.pop_front();
    for (const Edge& e : adj_[n]) {
      if (respect_link_state && !links_[e.link].up) continue;
      if (dist[e.peer] < 0) {
        dist[e.peer] = dist[n] + 1;
        q.push_back(e.peer);
      }
    }
  }
  return dist;
}

int64_t Topology::AttachmentSwitch(uint32_t h) const {
  if (adj_[h].size() != 1) return -1;
  const Edge& e = adj_[h].front();
  if (!links_[e.link].up) return -1;
  if (!nodes_[e.peer]->IsSwitch()) return -1;
  return static_cast<int64_t>(e.peer);
}

void Topology::CollectCandidates(uint32_t node, const std::vector<int>& dist,
                                 std::vector<uint16_t>* cand) const {
  // A node's ECMP set toward the BFS root: every up port whose peer is one
  // hop closer. Candidate order is adjacency order == ascending port index,
  // the canonical group order.
  cand->clear();
  if (dist[node] <= 0) return;
  for (const Edge& e : adj_[node]) {
    if (!links_[e.link].up) continue;
    if (dist[e.peer] >= 0 && dist[e.peer] == dist[node] - 1) {
      cand->push_back(static_cast<uint16_t>(e.port));
    }
  }
}

void Topology::RebuildDestination(uint32_t dst) {
  // Per-destination BFS over links that are up.
  const std::vector<int> dist = BfsDistances(dst);
  std::vector<uint16_t>& cand = cand_scratch_;
  for (net::SwitchNode* sw : switch_ptrs_) {
    cand.clear();
    if (sw->id() != dst) CollectCandidates(sw->id(), dist, &cand);
    sw->mutable_routes().SetRoute(dst, cand.data(),
                                  static_cast<uint32_t>(cand.size()));
  }
}

void Topology::RebuildDestinationsBehind(uint32_t via,
                                         const std::vector<uint32_t>& hosts) {
  // Every path to a degree-1 host h attached to switch `via` ends with the
  // via->h link, so d(n, h) = d(n, via) + 1 for every n != h and the ECMP
  // candidates of any switch s != via toward h equal its candidates toward
  // `via` — one BFS and one interned group per switch serve every host
  // behind the same attachment point. `via` itself routes straight to each
  // host's NIC port(s).
  const std::vector<int> dist = BfsDistances(via);
  std::vector<uint16_t>& cand = cand_scratch_;
  for (net::SwitchNode* sw : switch_ptrs_) {
    const uint32_t s = sw->id();
    if (s == via) continue;
    CollectCandidates(s, dist, &cand);
    if (cand.empty()) {
      for (const uint32_t h : hosts) {
        sw->mutable_routes().AssignGroup(h, net::NextHopTable::kNoGroup);
      }
    } else {
      const uint32_t gid = sw->mutable_routes().InternGroup(
          cand.data(), static_cast<uint32_t>(cand.size()));
      for (const uint32_t h : hosts) sw->mutable_routes().AssignGroup(h, gid);
    }
  }
  net::SwitchNode& attach = *static_cast<net::SwitchNode*>(nodes_[via].get());
  for (const uint32_t h : hosts) {
    cand.clear();
    for (const Edge& e : adj_[via]) {
      if (e.peer == h && links_[e.link].up) {
        cand.push_back(static_cast<uint16_t>(e.port));
      }
    }
    attach.mutable_routes().SetRoute(h, cand.data(),
                                     static_cast<uint32_t>(cand.size()));
  }
}

class Topology::RouteTimer {
 public:
  explicit RouteTimer(Topology* t) : t_(t) {
    if (t_->route_timer_depth_++ == 0) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~RouteTimer() {
    if (--t_->route_timer_depth_ == 0) {
      t_->route_compute_seconds_ +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
    }
  }
  RouteTimer(const RouteTimer&) = delete;
  RouteTimer& operator=(const RouteTimer&) = delete;

 private:
  Topology* t_;
  std::chrono::steady_clock::time_point start_;
};

void Topology::RecomputeRoutes() {
  RouteTimer timer(this);
  for (net::SwitchNode* sw : switch_ptrs_) {
    // Reset rebuilds from scratch, so a shared snapshot view detaches
    // without the copy.
    sw->mutable_routes(/*preserve=*/false)
        .Reset(static_cast<uint32_t>(nodes_.size()));
  }
  RebuildDestinations(hosts_);
}

void Topology::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  if (adopted_snapshot_ != nullptr &&
      adopted_snapshot_->routes.size() == switches_.size()) {
    // Warm start: alias the snapshot's immutable tables instead of running
    // the route BFS. A later mutation (link event) detaches just the
    // switches it touches (SwitchNode::mutable_routes).
    for (size_t i = 0; i < switches_.size(); ++i) {
      switch_ptrs_[i]->AdoptRouteView(&adopted_snapshot_->routes[i]);
    }
    if (adopted_snapshot_->path_model != nullptr) {
      path_model_ = adopted_snapshot_->path_model;
    }
    max_base_rtt_cache_ = adopted_snapshot_->max_base_rtt;
  } else {
    adopted_snapshot_ = nullptr;
    RecomputeRoutes();
  }
  for (uint32_t s : switches_) {
    switch_node(s).FinishSetup();
  }
}

std::shared_ptr<const FabricSnapshot> Topology::ExportSnapshot(
    uint64_t signature) const {
  assert(finalized_);
  auto snap = std::make_shared<FabricSnapshot>();
  snap->signature = signature;
  snap->routes.reserve(switches_.size());
  for (const net::SwitchNode* sw : switch_ptrs_) {
    snap->routes.push_back(sw->routes());
  }
  snap->path_model = path_model_;
  snap->max_base_rtt = MaxBaseRtt();
  return snap;
}

void Topology::SetLinkUp(size_t link_index, bool up) {
  LinkSpec& l = links_[link_index];
  if (l.up == up) return;
  if (!finalized_) {
    // No routing tables exist yet (Reset runs at Finalize, which will build
    // routes from the link states current then); classifying against the
    // unsized tables would read out of bounds.
    l.up = up;
    nodes_[l.a]->port(l.port_a).SetLinkUp(up);
    nodes_[l.b]->port(l.port_b).SetLinkUp(up);
    return;
  }

  RouteTimer timer(this);
  // Classify every destination against the flapped link using two BFS
  // passes seeded at its endpoints, over the pre-change fabric:
  //
  //   |d(a,dst) - d(b,dst)| == 0  ->  the link is on no shortest path to
  //       dst and (up or down) opens/closes none: untouched.
  //   |diff| == 1  ->  only the farther endpoint's ECMP group toward dst
  //       changes (it gains/loses the port across the link); distances are
  //       provably unchanged as long as, on a down, the farther endpoint
  //       keeps at least one other parent. O(1) group patch.
  //   otherwise (|diff| >= 2 on up, lost-last-parent on down, or a
  //       partition heal)  ->  distances shift and changes can cascade:
  //       rebuild that destination with one BFS, or fall back to a full
  //       RecomputeRoutes when too many destinations need it.
  const std::vector<int> da = BfsDistances(l.a);
  const std::vector<int> db = BfsDistances(l.b);

  struct Patch {
    net::SwitchNode* sw;
    uint32_t dst;
    uint16_t port;
    bool add;
  };
  std::vector<Patch> patches;
  std::vector<uint32_t> rebuild;
  for (const uint32_t dst : hosts_) {
    const int xa = da[dst];
    const int xb = db[dst];
    if (xa < 0 && xb < 0) continue;  // neither endpoint reaches dst
    if (xa < 0 || xb < 0) {
      // Only possible on an up: the link heals a partition for dst.
      rebuild.push_back(dst);
      continue;
    }
    const int diff = xa - xb;
    if (diff == 0) continue;
    if (diff > 1 || diff < -1) {
      // Only possible on an up (endpoints were not adjacent): the new link
      // shortens paths toward dst.
      rebuild.push_back(dst);
      continue;
    }
    // |diff| == 1: the endpoint farther from dst routes across the link.
    const uint32_t farther = diff > 0 ? l.a : l.b;
    const uint16_t fport =
        static_cast<uint16_t>(diff > 0 ? l.port_a : l.port_b);
    net::Node& fn = *nodes_[farther];
    if (!fn.IsSwitch()) {
      // Hosts hold no routing table. A degree-1 host is a leaf nothing
      // routes through, so no switch table changes; a multi-homed host
      // losing a parent can shift distances for switches routing through
      // it — rebuild exactly.
      if (!up && adj_[farther].size() > 1) rebuild.push_back(dst);
      continue;
    }
    auto* sw = static_cast<net::SwitchNode*>(&fn);
    if (up) {
      patches.push_back(Patch{sw, dst, fport, /*add=*/true});
      continue;
    }
    const net::NextHopTable::Group g = sw->routes().Lookup(dst);
    const bool has_port =
        std::binary_search(g.ports, g.ports + g.size, fport);
    if (g.size >= 2 && has_port) {
      patches.push_back(Patch{sw, dst, fport, /*add=*/false});
    } else {
      // Last parent lost (or an unexpected table state): exact rebuild.
      rebuild.push_back(dst);
    }
  }

  l.up = up;
  nodes_[l.a]->port(l.port_a).SetLinkUp(up);
  nodes_[l.b]->port(l.port_b).SetLinkUp(up);

  // Beyond this bound incremental repair is no cheaper than one
  // from-scratch pass, so it degrades gracefully to the full rebuild.
  const size_t bound = std::max<size_t>(hosts_.size() / 2, 16);
  if (rebuild.size() > bound) {
    RecomputeRoutes();
  } else {
    for (const Patch& p : patches) {
      if (p.add) {
        p.sw->mutable_routes().AddPort(p.dst, p.port);
      } else {
        p.sw->mutable_routes().RemovePort(p.dst, p.port);
      }
    }
    RebuildDestinations(rebuild);
  }
  if (route_oracle_) VerifyRoutesAgainstOracle();
}

void Topology::RebuildDestinations(const std::vector<uint32_t>& dsts) {
  if (dsts.empty()) return;
  // Share BFS work exactly like RecomputeRoutes: destinations behind the
  // same attachment switch rebuild together (a whole pod losing its path
  // through a flapped core costs one BFS per rack, not one per host).
  std::vector<std::vector<uint32_t>> behind(nodes_.size());
  std::vector<uint32_t> group_order;
  for (const uint32_t dst : dsts) {
    const int64_t via = AttachmentSwitch(dst);
    if (via >= 0) {
      if (behind[static_cast<size_t>(via)].empty()) {
        group_order.push_back(static_cast<uint32_t>(via));
      }
      behind[static_cast<size_t>(via)].push_back(dst);
    } else if (adj_[dst].size() == 1 && !links_[adj_[dst].front().link].up) {
      // Sole NIC link down: unreachable from everywhere.
      for (net::SwitchNode* sw : switch_ptrs_) {
        sw->mutable_routes().AssignGroup(dst, net::NextHopTable::kNoGroup);
      }
    } else {
      RebuildDestination(dst);
    }
  }
  for (const uint32_t via : group_order) {
    RebuildDestinationsBehind(via, behind[via]);
  }
}

void Topology::VerifyRoutesAgainstOracle() {
  // Dense from-scratch recomputation (the seed algorithm, shared with
  // nothing above): one BFS per host, candidates re-derived directly.
  for (const uint32_t dst : hosts_) {
    const std::vector<int> dist = BfsDistances(dst);
    for (net::SwitchNode* sw : switch_ptrs_) {
      const uint32_t s = sw->id();
      std::vector<uint16_t> want;
      if (s != dst && dist[s] > 0) {
        for (const Edge& e : adj_[s]) {
          if (!links_[e.link].up) continue;
          if (dist[e.peer] >= 0 && dist[e.peer] == dist[s] - 1) {
            want.push_back(static_cast<uint16_t>(e.port));
          }
        }
      }
      if (want != sw->routes().PortsOf(dst)) {
        throw std::logic_error(
            "route oracle mismatch: switch " + sw->name() + " dst " +
            nodes_[dst]->name() + " has a different ECMP set than a dense "
            "recomputation");
      }
    }
  }
  for (net::SwitchNode* sw : switch_ptrs_) {
    if (!sw->routes().CheckConsistency()) {
      throw std::logic_error("next-hop table inconsistency on switch " +
                             sw->name());
    }
  }
}

int Topology::Distance(uint32_t from, uint32_t to) const {
  return BfsDistances(from)[to];
}

int Topology::PathHops(uint32_t src, uint32_t dst) const {
  return Distance(src, dst);
}

std::vector<size_t> Topology::ShortestPathLinks(uint32_t src,
                                                uint32_t dst) const {
  PathModel::Path buf;
  const int n =
      path_model_ != nullptr ? path_model_->PathLinks(src, dst, &buf) : -1;
  if (n < 0) return ShortestPathLinksViaBfs(src, dst);
  return std::vector<size_t>(buf.begin(), buf.begin() + n);
}

std::vector<size_t> Topology::ShortestPathLinksViaBfs(uint32_t src,
                                                      uint32_t dst) const {
  // Ideal-FCT/base-RTT queries describe the *designed* topology, ignoring
  // transient link failures: a flow whose last ACK lands just after a
  // failure partitions the fabric must normalize against the same
  // denominator as one completing just before it. (Walking live distances
  // here also used to loop forever on a partitioned graph — found by
  // fuzz_scenarios, pinned by topology_test.IdealFctStableAcrossLinkFlap.)
  const std::vector<int> dist = BfsDistances(dst, /*respect_link_state=*/false);
  assert(dist[src] >= 0 && "no path");
  std::vector<size_t> path;
  uint32_t n = src;
  while (n != dst) {
    bool advanced = false;
    for (const Edge& e : adj_[n]) {
      if (dist[e.peer] == dist[n] - 1) {
        path.push_back(e.link);
        n = e.peer;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // disconnected-by-construction: never loop
  }
  return path;
}

void Topology::PathCost::Add(const LinkSpec& l) {
  rtt += LinkRttCost(l);
  bottleneck_bps = std::min(bottleneck_bps, l.bps);
}

Topology::PathCost Topology::Cost(uint32_t src, uint32_t dst) const {
  PathModel::Path buf;
  const int n =
      path_model_ != nullptr ? path_model_->PathLinks(src, dst, &buf) : -1;
  if (n < 0) return CostViaBfs(src, dst);
  PathCost cost;
  for (int i = 0; i < n; ++i) cost.Add(links_[buf[i]]);
  return cost;
}

Topology::PathCost Topology::CostViaBfs(uint32_t src, uint32_t dst) const {
  PathCost cost;
  for (const size_t li : ShortestPathLinksViaBfs(src, dst)) {
    cost.Add(links_[li]);
  }
  return cost;
}

sim::TimePs Topology::BaseRttViaBfs(uint32_t src, uint32_t dst) const {
  return CostViaBfs(src, dst).rtt;
}

sim::TimePs Topology::BaseRtt(uint32_t src, uint32_t dst) const {
  return Cost(src, dst).rtt;
}

sim::TimePs Topology::MaxBaseRtt() const {
  // Adopted-snapshot fast path: the exporting topology already measured it.
  if (max_base_rtt_cache_ >= 0) return max_base_rtt_cache_;
  if (path_model_ != nullptr) {
    uint32_t src = 0;
    uint32_t dst = 0;
    if (path_model_->MaxRttPair(&src, &dst)) return BaseRtt(src, dst);
    // Fall through to the exact sweep when the model declines.
  }
  // Exact over every host pair: one BFS per destination, then propagate the
  // first-parent path cost down the distance layers — cost[src] equals
  // BaseRtt(src, dst) because ShortestPathLinksViaBfs walks the same first
  // adjacent parent at every step.
  sim::TimePs best = 0;
  std::vector<uint32_t> order(nodes_.size());
  std::vector<sim::TimePs> cost(nodes_.size());
  for (const uint32_t dst : hosts_) {
    const std::vector<int> dist =
        BfsDistances(dst, /*respect_link_state=*/false);
    order.clear();
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
      if (dist[n] >= 0) order.push_back(n);
    }
    std::sort(order.begin(), order.end(),
              [&dist](uint32_t x, uint32_t y) { return dist[x] < dist[y]; });
    for (const uint32_t n : order) {
      if (dist[n] == 0) {
        cost[n] = 0;
        continue;
      }
      for (const Edge& e : adj_[n]) {
        if (dist[e.peer] == dist[n] - 1) {
          cost[n] = cost[e.peer] + LinkRttCost(links_[e.link]);
          break;
        }
      }
    }
    for (const uint32_t src : hosts_) {
      if (src != dst && dist[src] > 0) best = std::max(best, cost[src]);
    }
  }
  return best;
}

int64_t Topology::BottleneckBpsViaBfs(uint32_t src, uint32_t dst) const {
  return CostViaBfs(src, dst).bottleneck_bps;
}

int64_t Topology::BottleneckBps(uint32_t src, uint32_t dst) const {
  return Cost(src, dst).bottleneck_bps;
}

sim::TimePs Topology::IdealFct(uint32_t src, uint32_t dst,
                               uint64_t bytes) const {
  // Standalone transfer: all packets back-to-back at the bottleneck, plus one
  // base RTT (first byte propagation + last ACK). Header overhead uses the
  // INT-free header so the denominator is identical across schemes.
  const PathCost path = Cost(src, dst);
  const uint64_t mtu = net::kPayloadBytes;
  const uint64_t full = bytes / mtu;
  const uint64_t rem = bytes % mtu;
  uint64_t wire_bytes =
      full * (mtu + net::kDataHeaderBytes) +
      (rem > 0 ? rem + net::kDataHeaderBytes : 0);
  if (bytes == 0) wire_bytes = net::kDataHeaderBytes;
  return sim::SerializationTime(static_cast<int64_t>(wire_bytes),
                                path.bottleneck_bps) +
         path.rtt;
}

size_t Topology::RoutingResidentBytes() const {
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().resident_bytes();
  }
  return total;
}

size_t Topology::RoutingExpandedPortEntries() const {
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().expanded_port_entries();
  }
  return total;
}

size_t Topology::RoutingGroups() const {
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().num_groups();
  }
  return total;
}

}  // namespace hpcc::topo
