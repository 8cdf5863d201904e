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

void Topology::AssignRouteKeys() {
  const size_t n = nodes_.size();
  leaf_port_.assign(n, kNotLeaf);
  for (const uint32_t h : hosts_) {
    if (adj_[h].size() != 1) continue;
    const Edge& e = adj_[h].front();
    if (!nodes_[e.peer]->IsSwitch()) continue;
    const LinkSpec& l = links_[e.link];
    leaf_port_[h] = static_cast<uint16_t>(l.a == h ? l.port_b : l.port_a);
  }
  // A switch roots a key when at least one leaf host hangs off it, whatever
  // the link states; a non-leaf host roots its own.
  std::vector<uint8_t> roots(n, 0);
  for (const uint32_t h : hosts_) {
    if (leaf_port_[h] == kNotLeaf) {
      roots[h] = 1;
    } else {
      roots[adj_[h].front().peer] = 1;
    }
  }
  fabric_index_.assign(n, 0);
  uint32_t fabric_nodes = 0;
  for (uint32_t id = 0; id < n; ++id) {
    if (leaf_port_[id] == kNotLeaf) fabric_index_[id] = fabric_nodes++;
  }
  fabric_begin_.assign(fabric_nodes + 1, 0);
  fabric_edges_.clear();
  own_key_.assign(n, 0);
  key_root_.assign(1, 0);
  for (uint32_t id = 0; id < n; ++id) {
    if (leaf_port_[id] != kNotLeaf) continue;
    const uint32_t f = fabric_index_[id];
    fabric_begin_[f] = static_cast<uint32_t>(fabric_edges_.size());
    for (const Edge& e : adj_[id]) {
      if (leaf_port_[e.peer] != kNotLeaf) continue;
      fabric_edges_.push_back(FabricEdge{fabric_index_[e.peer],
                                         static_cast<uint16_t>(e.port),
                                         links_[e.link].up});
    }
    if (roots[id] != 0) {
      own_key_[id] = static_cast<uint32_t>(key_root_.size());
      key_root_.push_back(f);
    }
  }
  fabric_begin_[fabric_nodes] = static_cast<uint32_t>(fabric_edges_.size());
  route_key_.assign(n, 0);
  for (const uint32_t h : hosts_) {
    if (leaf_port_[h] == kNotLeaf) {
      route_key_[h] = own_key_[h];
    } else if (links_[adj_[h].front().link].up) {
      route_key_[h] = own_key_[adj_[h].front().peer];
    }  // else: sole NIC link down, unreachable (key 0)
  }
}

void Topology::FabricDistances(uint32_t root, std::vector<int>* dist) {
  dist->assign(fabric_begin_.size() - 1, -1);
  std::vector<uint32_t>& q = bfs_queue_;
  q.assign(1, root);
  (*dist)[root] = 0;
  for (size_t head = 0; head < q.size(); ++head) {
    const uint32_t u = q[head];
    const int next = (*dist)[u] + 1;
    for (uint32_t i = fabric_begin_[u]; i < fabric_begin_[u + 1]; ++i) {
      const FabricEdge& e = fabric_edges_[i];
      if (!e.up || (*dist)[e.peer] >= 0) continue;
      (*dist)[e.peer] = next;
      q.push_back(e.peer);
    }
  }
}

void Topology::CollectCandidates(uint32_t f, const std::vector<int>& dist,
                                 std::vector<uint16_t>* cand) const {
  // A node's ECMP set toward the BFS root: every up port whose peer is one
  // hop closer. Candidate order is adjacency order == ascending port index,
  // the canonical group order.
  cand->clear();
  const int want = dist[f] - 1;
  if (want < 0) return;
  for (uint32_t i = fabric_begin_[f]; i < fabric_begin_[f + 1]; ++i) {
    const FabricEdge& e = fabric_edges_[i];
    if (e.up && dist[e.peer] == want) cand->push_back(e.port);
  }
}

void Topology::RebuildKey(uint32_t key) {
  // Every path to a leaf host h ends with its switch v's link to h, so for
  // every switch s != v, d(s, h) = d(s, v) + 1 and s's candidates toward h
  // are exactly its candidates toward v: one BFS from the key's root serves
  // every host sharing the key. v itself (distance 0) keeps the empty slot
  // and delivers through leaf_port_.
  FabricDistances(key_root_[key], &dist_scratch_);
  std::vector<uint16_t>& cand = cand_scratch_;
  for (net::SwitchNode* sw : switch_ptrs_) {
    CollectCandidates(fabric_index_[sw->id()], dist_scratch_, &cand);
    sw->mutable_routes().SetRoute(key, cand.data(),
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
    sw->mutable_routes(/*preserve=*/false).Reset(num_route_keys());
  }
  for (uint32_t key = 1; key < num_route_keys(); ++key) RebuildKey(key);
}

void Topology::Finalize() {
  assert(!finalized_);
  finalized_ = true;
  AssignRouteKeys();
  for (net::SwitchNode* sw : switch_ptrs_) {
    const uint32_t own = own_key_[sw->id()];
    sw->SetRouteKeys(route_key_.data(), leaf_port_.data(),
                     static_cast<uint32_t>(nodes_.size()),
                     own != 0 ? own : net::SwitchNode::kNoOwnKey);
  }
  const bool snapshot_fits =
      adopted_snapshot_ != nullptr &&
      adopted_snapshot_->routes.size() == switches_.size() &&
      std::all_of(adopted_snapshot_->routes.begin(),
                  adopted_snapshot_->routes.end(),
                  [this](const net::NextHopTable& t) {
                    return t.num_keys() == num_route_keys();
                  });
  if (snapshot_fits) {
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

void Topology::ApplyLinkState(size_t link_index, bool up) {
  LinkSpec& l = links_[link_index];
  l.up = up;
  nodes_[l.a]->port(l.port_a).SetLinkUp(up);
  nodes_[l.b]->port(l.port_b).SetLinkUp(up);
  if (!finalized_ || leaf_port_[l.a] != kNotLeaf ||
      leaf_port_[l.b] != kNotLeaf) {
    return;  // no fabric yet, or a leaf host's NIC link (not part of it)
  }
  for (const auto& [node, port] :
       {std::pair{l.a, l.port_a}, std::pair{l.b, l.port_b}}) {
    const uint32_t f = fabric_index_[node];
    for (uint32_t i = fabric_begin_[f]; i < fabric_begin_[f + 1]; ++i) {
      if (fabric_edges_[i].port == port) fabric_edges_[i].up = up;
    }
  }
}

void Topology::SetLinkUp(size_t link_index, bool up) {
  const LinkSpec& l = links_[link_index];
  if (l.up == up) return;
  if (!finalized_) {
    // No routing tables exist yet: Finalize assigns the keys and builds
    // routes from the link states current then.
    ApplyLinkState(link_index, up);
    return;
  }

  RouteTimer timer(this);
  const uint32_t leaf = leaf_port_[l.a] != kNotLeaf ? l.a : l.b;
  if (leaf_port_[leaf] != kNotLeaf) {
    // A leaf host's NIC link: nothing routes through the host, and its
    // switch's key stays valid for the rack's other hosts, so only this
    // host's key flips. No table changes — a warm switch stays shared.
    route_key_[leaf] = up ? own_key_[adj_[leaf].front().peer] : 0;
    ApplyLinkState(link_index, up);
    if (route_oracle_) VerifyRoutesAgainstOracle();
    return;
  }

  // Classify every route key against the flapped link using two BFS passes
  // seeded at its endpoints, over the pre-change fabric (a key's root is a
  // switch or a non-leaf host; every host sharing the key is one hop past
  // the root, so its distances differ by the same amount):
  //
  //   |d(a,key) - d(b,key)| == 0  ->  the link is on no shortest path to
  //       the key and (up or down) opens/closes none: untouched.
  //   |diff| == 1  ->  only the farther endpoint's ECMP group toward the
  //       key changes (it gains/loses the port across the link); distances
  //       are provably unchanged as long as, on a down, the farther
  //       endpoint keeps at least one other parent. O(1) group patch.
  //   otherwise (|diff| >= 2 on up, lost-last-parent on down, or a
  //       partition heal)  ->  distances shift and changes can cascade:
  //       rebuild that key with one BFS, or fall back to a full
  //       RecomputeRoutes when too many keys need it.
  std::vector<int> da;
  std::vector<int> db;
  FabricDistances(fabric_index_[l.a], &da);
  FabricDistances(fabric_index_[l.b], &db);

  struct Patch {
    net::SwitchNode* sw;
    uint32_t key;
    uint16_t port;
    bool add;
  };
  std::vector<Patch> patches;
  std::vector<uint32_t> rebuild;
  for (uint32_t key = 1; key < num_route_keys(); ++key) {
    const uint32_t root = key_root_[key];
    const int xa = da[root];
    const int xb = db[root];
    if (xa < 0 && xb < 0) continue;  // neither endpoint reaches the key
    if (xa < 0 || xb < 0) {
      // Only possible on an up: the link heals a partition for the key.
      rebuild.push_back(key);
      continue;
    }
    const int diff = xa - xb;
    if (diff == 0) continue;
    if (diff > 1 || diff < -1) {
      // Only possible on an up (endpoints were not adjacent): the new link
      // shortens paths toward the key.
      rebuild.push_back(key);
      continue;
    }
    // |diff| == 1: the endpoint farther from the key routes across the link.
    const uint32_t farther = diff > 0 ? l.a : l.b;
    const uint16_t fport =
        static_cast<uint16_t>(diff > 0 ? l.port_a : l.port_b);
    net::Node& fn = *nodes_[farther];
    if (!fn.IsSwitch()) {
      // Hosts hold no routing table. A degree-1 host is a leaf nothing
      // routes through, so no switch table changes; a multi-homed host
      // losing a parent can shift distances for switches routing through
      // it — rebuild exactly.
      if (!up && adj_[farther].size() > 1) rebuild.push_back(key);
      continue;
    }
    auto* sw = static_cast<net::SwitchNode*>(&fn);
    if (up) {
      patches.push_back(Patch{sw, key, fport, /*add=*/true});
      continue;
    }
    const net::NextHopTable::Group g = sw->routes().Lookup(key);
    const bool has_port =
        std::binary_search(g.ports, g.ports + g.size, fport);
    if (g.size >= 2 && has_port) {
      patches.push_back(Patch{sw, key, fport, /*add=*/false});
    } else {
      // Last parent lost (or an unexpected table state): exact rebuild.
      rebuild.push_back(key);
    }
  }

  ApplyLinkState(link_index, up);

  // Beyond this bound incremental repair is no cheaper than one
  // from-scratch pass, so it degrades gracefully to the full rebuild.
  const size_t bound = std::max<size_t>(num_route_keys() / 2, 16);
  if (rebuild.size() > bound) {
    RecomputeRoutes();
  } else {
    for (const Patch& p : patches) {
      if (p.add) {
        p.sw->mutable_routes().AddPort(p.key, p.port);
      } else {
        p.sw->mutable_routes().RemovePort(p.key, p.port);
      }
    }
    for (const uint32_t key : rebuild) RebuildKey(key);
  }
  if (route_oracle_) VerifyRoutesAgainstOracle();
}

void Topology::VerifyRoutesAgainstOracle() {
  // Dense from-scratch per-host recomputation (the seed algorithm, shared
  // with nothing above): one BFS per host over the whole graph, candidates
  // re-derived directly, compared with what each switch resolves for that
  // host through its key.
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
      if (want != sw->RoutePortsTo(dst)) {
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
  size_t total = route_key_.capacity() * sizeof(uint32_t) +
                 leaf_port_.capacity() * sizeof(uint16_t) +
                 own_key_.capacity() * sizeof(uint32_t) +
                 key_root_.capacity() * sizeof(uint32_t) +
                 fabric_index_.capacity() * sizeof(uint32_t) +
                 fabric_begin_.capacity() * sizeof(uint32_t) +
                 fabric_edges_.capacity() * sizeof(FabricEdge);
  for (const net::SwitchNode* sw : switch_ptrs_) {
    total += sw->routes().resident_bytes();
  }
  return total;
}

size_t Topology::RoutingExpandedPortEntries() const {
  // Per (switch, host): hosts sharing a key share its candidate list, and a
  // switch reaches each of its own up leaf hosts through one port.
  std::vector<size_t> hosts_per_key(num_route_keys(), 0);
  for (const uint32_t h : hosts_) ++hosts_per_key[route_key_[h]];
  size_t total = 0;
  for (const net::SwitchNode* sw : switch_ptrs_) {
    const uint32_t own = own_key_[sw->id()];
    for (uint32_t key = 1; key < num_route_keys(); ++key) {
      const size_t ports = key == own ? 1 : sw->routes().Lookup(key).size;
      total += hosts_per_key[key] * ports;
    }
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
