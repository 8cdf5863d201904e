// Topology: owns all nodes, wires links, computes shortest-path ECMP routes,
// and provides base-RTT / ideal-FCT queries for FCT-slowdown accounting.
//
// Routing state is keyed by *route key* rather than by destination host.
// Finalize assigns the keys from the graph's structure: a leaf host (one
// link, to a switch) is reached through its switch's key, so the hosts of a
// rack share one key, and every other host keeps a key of its own. Topology
// owns the node -> key map that every switch reads, and the per-host port
// its switch delivers a leaf host through; each switch's interned
// next-hop-group table (net/nexthop.h) maps key -> shared ECMP port set.
// Topology is the only writer: Finalize()/RecomputeRoutes() build the tables
// from scratch with one BFS per key, and SetLinkUp() repairs them
// incrementally (see the implementation notes on SetLinkUp) instead of
// rebuilding every table on every link event. Every resolved
// (switch, host) candidate list equals the dense per-host BFS result.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "host/host_node.h"
#include "net/node.h"
#include "net/switch_node.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "topo/snapshot.h"

namespace hpcc::topo {

struct LinkSpec {
  uint32_t a;
  int port_a;
  uint32_t b;
  int port_b;
  int64_t bps;
  sim::TimePs delay;
  bool up = true;
};

// Analytic path model a regular-fabric builder can install so the
// designed-topology path queries (ShortestPathLinks / BaseRtt /
// BottleneckBps / IdealFct / MaxBaseRtt) answer in O(path length) from
// structural arithmetic instead of a full-fabric BFS per call. The model
// must return exactly the first-parent BFS walk — the routing tests compare
// them pairwise — since the hybrid engine pins fluid flows to that path and
// IdealFct is the denominator of FCT slowdown.
class PathModel {
 public:
  // Longest path a model may return.
  static constexpr int kMaxLinks = 8;
  using Path = std::array<size_t, kMaxLinks>;
  virtual ~PathModel() = default;
  // Writes the LinkSpec indices of the designed-topology first-parent path
  // src -> dst, in walk order, into `out` and returns how many; -1 when the
  // model cannot answer (caller falls back to BFS). Never allocates.
  virtual int PathLinks(uint32_t src, uint32_t dst, Path* out) const = 0;
  // A host pair attaining the maximum BaseRtt. False when fewer than two
  // hosts exist.
  virtual bool MaxRttPair(uint32_t* src, uint32_t* dst) const = 0;
};

class Topology {
 public:
  explicit Topology(sim::Simulator* simulator);

  uint32_t AddHost(const host::HostConfig& config, const std::string& name);
  uint32_t AddSwitch(const net::SwitchConfig& config, const std::string& name);
  // Full-duplex link: one egress port on each side.
  void AddLink(uint32_t a, uint32_t b, int64_t bps, sim::TimePs delay);

  // Computes BFS ECMP routing tables and finalizes switch buffers. Must be
  // called once after all nodes/links are added, before the simulation runs.
  void Finalize();

  // Link failure / repair: takes the link down (both directions stop
  // transmitting; in-flight packets still arrive) and repairs the routing
  // tables around it. Flows rehash onto surviving paths; HPCC senders
  // notice via the INT pathID and reset their link records (§4.1).
  //
  // A leaf host's NIC link only flips that host's key between its switch's
  // key and the unreachable key 0; no table changes. On any other link,
  // repair is incremental: two BFS passes seeded at the link endpoints
  // classify every route key as untouched, patchable in O(1) (one ECMP
  // group gains/loses the flapped port), or distance-changed (rebuilt with
  // one per-key BFS); a full RecomputeRoutes runs only when the
  // distance-changed set exceeds a bound. The result is exactly equal to a
  // from-scratch rebuild — pinned by the storm tests and, when
  // set_route_oracle(true) (or HPCC_ROUTE_ORACLE=1), re-verified against a
  // dense per-host recomputation after every call.
  void SetLinkUp(size_t link_index, bool up);
  // Rebuilds every ECMP table from the current link states.
  void RecomputeRoutes();

  // Installs an analytic designed-topology path model (regular builders).
  void SetPathModel(std::unique_ptr<PathModel> model) {
    path_model_ = std::move(model);
  }

  // --- Fabric snapshots (warm-start sweeps; topo/snapshot.h) -------------
  // Captures the finalized routing state, path model and measured
  // MaxBaseRtt into an immutable snapshot shareable across sweep jobs.
  // Call after Finalize and before any link event mutates routes.
  // `signature` is the caller's cache key for this fabric configuration
  // (recorded in the snapshot for manifest provenance).
  std::shared_ptr<const FabricSnapshot> ExportSnapshot(
      uint64_t signature = 0) const;
  // Pre-Finalize: Finalize() will adopt `snap`'s tables as shared read
  // views instead of running the route BFS (it still derives its own
  // node -> key map, in O(nodes)). The snapshot must come from an
  // identically built topology (same nodes, links, initial link states) —
  // the sweep runner keys its cache on the topology configuration; a
  // snapshot whose tables do not have this topology's key count is ignored.
  void AdoptSnapshot(std::shared_ptr<const FabricSnapshot> snap) {
    adopted_snapshot_ = std::move(snap);
  }
  // The snapshot Finalize adopted (null on a cold build).
  const std::shared_ptr<const FabricSnapshot>& adopted_snapshot() const {
    return adopted_snapshot_;
  }

  // Cumulative wall-clock seconds spent building or repairing routes
  // (Finalize, RecomputeRoutes, SetLinkUp). Telemetry self-profiling only —
  // machine-dependent, never part of deterministic output.
  double route_compute_seconds() const { return route_compute_seconds_; }

  net::Node& node(uint32_t id) { return *nodes_[id]; }
  host::HostNode& host(uint32_t id);
  net::SwitchNode& switch_node(uint32_t id);
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<uint32_t>& hosts() const { return hosts_; }
  const std::vector<uint32_t>& switches() const { return switches_; }
  const std::vector<LinkSpec>& links() const { return links_; }
  sim::Simulator& simulator() { return *simulator_; }

  // Number of links on a shortest path src -> dst over currently-up links
  // (-1 when the live topology has no path).
  int PathHops(uint32_t src, uint32_t dst) const;
  // Base (unloaded) RTT: forward MTU-sized data + returning ACK.
  sim::TimePs BaseRtt(uint32_t src, uint32_t dst) const;
  // Max base RTT over all host pairs (the "T" configured into CC, §5.1).
  // Exact: either the builder's analytic model answers, or every host pair
  // is covered by one cost-propagating BFS per destination — sampling
  // against an arbitrary anchor host under-reports T on asymmetric fabrics
  // and would mis-configure every scheme's RTT constant.
  sim::TimePs MaxBaseRtt() const;
  // Lowest link capacity on a shortest path.
  int64_t BottleneckBps(uint32_t src, uint32_t dst) const;
  // Standalone FCT of a `bytes`-long flow (denominator of FCT slowdown):
  // wire time of all its packets at the bottleneck + base RTT. Like BaseRtt
  // and BottleneckBps, computed over the designed topology (link failures
  // ignored) so the normalization is stable across a run with link events.
  sim::TimePs IdealFct(uint32_t src, uint32_t dst, uint64_t bytes) const;

  // BFS hop distance between any two nodes (negative when disconnected).
  int Distance(uint32_t from, uint32_t to) const;

  // One shortest path (first-parent BFS) as a sequence of LinkSpec indices
  // in src -> dst walk order, over the designed topology (link state
  // ignored). The per-link traversal direction is recoverable by walking
  // from `src`: the endpoint matching the current node is the egress side.
  // The hybrid fluid engine uses this to pin each fluid flow's link list.
  // Answered by the path model when one is installed, else by BFS.
  std::vector<size_t> ShortestPathLinks(uint32_t src, uint32_t dst) const;

  // BFS-only variants bypassing the analytic model — the oracle the model
  // equality tests compare against.
  std::vector<size_t> ShortestPathLinksViaBfs(uint32_t src,
                                              uint32_t dst) const;
  sim::TimePs BaseRttViaBfs(uint32_t src, uint32_t dst) const;
  int64_t BottleneckBpsViaBfs(uint32_t src, uint32_t dst) const;

  // Routing footprint (memory benchmarks): every switch's table plus the
  // shared key maps, the last-hop port array and the fabric graph route
  // build walks.
  size_t RoutingResidentBytes() const;
  // Port entries a dense per-(switch, host) table would hold, and the number
  // of distinct interned groups actually holding them.
  size_t RoutingExpandedPortEntries() const;
  size_t RoutingGroups() const;

  // Debug oracle: when enabled, every SetLinkUp re-derives the dense
  // per-host tables from scratch and throws std::logic_error on any
  // divergence. Defaults to the HPCC_ROUTE_ORACLE environment variable.
  void set_route_oracle(bool on) { route_oracle_ = on; }
  // Compares every switch's resolved candidate list toward every host
  // (SwitchNode::RoutePortsTo) against a dense per-host recomputation (and
  // each table's internal invariants); throws std::logic_error on mismatch.
  void VerifyRoutesAgainstOracle();

 private:
  // RAII wall-clock accumulator into route_compute_seconds_; nesting-aware
  // so SetLinkUp falling back to RecomputeRoutes counts once.
  class RouteTimer;

  std::vector<int> BfsDistances(uint32_t from,
                                bool respect_link_state = true) const;
  // Base RTT and bottleneck of one designed-topology path.
  struct PathCost {
    sim::TimePs rtt = 0;
    int64_t bottleneck_bps = std::numeric_limits<int64_t>::max();
    void Add(const LinkSpec& l);
  };
  // Cost of the first-parent path: from the model's link list when it
  // answers (no allocation), else from the BFS walk.
  PathCost Cost(uint32_t src, uint32_t dst) const;
  PathCost CostViaBfs(uint32_t src, uint32_t dst) const;

  // Assigns the route keys (Finalize): key 0 is "unreachable", then, in
  // node-id order, one key per switch with at least one leaf host and one
  // per non-leaf host. Fills leaf_port_, builds the fabric graph and sets
  // the node -> key maps from the current link states.
  void AssignRouteKeys();
  // Route keys in use, counting the unreachable key 0: the slot count of
  // every switch's table.
  uint32_t num_route_keys() const {
    return static_cast<uint32_t>(key_root_.size());
  }
  // Hop distances from fabric index `root` over up fabric links, indexed by
  // fabric index (leaf hosts are dead ends no shortest path crosses, so the
  // BFS never enters one). Reuses `dist`'s storage.
  void FabricDistances(uint32_t root, std::vector<int>* dist);
  // ECMP candidates of fabric node `f` toward the root of the `dist` BFS
  // (ascending port order; a leaf host is never one). The oracle keeps its
  // own independent copy on purpose.
  void CollectCandidates(uint32_t f, const std::vector<int>& dist,
                         std::vector<uint16_t>* cand) const;
  // Sets one link's state on the link, both its ports and (after Finalize)
  // its fabric edges; routes are the caller's business.
  void ApplyLinkState(size_t link_index, bool up);
  // Rebuilds every switch's slot for `key` with one BFS from its root: the
  // single path the full build and incremental repair share.
  void RebuildKey(uint32_t key);

  sim::Simulator* simulator_;
  std::vector<std::unique_ptr<net::Node>> nodes_;
  std::vector<uint32_t> hosts_;
  std::vector<uint32_t> switches_;
  std::vector<net::SwitchNode*> switch_ptrs_;  // switches_, typed
  std::vector<LinkSpec> links_;
  // adjacency: node -> list of (link index, out port, peer)
  struct Edge {
    size_t link;
    int port;
    uint32_t peer;
  };
  std::vector<std::vector<Edge>> adj_;
  std::shared_ptr<const PathModel> path_model_;
  // Keeps an adopted snapshot's tables alive while switches alias them.
  std::shared_ptr<const FabricSnapshot> adopted_snapshot_;
  sim::TimePs max_base_rtt_cache_ = -1;  // < 0 = not cached
  // Route keys (AssignRouteKeys). Switches alias route_key_ and leaf_port_,
  // so neither is resized after Finalize.
  static constexpr uint16_t kNotLeaf = 0xffff;
  std::vector<uint32_t> route_key_;  // node -> key packets to it route by
  std::vector<uint16_t> leaf_port_;  // leaf host -> its switch's port; else
                                     // kNotLeaf
  std::vector<uint32_t> own_key_;    // node -> key rooted at it (0: none)
  // The fabric: every node but the leaf hosts, numbered densely (fabric
  // index) so per-key BFS state stays cache-resident, with CSR adjacency
  // that omits the edges into leaf hosts and carries each link's state
  // (SetLinkUp keeps it in step with links_). Every per-key BFS and
  // candidate scan walks this graph.
  struct FabricEdge {
    uint32_t peer;  // fabric index
    uint16_t port;
    bool up;
  };
  std::vector<uint32_t> fabric_index_;  // node -> fabric index (non-leaf)
  std::vector<uint32_t> fabric_begin_;  // fabric index -> first edge; +1
  std::vector<FabricEdge> fabric_edges_;
  std::vector<uint32_t> key_root_;  // key -> root's fabric index ([0] unused)
  std::vector<int> dist_scratch_;
  std::vector<uint32_t> bfs_queue_;
  std::vector<uint16_t> cand_scratch_;
  bool finalized_ = false;
  bool route_oracle_ = false;
  double route_compute_seconds_ = 0;
  int route_timer_depth_ = 0;
};

}  // namespace hpcc::topo
