// Three-tier Clos / FatTree, the simulation topology of §5.1 (16 Core,
// 20 Agg, 20 ToR, 320 single-NIC 100 Gbps servers, 400 Gbps fabric).
//
// Structure: pods of (tors_per_pod ToRs x aggs_per_pod Aggs) with a full
// bipartite mesh inside the pod; Agg j of each pod connects to core group j
// (cores_per_agg cores). Defaults build a scaled-down instance for fast
// benches; PaperScale() matches the paper's counts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "topo/topology.h"

namespace hpcc::topo {

struct FatTreeOptions {
  int pods = 2;
  int tors_per_pod = 2;
  int aggs_per_pod = 2;
  int cores_per_agg = 2;  // cores total = aggs_per_pod * cores_per_agg
  int hosts_per_tor = 8;
  int64_t host_bps = 100'000'000'000;
  int64_t fabric_bps = 400'000'000'000;
  sim::TimePs link_delay = sim::Us(1);
  host::HostConfig host;
  net::SwitchConfig sw;

  // §5.1 scale: 4 pods x 5 ToRs x 5 Aggs, 20 cores, 16 hosts/ToR = 320 hosts.
  static FatTreeOptions PaperScale() {
    FatTreeOptions o;
    o.pods = 4;
    o.tors_per_pod = 5;
    o.aggs_per_pod = 5;
    o.cores_per_agg = 4;
    o.hosts_per_tor = 16;
    return o;
  }

  int num_hosts() const { return pods * tors_per_pod * hosts_per_tor; }
};

struct FatTreeTopology {
  std::unique_ptr<Topology> topo;
  std::vector<uint32_t> host_ids;
  std::vector<uint32_t> tor_ids;
  std::vector<uint32_t> agg_ids;
  std::vector<uint32_t> core_ids;
  // Tier of every node id (for PFC propagation depth reporting).
  enum class Tier { kHost, kTor, kAgg, kCore };
  std::vector<Tier> tiers;
};

// `snapshot`: optional warm-start fabric snapshot from an identically
// configured build; Finalize adopts its routing tables instead of running
// the route BFS (see topo/snapshot.h).
FatTreeTopology MakeFatTree(
    sim::Simulator* simulator, const FatTreeOptions& options,
    std::shared_ptr<const FabricSnapshot> snapshot = nullptr);

// Analytic designed-topology path model for the regular fat-tree: the exact
// first-parent BFS path from pod arithmetic over the builder's link order —
// host -> ToR -> pod agg 0 [-> core 0 -> dst-pod agg 0] -> dst ToR -> host
// (2 links same-rack, 4 same-pod, 6 cross-pod). Installed by MakeFatTree so
// ShortestPathLinks / BaseRtt / IdealFct / MaxBaseRtt answer in O(path
// length) instead of a full-fabric BFS — experiment setup, per-flow FCT
// normalization and fluid-flow admission stop scaling with fabric size.
// Must agree exactly with the BFS walk; the routing tests compare all pairs
// on several shapes.
class FatTreePathModel : public PathModel {
 public:
  // Link indices MakeFatTree records while it builds.
  struct LinkTables {
    std::vector<size_t> host_link;   // per host (builder order): its NIC link
    std::vector<size_t> tor_agg0;    // per ToR: ToR -> pod agg 0
    std::vector<size_t> agg0_core0;  // per pod: agg 0 -> core 0
  };
  FatTreePathModel(const FatTreeOptions& options,
                   const std::vector<uint32_t>& host_ids, size_t num_nodes,
                   LinkTables tables);

  int PathLinks(uint32_t src, uint32_t dst, Path* out) const override;
  bool MaxRttPair(uint32_t* src, uint32_t* dst) const override;

 private:
  int tors_per_pod_;
  int hosts_per_tor_;
  LinkTables tables_;
  uint32_t first_host_ = 0;
  uint32_t last_host_ = 0;
  // node id -> linear host index in builder order (-1 for switches).
  std::vector<int32_t> host_index_;
};

}  // namespace hpcc::topo
