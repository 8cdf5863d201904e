#include "topo/fattree.h"

#include <string>

namespace hpcc::topo {

FatTreeTopology MakeFatTree(sim::Simulator* simulator,
                            const FatTreeOptions& options,
                            std::shared_ptr<const FabricSnapshot> snapshot) {
  FatTreeTopology out;
  out.topo = std::make_unique<Topology>(simulator);
  Topology& t = *out.topo;
  FatTreePathModel::LinkTables tables;

  auto tier_of = [&out](uint32_t id, FatTreeTopology::Tier tier) {
    if (out.tiers.size() <= id) out.tiers.resize(id + 1);
    out.tiers[id] = tier;
  };

  // Core layer: one group of `cores_per_agg` cores per agg position.
  const int num_cores = options.aggs_per_pod * options.cores_per_agg;
  for (int c = 0; c < num_cores; ++c) {
    const uint32_t id = t.AddSwitch(options.sw, "core" + std::to_string(c));
    out.core_ids.push_back(id);
    tier_of(id, FatTreeTopology::Tier::kCore);
  }

  for (int p = 0; p < options.pods; ++p) {
    std::vector<uint32_t> pod_aggs;
    for (int a = 0; a < options.aggs_per_pod; ++a) {
      const uint32_t agg = t.AddSwitch(
          options.sw, "agg" + std::to_string(p) + "_" + std::to_string(a));
      out.agg_ids.push_back(agg);
      pod_aggs.push_back(agg);
      tier_of(agg, FatTreeTopology::Tier::kAgg);
      // Agg position `a` connects to core group `a`.
      for (int k = 0; k < options.cores_per_agg; ++k) {
        if (a == 0 && k == 0) tables.agg0_core0.push_back(t.links().size());
        t.AddLink(agg, out.core_ids[a * options.cores_per_agg + k],
                  options.fabric_bps, options.link_delay);
      }
    }
    for (int r = 0; r < options.tors_per_pod; ++r) {
      const uint32_t tor = t.AddSwitch(
          options.sw, "tor" + std::to_string(p) + "_" + std::to_string(r));
      out.tor_ids.push_back(tor);
      tier_of(tor, FatTreeTopology::Tier::kTor);
      if (!pod_aggs.empty()) tables.tor_agg0.push_back(t.links().size());
      for (uint32_t agg : pod_aggs) {
        t.AddLink(tor, agg, options.fabric_bps, options.link_delay);
      }
      for (int h = 0; h < options.hosts_per_tor; ++h) {
        const uint32_t host = t.AddHost(
            options.host, "h" + std::to_string(p) + "_" + std::to_string(r) +
                              "_" + std::to_string(h));
        out.host_ids.push_back(host);
        tier_of(host, FatTreeTopology::Tier::kHost);
        tables.host_link.push_back(t.links().size());
        t.AddLink(host, tor, options.host_bps, options.link_delay);
      }
    }
  }
  t.SetPathModel(std::make_unique<FatTreePathModel>(
      options, out.host_ids, t.num_nodes(), std::move(tables)));
  if (snapshot != nullptr) t.AdoptSnapshot(std::move(snapshot));
  t.Finalize();
  return out;
}

FatTreePathModel::FatTreePathModel(const FatTreeOptions& options,
                                   const std::vector<uint32_t>& host_ids,
                                   size_t num_nodes, LinkTables tables)
    : tors_per_pod_(options.tors_per_pod),
      hosts_per_tor_(options.hosts_per_tor),
      tables_(std::move(tables)),
      host_index_(num_nodes, -1) {
  for (size_t i = 0; i < host_ids.size(); ++i) {
    host_index_[host_ids[i]] = static_cast<int32_t>(i);
  }
  if (!host_ids.empty()) {
    first_host_ = host_ids.front();
    last_host_ = host_ids.back();
  }
}

int FatTreePathModel::PathLinks(uint32_t src, uint32_t dst,
                                Path* out) const {
  if (src >= host_index_.size() || dst >= host_index_.size()) return -1;
  const int32_t si = host_index_[src];
  const int32_t di = host_index_[dst];
  if (si < 0 || di < 0) return -1;  // switches: fall back to BFS
  if (si == di) return 0;  // zero-link path, matching the BFS answer
  const int32_t stor = si / hosts_per_tor_;
  const int32_t dtor = di / hosts_per_tor_;
  const int32_t spod = stor / tors_per_pod_;
  const int32_t dpod = dtor / tors_per_pod_;
  // The BFS walk takes the first adjacent parent at every hop, and the
  // builder links every ToR to its pod's agg 0 first and every agg 0 to
  // core 0 first — so the walk climbs through agg 0 (and core 0).
  if (stor != dtor && tables_.tor_agg0.empty()) return -1;
  if (spod != dpod && tables_.agg0_core0.empty()) return -1;
  Path& p = *out;
  int n = 0;
  p[n++] = tables_.host_link[si];
  if (stor != dtor) {
    p[n++] = tables_.tor_agg0[stor];
    if (spod != dpod) {
      p[n++] = tables_.agg0_core0[spod];
      p[n++] = tables_.agg0_core0[dpod];
    }
    p[n++] = tables_.tor_agg0[dtor];
  }
  p[n++] = tables_.host_link[di];
  return n;
}

bool FatTreePathModel::MaxRttPair(uint32_t* src, uint32_t* dst) const {
  // Builder host order makes front/back the structurally farthest pair
  // (cross-pod when pods >= 2, cross-rack when a pod has >= 2 ToRs), and
  // with uniform link delays more hops never cost less.
  if (tables_.host_link.size() < 2) return false;
  *src = first_host_;
  *dst = last_host_;
  return true;
}

}  // namespace hpcc::topo
