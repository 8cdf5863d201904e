// Scale-out routing core: interned next-hop groups, incremental link-event
// repair (vs a from-scratch dense oracle), the fat-tree analytic path model,
// exact MaxBaseRtt on asymmetric fabrics, and the Release-safe out-of-range
// destination drop.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/nexthop.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "topo/fattree.h"
#include "topo/simple.h"
#include "topo/testbed.h"
#include "topo/topology.h"

namespace hpcc::topo {
namespace {

// ---- NextHopTable unit coverage ---------------------------------------------

TEST(NextHopTable, InternsAndSharesGroups) {
  net::NextHopTable t;
  t.Reset(8);
  const uint16_t ab[] = {1, 3};
  const uint16_t c[] = {2};
  t.SetRoute(0, ab, 2);
  t.SetRoute(1, ab, 2);
  t.SetRoute(2, c, 1);
  EXPECT_EQ(t.group_id(0), t.group_id(1));  // shared across destinations
  EXPECT_NE(t.group_id(0), t.group_id(2));
  EXPECT_EQ(t.num_groups(), 2u);
  EXPECT_EQ(t.PortsOf(0), (std::vector<uint16_t>{1, 3}));
  EXPECT_EQ(t.PortsOf(3), std::vector<uint16_t>{});  // unset: no route
  EXPECT_EQ(t.Lookup(3).size, 0u);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST(NextHopTable, AddRemovePortKeepsOrderAndRefcounts) {
  net::NextHopTable t;
  t.Reset(4);
  const uint16_t ab[] = {1, 3};
  t.SetRoute(0, ab, 2);
  t.SetRoute(1, ab, 2);
  t.AddPort(0, 2);  // copy-on-write: dst 1 must keep {1,3}
  EXPECT_EQ(t.PortsOf(0), (std::vector<uint16_t>{1, 2, 3}));
  EXPECT_EQ(t.PortsOf(1), (std::vector<uint16_t>{1, 3}));
  t.RemovePort(0, 1);
  t.RemovePort(0, 3);
  EXPECT_EQ(t.PortsOf(0), std::vector<uint16_t>{2});
  t.RemovePort(0, 2);
  EXPECT_EQ(t.Lookup(0).size, 0u);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST(NextHopTable, GroupChurnCompactsStorage) {
  net::NextHopTable t;
  t.Reset(2);
  sim::Rng rng(7);
  // Thousands of distinct transient groups on one destination: dead port
  // storage must be reclaimed instead of growing without bound.
  for (int round = 0; round < 20'000; ++round) {
    uint16_t ports[3] = {static_cast<uint16_t>(rng.Index(64)), 0, 0};
    ports[1] = static_cast<uint16_t>(64 + rng.Index(64));
    ports[2] = static_cast<uint16_t>(128 + rng.Index(64));
    t.SetRoute(0, ports, 3);
  }
  EXPECT_TRUE(t.CheckConsistency());
  EXPECT_LT(t.resident_bytes(), 1u << 20);  // bounded despite 20k rewrites
}

// ---- Independent dense oracle ----------------------------------------------

// The seed algorithm, reimplemented here so the product code shares nothing
// with it: per-destination BFS, candidates = up-ports one hop closer.
std::vector<std::vector<uint16_t>> DenseRoutesFor(Topology& t, uint32_t dst) {
  const size_t n = t.num_nodes();
  std::vector<int> dist(n, -1);
  std::vector<uint32_t> q{dst};
  dist[dst] = 0;
  for (size_t head = 0; head < q.size(); ++head) {
    const uint32_t u = q[head];
    net::Node& node = t.node(u);
    for (int p = 0; p < node.num_ports(); ++p) {
      if (!node.port(p).link_up()) continue;
      const uint32_t peer = node.port(p).peer()->id();
      if (dist[peer] < 0) {
        dist[peer] = dist[u] + 1;
        q.push_back(peer);
      }
    }
  }
  std::vector<std::vector<uint16_t>> routes(n);
  for (uint32_t u = 0; u < n; ++u) {
    if (u == dst || dist[u] <= 0) continue;
    net::Node& node = t.node(u);
    for (int p = 0; p < node.num_ports(); ++p) {
      if (!node.port(p).link_up()) continue;
      const uint32_t peer = node.port(p).peer()->id();
      if (dist[peer] >= 0 && dist[peer] == dist[u] - 1) {
        routes[u].push_back(static_cast<uint16_t>(p));
      }
    }
  }
  return routes;
}

void ExpectTablesMatchDenseOracle(Topology& t, const char* context) {
  for (const uint32_t dst : t.hosts()) {
    const auto dense = DenseRoutesFor(t, dst);
    for (const uint32_t s : t.switches()) {
      ASSERT_EQ(t.switch_node(s).routes().PortsOf(dst), dense[s])
          << context << ": switch " << t.switch_node(s).name() << " dst "
          << t.node(dst).name();
    }
  }
  for (const uint32_t s : t.switches()) {
    ASSERT_TRUE(t.switch_node(s).routes().CheckConsistency())
        << context << ": switch " << s;
  }
}

TEST(Routing, FullRecomputeMatchesDenseOracle) {
  sim::Simulator s;
  FatTreeOptions o;  // mini fat-tree, ToR-shared BFS path
  auto ft = MakeFatTree(&s, o);
  ExpectTablesMatchDenseOracle(*ft.topo, "fattree defaults");

  sim::Simulator s2;
  TestbedOptions to;  // dual-homed hosts: the per-destination path
  to.servers_per_pair = 4;
  auto tb = MakeTestbed(&s2, to);
  ExpectTablesMatchDenseOracle(*tb.topo, "testbed");
}

TEST(Routing, InterningCollapsesFatTreeGroups) {
  sim::Simulator s;
  FatTreeOptions o;  // a k=16-shaped slice: 512 hosts, 112 switches
  o.pods = 8;
  o.tors_per_pod = 8;
  o.aggs_per_pod = 4;
  o.cores_per_agg = 4;
  o.hosts_per_tor = 8;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  // Dense storage would hold one candidate list per (switch, host) pair;
  // interning collapses hosts behind the same rack/pod to shared groups.
  const size_t pairs = t.switches().size() * t.hosts().size();
  EXPECT_LT(t.RoutingGroups(), pairs / 50);
  // And the resident footprint beats a dense vector-per-destination layout
  // by over the 5x the acceptance bar asks for (counting only the dense
  // layout's vector headers + port payload, i.e. ignoring its per-vector
  // heap-block overhead — the comparison is conservative).
  const size_t dense_bytes =
      t.switches().size() * t.num_nodes() * sizeof(std::vector<uint16_t>) +
      t.RoutingExpandedPortEntries() * sizeof(uint16_t);
  EXPECT_GT(dense_bytes, 5 * t.RoutingResidentBytes());
}

// ---- Link-flap storm: incremental repair == from-scratch rebuild -----------

void FlapStorm(Topology& t, uint64_t seed, int flaps, bool verify_each) {
  sim::Rng rng(seed);
  const auto& links = t.links();
  std::vector<size_t> down;
  for (int i = 0; i < flaps; ++i) {
    if (!down.empty() && rng.Uniform() < 0.4) {
      const size_t pick = rng.Index(down.size());
      t.SetLinkUp(down[pick], true);
      down.erase(down.begin() + static_cast<long>(pick));
    } else {
      const size_t li = rng.Index(links.size());
      if (!links[li].up) continue;
      t.SetLinkUp(li, false);
      down.push_back(li);
    }
    if (verify_each) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectTablesMatchDenseOracle(t, "after random flap"));
    }
  }
  for (const size_t li : down) t.SetLinkUp(li, true);
  ExpectTablesMatchDenseOracle(t, "after repairing all links");
}

TEST(Routing, LinkFlapStormMatchesOracleOnFatTree) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 4;
  o.tors_per_pod = 3;
  o.aggs_per_pod = 3;
  o.cores_per_agg = 2;
  o.hosts_per_tor = 3;
  auto ft = MakeFatTree(&s, o);
  FlapStorm(*ft.topo, 0xf1a5, 24, /*verify_each=*/true);
}

TEST(Routing, LinkFlapStormMatchesOracleOnTestbed) {
  // Multi-homed hosts: link flaps hit NIC links too (farther-endpoint-is-a-
  // host classification, both degree-1 skip and multi-homed rebuild).
  sim::Simulator s;
  TestbedOptions o;
  o.servers_per_pair = 3;
  auto tb = MakeTestbed(&s, o);
  FlapStorm(*tb.topo, 0xbed5, 30, /*verify_each=*/true);
}

TEST(Routing, BuiltInOracleAcceptsIncrementalRepair) {
  // The debug-mode oracle wired into SetLinkUp itself (HPCC_ROUTE_ORACLE):
  // it must stay silent through a partitioning down + heal cycle.
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 2;
  o.aggs_per_pod = 1;
  o.cores_per_agg = 1;  // single spine: taking it down partitions the pods
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  t.set_route_oracle(true);
  size_t spine = t.links().size();
  for (size_t i = 0; i < t.links().size(); ++i) {
    if (t.node(t.links()[i].a).IsSwitch() && t.node(t.links()[i].b).IsSwitch())
      spine = i;
  }
  ASSERT_LT(spine, t.links().size());
  EXPECT_NO_THROW(t.SetLinkUp(spine, false));
  EXPECT_NO_THROW(t.SetLinkUp(spine, true));
  // And a NIC-link flap (degree-1 host endpoint).
  EXPECT_NO_THROW(t.SetLinkUp(t.links().size() - 1, false));
  EXPECT_NO_THROW(t.SetLinkUp(t.links().size() - 1, true));
}

TEST(Routing, WideFatTreeSingleFlapMatchesOracle) {
  // A k=16-shaped slice (the fattree16/fattree32 scenario family): one
  // fabric flap repaired incrementally must equal the dense rebuild.
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 8;
  o.tors_per_pod = 4;
  o.aggs_per_pod = 4;
  o.cores_per_agg = 4;
  o.hosts_per_tor = 4;  // 128 hosts, 80 switches
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  // First ToR-agg link of pod 0.
  size_t toragg = t.links().size();
  for (size_t i = 0; i < t.links().size(); ++i) {
    const auto& l = t.links()[i];
    if (t.node(l.a).IsSwitch() && t.node(l.b).IsSwitch() &&
        (t.node(l.a).name().rfind("tor", 0) == 0 ||
         t.node(l.b).name().rfind("tor", 0) == 0)) {
      toragg = i;
      break;
    }
  }
  ASSERT_LT(toragg, t.links().size());
  t.SetLinkUp(toragg, false);
  ExpectTablesMatchDenseOracle(t, "wide fat-tree, ToR-agg down");
  t.SetLinkUp(toragg, true);
  ExpectTablesMatchDenseOracle(t, "wide fat-tree, ToR-agg repaired");
}

// ---- Out-of-range destination: checked kNoRoute drop ------------------------

TEST(Routing, OutOfRangeDestinationIsCheckedDrop) {
  sim::Simulator s;
  StarOptions o;
  o.num_hosts = 2;
  auto star = MakeStar(&s, o);
  net::SwitchNode& sw = star.topo->switch_node(star.switch_id);
  net::Packet probe;
  probe.flow_id = 1;
  probe.dst = 0xdeadbeef;  // corrupt destination, far past the node table
  EXPECT_EQ(sw.RoutePort(probe), -1);  // used to be an assert-only OOB read

  // End to end: the switch counts it as a drop instead of crashing or
  // forwarding garbage.
  const uint64_t drops_before = sw.dropped_packets();
  auto pkt = net::MakeDataPacket(/*flow_id=*/1, /*src=*/0,
                                 /*dst=*/0xdeadbeef, /*seq=*/0,
                                 /*payload_bytes=*/1000,
                                 /*int_enabled=*/false, /*ecn_capable=*/false);
  sw.Receive(std::move(pkt), /*in_port=*/0);
  EXPECT_EQ(sw.dropped_packets(), drops_before + 1);
}

// ---- Analytic fat-tree path model vs BFS ------------------------------------

void ExpectModelMatchesBfsOn(const Topology& t, const char* context) {
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      ASSERT_EQ(t.ShortestPathLinks(a, b), t.ShortestPathLinksViaBfs(a, b))
          << context << " hosts " << a << "->" << b;
      if (a == b) continue;
      ASSERT_EQ(t.BaseRtt(a, b), t.BaseRttViaBfs(a, b))
          << context << " hosts " << a << "->" << b;
      ASSERT_EQ(t.BottleneckBps(a, b), t.BottleneckBpsViaBfs(a, b))
          << context << " hosts " << a << "->" << b;
    }
  }
}

void ExpectModelMatchesBfs(const FatTreeOptions& o, const char* context) {
  sim::Simulator s;
  auto ft = MakeFatTree(&s, o);
  ExpectModelMatchesBfsOn(*ft.topo, context);
}

TEST(FatTreeModel, MatchesBfsOnEveryPair) {
  FatTreeOptions mini;  // 2 pods
  ExpectModelMatchesBfs(mini, "mini");

  FatTreeOptions one_pod;
  one_pod.pods = 1;
  one_pod.tors_per_pod = 3;
  one_pod.hosts_per_tor = 3;
  ExpectModelMatchesBfs(one_pod, "one pod");

  FatTreeOptions skewed;  // non-default speeds: host faster than fabric
  skewed.pods = 3;
  skewed.tors_per_pod = 2;
  skewed.aggs_per_pod = 2;
  skewed.cores_per_agg = 1;
  skewed.hosts_per_tor = 2;
  skewed.host_bps = 400'000'000'000;
  skewed.fabric_bps = 100'000'000'000;
  skewed.link_delay = sim::Us(2);
  ExpectModelMatchesBfs(skewed, "skewed speeds");

  FatTreeOptions single_core;  // one core per agg position, 3-wide pods
  single_core.pods = 4;
  single_core.tors_per_pod = 3;
  single_core.aggs_per_pod = 3;
  single_core.cores_per_agg = 1;
  single_core.hosts_per_tor = 2;
  ExpectModelMatchesBfs(single_core, "one core per agg");
}

TEST(FatTreeModel, PathIgnoresLinkStateLikeBfs) {
  // The model answers for the designed topology, as the BFS walk does: a
  // fabric link on the first-parent path going down changes neither.
  sim::Simulator s;
  FatTreeOptions o;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  const uint32_t src = ft.host_ids.front();
  const uint32_t dst = ft.host_ids.back();
  const std::vector<size_t> before = t.ShortestPathLinks(src, dst);
  ASSERT_EQ(before.size(), 6u);  // cross-pod
  t.SetLinkUp(before[2], false);  // src-pod agg 0 -> core 0
  EXPECT_EQ(t.ShortestPathLinks(src, dst), before);
  EXPECT_EQ(t.ShortestPathLinksViaBfs(src, dst), before);
  ExpectModelMatchesBfsOn(t, "agg0-core0 down");
}

TEST(FatTreeModel, MaxBaseRttMatchesExhaustiveSearch) {
  sim::Simulator s;
  FatTreeOptions o;
  o.pods = 3;
  o.tors_per_pod = 2;
  o.hosts_per_tor = 3;
  auto ft = MakeFatTree(&s, o);
  Topology& t = *ft.topo;
  sim::TimePs brute = 0;
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      if (a != b) brute = std::max(brute, t.BaseRttViaBfs(a, b));
    }
  }
  EXPECT_EQ(t.MaxBaseRtt(), brute);
}

// ---- Exact MaxBaseRtt on asymmetric fabrics ---------------------------------

TEST(MaxBaseRtt, ExactOnAsymmetricChain) {
  // h1 - s0 - s1 - s2 - h2, with h0 hanging off the middle switch: the old
  // sample-against-host-0 shortcut saw only 3-hop paths and under-reported
  // the true 4-hop h1<->h2 maximum — mis-configuring every CC scheme's RTT
  // constant T on testbed-like asymmetric builds.
  sim::Simulator sim;
  Topology t(&sim);
  host::HostConfig hc;
  net::SwitchConfig sc;
  const int64_t bps = 100'000'000'000;
  const uint32_t h0 = t.AddHost(hc, "h0");  // hosts_[0]: the old anchor
  const uint32_t h1 = t.AddHost(hc, "h1");
  const uint32_t h2 = t.AddHost(hc, "h2");
  const uint32_t s0 = t.AddSwitch(sc, "s0");
  const uint32_t s1 = t.AddSwitch(sc, "s1");
  const uint32_t s2 = t.AddSwitch(sc, "s2");
  t.AddLink(s0, s1, bps, sim::Us(1));
  t.AddLink(s1, s2, bps, sim::Us(1));
  t.AddLink(h0, s1, bps, sim::Us(1));  // middle
  t.AddLink(h1, s0, bps, sim::Us(1));  // far left
  t.AddLink(h2, s2, bps, sim::Us(1));  // far right
  t.Finalize();

  const sim::TimePs anchored =
      std::max({t.BaseRtt(h0, h1), t.BaseRtt(h1, h0), t.BaseRtt(h0, h2),
                t.BaseRtt(h2, h0)});
  const sim::TimePs true_max = t.BaseRtt(h1, h2);
  ASSERT_GT(true_max, anchored);  // the shape the old shortcut got wrong
  EXPECT_EQ(t.MaxBaseRtt(), true_max);
}

TEST(MaxBaseRtt, TestbedMatchesExhaustiveSearch) {
  sim::Simulator s;
  TestbedOptions o;
  o.servers_per_pair = 4;
  auto tb = MakeTestbed(&s, o);
  Topology& t = *tb.topo;
  sim::TimePs brute = 0;
  for (const uint32_t a : t.hosts()) {
    for (const uint32_t b : t.hosts()) {
      if (a != b) brute = std::max(brute, t.BaseRttViaBfs(a, b));
    }
  }
  EXPECT_EQ(t.MaxBaseRtt(), brute);
}

}  // namespace
}  // namespace hpcc::topo
