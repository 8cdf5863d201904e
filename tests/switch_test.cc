// Tests for ports, links, and the switch pipeline: delivery timing, FIFO,
// INT stamping at dequeue, ECN marking, buffer drops and PFC on the wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/packet.h"
#include "net/port.h"
#include "net/switch_node.h"
#include "sim/simulator.h"

namespace hpcc::net {
namespace {

class SinkNode : public Node {
 public:
  using Node::Node;
  void Receive(PacketPtr pkt, int in_port) override {
    arrival_times.push_back(simulator_->now());
    in_ports.push_back(in_port);
    received.push_back(std::move(pkt));
  }
  bool IsSwitch() const override { return false; }

  std::vector<PacketPtr> received;
  std::vector<sim::TimePs> arrival_times;
  std::vector<int> in_ports;
};

constexpr int64_t kBps = 100'000'000'000;
constexpr sim::TimePs kDelay = sim::Us(1);

void Wire(Node& a, Node& b, int64_t bps, sim::TimePs delay) {
  const int pa = a.AddPort(std::make_unique<Port>(&a, a.num_ports(), bps,
                                                  delay));
  const int pb = b.AddPort(std::make_unique<Port>(&b, b.num_ports(), bps,
                                                  delay));
  a.port(pa).ConnectTo(&b, pb);
  b.port(pb).ConnectTo(&a, pa);
}

// A(0) -- switch -- B(1); node ids: A=0, B=1, switch=2.
struct Fixture {
  sim::Simulator s;
  SinkNode a{&s, 0, "a"};
  SinkNode b{&s, 1, "b"};
  SwitchNode sw;

  explicit Fixture(SwitchConfig cfg = {}) : sw(&s, 2, "sw", cfg) {
    Wire(a, sw, kBps, kDelay);
    Wire(b, sw, kBps, kDelay);
    std::vector<std::vector<uint16_t>> routes(3);
    routes[0] = {0};  // toward A via switch port 0
    routes[1] = {1};  // toward B via switch port 1
    sw.SetRoutes(std::move(routes));
    sw.FinishSetup();
  }

  PacketPtr Data(int payload = 1000, bool int_on = false, uint64_t seq = 0,
                 bool ecn = false) {
    auto p = MakeDataPacket(1, 0, 1, seq, payload, int_on, ecn);
    return p;
  }
};

TEST(Switch, DeliversWithExactTiming) {
  Fixture f;
  f.a.port(0).Enqueue(f.Data());
  f.s.Run();
  ASSERT_EQ(f.b.received.size(), 1u);
  // Two serializations (host link + switch egress) + two propagations.
  const sim::TimePs ser = sim::SerializationTime(1048, kBps);
  EXPECT_EQ(f.b.arrival_times[0], 2 * ser + 2 * kDelay);
  EXPECT_EQ(f.sw.forwarded_packets(), 1u);
  EXPECT_EQ(f.sw.dropped_packets(), 0u);
}

TEST(Switch, FifoOrderPreserved) {
  Fixture f;
  for (uint64_t i = 0; i < 10; ++i) {
    f.a.port(0).Enqueue(f.Data(1000, false, i * 1000));
  }
  f.s.Run();
  ASSERT_EQ(f.b.received.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(f.b.received[i]->seq, i * 1000);
  }
}

TEST(Switch, BackToBackPacketsPipelineOnTheWire) {
  Fixture f;
  const int n = 5;
  for (int i = 0; i < n; ++i) f.a.port(0).Enqueue(f.Data());
  f.s.Run();
  const sim::TimePs ser = sim::SerializationTime(1048, kBps);
  // Steady state: one packet per serialization time.
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(f.b.arrival_times[i] - f.b.arrival_times[i - 1], ser);
  }
}

TEST(Switch, StampsIntHopAtDequeue) {
  Fixture f;
  f.a.port(0).Enqueue(f.Data(1000, /*int_on=*/true));
  f.s.Run();
  ASSERT_EQ(f.b.received.size(), 1u);
  const Packet& p = *f.b.received[0];
  ASSERT_EQ(p.int_stack.n_hops(), 1);
  const core::IntHop& h = p.int_stack.hop(0);
  EXPECT_EQ(h.bandwidth_bps, kBps);
  EXPECT_EQ(h.switch_id, 2u);
  EXPECT_EQ(h.qlen_bytes, 0);  // nothing left behind
  EXPECT_EQ(h.tx_bytes, static_cast<uint64_t>(p.size_bytes()));
  EXPECT_EQ(p.int_stack.path_id(), 2);
}

TEST(Switch, IntQlenReportsQueueLeftBehind) {
  Fixture f;
  // Three INT packets arrive back-to-back; the first leaves two behind.
  for (int i = 0; i < 3; ++i) {
    f.a.port(0).Enqueue(f.Data(1000, true, static_cast<uint64_t>(i) * 1000));
  }
  f.s.Run();
  ASSERT_EQ(f.b.received.size(), 3u);
  // Arrival at the switch is paced by the ingress link at the same speed as
  // the egress, so queue occupancy at dequeue is 0 here; instead verify
  // txBytes monotonically accumulates.
  uint64_t prev = 0;
  for (const auto& p : f.b.received) {
    EXPECT_GT(p->int_stack.hop(0).tx_bytes, prev);
    prev = p->int_stack.hop(0).tx_bytes;
  }
}

TEST(Switch, IntNotStampedWhenPacketDoesNotAsk) {
  Fixture f;
  f.a.port(0).Enqueue(f.Data(1000, /*int_on=*/false));
  f.s.Run();
  EXPECT_EQ(f.b.received[0]->int_stack.n_hops(), 0);
}

TEST(Switch, IntDisabledSwitchDoesNotStamp) {
  SwitchConfig cfg;
  cfg.int_enabled = false;
  Fixture f(cfg);
  f.a.port(0).Enqueue(f.Data(1000, /*int_on=*/true));
  f.s.Run();
  EXPECT_EQ(f.b.received[0]->int_stack.n_hops(), 0);
}

TEST(Switch, EcnMarksAboveKmax) {
  SwitchConfig cfg;
  cfg.red.enabled = true;
  cfg.red.kmin_bytes = 0;
  cfg.red.kmax_bytes = 0;  // always mark ECN-capable packets
  cfg.red.pmax = 1.0;
  Fixture f(cfg);
  f.a.port(0).Enqueue(f.Data(1000, false, 0, /*ecn=*/true));
  f.a.port(0).Enqueue(f.Data(1000, false, 1000, /*ecn=*/false));
  f.s.Run();
  ASSERT_EQ(f.b.received.size(), 2u);
  EXPECT_TRUE(f.b.received[0]->ecn_ce);
  EXPECT_FALSE(f.b.received[1]->ecn_ce);  // not ECN-capable: never marked
}

// Two senders converging on one egress: the only way queues build when all
// links run at the same speed.
struct FanInFixture {
  sim::Simulator s;
  SinkNode a{&s, 0, "a"};
  SinkNode c{&s, 1, "c"};
  SinkNode b{&s, 2, "b"};  // receiver
  SwitchNode sw;

  explicit FanInFixture(SwitchConfig cfg = {}) : sw(&s, 3, "sw", cfg) {
    Wire(a, sw, kBps, kDelay);
    Wire(c, sw, kBps, kDelay);
    Wire(b, sw, kBps, kDelay);
    std::vector<std::vector<uint16_t>> routes(4);
    routes[0] = {0};
    routes[1] = {1};
    routes[2] = {2};
    sw.SetRoutes(std::move(routes));
    sw.FinishSetup();
  }

  void Blast(SinkNode& src, uint64_t flow, int packets) {
    for (int i = 0; i < packets; ++i) {
      src.port(0).Enqueue(MakeDataPacket(flow, src.id(), 2,
                                         static_cast<uint64_t>(i) * 1000,
                                         1000, false, false));
    }
  }
};

TEST(Switch, TailDropWhenBufferExhausted) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 5'000;  // fits ~four 1048B packets
  cfg.pfc_enabled = false;
  cfg.egress_alpha = 1e9;  // disable the dynamic threshold; pure tail drop
  FanInFixture f(cfg);
  f.Blast(f.a, 1, 30);
  f.Blast(f.c, 2, 30);
  f.s.Run();
  EXPECT_GT(f.sw.dropped_packets(), 0u);
  EXPECT_EQ(f.b.received.size() + f.sw.dropped_packets(), 60u);
}

TEST(Switch, LossyDynamicThresholdDropsBeforeBufferFull) {
  SwitchConfig cfg;
  cfg.buffer_bytes = 1'000'000;
  cfg.pfc_enabled = false;
  cfg.egress_alpha = 0.000003;  // threshold ~ 3 bytes: everything queued drops
  Fixture f(cfg);
  for (int i = 0; i < 5; ++i) {
    f.a.port(0).Enqueue(f.Data(1000, false, static_cast<uint64_t>(i) * 1000));
  }
  f.s.Run();
  // First packet goes straight to the idle egress queue then dequeues;
  // subsequent arrivals find the queue over threshold.
  EXPECT_GT(f.sw.dropped_packets(), 0u);
}

TEST(Switch, SendsPfcPauseUpstreamWhenIngressExceedsThreshold) {
  SwitchConfig cfg;
  cfg.pfc_enabled = true;
  cfg.buffer_bytes = 200'000;
  cfg.pfc_alpha = 0.02;  // pause past ~4KB ingress occupancy
  FanInFixture f(cfg);
  // 2:1 fan-in overloads the egress toward B; per-ingress occupancy crosses
  // the dynamic threshold and both upstreams get paused.
  f.Blast(f.a, 1, 40);
  f.Blast(f.c, 2, 40);
  f.s.Run();
  int pauses = 0;
  int resumes = 0;
  for (const auto& p : f.a.received) {
    pauses += p->type == PacketType::kPfcPause;
    resumes += p->type == PacketType::kPfcResume;
    // The egress toward B kept transmitting: each pause roots its chain.
    if (p->type == PacketType::kPfcPause) {
      EXPECT_EQ(p->pause_depth, 0);
    }
  }
  EXPECT_GT(pauses, 0);
  EXPECT_EQ(pauses, resumes);  // every pause eventually resumed
  // All data still delivered (lossless).
  EXPECT_EQ(f.b.received.size(), 80u);
  EXPECT_EQ(f.sw.dropped_packets(), 0u);
}

TEST(Switch, PfcFrameArrivingPausesEgressPort) {
  for (const int d : {2, kMaxPauseDepth}) {
    SCOPED_TRACE(d);
    SwitchConfig cfg;
    cfg.buffer_bytes = 200'000;
    cfg.pfc_alpha = 0.02;  // pause past ~4KB ingress occupancy
    Fixture f(cfg);
    // Deliver a depth-d PAUSE to the switch through port 0 (as if A sent it).
    f.a.port(0).Enqueue(MakePfc(PacketType::kPfcPause, kDataPriority, d));
    f.s.Run();
    EXPECT_TRUE(f.sw.port(0).paused(kDataPriority));
    EXPECT_EQ(f.sw.port(0).pause_depth(kDataPriority), d);
    // Data toward A now sticks in the switch, so B's ingress crosses Xoff
    // and the PAUSE sent to B sits one level deeper (saturating)...
    for (uint64_t i = 0; i < 10; ++i) {
      f.b.port(0).Enqueue(
          MakeDataPacket(2, 1, 0, i * 1000, 1000, false, false));
    }
    f.s.Run();
    EXPECT_TRUE(f.a.received.empty());
    EXPECT_GT(f.sw.port(0).queue_bytes(kDataPriority), 0);
    ASSERT_FALSE(f.b.received.empty());
    EXPECT_EQ(f.b.received[0]->type, PacketType::kPfcPause);
    EXPECT_EQ(f.b.received[0]->pause_depth, std::min(d + 1, kMaxPauseDepth));
    // ...until a RESUME arrives.
    f.a.port(0).Enqueue(MakePfc(PacketType::kPfcResume, kDataPriority));
    f.s.Run();
    EXPECT_EQ(f.sw.port(0).pause_depth(kDataPriority), 0);
    ASSERT_EQ(f.a.received.size(), 10u);
    EXPECT_EQ(f.a.received[0]->type, PacketType::kData);
    EXPECT_EQ(f.b.received.back()->type, PacketType::kPfcResume);
  }
}

TEST(Switch, ControlTrafficBypassesPausedData) {
  Fixture f;
  f.a.port(0).Enqueue(MakePfc(PacketType::kPfcPause, kDataPriority));
  f.s.Run();
  // Data stuck, but a CNP (control priority) flows through.
  f.b.port(0).Enqueue(MakeDataPacket(2, 1, 0, 0, 1000, false, false));
  f.b.port(0).Enqueue(MakeCnp(2, 1, 0));
  f.s.Run();
  ASSERT_EQ(f.a.received.size(), 1u);
  EXPECT_EQ(f.a.received[0]->type, PacketType::kCnp);
}

TEST(Switch, EcmpSpreadsFlowsAcrossEqualPaths) {
  sim::Simulator s;
  SinkNode a(&s, 0, "a");
  SinkNode b(&s, 1, "b");
  SwitchNode sw(&s, 2, "sw", {});
  Wire(a, sw, kBps, kDelay);
  Wire(b, sw, kBps, kDelay);
  Wire(b, sw, kBps, kDelay);  // second equal-cost port toward B
  std::vector<std::vector<uint16_t>> routes(3);
  routes[0] = {0};
  routes[1] = {1, 2};
  sw.SetRoutes(std::move(routes));
  sw.FinishSetup();
  // Many flows: both ports must be chosen at least once, and one flow must
  // always hash to the same port.
  Packet probe;
  probe.dst = 1;
  bool saw[2] = {false, false};
  for (uint64_t flow = 0; flow < 64; ++flow) {
    probe.flow_id = flow;
    const int p0 = sw.RoutePort(probe);
    EXPECT_EQ(sw.RoutePort(probe), p0);
    ASSERT_TRUE(p0 == 1 || p0 == 2);
    saw[p0 - 1] = true;
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(Port, TxBytesCountsEverything) {
  Fixture f;
  f.a.port(0).Enqueue(f.Data());
  f.s.Run();
  EXPECT_EQ(f.a.port(0).tx_bytes(), 1048u);
  EXPECT_EQ(f.sw.port(1).tx_bytes(), 1048u);
  EXPECT_EQ(f.sw.port(0).tx_bytes(), 0u);
}

}  // namespace
}  // namespace hpcc::net
