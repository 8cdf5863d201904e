// Randomized end-to-end robustness: random topologies, schemes, flow mixes,
// link failures and repairs — the stack must never drop invariants:
// conservation (every completed flow delivered exactly its bytes), no
// lossless-mode drops while the fabric is intact, and eventual completion.
#include <gtest/gtest.h>

#include "runner/experiment.h"
#include "sim/rng.h"

namespace hpcc::runner {
namespace {

const char* kSchemes[] = {"hpcc",   "hpcc-rxrate", "dcqcn", "dcqcn+win",
                          "timely", "timely+win",  "dctcp", "hpcc-alpha"};

class FuzzEndToEnd : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzEndToEnd, InvariantsHoldUnderRandomScenarios) {
  sim::Rng rng(GetParam());
  for (int scenario = 0; scenario < 4; ++scenario) {
    ExperimentConfig cfg;
    // Random topology.
    switch (rng.Index(3)) {
      case 0:
        cfg.topology = TopologyKind::kStar;
        cfg.star.num_hosts = 3 + static_cast<int>(rng.Index(8));
        break;
      case 1:
        cfg.topology = TopologyKind::kDumbbell;
        cfg.dumbbell.hosts_per_side = 2 + static_cast<int>(rng.Index(4));
        break;
      default:
        cfg.topology = TopologyKind::kFatTree;
        cfg.fattree.pods = 2;
        cfg.fattree.tors_per_pod = 1 + static_cast<int>(rng.Index(2));
        cfg.fattree.aggs_per_pod = 2;
        cfg.fattree.hosts_per_tor = 2 + static_cast<int>(rng.Index(3));
        break;
    }
    cfg.cc.scheme = kSchemes[rng.Index(std::size(kSchemes))];
    cfg.recovery = rng.Uniform() < 0.3 ? host::RecoveryMode::kIrn
                                       : host::RecoveryMode::kGoBackN;
    cfg.int_sample_every = 1 + static_cast<int>(rng.Index(4));
    cfg.cc.hpcc.wire_format = rng.Uniform() < 0.3;
    cfg.seed = GetParam() * 17 + static_cast<uint64_t>(scenario);

    Experiment e(cfg);
    const auto& hosts = e.hosts();
    std::vector<host::Flow*> flows;
    const int n_flows = 3 + static_cast<int>(rng.Index(12));
    for (int i = 0; i < n_flows; ++i) {
      const uint32_t src = hosts[rng.Index(hosts.size())];
      uint32_t dst = src;
      while (dst == src) dst = hosts[rng.Index(hosts.size())];
      const uint64_t bytes = 1 + static_cast<uint64_t>(
                                     rng.Uniform() * 800'000);
      const sim::TimePs start = sim::Us(rng.UniformInt(0, 200));
      rng.Uniform();  // keeps the later draws as they were
      flows.push_back(e.AddFlow(src, dst, bytes, start));
    }

    // Random mid-run fabric hiccup on redundant topologies.
    const bool inject_failure =
        cfg.topology == TopologyKind::kFatTree && rng.Uniform() < 0.5;
    e.RunUntil(sim::Us(300));
    size_t failed_link = 0;
    if (inject_failure) {
      const auto& links = e.topology().links();
      // Pick a switch-switch link (fattree keeps redundancy).
      for (size_t i = 0; i < links.size(); ++i) {
        if (e.topology().node(links[i].a).IsSwitch() &&
            e.topology().node(links[i].b).IsSwitch()) {
          failed_link = i;
          break;
        }
      }
      e.topology().SetLinkUp(failed_link, false);
    }
    e.RunUntil(sim::Ms(5));
    if (inject_failure && rng.Uniform() < 0.5) {
      e.topology().SetLinkUp(failed_link, true);
    }
    e.RunUntil(sim::Ms(60));

    // Invariants.
    for (host::Flow* f : flows) {
      ASSERT_TRUE(f->done)
          << "scheme=" << cfg.cc.scheme << " seed=" << GetParam()
          << " scenario=" << scenario;
      const auto* rx =
          e.topology().host(f->spec().dst).FindRxState(f->spec().id);
      ASSERT_NE(rx, nullptr);
      EXPECT_EQ(rx->rcv_nxt, f->spec().size_bytes) << cfg.cc.scheme;
      EXPECT_EQ(f->snd_una, f->spec().size_bytes);
    }
    ExperimentResult r = e.Collect();
    if (!inject_failure) {
      // Lossless fabric intact: PFC must have prevented every drop.
      EXPECT_EQ(r.dropped_packets, 0u) << cfg.cc.scheme;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEndToEnd,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hpcc::runner
