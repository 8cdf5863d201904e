// End-to-end behavior tests reproducing the paper's qualitative claims on
// small fixtures: near-zero queues, incast without PFC, fast reclaim,
// fairness, and full workload runs for every CC scheme. The last group
// gates the paper figures' claims on their committed run goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace hpcc::runner {
namespace {

ExperimentConfig StarConfig(int hosts, const std::string& scheme) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kStar;
  cfg.star.num_hosts = hosts;
  cfg.cc.scheme = scheme;
  cfg.cc.hpcc.expected_flows = 16;
  return cfg;
}

// §5.2 "HPCC has lower network latency": a 2-to-1 overload converges to a
// near-empty queue at the bottleneck while keeping utilization ~eta.
TEST(Integration, TwoToOneHpccNearZeroQueue) {
  ExperimentConfig cfg = StarConfig(3, "hpcc");
  Experiment e(cfg);
  const auto& h = e.hosts();
  host::Flow* f1 = e.AddFlow(h[0], h[2], 20'000'000, 0);
  host::Flow* f2 = e.AddFlow(h[1], h[2], 20'000'000, 0);

  // Sample the receiver downlink queue after convergence (200us on).
  net::SwitchNode& sw = e.topology().switch_node(e.topology().switches()[0]);
  const int dl = 2;  // port toward h[2] (ports added in host order)
  stats::PercentileTracker steady;
  for (int i = 0; i < 800; ++i) {
    e.RunUntil(sim::Us(200) + i * sim::Us(1));
    steady.Add(static_cast<double>(sw.port(dl).queue_bytes(net::kDataPriority)));
  }
  // Median queue essentially zero; tail bounded by a few packets.
  EXPECT_LT(steady.Percentile(50), 5'000.0);
  EXPECT_LT(steady.Percentile(99), 40'000.0);
  // Throughput: both flows progressed at ~eta line rate combined.
  const double total_acked =
      static_cast<double>(f1->snd_una + f2->snd_una);
  const double gbps = total_acked * 8 / sim::ToSec(e.simulator().now()) / 1e9;
  EXPECT_GT(gbps, 80.0);
  EXPECT_LT(gbps, 100.0);
}

// Fig. 9e/9f: HPCC achieves high utilization AND a near-zero queue at the
// same time; DCQCN cannot — it first builds a large queue (ECN needs one),
// then overshoots downward and under-utilizes (§2.3's trade-offs).
TEST(Integration, TwoToOneDcqcnCannotGetBothQueueAndUtilization) {
  struct Outcome {
    double q95;
    double goodput_gbps;
  };
  auto run = [](const std::string& scheme) {
    ExperimentConfig cfg = StarConfig(3, scheme);
    Experiment e(cfg);
    const auto& h = e.hosts();
    host::Flow* f1 = e.AddFlow(h[0], h[2], 20'000'000, 0);
    host::Flow* f2 = e.AddFlow(h[1], h[2], 20'000'000, 0);
    net::SwitchNode& sw =
        e.topology().switch_node(e.topology().switches()[0]);
    stats::PercentileTracker q;
    for (int i = 0; i < 1100; ++i) {
      e.RunUntil(i * sim::Us(1));
      q.Add(static_cast<double>(sw.port(2).queue_bytes(net::kDataPriority)));
    }
    const double gbps = static_cast<double>(f1->snd_una + f2->snd_una) * 8 /
                        sim::ToSec(e.simulator().now()) / 1e9;
    return Outcome{q.Percentile(95), gbps};
  };
  const Outcome hpcc = run("hpcc");
  const Outcome dcqcn = run("dcqcn");
  // HPCC: tiny tail queue at ~eta utilization.
  EXPECT_LT(hpcc.q95, 50'000.0);
  EXPECT_GT(hpcc.goodput_gbps, 80.0);
  // DCQCN: an order of magnitude more queueing, and (on this horizon) less
  // goodput because of its slow timer-driven recovery after the overshoot.
  EXPECT_GT(dcqcn.q95, 10 * std::max(hpcc.q95, 5'000.0));
  EXPECT_LT(dcqcn.goodput_gbps, hpcc.goodput_gbps);
}

// Fig. 9c/9d + §5.3: incast through a single choke point. HPCC's inflight
// limit keeps the queue bounded and triggers no PFC; DCQCN (rate-only)
// overshoots into PFC.
struct IncastOutcome {
  size_t pauses;
  int64_t max_queue;
  uint64_t completed;
  uint64_t total;
};

IncastOutcome RunTrunkIncast(const std::string& scheme) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kDumbbell;
  cfg.dumbbell.hosts_per_side = 32;
  cfg.dumbbell.host_bps = 100'000'000'000;
  cfg.dumbbell.trunk_bps = 400'000'000'000;
  cfg.cc.scheme = scheme;
  cfg.cc.hpcc.expected_flows = 32;
  cfg.duration = sim::Ms(3);
  Experiment e(cfg);
  const auto& h = e.hosts();
  const uint32_t receiver = h[32];  // first right-side host
  for (int i = 0; i < 32; ++i) {
    e.AddFlow(h[i], receiver, 500'000, 0);
  }
  ExperimentResult r = e.Run();  // also starts the queue monitor
  return {r.pause_events, r.max_queue_bytes, r.flows_completed,
          r.flows_created};
}

TEST(Integration, IncastHpccTriggersNoPfc) {
  const IncastOutcome o = RunTrunkIncast("hpcc");
  EXPECT_EQ(o.pauses, 0u);
  EXPECT_EQ(o.completed, o.total);
  EXPECT_LT(o.max_queue, 3'000'000);
}

TEST(Integration, IncastDcqcnOvershootsIntoPfc) {
  const IncastOutcome o = RunTrunkIncast("dcqcn");
  EXPECT_GT(o.pauses, 0u);  // PFC kicked in (§5.3, Fig. 11b)
  EXPECT_EQ(o.completed, o.total);  // but lossless: flows still finish
}

TEST(Integration, AddingWindowToDcqcnPreventsPfc) {
  // §5.3: "just adding a sending window to DCQCN and TIMELY reduces PFCs to
  // almost zero".
  const IncastOutcome plain = RunTrunkIncast("dcqcn");
  const IncastOutcome win = RunTrunkIncast("dcqcn+win");
  EXPECT_GT(plain.pauses, 0u);
  EXPECT_EQ(win.pauses, 0u);
  EXPECT_LT(win.max_queue, plain.max_queue);
}

// Fig. 9g: fair sharing. Two HPCC flows through one bottleneck converge to
// near-equal throughput shortly after the second one joins.
TEST(Integration, FairShareTwoFlows) {
  ExperimentConfig cfg = StarConfig(3, "hpcc");
  cfg.cc.hpcc.wai_bytes = 500;  // faster AI for a short test horizon
  Experiment e(cfg);
  const auto& h = e.hosts();
  host::Flow* f1 = e.AddFlow(h[0], h[2], 50'000'000, 0);
  host::Flow* f2 = e.AddFlow(h[1], h[2], 50'000'000, sim::Us(200));
  e.RunUntil(sim::Ms(2));
  const uint64_t a1 = f1->snd_una;
  const uint64_t a2 = f2->snd_una;
  e.RunUntil(sim::Ms(4));
  // Goodput over the final 2ms window.
  const double g1 = static_cast<double>(f1->snd_una - a1);
  const double g2 = static_cast<double>(f2->snd_una - a2);
  const double jain = (g1 + g2) * (g1 + g2) / (2 * (g1 * g1 + g2 * g2));
  EXPECT_GT(jain, 0.95);
}

// Fig. 9a: bandwidth reclaim. A long flow shares with a 1MB short flow; once
// the short flow ends, HPCC re-ramps to (near) line rate within a handful of
// RTTs thanks to MI (§3.3), far faster than DCQCN's timer-driven recovery.
TEST(Integration, LongShortReclaimFasterThanDcqcn) {
  auto reclaim_gbps = [](const std::string& scheme) {
    ExperimentConfig cfg = StarConfig(3, scheme);
    cfg.cc.hpcc.expected_flows = 2;
    Experiment e(cfg);
    const auto& h = e.hosts();
    host::Flow* lf = e.AddFlow(h[0], h[2], 100'000'000, 0);
    host::Flow* sf = e.AddFlow(h[1], h[2], 1'000'000, sim::Us(100));
    // Run until the short flow completes.
    while (!sf->done && e.simulator().now() < sim::Ms(5)) {
      e.RunUntil(e.simulator().now() + sim::Us(10));
    }
    EXPECT_TRUE(sf->done);
    // Long-flow goodput over the 300us window starting 100us after the
    // short flow left.
    const sim::TimePs t0 = e.simulator().now() + sim::Us(100);
    e.RunUntil(t0);
    const uint64_t acked0 = lf->snd_una;
    e.RunUntil(t0 + sim::Us(300));
    return static_cast<double>(lf->snd_una - acked0) * 8 /
           sim::ToSec(sim::Us(300)) / 1e9;
  };
  const double hpcc = reclaim_gbps("hpcc");
  const double dcqcn = reclaim_gbps("dcqcn");
  EXPECT_GT(hpcc, 85.0);           // back to ~line promptly (Fig. 9a)
  EXPECT_GT(hpcc, dcqcn + 10.0);   // DCQCN recovers slowly (Fig. 9b)
}

// Every scheme must survive a realistic mixed workload on a small FatTree:
// flows complete, and with PFC on nothing is ever dropped.
class SchemeWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(SchemeWorkload, FatTreeWebSearchRunsClean) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kFatTree;
  cfg.fattree.pods = 2;
  cfg.fattree.tors_per_pod = 2;
  cfg.fattree.aggs_per_pod = 2;
  cfg.fattree.hosts_per_tor = 4;  // 16 hosts
  cfg.cc.scheme = GetParam();
  cfg.load = 0.3;
  cfg.trace = "websearch";
  cfg.max_flows = 120;
  cfg.duration = sim::Ms(2);
  cfg.seed = 5;
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  EXPECT_EQ(r.dropped_packets, 0u) << "lossless fabric must not drop";
  EXPECT_GE(r.flows_completed, r.flows_created * 95 / 100);
  EXPECT_GT(r.fct->total_flows(), 0u);
  // Slowdown sanity: medians are finite and >= 1.
  EXPECT_GE(r.fct->overall().Percentile(50), 1.0);
  EXPECT_LT(r.fct->overall().Percentile(50), 100.0);
}

INSTANTIATE_TEST_SUITE_P(All, SchemeWorkload,
                         ::testing::Values("hpcc", "dcqcn", "dcqcn+win",
                                           "timely", "timely+win", "dctcp",
                                           "hpcc-alpha"));

// Hardware-faithful INT (Fig. 7 quantized/wrapped fields) must behave like
// the full-precision stack: same near-zero queue, same throughput.
TEST(Integration, WireFormatIntMatchesFullPrecision) {
  struct Outcome {
    double q99;
    double gbps;
  };
  auto run = [](bool wire) {
    ExperimentConfig cfg = StarConfig(3, "hpcc");
    cfg.cc.hpcc.wire_format = wire;
    Experiment e(cfg);
    const auto& h = e.hosts();
    host::Flow* f1 = e.AddFlow(h[0], h[2], 30'000'000, 0);
    host::Flow* f2 = e.AddFlow(h[1], h[2], 30'000'000, 0);
    net::SwitchNode& sw =
        e.topology().switch_node(e.topology().switches()[0]);
    stats::PercentileTracker q;
    for (int i = 0; i < 2000; ++i) {
      e.RunUntil(sim::Us(100) + i * sim::Us(1));
      q.Add(static_cast<double>(sw.port(2).queue_bytes(net::kDataPriority)));
    }
    const double gbps = static_cast<double>(f1->snd_una + f2->snd_una) * 8 /
                        sim::ToSec(e.simulator().now()) / 1e9;
    return Outcome{q.Percentile(99), gbps};
  };
  const Outcome exact = run(false);
  const Outcome wire = run(true);
  EXPECT_NEAR(wire.gbps, exact.gbps, exact.gbps * 0.05);
  EXPECT_LT(wire.q99, 50'000.0);
  // The 24-bit ns timestamp wraps every ~16.8 ms: the run crosses at least
  // one wrap without misbehaving (2ms horizon per flow start offset... the
  // counters themselves started wrapped at different bases).
}

// The paper's optional INT-efficiency extension: sampling INT on every Nth
// packet cuts header overhead while HPCC keeps its properties.
TEST(Integration, SampledIntStillConverges) {
  struct Outcome {
    double gbps;
    double q99;
    uint64_t int_acks;
  };
  auto run = [](int every) {
    ExperimentConfig cfg = StarConfig(3, "hpcc");
    cfg.int_sample_every = every;
    Experiment e(cfg);
    const auto& h = e.hosts();
    host::Flow* f1 = e.AddFlow(h[0], h[2], 20'000'000, 0);
    host::Flow* f2 = e.AddFlow(h[1], h[2], 20'000'000, 0);
    net::SwitchNode& sw =
        e.topology().switch_node(e.topology().switches()[0]);
    stats::PercentileTracker q;
    for (int i = 0; i < 1200; ++i) {
      e.RunUntil(sim::Us(100) + i * sim::Us(1));
      q.Add(static_cast<double>(sw.port(2).queue_bytes(net::kDataPriority)));
    }
    const double gbps = static_cast<double>(f1->snd_una + f2->snd_una) * 8 /
                        sim::ToSec(e.simulator().now()) / 1e9;
    return Outcome{gbps, q.Percentile(99), 0};
  };
  const Outcome full = run(1);
  const Outcome sampled = run(4);
  // 4x less telemetry: still ~eta utilization and near-zero queue.
  EXPECT_GT(sampled.gbps, full.gbps - 8.0);
  EXPECT_LT(sampled.q99, 60'000.0);
}

// Conservation through the full stack: receiver byte counts match flow sizes.
TEST(Integration, ByteConservation) {
  ExperimentConfig cfg = StarConfig(4, "hpcc");
  Experiment e(cfg);
  const auto& h = e.hosts();
  host::Flow* f1 = e.AddFlow(h[0], h[3], 777'777, 0);
  host::Flow* f2 = e.AddFlow(h[1], h[3], 123'456, sim::Us(5));
  host::Flow* f3 = e.AddFlow(h[2], h[3], 999, sim::Us(10));
  e.RunUntil(sim::Ms(5));
  for (host::Flow* f : {f1, f2, f3}) {
    ASSERT_TRUE(f->done);
    const auto* rx =
        e.topology().host(f->spec().dst).FindRxState(f->spec().id);
    ASSERT_NE(rx, nullptr);
    EXPECT_EQ(rx->rcv_nxt, f->spec().size_bytes);
  }
}

// IRN + lossy fabric (Fig. 12): HPCC's performance is insensitive to the
// flow-control choice; flows complete without PFC.
TEST(Integration, HpccWithIrnAndNoPfc) {
  ExperimentConfig cfg = StarConfig(9, "hpcc");
  cfg.pfc_enabled = false;
  cfg.recovery = host::RecoveryMode::kIrn;
  Experiment e(cfg);
  const auto& h = e.hosts();
  std::vector<host::Flow*> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(e.AddFlow(h[i], h[8], 400'000, 0));
  }
  e.RunUntil(sim::Ms(5));
  for (auto* f : flows) EXPECT_TRUE(f->done);
}

// The runner's Poisson + incast composition (Fig. 11 "30% + incast").
TEST(Integration, PoissonPlusIncastComposes) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kFatTree;
  cfg.fattree.pods = 2;
  cfg.fattree.tors_per_pod = 2;
  cfg.fattree.aggs_per_pod = 2;
  cfg.fattree.hosts_per_tor = 4;
  cfg.cc.scheme = "hpcc";
  cfg.load = 0.2;
  cfg.trace = "fbhadoop";
  cfg.max_flows = 200;
  cfg.incast = true;
  cfg.incast_opts.fan_in = 8;
  cfg.incast_opts.flow_bytes = 100'000;
  cfg.incast_opts.first_event = sim::Us(200);
  cfg.incast_opts.period = sim::Ms(1);
  cfg.duration = sim::Ms(2);
  Experiment e(cfg);
  ExperimentResult r = e.Run();
  // Poisson flows + at least 2 incast events x 8 flows.
  EXPECT_GT(r.flows_created, 200u);
  EXPECT_GE(r.flows_completed, r.flows_created * 9 / 10);
  EXPECT_EQ(r.dropped_packets, 0u);
}

// ---- paper claims over the figure goldens -----------------------------------
//
// Each case reads a paper scenario's run golden, tests/run_golden/<name>.csv.
// cli_paper_<name> pins the CSV hpccsim writes for
// examples/scenarios/paper/<name>.json to that golden byte for byte, so
// together they gate each claim on the figure's output without simulating
// anything here. Margins are wide: a gate trips when a claim flips, not when
// a number drifts.

// Splits one CSV line; the run label is quoted when it holds commas.
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (char c : line) {
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      cells.emplace_back();
    } else {
      cells.back() += c;
    }
  }
  return cells;
}

// A run golden's rows keyed by their sweep-axis cells joined with "," (the
// columns between "run" and "flows_created"), e.g. "0.3,hpcc"; the one row
// of a file without a sweep is keyed "".
class RunGolden {
 public:
  explicit RunGolden(const std::string& name) {
    std::ifstream in(std::string(HPCC_SOURCE_DIR) + "/tests/run_golden/" +
                     name + ".csv");
    std::string line;
    if (!std::getline(in, line)) {
      ADD_FAILURE() << "no run golden for " << name;
      return;
    }
    header_ = SplitCsv(line);
    size_t axes = 1;
    while (axes < header_.size() && header_[axes] != "flows_created") ++axes;
    while (std::getline(in, line)) {
      std::vector<std::string> cells = SplitCsv(line);
      std::string key;
      for (size_t i = 1; i < axes && i < cells.size(); ++i) {
        key += (i > 1 ? "," : "") + cells[i];
      }
      rows_[key] = std::move(cells);
    }
  }

  // The numeric cell of `column` in the row keyed `key`; NaN (which fails
  // every comparison) when either is missing or the cell is empty.
  double At(const std::string& key, const std::string& column) const {
    const auto row = rows_.find(key);
    const size_t col = static_cast<size_t>(
        std::find(header_.begin(), header_.end(), column) - header_.begin());
    if (row == rows_.end() || col >= row->second.size() ||
        row->second[col].empty()) {
      ADD_FAILURE() << "no " << column << " in row \"" << key << "\"";
      return std::nan("");
    }
    return std::stod(row->second[col]);
  }

 private:
  std::vector<std::string> header_;
  std::map<std::string, std::vector<std::string>> rows_;
};

// Fig. 1: under DCQCN incasts, PFC pauses spread hop by hop from the
// congestion point and silence a large share of innocent hosts' capacity.
// Depth and suppressed bandwidth are not CSV columns, so this runs the file.
TEST(PaperClaims, Fig1PausePropagation) {
  const std::vector<scenario::ScenarioRun> runs =
      scenario::ExpandSweep(scenario::LoadScenarioFile(
          std::string(HPCC_SOURCE_DIR) +
          "/examples/scenarios/paper/fig1_pfc_propagation.json"));
  ASSERT_EQ(runs.size(), 1u);
  const scenario::SweepRunResult r = scenario::ScenarioRunner::RunOne(runs[0]);
  ASSERT_TRUE(r.error.empty()) << r.error;
  const ExperimentResult& res = r.result;
  uint64_t counted = 0;
  for (uint64_t n : res.pause_depth_counts) counted += n;
  EXPECT_EQ(counted, res.pause_events);  // 1691
  // Pauses reach past the congestion point's neighbours: depths 0..4 hold
  // 468/414/376/155/278 pauses.
  EXPECT_GE(res.pause_depth_counts.size(), 3u);
  // The paper's production worst case suppresses 25% of capacity; this run's
  // worst case is 93.75% (15 of 16 host NICs paused at once).
  EXPECT_GE(res.suppressed_host_bw_pct.max, 25.0);
}

// Fig. 2: aggressive DCQCN timers (small Ti, large Td) improve FCT (2a) but
// suffer more PFC pausing under incast (2b).
TEST(PaperClaims, Fig2DcqcnTimersTradeFctForPfc) {
  const double fct_conservative =
      RunGolden("fig2a_dcqcn_ti900_td4").At("", "slowdown_p95");
  const double fct_aggressive =
      RunGolden("fig2a_dcqcn_ti55_td50").At("", "slowdown_p95");
  EXPECT_LT(fct_aggressive, 0.8 * fct_conservative);  // 4.0 vs 6.4
  const double pfc_conservative =
      RunGolden("fig2b_dcqcn_ti900_td4").At("", "pfc_pause_pct");
  const double pfc_aggressive =
      RunGolden("fig2b_dcqcn_ti55_td50").At("", "pfc_pause_pct");
  EXPECT_GT(pfc_aggressive, 1.5 * pfc_conservative);  // 23.9% vs 11.4%
}

// Fig. 3: low ECN thresholds favor short flows' latency. (The other half of
// the trade-off, long flows' bandwidth, is not visible in these columns.)
TEST(PaperClaims, Fig3LowEcnThresholdsFavorShortFlows) {
  const RunGolden high("fig3_dcqcn_kmin400_kmax1600");
  const RunGolden low("fig3_dcqcn_kmin12_kmax50");
  for (const char* load : {"0.3", "0.5"}) {
    SCOPED_TRACE(load);
    // 9.1 vs 117.5 us at 30% load, 9.1 vs 195.3 us at 50%.
    EXPECT_LT(low.At(load, "short_fct_p95_us"),
              high.At(load, "short_fct_p95_us") / 4);
  }
}

// Fig. 9c/9d: HPCC absorbs the 8-to-1 incast in a small queue; DCQCN's
// queue grows an order of magnitude deeper.
TEST(PaperClaims, Fig9IncastHpccQueueStaysSmall) {
  const RunGolden g("fig9cd_incast");
  // 112.3 vs 2825.4 KB.
  EXPECT_LT(g.At("hpcc", "queue_max_kb"), g.At("dcqcn", "queue_max_kb") / 10);
}

// Fig. 9e/9f: mice beside two elephants see near-base latency under HPCC,
// and DCQCN's standing queue inflates it several-fold.
TEST(PaperClaims, Fig9MiceLatencyHpccFarBelowDcqcn) {
  const RunGolden g("fig9ef_elephant_mice");
  // 5.3 vs 40.1 us.
  EXPECT_LT(g.At("hpcc", "short_fct_p95_us"),
            g.At("dcqcn", "short_fct_p95_us") / 4);
}

// Fig. 10b/10d: HPCC keeps the switch queues' tail below DCQCN's at both
// loads.
TEST(PaperClaims, Fig10HpccQueueTailBelowDcqcn) {
  const RunGolden g("fig10_websearch");
  for (const char* load : {"0.3", "0.5"}) {
    SCOPED_TRACE(load);
    // 1.1 vs 148.8 KB at 30% load, 3.3 vs 225.3 KB at 50%.
    EXPECT_LT(g.At(std::string(load) + ",hpcc", "queue_p99_kb"),
              g.At(std::string(load) + ",dcqcn", "queue_p99_kb"));
  }
}

// Fig. 11: under FB_Hadoop load, with and without incast, HPCC has the
// lowest p95 FCT slowdown of the six schemes and never pauses.
TEST(PaperClaims, Fig11HpccLowestSlowdownWithoutPauses) {
  for (const char* name : {"fig11_fbhadoop_incast", "fig11_fbhadoop_load50"}) {
    SCOPED_TRACE(name);
    const RunGolden g(name);
    // 2.34 vs 4.77 (timely+win) with incast, 1.97 vs 4.36 (dcqcn+win)
    // without.
    const double hpcc = g.At("hpcc", "slowdown_p95");
    for (const char* other :
         {"dcqcn", "timely", "dcqcn+win", "timely+win", "dctcp"}) {
      EXPECT_LT(hpcc, g.At(other, "slowdown_p95")) << other;
    }
    EXPECT_EQ(g.At("hpcc", "pfc_pause_pct"), 0.0);
  }
}

// Fig. 13: per-RTT reaction drains the incast's initial queue slowly, so its
// queue tail stays far above HPCC's reference-window reaction.
TEST(PaperClaims, Fig13PerRttQueuePersists) {
  const RunGolden g("fig13_reaction");
  // 855.6 vs 151.0 KB.
  EXPECT_GT(g.At("hpcc-perrtt", "queue_p99_kb"),
            2 * g.At("hpcc", "queue_p99_kb"));
}

// Fig. 14: a W_AI beyond the §5.4 bound (300 B here) sustains a standing
// queue that one within it (25 B) does not.
TEST(PaperClaims, Fig14LargeWaiSustainsAQueue) {
  const RunGolden g("fig14_wai");
  // 13.1 vs 3.3 KB.
  EXPECT_GT(g.At("300", "queue_p99_kb"), 2 * g.At("25", "queue_p99_kb"));
}

}  // namespace
}  // namespace hpcc::runner
