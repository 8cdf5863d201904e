// Unit and integration tests for the invariant-monitor subsystem: each
// standard monitor's detection logic, the registry's reporting pipeline, the
// hook wiring on a live experiment, the simulator's event-budget watchdog,
// and the fuzzer's reproducer workflow (an intentionally-broken monitor must
// yield a runnable reproducer scenario JSON).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "check/fuzzer.h"
#include "check/monitors.h"
#include "net/packet.h"
#include "runner/experiment.h"
#include "same_outputs.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "stats/trace_hash.h"

namespace hpcc::check {
namespace {

net::Packet DataPacket(int payload = 1000) {
  net::Packet p;
  p.type = net::PacketType::kData;
  p.payload_bytes = payload;
  p.priority = net::kDataPriority;
  return p;
}

TEST(TraceHash, OrderIndependentAndSensitive) {
  stats::TraceHash a, b;
  a.AddFlow(1, 0, 1, 1000, 0, 500, true);
  a.AddFlow(2, 1, 0, 2000, 10, 700, true);
  b.AddFlow(2, 1, 0, 2000, 10, 700, true);
  b.AddFlow(1, 0, 1, 1000, 0, 500, true);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 16u);

  stats::TraceHash c;
  c.AddFlow(1, 0, 1, 1000, 0, 501, true);  // one field off
  c.AddFlow(2, 1, 0, 2000, 10, 700, true);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(QueueConservationMonitor, DetectsLedgerMismatch) {
  MonitorRegistry reg;
  reg.Add(std::make_unique<QueueConservationMonitor>());
  const net::Packet p = DataPacket();

  reg.OnEnqueue(3, 0, p, p.size_bytes());
  reg.OnDequeue(3, 0, p, 0);
  EXPECT_EQ(reg.violation_count(), 0u);

  // Port claims more queued bytes than the ledger: accounting bug.
  reg.OnEnqueue(3, 0, p, p.size_bytes() + 13);
  EXPECT_EQ(reg.violation_count(), 1u);
  EXPECT_NE(reg.Summary().find("ledger mismatch"), std::string::npos);

  // Dequeue of a packet that was never enqueued.
  reg.OnDequeue(4, 1, p, 0);
  EXPECT_EQ(reg.violation_count(), 2u);
}

TEST(QueueBoundMonitor, DetectsOverflowOncePerQueue) {
  MonitorRegistry reg;
  reg.Add(std::make_unique<QueueBoundMonitor>(std::vector<int64_t>{5000}));
  const net::Packet p = DataPacket();
  reg.OnEnqueue(0, 0, p, 4000);
  EXPECT_EQ(reg.violation_count(), 0u);
  reg.OnEnqueue(0, 0, p, 5001);
  reg.OnEnqueue(0, 0, p, 6000);  // same queue: not re-reported
  EXPECT_EQ(reg.violation_count(), 1u);
}

TEST(PfcSanityMonitor, PauseWhilePfcDisabled) {
  MonitorRegistry reg;
  PfcSanityMonitor::Options o;
  o.pfc_enabled = false;
  reg.Add(std::make_unique<PfcSanityMonitor>(o));
  reg.OnPauseChange(1, 0, net::kDataPriority, true, sim::Us(5));
  EXPECT_EQ(reg.violation_count(), 1u);
}

TEST(PfcSanityMonitor, OverlongAndStuckPauses) {
  MonitorRegistry reg;
  PfcSanityMonitor::Options o;
  o.max_pause = sim::Us(100);
  reg.Add(std::make_unique<PfcSanityMonitor>(o));

  reg.OnPauseChange(1, 0, net::kDataPriority, true, sim::Us(10));
  reg.OnPauseChange(1, 0, net::kDataPriority, false, sim::Us(50));
  EXPECT_EQ(reg.violation_count(), 0u);

  reg.OnPauseChange(1, 0, net::kDataPriority, true, sim::Us(60));
  reg.OnPauseChange(1, 0, net::kDataPriority, false, sim::Us(400));
  EXPECT_EQ(reg.violation_count(), 1u);  // 340us pause > 100us bound

  reg.OnPauseChange(2, 1, net::kDataPriority, true, sim::Us(500));
  reg.Finish(sim::Ms(10));  // still paused at end of run
  EXPECT_EQ(reg.violation_count(), 2u);
  EXPECT_NE(reg.Summary().find("deadlock"), std::string::npos);
}

TEST(IntSanityMonitor, DetectsBackwardsCountersAndResetsOnPathChange) {
  MonitorRegistry reg;
  reg.Add(std::make_unique<IntSanityMonitor>(IntSanityMonitor::Options{}));

  core::IntStack s1;
  core::IntHop hop;
  hop.bandwidth_bps = 100e9;
  hop.ts = sim::Us(10);
  hop.tx_bytes = 5000;
  hop.qlen_bytes = 0;
  hop.switch_id = 7;
  s1.Push(hop);
  reg.OnIntEcho(1, s1, sim::Us(10));
  EXPECT_EQ(reg.violation_count(), 0u);

  core::IntStack s2;
  hop.ts = sim::Us(12);
  hop.tx_bytes = 4000;  // txBytes must never decrease on one path
  s2.Push(hop);
  reg.OnIntEcho(1, s2, sim::Us(12));
  EXPECT_EQ(reg.violation_count(), 1u);

  // A different pathID resets history: "backwards" values are then fine.
  core::IntStack s3;
  hop.switch_id = 9;
  hop.ts = sim::Us(5);
  hop.tx_bytes = 100;
  s3.Push(hop);
  reg.OnIntEcho(1, s3, sim::Us(13));
  EXPECT_EQ(reg.violation_count(), 1u);
}

TEST(CcSanityMonitor, DetectsRateAndWindowEscapes) {
  MonitorRegistry reg;
  reg.Add(std::make_unique<CcSanityMonitor>(100'000'000'000));
  reg.OnCcUpdate(1, 1000, 50'000'000'000, sim::Us(1));
  EXPECT_EQ(reg.violation_count(), 0u);
  reg.OnCcUpdate(2, 1000, 0, sim::Us(2));              // rate must be > 0
  reg.OnCcUpdate(3, 0, 50'000'000'000, sim::Us(3));    // window must be > 0
  reg.OnCcUpdate(4, 1000, 200'000'000'000, sim::Us(4));  // above line rate
  EXPECT_EQ(reg.violation_count(), 3u);
  reg.OnCcUpdate(2, 1000, 0, sim::Us(5));  // same flow: not re-reported
  EXPECT_EQ(reg.violation_count(), 3u);
}

TEST(LosslessDropMonitor, BufferDropUnderPfcIsViolation) {
  MonitorRegistry reg;
  reg.Add(std::make_unique<LosslessDropMonitor>(/*pfc_enabled=*/true));
  const net::Packet p = DataPacket();
  reg.OnDrop(2, p, DropReason::kNoRoute);  // link failure: legitimate
  EXPECT_EQ(reg.violation_count(), 0u);
  reg.OnDrop(2, p, DropReason::kBufferFull);
  EXPECT_EQ(reg.violation_count(), 1u);
}

TEST(MonitorRegistry, CapsStoredViolationsButCountsAll) {
  // A monitor that fires on every enqueue.
  class AlwaysFire : public InvariantMonitor {
   public:
    std::string name() const override { return "always-fire"; }
    void OnEnqueue(uint32_t, int, const net::Packet&, int64_t) override {
      Report(0, "fire");
    }
  };
  MonitorRegistry reg;
  reg.Add(std::make_unique<AlwaysFire>());
  const net::Packet p = DataPacket();
  for (size_t i = 0; i < MonitorRegistry::kMaxStoredViolations + 50; ++i) {
    reg.OnEnqueue(0, 0, p, 0);
  }
  EXPECT_EQ(reg.violations().size(), MonitorRegistry::kMaxStoredViolations);
  EXPECT_EQ(reg.violation_count(), MonitorRegistry::kMaxStoredViolations + 50);
  EXPECT_NE(reg.Summary().find("more violation(s)"), std::string::npos);
}

TEST(Simulator, EventBudgetStopsLivelock) {
  // A callback rescheduling itself at now() forever would hang Run without
  // the budget watchdog.
  sim::Simulator s;
  struct Storm {
    sim::Simulator* s;
    void operator()() const { s->ScheduleAt(s->now(), Storm{s}); }
  };
  s.ScheduleAt(0, Storm{&s});
  s.set_event_budget(10'000);
  s.Run(sim::Ms(1));
  EXPECT_TRUE(s.budget_exhausted());
  EXPECT_EQ(s.events_executed(), 10'000u);
}

// A full experiment (star incast under HPCC) with every standard monitor
// attached must run violation-free — the always-on-checking happy path.
TEST(StandardMonitors, CleanIncastRun) {
  runner::ExperimentConfig cfg;
  cfg.topology = runner::TopologyKind::kStar;
  cfg.star.num_hosts = 9;
  cfg.cc.scheme = "hpcc";
  cfg.incast = true;
  cfg.incast_opts.fan_in = 8;
  cfg.incast_opts.flow_bytes = 100'000;
  cfg.incast_opts.first_event = sim::Us(10);
  cfg.incast_opts.period = 0;
  cfg.duration = sim::Us(400);

  MonitorRegistry reg;
  runner::Experiment e(cfg);
  InstallStandardMonitors(reg, e);
  EXPECT_EQ(reg.num_monitors(), 6u);
  runner::ExperimentResult r = e.Run();
  reg.Finish(e.simulator().now());
  EXPECT_EQ(reg.violation_count(), 0u) << reg.Summary();
  EXPECT_EQ(r.flows_completed, r.flows_created);
  EXPECT_NE(r.trace_hash, 0u);
}

// The acceptance path: an intentionally-broken monitor makes a fuzz run
// fail, the fuzzer emits the scenario as a reproducer JSON, and that file is
// itself a loadable, runnable scenario that reproduces the violation.
TEST(Fuzzer, BrokenMonitorEmitsRunnableReproducer) {
  const scenario::Json doc = GenerateScenarioDoc(/*seed=*/7, /*index=*/0);

  MonitorInstaller broken = [](MonitorRegistry& reg, runner::Experiment&) {
    class Broken : public InvariantMonitor {
     public:
      std::string name() const override { return "intentionally-broken"; }
      void OnEnqueue(uint32_t node, int, const net::Packet&,
                     int64_t) override {
        if (!fired_) {
          fired_ = true;
          Report(0, "node " + std::to_string(node) + " enqueued a packet");
        }
      }

     private:
      bool fired_ = false;
    };
    reg.Add(std::make_unique<Broken>());
  };

  const scenario::SweepRunResult rep =
      RunScenarioDocChecked(doc, 50'000'000, broken);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  ASSERT_GE(rep.violation_count, 1u);
  EXPECT_EQ(rep.violations.front().monitor, "intentionally-broken");

  const std::string path = WriteReproducer(doc, ".", rep.label);
  ASSERT_FALSE(path.empty());

  // The reproducer must load through the normal scenario pipeline and, with
  // the broken monitor attached again, reproduce the violation and every
  // output...
  const scenario::Scenario reloaded = scenario::LoadScenarioFile(path);
  const scenario::SweepRunResult again =
      RunScenarioDocChecked(reloaded.source, 50'000'000, broken);
  EXPECT_GE(again.violation_count, 1u);
  scenario::ExpectSameOutputs({&rep, 1}, {&again, 1});

  // ...and run clean under the standard set alone, where the status is the
  // only output that moves.
  const scenario::SweepRunResult clean =
      RunScenarioDocChecked(reloaded.source, 50'000'000);
  EXPECT_TRUE(clean.ok()) << clean.error << "\n"
                          << (clean.violations.empty()
                                  ? ""
                                  : clean.violations.front().Format());
  const std::vector<scenario::OutputDiff> diffs =
      scenario::ScenarioRunner::CompareOutputs({&rep, 1}, {&clean, 1});
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].item, "status");
  std::remove(path.c_str());
}

TEST(Fuzzer, GenerationIsDeterministicAndValid) {
  for (int i = 0; i < 5; ++i) {
    const scenario::Json a = GenerateScenarioDoc(42, i);
    const scenario::Json b = GenerateScenarioDoc(42, i);
    EXPECT_EQ(a.Dump(), b.Dump()) << "index " << i;
    EXPECT_NO_THROW(scenario::ParseScenario(a)) << a.Dump(2);
  }
  // Different seeds/indices explore different scenarios.
  EXPECT_NE(GenerateScenarioDoc(42, 0).Dump(),
            GenerateScenarioDoc(42, 1).Dump());
  EXPECT_NE(GenerateScenarioDoc(42, 0).Dump(),
            GenerateScenarioDoc(43, 0).Dump());
}

// A checked run that exhausts its event budget records an "event-budget"
// violation and skips the no-progress audit, which a truncated run would
// trip on its stranded flows.
TEST(Fuzzer, ExhaustedEventBudgetIsAViolation) {
  const scenario::SweepRunResult rep =
      RunScenarioDocChecked(GenerateScenarioDoc(7, 0), /*max_events=*/1000);
  ASSERT_TRUE(rep.error.empty()) << rep.error;
  ASSERT_GE(rep.violation_count, 1u);
  bool budget = false;
  for (const Violation& v : rep.violations) {
    budget = budget || v.monitor == "event-budget";
    EXPECT_NE(v.monitor, "no-progress") << v.Format();
  }
  EXPECT_TRUE(budget);
}

}  // namespace
}  // namespace hpcc::check
