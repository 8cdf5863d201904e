// Tests for percentile tracking, FCT binning, time series and PFC stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "sim/rng.h"
#include "stats/fct_recorder.h"
#include "stats/percentile.h"
#include "stats/pfc_monitor.h"
#include "stats/timeseries.h"

namespace hpcc::stats {
namespace {

TEST(Percentile, EmptyIsNaN) {
  // NaN (not 0) so "no samples" is distinguishable from a real 0 downstream;
  // CSV/manifest writers map it to an empty cell / JSON null.
  PercentileTracker t;
  EXPECT_TRUE(std::isnan(t.Percentile(50)));
  EXPECT_TRUE(std::isnan(t.Percentile(0)));
  EXPECT_TRUE(std::isnan(t.Percentile(100)));
  EXPECT_TRUE(t.Empty());
}

TEST(Percentile, ConstReadDoesNotMutate) {
  // Reading an unsorted tracker must not reorder samples_: concurrent
  // readers of a merged tracker would race otherwise. Exercised for real
  // under TSan by the ConcurrentReads test below.
  PercentileTracker a;
  for (int i = 100; i > 0; --i) a.Add(i);
  PercentileTracker b;
  b.Merge(a);  // unsorted
  const PercentileTracker& view = b;
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
  b.Sort();  // fast path gives identical answers
  EXPECT_NEAR(view.Percentile(50), 50.5, 0.01);
}

TEST(Percentile, ConcurrentReads) {
  // Cross-thread read of one merged tracker: the sweep-aggregation pattern
  // the TSan CI job guards. Both sorted and unsorted trackers are read from
  // two threads at once.
  PercentileTracker shared;
  sim::Rng rng(7);
  for (int i = 0; i < 20000; ++i) shared.Add(rng.Uniform() * 1e6);
  PercentileTracker unsorted;
  unsorted.Merge(shared);
  shared.Sort();
  auto reader = [&](const PercentileTracker& t, double* out) {
    double acc = 0;
    for (int i = 0; i < 50; ++i) {
      acc += t.Percentile(50) + t.Percentile(99) + t.Percentile(0) +
             t.Percentile(100);
    }
    *out = acc;
  };
  double r1 = 0, r2 = 0, r3 = 0, r4 = 0;
  std::thread t1(reader, std::cref(shared), &r1);
  std::thread t2(reader, std::cref(shared), &r2);
  std::thread t3(reader, std::cref(unsorted), &r3);
  std::thread t4(reader, std::cref(unsorted), &r4);
  t1.join();
  t2.join();
  t3.join();
  t4.join();
  EXPECT_DOUBLE_EQ(r1, r2);
  EXPECT_DOUBLE_EQ(r3, r4);
  EXPECT_DOUBLE_EQ(r1, r3);
}

TEST(Percentile, SingleSample) {
  PercentileTracker t;
  t.Add(42);
  EXPECT_EQ(t.Percentile(0), 42);
  EXPECT_EQ(t.Percentile(50), 42);
  EXPECT_EQ(t.Percentile(100), 42);
}

TEST(Percentile, KnownQuantiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.Add(i);
  EXPECT_NEAR(t.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(t.Percentile(95), 95.05, 0.01);
  EXPECT_NEAR(t.Percentile(99), 99.01, 0.01);
  EXPECT_EQ(t.Percentile(0), 1);
  EXPECT_EQ(t.Percentile(100), 100);
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.Add(10);
  EXPECT_EQ(t.Percentile(50), 10);
  t.Add(20);
  t.Add(30);
  EXPECT_EQ(t.Percentile(50), 20);  // re-sorts after new samples
}

class PercentileProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PercentileProperty, MatchesSortedVector) {
  sim::Rng rng(GetParam());
  PercentileTracker t;
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Uniform() * 1e6;
    t.Add(x);
    v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    const double rank = p / 100.0 * (v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const double want = v[lo] * (1 - frac) + v[std::min(lo + 1, v.size() - 1)] * frac;
    EXPECT_NEAR(t.Percentile(p), want, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(3, 5, 8));

TEST(FctRecorder, BinsBySizeAndFloorsSlowdownAtOne) {
  FctRecorder r({1'000, 10'000});
  r.Record(500, sim::Us(10), sim::Us(10));    // slowdown 1, bin 0
  r.Record(500, sim::Us(5), sim::Us(10));     // floored to 1
  r.Record(5'000, sim::Us(40), sim::Us(10));  // slowdown 4, bin 1
  r.Record(50'000, sim::Us(90), sim::Us(10)); // slowdown 9, bin 2
  EXPECT_EQ(r.bin(0).Count(), 2u);
  EXPECT_EQ(r.bin(1).Count(), 1u);
  EXPECT_EQ(r.bin(2).Count(), 1u);
  EXPECT_DOUBLE_EQ(r.bin(0).Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(r.bin(1).Percentile(50), 4.0);
  EXPECT_EQ(r.total_flows(), 4u);
}

TEST(FctRecorder, EdgeSizesGoToLowerBin) {
  FctRecorder r({1'000});
  r.Record(1'000, sim::Us(10), sim::Us(10));  // exactly the edge
  EXPECT_EQ(r.bin(0).Count(), 1u);
  EXPECT_EQ(r.bin(1).Count(), 0u);
}

TEST(FctRecorder, PaperBinSets) {
  EXPECT_EQ(FctRecorder::WebSearchBins().size(), 10u);
  EXPECT_EQ(FctRecorder::WebSearchBins().back(), 30'000'000u);
  EXPECT_EQ(FctRecorder::FbHadoopBins().front(), 324u);
  EXPECT_EQ(FctRecorder::FbHadoopBins().back(), 10'000'000u);
}

TEST(FctRecorder, TableFormatsNonEmptyBins) {
  FctRecorder r(FctRecorder::WebSearchBins());
  r.Record(100, sim::Us(20), sim::Us(10));
  r.Record(25'000'000, sim::Us(400), sim::Us(100));
  const std::string table = r.FormatTable();
  EXPECT_NE(table.find("<=6.7K"), std::string::npos);
  EXPECT_NE(table.find("all"), std::string::npos);
}

TEST(TimeSeries, StoresPointsInOrder) {
  TimeSeries ts;
  ts.Add(sim::Us(1), 10.0);
  ts.Add(sim::Us(2), 30.0);
  ASSERT_EQ(ts.points().size(), 2u);
  EXPECT_EQ(ts.points()[1].first, sim::Us(2));
  EXPECT_DOUBLE_EQ(ts.points()[1].second, 30.0);
}

TEST(TimeSeries, MaxPointsCapsViaStrideDoubling) {
  TimeSeries ts(64);
  EXPECT_EQ(ts.max_points(), 64u);
  for (int i = 0; i < 100'000; ++i) {
    ts.Add(sim::Us(i), static_cast<double>(i));
  }
  // Bounded no matter how long the run...
  EXPECT_LE(ts.points().size(), 64u);
  EXPECT_GE(ts.points().size(), 32u);  // ...but not over-thinned
  // ...and the endpoints survive every compaction.
  EXPECT_EQ(ts.points().front().first, sim::Us(0));
  EXPECT_EQ(ts.points().back().first, sim::Us(99'999));
  // Time stays strictly increasing through compactions.
  for (size_t i = 1; i < ts.points().size(); ++i) {
    EXPECT_LT(ts.points()[i - 1].first, ts.points()[i].first);
  }
}

TEST(TimeSeries, CapAppliedToExistingPoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.Add(sim::Us(i), 1.0);
  ts.set_max_points(16);
  EXPECT_LE(ts.points().size(), 16u);
  EXPECT_EQ(ts.points().front().first, sim::Us(0));
}

TEST(TimeSeries, TinyCapClampedToUsableMinimum) {
  TimeSeries ts(1);  // clamped to 4: first/last plus a thinned middle
  EXPECT_EQ(ts.max_points(), 4u);
  for (int i = 0; i < 100; ++i) ts.Add(sim::Us(i), 1.0);
  EXPECT_LE(ts.points().size(), 4u);
  EXPECT_FALSE(ts.empty());
}

TEST(PfcMonitor, TracksDurationsAndPeaks) {
  PfcMonitor m;
  const auto& obs = m.observer();
  // node 1 port 0 paused 10us..40us by a depth-0 PAUSE; node 2 port 1
  // paused 20us..50us by a depth-3 one.
  obs.on_change(1, 0, net::kDataPriority, sim::Us(10), true, 0);
  obs.on_change(2, 1, net::kDataPriority, sim::Us(20), true, 3);
  obs.on_change(1, 0, net::kDataPriority, sim::Us(40), false, 0);
  obs.on_change(2, 1, net::kDataPriority, sim::Us(50), false, 0);
  m.Finish(sim::Us(100));
  EXPECT_EQ(m.pause_count(), 2u);
  EXPECT_EQ(m.events()[0].depth, 0);
  EXPECT_EQ(m.events()[1].depth, 3);
  EXPECT_EQ(m.total_pause_time(), sim::Us(60));
  EXPECT_NEAR(m.PauseTimeFraction(sim::Us(100), 6), 0.1, 1e-9);
  const PercentileTracker d = m.DurationDistributionUs();
  EXPECT_DOUBLE_EQ(d.Percentile(100), 30.0);
}

TEST(PfcMonitor, OpenPausesClosedByFinish) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(10), true, 0);
  m.Finish(sim::Us(25));
  EXPECT_EQ(m.total_pause_time(), sim::Us(15));
}

TEST(PfcMonitor, IgnoresControlPriority) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kControlPriority, sim::Us(10), true, 0);
  EXPECT_EQ(m.pause_count(), 0u);
}

TEST(PfcMonitor, DuplicatePauseEventsIgnored) {
  PfcMonitor m;
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(10), true, 0);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(11), true, 0);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(20), false, 0);
  m.observer().on_change(1, 0, net::kDataPriority, sim::Us(21), false, 0);
  m.Finish(sim::Us(30));
  EXPECT_EQ(m.pause_count(), 1u);
  EXPECT_EQ(m.total_pause_time(), sim::Us(10));
}

}  // namespace
}  // namespace hpcc::stats
