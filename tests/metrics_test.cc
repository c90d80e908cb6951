// Tests for telemetry: Counter, Gauge, Histogram, MetricRegistry.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_DOUBLE_EQ(g.value(), 7);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.P50(), 0);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.Record(5.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.P50(), 5.0, 5.0 * 0.06);
}

TEST(HistogramTest, ExactStatsTracked) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    h.Record(v);
  }
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_NEAR(h.StdDev(), 1.118, 0.001);  // population stddev
}

// Property: quantiles match an exact sorted computation within the bucket
// growth factor's relative error.
class HistogramQuantileTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramQuantileTest, QuantilesCloseToExact) {
  Rng rng(GetParam());
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextPareto(1.0, 1.4);  // heavy tail stresses buckets
    samples.push_back(v);
    h.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    double exact = samples[static_cast<size_t>(q * (samples.size() - 1))];
    double approx = h.Quantile(q);
    EXPECT_NEAR(approx / exact, 1.0, 0.08)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramQuantileTest,
                         ::testing::Values(1, 7, 123, 9999));

TEST(HistogramTest, NegativeSamplesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(1);
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0);
}

TEST(MetricRegistryTest, NamedMetricsArePersistent) {
  MetricRegistry reg;
  reg.GetCounter("a").Increment(3);
  reg.GetCounter("a").Increment(4);
  reg.GetHistogram("lat").Record(1.0);
  reg.GetGauge("g").Set(2.5);
  EXPECT_EQ(reg.GetCounter("a").value(), 7u);
  EXPECT_EQ(reg.GetHistogram("lat").count(), 1u);
  std::string report = reg.Report();
  EXPECT_NE(report.find("a = 7"), std::string::npos);
  EXPECT_NE(report.find("lat"), std::string::npos);
}

// --- Concurrency: recording from shard-executor worker threads ---------------

TEST(ConcurrentMetricsTest, CounterIncrementsAreNeverLost) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
      c.Increment(5);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * (kPerThread + 5));
}

TEST(ConcurrentMetricsTest, GaugeAddsSumExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      // +1.0 then -1.0 in bulk: any lost update leaves a nonzero residue.
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(1.0);
      }
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(-1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ConcurrentMetricsTest, HistogramKeepsEverySampleAndExactExtrema) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(rng.NextDouble(1.0, 1000.0));
      }
    });
  }
  // Readers race the writers; they must see internally consistent (if
  // momentarily stale) snapshots without crashing or tearing.
  for (int probe = 0; probe < 100; ++probe) {
    double p50 = h.P50();
    double p99 = h.P99();
    EXPECT_LE(p50, p99 + 1e-9);
    EXPECT_GE(h.max(), h.min());
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_GE(h.min(), 1.0);
  EXPECT_LE(h.max(), 1000.0);
  EXPECT_GT(h.mean(), 1.0);
  EXPECT_LT(h.mean(), 1000.0);
}

TEST(ConcurrentMetricsTest, QuantilesAreMonotoneAfterConcurrentRecording) {
  constexpr int kThreads = 4;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < 30000; ++i) {
        h.Record(rng.NextPareto(0.5, 1.2));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // q -> Quantile(q) must be nondecreasing and bounded by the extrema.
  double prev = h.min();
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev - 1e-12) << "quantile regressed at q=" << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max());
}

TEST(ConcurrentMetricsTest, RegistryMetricsAreSafeToShareAcrossThreads) {
  MetricRegistry reg;
  // Metric objects are created on the main thread (the registry contract),
  // then recorded into concurrently.
  Counter& hits = reg.GetCounter("hits");
  Histogram& lat = reg.GetHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hits, &lat] {
      for (int i = 0; i < 10000; ++i) {
        hits.Increment();
        lat.Record(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.GetCounter("hits").value(), 40000u);
  EXPECT_EQ(reg.GetHistogram("lat").count(), 40000u);
  EXPECT_NE(reg.Report().find("hits = 40000"), std::string::npos);
}

}  // namespace
}  // namespace tenantnet
