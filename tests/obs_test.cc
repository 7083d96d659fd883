// Tests for the observability layer's metrics (pdr/obs): registry
// semantics, JSONL round-trip, and thread safety.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "json_util.h"
#include "pdr/obs/export.h"
#include "pdr/obs/obs.h"

namespace pdr {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PdrObs::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
};

// Tests that need counters to count start with this so that
// a -DPDR_OBS=OFF build skips them instead of failing.
#define REQUIRE_OBS_COMPILED_IN()                                  \
  if (!PdrObs::CompiledIn())                                       \
  GTEST_SKIP() << "observability compiled out (PDR_OBS=OFF)"

TEST_F(ObsTest, CounterBasics) {
  REQUIRE_OBS_COMPILED_IN();
  Counter& c = MetricsRegistry::Global().GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);

  // Same name returns the same counter; different name a different one.
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("test.counter"), &c);
  EXPECT_NE(&MetricsRegistry::Global().GetCounter("test.counter2"), &c);

  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, CounterRespectsEnabledSwitch) {
  REQUIRE_OBS_COMPILED_IN();
  Counter& c = MetricsRegistry::Global().GetCounter("test.gated");
  PdrObs::SetEnabled(false);
  c.Add(5);
  EXPECT_EQ(c.value(), 0);
  PdrObs::SetEnabled(true);
  c.Add(5);
  EXPECT_EQ(c.value(), 5);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  REQUIRE_OBS_COMPILED_IN();
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  g.Set(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST_F(ObsTest, HistogramBucketsAreLogScaled) {
  // Bucket 0 is [0, min); bucket i >= 1 is [min * 2^(i-1), min * 2^i).
  EXPECT_EQ(Histogram::BucketOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue / 2), 0);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue), 1);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue * 1.99), 1);
  EXPECT_EQ(Histogram::BucketOf(Histogram::kMinValue * 2), 2);
  EXPECT_EQ(Histogram::BucketOf(1e30), Histogram::kBuckets - 1);
  for (int i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLowerBound(i)), i);
  }
}

TEST_F(ObsTest, HistogramObserveTracksWelfordStats) {
  REQUIRE_OBS_COMPILED_IN();
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.histo");
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.Observe(v);
  const RunningStat stat = h.stat();
  EXPECT_EQ(stat.count(), 4);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);

  const auto buckets = h.buckets();
  int64_t total = 0;
  for (const int64_t b : buckets) total += b;
  EXPECT_EQ(total, 4);
  // Boundaries sit at kMinValue * 2^k = ..., 1.024, 2.048, 4.096, ... so
  // 3.0 and 4.0 share the [2.048, 4.096) bucket while 1.0 and 2.0 each get
  // their own.
  EXPECT_EQ(buckets[Histogram::BucketOf(1.0)], 1);
  EXPECT_EQ(buckets[Histogram::BucketOf(2.0)], 1);
  EXPECT_EQ(buckets[Histogram::BucketOf(4.0)], 2);
  EXPECT_EQ(Histogram::BucketOf(3.0), Histogram::BucketOf(4.0));
}

TEST_F(ObsTest, HistogramPercentilesInterpolateWithinBuckets) {
  REQUIRE_OBS_COMPILED_IN();
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.pctl");
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty
  for (int v = 1; v <= 100; ++v) h.Observe(static_cast<double>(v));

  // Log2 buckets are coarse, so within-bucket interpolation is only
  // required to land in the right neighborhood, monotonically.
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_NEAR(p50, 50.0, 16.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Clamped to observed extremes, never beyond.
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);

  // The snapshot entry agrees with the live histogram.
  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  for (const auto& entry : snap.histograms) {
    if (entry.name == "test.pctl") {
      EXPECT_DOUBLE_EQ(entry.Percentile(50), p50);
      EXPECT_DOUBLE_EQ(entry.Percentile(99), p99);
    }
  }
}

TEST_F(ObsTest, HistogramPercentileOverRawBuckets) {
  std::array<int64_t, Histogram::kBuckets> buckets{};
  EXPECT_DOUBLE_EQ(HistogramPercentile(buckets, 50), 0.0);
  // 10 observations in one bucket: percentiles sweep that bucket's range.
  const int b = Histogram::BucketOf(10.0);
  buckets[b] = 10;
  const double lo = Histogram::BucketLowerBound(b);
  const double hi = Histogram::BucketLowerBound(b + 1);
  EXPECT_GE(HistogramPercentile(buckets, 1), lo);
  EXPECT_LE(HistogramPercentile(buckets, 99), hi);
  EXPECT_LT(HistogramPercentile(buckets, 10),
            HistogramPercentile(buckets, 90));
}

TEST_F(ObsTest, SnapshotListsEverythingSorted) {
  REQUIRE_OBS_COMPILED_IN();
  MetricsRegistry::Global().GetCounter("test.b").Add(2);
  MetricsRegistry::Global().GetCounter("test.a").Add(1);
  MetricsRegistry::Global().GetGauge("test.g").Set(3.0);
  MetricsRegistry::Global().GetHistogram("test.h").Observe(1.0);

  const auto snap = MetricsRegistry::Global().TakeSnapshot();
  // The global registry accumulates names from other suites; find ours.
  int64_t a = -1, b = -1;
  bool sorted = true;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0 && snap.counters[i - 1].name > snap.counters[i].name) {
      sorted = false;
    }
    if (snap.counters[i].name == "test.a") a = snap.counters[i].value;
    if (snap.counters[i].name == "test.b") b = snap.counters[i].value;
  }
  EXPECT_TRUE(sorted);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST_F(ObsTest, MetricsJsonlRoundTrip) {
  REQUIRE_OBS_COMPILED_IN();
  MetricsRegistry::Global().GetCounter("test.jsonl.counter").Add(17);
  MetricsRegistry::Global().GetGauge("test.jsonl.gauge").Set(2.5);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.jsonl.histo");
  h.Observe(1.0);
  h.Observe(4.0);

  const std::string path =
      ::testing::TempDir() + "/obs_metrics_roundtrip.jsonl";
  std::remove(path.c_str());
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    WriteMetricsJsonl(&writer, MetricsRegistry::Global().TakeSnapshot());
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  bool saw_counter = false, saw_gauge = false, saw_histo = false;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    JsonParser parser(std::string_view(buf, std::strlen(buf)));
    const JsonValue doc = parser.Parse();
    ASSERT_TRUE(doc.is_object());
    const std::string type = doc.Find("type")->str();
    const std::string name = doc.Find("name")->str();
    if (name == "test.jsonl.counter") {
      saw_counter = true;
      EXPECT_EQ(type, "counter");
      EXPECT_DOUBLE_EQ(doc.Find("value")->number(), 17.0);
    } else if (name == "test.jsonl.gauge") {
      saw_gauge = true;
      EXPECT_EQ(type, "gauge");
      EXPECT_DOUBLE_EQ(doc.Find("value")->number(), 2.5);
    } else if (name == "test.jsonl.histo") {
      saw_histo = true;
      EXPECT_EQ(type, "histogram");
      EXPECT_DOUBLE_EQ(doc.Find("count")->number(), 2.0);
      EXPECT_DOUBLE_EQ(doc.Find("mean")->number(), 2.5);
      int64_t bucket_total = 0;
      for (const JsonValue& b : doc.Find("buckets")->array()) {
        bucket_total += static_cast<int64_t>(b.Find("count")->number());
      }
      EXPECT_EQ(bucket_total, 2);
    }
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histo);
}

TEST_F(ObsTest, MultiThreadedCounterHammer) {
  REQUIRE_OBS_COMPILED_IN();
  Counter& c = MetricsRegistry::Global().GetCounter("test.hammer");
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.hammer_ms");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        if (i % 100 == 0) h.Observe(static_cast<double>(i % 7) + 0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kIters);
  EXPECT_EQ(h.stat().count(), static_cast<int64_t>(kThreads) * (kIters / 100));
}

TEST_F(ObsTest, ConcurrentRegistrationIsSafe) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (int i = 0; i < 200; ++i) {
        Counter& c = MetricsRegistry::Global().GetCounter(
            "test.concurrent." + std::to_string(i % 10));
        c.Increment();
        if (i == 0) seen[t] = &c;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

}  // namespace
}  // namespace pdr
