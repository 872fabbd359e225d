// Unit tests for the metrics registry: recording, bucket math, handle
// stability and snapshot shape.

#include "obs/metrics.h"

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace pol::obs {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(HistogramTest, BucketIndexBoundaries) {
  // Bucket 0: zero micros. Bucket i >= 1: [2^(i-1), 2^i) micros.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // The last bucket absorbs everything past the top boundary.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBucketCount - 1);
}

TEST(HistogramTest, BucketLowerBounds) {
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBoundSeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBoundSeconds(1), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBoundSeconds(11), 1024e-6);
  // Lower bounds are consistent with BucketIndex: the bound of bucket i
  // lands in bucket i.
  for (size_t i = 1; i + 1 < Histogram::kBucketCount; ++i) {
    const auto micros = static_cast<uint64_t>(
        Histogram::BucketLowerBoundSeconds(i) * 1e6 + 0.5);
    EXPECT_EQ(Histogram::BucketIndex(micros), i) << "bucket " << i;
  }
}

TEST(HistogramTest, RecordTracksCountSumMinMax) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.min_seconds(), 0.0);  // No-sample sentinel.
  histogram.Record(0.002);
  histogram.Record(0.010);
  histogram.Record(0.001);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_NEAR(histogram.sum_seconds(), 0.013, 1e-9);
  EXPECT_NEAR(histogram.min_seconds(), 0.001, 1e-9);
  EXPECT_NEAR(histogram.max_seconds(), 0.010, 1e-9);
  // 1 ms = 1000 us -> bucket 10 holds [512, 1024) us; 1000 us is there.
  EXPECT_EQ(histogram.bucket(Histogram::BucketIndex(1000)), 1u);
}

TEST(HistogramTest, NegativeAndNanClampToZero) {
  Histogram histogram;
  histogram.Record(-5.0);
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_DOUBLE_EQ(histogram.sum_seconds(), 0.0);
}

TEST(HistogramTest, OverflowCountsSamplesPastLastFiniteBound) {
  Histogram histogram;
  histogram.Record(2000.0);  // 2e9 us: top bucket, still under 2^31 us.
  EXPECT_EQ(histogram.overflow_count(), 0u);
  histogram.Record(3000.0);  // 3e9 us: past the last finite bound.
  histogram.Record(4000.0);
  EXPECT_EQ(histogram.overflow_count(), 2u);
  // Overflow samples still land in the top bucket — the count is an
  // annotation for quantile consumers, not a separate bin.
  EXPECT_EQ(histogram.bucket(Histogram::kBucketCount - 1), 3u);
  EXPECT_LE(histogram.overflow_count(),
            histogram.bucket(Histogram::kBucketCount - 1));
  histogram.Reset();
  EXPECT_EQ(histogram.overflow_count(), 0u);
}

TEST(HistogramTest, SnapshotCarriesOverflowAndMax) {
  Registry registry;
  Histogram* histogram = registry.histogram("of.latency");
  histogram->Record(0.001);
  histogram->Record(5000.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 2u);
  EXPECT_EQ(snapshot.histograms[0].overflow_count, 1u);
  EXPECT_NEAR(snapshot.histograms[0].max_seconds, 5000.0, 1e-6);
}

TEST(RegistryTest, HandlesAreStableAndNamed) {
  Registry registry;
  Counter* counter = registry.counter("test.counter");
  // Repeat lookup returns the same stable handle.
  EXPECT_EQ(counter, registry.counter("test.counter"));
  // Kind-spaced: the same name as a different kind is a distinct metric.
  EXPECT_NE(static_cast<void*>(counter),
            static_cast<void*>(registry.gauge("test.counter")));
  EXPECT_NE(counter, registry.counter("test.other"));
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("zulu")->Increment(1);
  registry.counter("alpha")->Increment(2);
  registry.counter("mike")->Increment(3);
  registry.gauge("depth")->Set(4);
  registry.histogram("latency")->Record(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "alpha");
  EXPECT_EQ(snapshot.counters[1].first, "mike");
  EXPECT_EQ(snapshot.counters[2].first, "zulu");
  EXPECT_EQ(snapshot.counters[2].second, 1u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 4);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);
}

TEST(RegistryTest, ResetZeroesButKeepsHandles) {
  Registry registry;
  Counter* counter = registry.counter("c");
  Histogram* histogram = registry.histogram("h");
  counter->Increment(9);
  histogram->Record(1.0);
  registry.Reset();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(registry.counter("c"), counter);  // Same handle after reset.
}

TEST(RegistryTest, SnapshotJsonShape) {
  Registry registry;
  registry.counter("events")->Increment(5);
  registry.histogram("wait")->Record(0.001);
  const Json json = MetricsSnapshotToJson(registry.Snapshot());
  ASSERT_NE(json.Find("counters"), nullptr);
  EXPECT_EQ(json.Find("counters")->GetUint64("events"), 5u);
  const Json* histograms = json.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* wait = histograms->Find("wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->GetUint64("count"), 1u);
}

TEST(RegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&Registry::Global(), &Registry::Global());
}

TEST(RegistryConcurrencyTest, ConcurrentIncrementsAreExact) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Half the lookups race registration, half hit the cached-handle
      // pattern call sites use.
      Counter* cached = registry.counter("stress.cached");
      Histogram* histogram = registry.histogram("stress.latency");
      for (int i = 0; i < kIterations; ++i) {
        cached->Increment();
        registry.counter("stress.looked_up")->Increment();
        histogram->Record(1e-6 * (i % 64));
        registry.gauge("stress.level")->Set(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const uint64_t expected = uint64_t{kThreads} * kIterations;
  EXPECT_EQ(registry.counter("stress.cached")->value(), expected);
  EXPECT_EQ(registry.counter("stress.looked_up")->value(), expected);
  Histogram* histogram = registry.histogram("stress.latency");
  EXPECT_EQ(histogram->count(), expected);
  uint64_t bucket_total = 0;
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    bucket_total += histogram->bucket(b);
  }
  EXPECT_EQ(bucket_total, expected);  // Every sample landed in a bucket.
}

}  // namespace
}  // namespace pol::obs
