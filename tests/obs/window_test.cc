// WindowedHistogram / WindowedRate: rotation and expiry driven through
// the deterministic *At entry points, the ±1-bucket quantile guarantee
// checked against exact sample quantiles on synthetic distributions,
// overflow accounting past the last finite bucket bound, and the
// lock-free record path hammered by concurrent writers (the --tsan pass
// of tools/run_tier1.sh runs this binary under ThreadSanitizer).

#include "obs/window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"

namespace pol::obs {
namespace {

// Micros the way Histogram::Record computes them, so exact-vs-estimate
// comparisons share the rounding.
uint64_t MicrosOf(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9) / 1000;
}

// Exact sample quantile: the value at rank ceil(p * n) (1-based) of the
// sorted sample set — the same "p of the mass is at or below" reading
// the bucket walk uses.
double ExactQuantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

TEST(FastClockTest, TracksNowSecondsClosely) {
  // Warm the one-time calibration, then the two clocks must agree far
  // tighter than any window tick this project uses.
  static_cast<void>(NowSecondsFast());
  for (int i = 0; i < 3; ++i) {
    const double fast = NowSecondsFast();
    const double exact = NowSeconds();
    EXPECT_NEAR(fast, exact, 0.005) << "iteration " << i;
  }
}

TEST(WindowedHistogramTest, EmptyReadsAreZero) {
  WindowedHistogram hist(1.0, 8);
  const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(5.0);
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.overflow_count, 0u);
  EXPECT_EQ(hist.QuantileEstimateAt(5.0, 0.99), 0.0);
  EXPECT_EQ(snapshot.span_seconds, 8.0);
}

TEST(WindowedHistogramTest, GeometryIsClamped) {
  WindowedHistogram hist(-1.0, 0);
  EXPECT_GT(hist.window_seconds(), 0.0);
  EXPECT_GE(hist.window_count(), 2u);
}

TEST(WindowedHistogramTest, RecordLandsInItsWindow) {
  WindowedHistogram hist(1.0, 8);
  hist.RecordAt(0.5, 0.001);
  const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(0.5, 1);
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_NEAR(snapshot.sum_seconds, 0.001, 1e-9);
  EXPECT_NEAR(snapshot.min_seconds, 0.001, 1e-9);
  EXPECT_NEAR(snapshot.max_seconds, 0.001, 1e-9);
  EXPECT_EQ(snapshot.span_seconds, 1.0);
}

TEST(WindowedHistogramTest, TrailingWindowsExcludeOlderEpochs) {
  WindowedHistogram hist(1.0, 4);
  hist.RecordAt(0.5, 0.001);  // Epoch 0.
  hist.RecordAt(1.5, 0.002);  // Epoch 1.
  EXPECT_EQ(hist.TrailingSnapshotAt(1.9, 1).count, 1u);
  EXPECT_EQ(hist.TrailingSnapshotAt(1.9, 2).count, 2u);
  EXPECT_EQ(hist.TrailingSnapshotAt(1.9, 0).count, 2u);  // 0 = whole ring.
  // The one-window view sees only epoch 1's sample.
  EXPECT_NEAR(hist.TrailingSnapshotAt(1.9, 1).min_seconds, 0.002, 1e-9);
}

TEST(WindowedHistogramTest, RingRecyclingExpiresOldSamples) {
  WindowedHistogram hist(1.0, 4);
  hist.RecordAt(0.5, 0.001);  // Epoch 0.
  hist.RecordAt(1.5, 0.002);  // Epoch 1.
  hist.RecordAt(4.5, 0.004);  // Epoch 4 recycles epoch 0's slot.
  // The whole ring at t=4.9 spans epochs 1..4: epoch 0's sample is
  // gone, whether its slot was rewritten or merely expired.
  const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(4.9, 0);
  EXPECT_EQ(snapshot.count, 2u);
  EXPECT_NEAR(snapshot.min_seconds, 0.002, 1e-9);
  EXPECT_NEAR(snapshot.max_seconds, 0.004, 1e-9);
}

TEST(WindowedHistogramTest, StaleStragglerDropsItsSampleBounded) {
  WindowedHistogram hist(1.0, 4);
  hist.RecordAt(6.5, 0.001);  // Epoch 6 owns slot 2.
  hist.RecordAt(2.5, 0.002);  // Epoch 2 maps to slot 2 — already newer.
  const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(6.9, 0);
  EXPECT_EQ(snapshot.count, 1u);  // The straggler was dropped, not mixed in.
  EXPECT_NEAR(snapshot.max_seconds, 0.001, 1e-9);
}

// The acceptance bar from DESIGN.md §3.8: the log-linear interpolated
// estimate lands within one power-of-two bucket of the exact sample
// quantile, on distributions shaped like real scan latencies.
TEST(WindowedHistogramTest, QuantileWithinOneBucketOfExact) {
  struct Case {
    const char* name;
    std::vector<double> samples;
  };
  std::vector<Case> cases;

  Case log_sweep;
  log_sweep.name = "log sweep 1us..64ms";
  for (int k = 0; k <= 16; ++k) {
    for (int copies = 0; copies < 8; ++copies) {
      log_sweep.samples.push_back(static_cast<double>(1u << k) * 1e-6);
    }
  }
  cases.push_back(std::move(log_sweep));

  Case heavy_tail;
  heavy_tail.name = "heavy tail";
  for (int i = 0; i < 950; ++i) heavy_tail.samples.push_back(120e-6);
  for (int i = 0; i < 45; ++i) heavy_tail.samples.push_back(3e-3);
  for (int i = 0; i < 5; ++i) heavy_tail.samples.push_back(0.25);
  cases.push_back(std::move(heavy_tail));

  Case bimodal;
  bimodal.name = "bimodal cache hit/miss";
  for (int i = 0; i < 500; ++i) bimodal.samples.push_back(8e-6);
  for (int i = 0; i < 500; ++i) bimodal.samples.push_back(900e-6);
  cases.push_back(std::move(bimodal));

  for (const Case& test_case : cases) {
    WindowedHistogram hist(1.0, 4);
    for (const double sample : test_case.samples) {
      hist.RecordAt(100.5, sample);
    }
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const double exact = ExactQuantile(test_case.samples, p);
      const double estimate = hist.QuantileEstimateAt(100.9, p, 1);
      const auto exact_bucket =
          static_cast<int>(Histogram::BucketIndex(MicrosOf(exact)));
      const auto estimate_bucket =
          static_cast<int>(Histogram::BucketIndex(MicrosOf(estimate)));
      EXPECT_LE(std::abs(exact_bucket - estimate_bucket), 1)
          << test_case.name << " p=" << p << " exact=" << exact
          << " estimate=" << estimate;
    }
  }
}

TEST(WindowedHistogramTest, QuantileClampedToObservedRange) {
  WindowedHistogram hist(1.0, 4);
  for (int i = 0; i < 100; ++i) hist.RecordAt(10.5, 0.003);
  // A constant distribution collapses the clamp to one point: every
  // quantile is exactly the observed value.
  for (const double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hist.QuantileEstimateAt(10.9, p, 1), 0.003) << p;
  }
  // NaN p clamps to 0 instead of poisoning the walk.
  EXPECT_DOUBLE_EQ(
      hist.QuantileEstimateAt(10.9, std::numeric_limits<double>::quiet_NaN(),
                              1),
      0.003);
}

TEST(WindowedHistogramTest, OverflowSamplesAreCountedAndBounded) {
  WindowedHistogram hist(1.0, 4);
  hist.RecordAt(10.5, 2500.0);  // ~2.5e9 us: past the last finite bound.
  hist.RecordAt(10.5, 5000.0);
  hist.RecordAt(10.5, 0.001);  // An ordinary sample alongside.
  const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(10.9, 1);
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.overflow_count, 2u);
  EXPECT_NEAR(snapshot.max_seconds, 5000.0, 1e-6);
  // Top-bucket interpolation steers toward the observed max and never
  // leaves the observed range.
  const double p99 = hist.QuantileEstimateAt(10.9, 0.99, 1);
  EXPECT_GE(p99, 0.001);
  EXPECT_LE(p99, 5000.0);
  EXPECT_DOUBLE_EQ(hist.QuantileEstimateAt(10.9, 1.0, 1), 5000.0);
}

// Same epoch from many threads: no rotation in play, so (after a
// pre-touch that settles the first-sample slot reset) every record
// must land — the lock-free path loses nothing off the window edge.
TEST(WindowedHistogramTest, ConcurrentSameEpochCountsExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  WindowedHistogram hist(1.0, 4);
  hist.RecordAt(100.5, 1e-4);  // Pre-touch: the slot reset happens here.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.RecordAt(100.5, 1e-6 * static_cast<double>((t + i) % 1000));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(hist.TrailingSnapshotAt(100.9, 1).count,
            static_cast<uint64_t>(kThreads) * kPerThread + 1);
}

// Writers racing each other across epoch boundaries while a reader
// merges trailing snapshots: the TSan target for the slot-rotation CAS.
// Losses at window edges are bounded and allowed; torn values are not.
TEST(WindowedHistogramTest, ConcurrentRotationUnderReaders) {
  constexpr int kWriters = 4;
  constexpr int kEpochs = 5000;
  constexpr double kTick = 0.001;
  WindowedHistogram hist(kTick, 16);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hist] {
      for (int i = 0; i < kEpochs; ++i) {
        hist.RecordAt(kTick * static_cast<double>(i) + kTick / 2, 1e-5);
      }
    });
  }
  std::thread reader([&hist] {
    for (int i = 0; i < kEpochs; i += 7) {
      const double now = kTick * static_cast<double>(i) + kTick / 2;
      const WindowedSnapshot snapshot = hist.TrailingSnapshotAt(now, 0);
      ASSERT_LE(snapshot.count,
                static_cast<uint64_t>(kWriters) * kEpochs);
      const double q = WindowedHistogram::QuantileFromSnapshot(snapshot, 0.99);
      ASSERT_GE(q, 0.0);
    }
  });
  for (std::thread& writer : writers) writer.join();
  reader.join();
  const WindowedSnapshot final_snapshot =
      hist.TrailingSnapshotAt(kTick * kEpochs, 0);
  EXPECT_LE(final_snapshot.count, static_cast<uint64_t>(kWriters) * kEpochs);
}

TEST(WindowedRateTest, TrailingTotalsAndRates) {
  WindowedRate rate(1.0, 4);
  rate.IncrementAt(0.5, 3);  // Epoch 0.
  rate.IncrementAt(1.5, 2);  // Epoch 1.
  EXPECT_EQ(rate.TotalAt(1.9, 1), 2u);
  EXPECT_EQ(rate.TotalAt(1.9, 2), 5u);
  EXPECT_DOUBLE_EQ(rate.RatePerSecondAt(1.9, 2), 2.5);
  // Whole-ring reads clamp `windows` to the ring size.
  EXPECT_EQ(rate.TotalAt(1.9, 0), 5u);
  EXPECT_EQ(rate.TotalAt(1.9, 100), 5u);
}

TEST(WindowedRateTest, RecyclingDropsExpiredCounts) {
  WindowedRate rate(1.0, 4);
  rate.IncrementAt(0.5, 7);   // Epoch 0.
  rate.IncrementAt(5.5, 1);   // Epoch 5: epoch 0 is out of the ring span.
  EXPECT_EQ(rate.TotalAt(5.9, 0), 1u);
  // A straggler from a recycled epoch is dropped, not misfiled.
  rate.IncrementAt(1.5, 9);  // Epoch 1 maps to epoch 5's slot.
  EXPECT_EQ(rate.TotalAt(5.9, 0), 1u);
}

TEST(WindowedRateTest, ConcurrentSameEpochCountsExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  WindowedRate rate(1.0, 4);
  rate.IncrementAt(100.5);  // Pre-touch.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rate] {
      for (int i = 0; i < kPerThread; ++i) rate.IncrementAt(100.5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(rate.TotalAt(100.9, 1),
            static_cast<uint64_t>(kThreads) * kPerThread + 1);
}

}  // namespace
}  // namespace pol::obs
