// SloTracker: burn-rate math over good/bad rates and latency
// histograms, the multi-window AND rule (both fast and slow burns must
// clear the threshold), breach counting on transitions into burning,
// and the published <prefix><name>.* gauge set. Gauge prefixes are
// unique per test: the tracker publishes into the global Registry.

#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"

namespace pol::obs {
namespace {

int64_t GaugeValue(const std::string& name) {
  return Registry::Global().gauge(name)->value();
}

uint64_t CounterValue(const std::string& name) {
  return Registry::Global().counter(name)->value();
}

TEST(SloTrackerTest, AvailabilityBurnRateMath) {
  WindowedRate good(1.0, 64);
  WindowedRate bad(1.0, 64);
  good.IncrementAt(100.5, 9);
  bad.IncrementAt(100.5, 1);  // 10% bad against a 0.1% budget.

  SloTracker tracker("slo_test.avail.");
  SloSpec spec;
  spec.name = "availability";
  spec.kind = SloKind::kAvailability;
  spec.objective = 0.999;
  spec.fast_windows = 5;
  spec.slow_windows = 60;
  spec.burn_threshold = 1.0;
  SloSource source;
  source.good = &good;
  source.bad = &bad;
  tracker.Add(spec, source);

  const std::vector<SloStatus> statuses = tracker.EvaluateAt(100.9);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].name, "availability");
  // burn = (bad / total) / (1 - objective) = 0.1 / 0.001.
  EXPECT_NEAR(statuses[0].burn_fast, 100.0, 1e-9);
  EXPECT_NEAR(statuses[0].burn_slow, 100.0, 1e-9);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);

  EXPECT_EQ(GaugeValue("slo_test.avail.availability.burning"), 1);
  EXPECT_EQ(GaugeValue("slo_test.avail.availability.burn_fast_milli"),
            100000);
  EXPECT_EQ(GaugeValue("slo_test.avail.availability.burn_slow_milli"),
            100000);
  EXPECT_EQ(CounterValue("slo_test.avail.availability.breaches"), 1u);
}

TEST(SloTrackerTest, NoTrafficSpendsNoBudget) {
  WindowedRate good(1.0, 64);
  WindowedRate bad(1.0, 64);
  SloTracker tracker("slo_test.idle.");
  SloSpec spec;
  spec.name = "availability";
  spec.kind = SloKind::kAvailability;
  SloSource source;
  source.good = &good;
  source.bad = &bad;
  tracker.Add(spec, source);

  const std::vector<SloStatus> statuses = tracker.EvaluateAt(100.9);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].burn_fast, 0.0);
  EXPECT_FALSE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 0u);
}

// The multi-window policy: a fresh spike trips the fast window but not
// the slow one (no page on a blip); an old, drained incident shows in
// the slow window only. Neither alone reports burning.
TEST(SloTrackerTest, BurnsOnlyWhenBothWindowsOverThreshold) {
  WindowedRate good(1.0, 64);
  WindowedRate bad(1.0, 64);
  // 21 seconds of healthy traffic...
  for (int epoch = 0; epoch <= 20; ++epoch) {
    good.IncrementAt(static_cast<double>(epoch) + 0.5, 1000);
  }
  // ...then a fresh spike in the newest window only.
  bad.IncrementAt(20.5, 10);

  SloTracker tracker("slo_test.window.");
  SloSpec spec;
  spec.name = "availability";
  spec.kind = SloKind::kAvailability;
  spec.objective = 0.999;
  spec.fast_windows = 2;
  spec.slow_windows = 60;
  spec.burn_threshold = 1.0;
  SloSource source;
  source.good = &good;
  source.bad = &bad;
  tracker.Add(spec, source);

  std::vector<SloStatus> statuses = tracker.EvaluateAt(20.9);
  ASSERT_EQ(statuses.size(), 1u);
  // Fast (2 windows): 10 bad vs 2010 events ≈ 5x budget. Slow (60
  // windows): 10 bad vs 21010 events ≈ 0.5x budget.
  EXPECT_GE(statuses[0].burn_fast, 1.0);
  EXPECT_LT(statuses[0].burn_slow, 1.0);
  EXPECT_FALSE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 0u);
  EXPECT_EQ(GaugeValue("slo_test.window.availability.burning"), 0);

  // Sustain the errors until the slow window catches up too: now both
  // burns clear the threshold and the SLO reports burning.
  for (int epoch = 21; epoch <= 44; ++epoch) {
    good.IncrementAt(static_cast<double>(epoch) + 0.5, 10);
    bad.IncrementAt(static_cast<double>(epoch) + 0.5, 10);
  }
  statuses = tracker.EvaluateAt(44.9);
  EXPECT_GE(statuses[0].burn_fast, 1.0);
  EXPECT_GE(statuses[0].burn_slow, 1.0);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);
}

TEST(SloTrackerTest, LatencyQuantileBurnAndRecovery) {
  WindowedHistogram latency(1.0, 64);
  SloTracker tracker("slo_test.lat.");
  SloSpec spec;
  spec.name = "interactive_p99";
  spec.kind = SloKind::kLatencyQuantile;
  spec.objective = 0.99;           // 1% of scans may run long...
  spec.threshold_seconds = 0.001;  // ...longer than 1ms.
  spec.fast_windows = 2;
  spec.slow_windows = 60;
  spec.burn_threshold = 1.0;
  SloSource source;
  source.latency = &latency;
  tracker.Add(spec, source);

  // Every scan 10x over the bound: the whole population is bad, so
  // burn = 1.0 / 0.01 budget = 100 in both windows.
  for (int i = 0; i < 100; ++i) latency.RecordAt(50.5, 0.010);
  std::vector<SloStatus> statuses = tracker.EvaluateAt(50.9);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_NEAR(statuses[0].burn_fast, 100.0, 1.0);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);

  // Still burning on the next tick: no double-counted breach.
  statuses = tracker.EvaluateAt(51.0);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);

  // The windows drain past the incident: burn returns to zero.
  statuses = tracker.EvaluateAt(200.9);
  EXPECT_EQ(statuses[0].burn_fast, 0.0);
  EXPECT_FALSE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 1u);

  // A second incident is a second breach.
  for (int i = 0; i < 100; ++i) latency.RecordAt(201.5, 0.010);
  statuses = tracker.EvaluateAt(201.9);
  EXPECT_TRUE(statuses[0].burning);
  EXPECT_EQ(statuses[0].breaches, 2u);
  EXPECT_EQ(CounterValue("slo_test.lat.interactive_p99.breaches"), 2u);
}

TEST(SloTrackerTest, LatencyUnderBoundDoesNotBurn) {
  WindowedHistogram latency(1.0, 64);
  for (int i = 0; i < 100; ++i) latency.RecordAt(10.5, 10e-6);
  SloTracker tracker("slo_test.fastlat.");
  SloSpec spec;
  spec.name = "p99";
  spec.kind = SloKind::kLatencyQuantile;
  spec.objective = 0.99;
  spec.threshold_seconds = 0.001;
  spec.fast_windows = 2;
  spec.slow_windows = 60;
  SloSource source;
  source.latency = &latency;
  tracker.Add(spec, source);

  const std::vector<SloStatus> statuses = tracker.EvaluateAt(10.9);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_NEAR(statuses[0].burn_fast, 0.0, 1e-9);
  EXPECT_FALSE(statuses[0].burning);
}

TEST(SloTrackerTest, EvaluationPreservesAddOrder) {
  WindowedRate good(1.0, 8);
  WindowedRate bad(1.0, 8);
  WindowedHistogram latency(1.0, 8);
  SloTracker tracker("slo_test.order.");
  SloSpec first;
  first.name = "alpha";
  first.kind = SloKind::kAvailability;
  SloSource first_source;
  first_source.good = &good;
  first_source.bad = &bad;
  tracker.Add(first, first_source);
  SloSpec second;
  second.name = "beta";
  second.kind = SloKind::kLatencyQuantile;
  second.threshold_seconds = 0.001;
  SloSource second_source;
  second_source.latency = &latency;
  tracker.Add(second, second_source);

  ASSERT_EQ(tracker.size(), 2u);
  const std::vector<SloStatus> statuses = tracker.EvaluateAt(5.0);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].name, "alpha");
  EXPECT_EQ(statuses[1].name, "beta");
}

}  // namespace
}  // namespace pol::obs
