#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace pol::perfbench {
namespace {

std::vector<double> OneToN(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileRule, NearestRankQuantiles) {
  const std::vector<double> sorted = OneToN(1000);
  EXPECT_EQ(QuantileSorted(sorted, 0.5), 500.0);
  EXPECT_EQ(QuantileSorted(sorted, 0.99), 990.0);
  EXPECT_EQ(QuantileSorted(sorted, 1.0), 1000.0);
  EXPECT_EQ(QuantileSorted(sorted, 0.0), 1.0);
  EXPECT_EQ(QuantileSorted({7.0}, 0.99), 7.0);
}

TEST(PercentileRule, SamplesBeyondCountsStrictlyAbove) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(10000, 0.999), 10u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_TRUE(PercentileReportable(1000, 0.99));
  EXPECT_FALSE(PercentileReportable(999, 0.99));
  EXPECT_TRUE(PercentileReportable(100, 0.9));
  EXPECT_FALSE(PercentileReportable(99, 0.9));
}

TEST(PercentileRule, SummaryPicksHighestReportableTail) {
  TimingSummary s = Summarize(OneToN(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.tail_beyond, 10u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 1000.0);

  s = Summarize(OneToN(20000));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.999);
  EXPECT_EQ(s.tail_beyond, 20u);

  s = Summarize(OneToN(50));
  EXPECT_DOUBLE_EQ(s.tail_q, 0.5);  // Not even p90 has 10 beyond it.
  EXPECT_GE(s.tail_beyond, kMinSamplesBeyond);
}

TEST(PercentileRule, MedianOfEvenAndOddCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PercentileRule, MedianWindowQuantileIgnoresOneStalledWindow) {
  // Five 1-second windows of 1000 samples valued 1..1000; the third
  // window is hit by a stall that adds 10 s to its slowest half.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      double value = i;
      if (w == 2 && i > 500) value += 10000.0;
      samples.push_back({w + i / 1001.0, value});
    }
  }
  size_t windows = 0;
  EXPECT_EQ(MedianWindowQuantile(samples, 1.0, 0.99, &windows), 990.0);
  EXPECT_EQ(windows, 5u);
  // Windows too small for p99 do not count.
  EXPECT_EQ(MedianWindowQuantile(samples, 0.5, 0.99, &windows), 0.0);
  EXPECT_EQ(windows, 0u);
}

// A fake clock that only moves when the generator waits or an op
// "runs", so the expected latencies are exact.
struct FakeTime {
  double now = 0.0;
};

TEST(OpenLoop, NoStallMeansLatencyIsServiceTime) {
  FakeTime t;
  const OpenLoopResult r = RunOpenLoop(
      5, 1.0, 0.010, [&] { return t.now; }, [&](double due) { t.now = due; },
      [&](size_t) { t.now += 0.002; }, [] { return false; });
  ASSERT_EQ(r.latency_seconds.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(r.latency_seconds[i], 0.002, 1e-12);
    EXPECT_NEAR(r.late_seconds[i], 0.0, 1e-12);
  }
}

TEST(OpenLoop, StallIsChargedFromDueTimeToEveryDelayedRequest) {
  // Requests due every 10 ms, each takes 1 ms, request 2 stalls 35 ms.
  // Requests 3..5 were due while the stall ran, so their latency counts
  // the time they waited behind it, not just their own 1 ms.
  FakeTime t;
  const OpenLoopResult r = RunOpenLoop(
      8, 0.0, 0.010, [&] { return t.now; }, [&](double due) { t.now = due; },
      [&](size_t i) { t.now += (i == 2) ? 0.035 : 0.001; },
      [] { return false; });
  const std::vector<double> expected_latency = {0.001, 0.001, 0.035, 0.026,
                                                0.017, 0.008, 0.001, 0.001};
  const std::vector<double> expected_late = {0.0,   0.0,   0.0,   0.025,
                                             0.016, 0.007, 0.0,   0.0};
  ASSERT_EQ(r.latency_seconds.size(), expected_latency.size());
  for (size_t i = 0; i < expected_latency.size(); ++i) {
    EXPECT_NEAR(r.latency_seconds[i], expected_latency[i], 1e-12) << i;
    EXPECT_NEAR(r.late_seconds[i], expected_late[i], 1e-12) << i;
  }
}

TEST(OpenLoop, GeneratorNeverSendsEarly) {
  FakeTime t;
  std::vector<double> sent;
  const OpenLoopResult r = RunOpenLoop(
      4, 2.0, 0.5, [&] { return t.now; }, [&](double due) { t.now = due; },
      [&](size_t) { sent.push_back(t.now); }, [] { return false; });
  EXPECT_EQ(sent, (std::vector<double>{2.0, 2.5, 3.0, 3.5}));
  EXPECT_EQ(r.due_seconds, sent);
}

TEST(OpenLoop, StopEndsTheRunBeforeTheNextRequest) {
  FakeTime t;
  size_t sent = 0;
  const OpenLoopResult r = RunOpenLoop(
      100, 0.0, 1.0, [&] { return t.now; }, [&](double due) { t.now = due; },
      [&](size_t) { ++sent; }, [&] { return sent == 3; });
  EXPECT_EQ(sent, 3u);
  EXPECT_EQ(r.latency_seconds.size(), 3u);
}

std::vector<Span> BuildSpans() {
  // root [0, 10]: a [1, 4], b [3, 6] (overlaps a), c [8, 12] (clipped to
  // the root's end), and a grandchild a.x [2, 3] inside a.
  std::vector<Span> spans(5);
  spans[0] = {"root", -1, 0.0, 10.0};
  spans[1] = {"a", 0, 1.0, 4.0};
  spans[2] = {"b", 0, 3.0, 6.0};
  spans[3] = {"c", 0, 8.0, 12.0};
  spans[4] = {"a.x", 1, 2.0, 3.0};
  return spans;
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  const std::vector<Span> spans = BuildSpans();
  // Children cover [1, 6] and [8, 10]: 7 of 10 seconds.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 3.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 2.0);  // 3 minus a.x's 1.
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 4), 1.0);
  EXPECT_DOUBLE_EQ(UnattributedShare(spans, 0), 0.3);
}

TEST(SelfTime, SelfTimesOfATreeSumToTheRootDuration) {
  // Without overlap between siblings, self times partition the root.
  std::vector<Span> spans(4);
  spans[0] = {"root", -1, 0.0, 10.0};
  spans[1] = {"clean", 0, 0.5, 3.0};
  spans[2] = {"fold", 0, 3.0, 9.0};
  spans[3] = {"clean", 0, 9.0, 9.5};
  double sum = 0.0;
  for (int i = 0; i < 4; ++i) sum += SelfSeconds(spans, i);
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_DOUBLE_EQ(SelfSecondsByName(spans, "clean"), 3.0);
  EXPECT_DOUBLE_EQ(UnattributedShare(spans, 0), 0.1);
}

TEST(SelfTime, RecorderNestsUnderParent) {
  static double now = 0.0;
  SpanRecorder recorder([] { return now; });
  now = 1.0;
  const int root = recorder.Begin("root", -1);
  now = 2.0;
  const int child = recorder.Begin("child", root);
  now = 5.0;
  recorder.End(child);
  now = 6.0;
  recorder.End(root);
  EXPECT_EQ(recorder.spans()[1].parent, root);
  EXPECT_DOUBLE_EQ(SelfSeconds(recorder.spans(), root), 2.0);
  EXPECT_DOUBLE_EQ(UnattributedShare(recorder.spans(), root), 0.4);
}

}  // namespace
}  // namespace pol::perfbench
