// OpenMetrics exposition: name sanitization, the counter/_total and
// gauge/histogram renderings of a MetricsSnapshot, the mandatory
// trailing "# EOF" and the tolerant line parser used by `polinv watch`
// — all round-tripped through ParseOpenMetrics. The file the guard
// writes is covered by serving_telemetry_test.

#include "obs/openmetrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pol::obs {
namespace {

std::vector<const OpenMetricsSample*> SamplesNamed(
    const std::vector<OpenMetricsSample>& samples, std::string_view name) {
  std::vector<const OpenMetricsSample*> out;
  for (const OpenMetricsSample& sample : samples) {
    if (sample.name == name) out.push_back(&sample);
  }
  return out;
}

TEST(OpenMetricsNameTest, SanitizesIllegalCharacters) {
  EXPECT_EQ(OpenMetricsName("serving.query.p99_us"), "serving_query_p99_us");
  EXPECT_EQ(OpenMetricsName("stage.clean-up.seconds"),
            "stage_clean_up_seconds");
  EXPECT_EQ(OpenMetricsName("9lives"), "_9lives");
  EXPECT_EQ(OpenMetricsName(""), "_");
  EXPECT_EQ(OpenMetricsName("already_legal:name"), "already_legal:name");
}

TEST(OpenMetricsRenderTest, EmptySnapshotIsJustEof) {
  const std::string text = RenderOpenMetrics(MetricsSnapshot{});
  EXPECT_EQ(text, "# EOF\n");
  EXPECT_TRUE(ParseOpenMetrics(text).empty());
}

TEST(OpenMetricsRenderTest, CountersAndGaugesRoundTrip) {
  Registry registry;
  registry.counter("om.test.requests")->Increment(5);
  registry.gauge("om.test.depth")->Set(-3);
  const std::string text = RenderOpenMetrics(registry.Snapshot());

  EXPECT_NE(text.find("# TYPE om_test_requests counter"), std::string::npos);
  EXPECT_NE(text.find("om_test_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE om_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("om_test_depth -3"), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  const std::vector<OpenMetricsSample> samples = ParseOpenMetrics(text);
  const OpenMetricsSample* requests =
      FindSample(samples, "om_test_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(requests->value, 5.0);
  const OpenMetricsSample* depth = FindSample(samples, "om_test_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, -3.0);
  EXPECT_EQ(FindSample(samples, "om_test_absent"), nullptr);
}

TEST(OpenMetricsRenderTest, HistogramSeriesIsCumulative) {
  Registry registry;
  Histogram* hist = registry.histogram("om.test.latency");
  hist->Record(0.0005);  // Bucket [256us, 512us).
  hist->Record(0.0005);
  hist->Record(0.002);  // Bucket [1024us, 2048us).
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  const std::vector<OpenMetricsSample> samples = ParseOpenMetrics(text);

  const std::vector<const OpenMetricsSample*> buckets =
      SamplesNamed(samples, "om_test_latency_bucket");
  ASSERT_EQ(buckets.size(), 2u);
  // Cumulative counts, keyed by each bucket's upper bound in seconds.
  ASSERT_EQ(buckets[0]->labels.size(), 1u);
  EXPECT_EQ(buckets[0]->labels[0].first, "le");
  EXPECT_NEAR(std::stod(buckets[0]->labels[0].second), 512e-6, 1e-12);
  EXPECT_DOUBLE_EQ(buckets[0]->value, 2.0);
  EXPECT_NEAR(std::stod(buckets[1]->labels[0].second), 2048e-6, 1e-12);
  EXPECT_DOUBLE_EQ(buckets[1]->value, 3.0);

  const OpenMetricsSample* sum = FindSample(samples, "om_test_latency_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_NEAR(sum->value, 0.003, 1e-9);
  const OpenMetricsSample* count =
      FindSample(samples, "om_test_latency_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 3.0);
}

TEST(OpenMetricsRenderTest, TopBucketClosesWithInf) {
  Registry registry;
  Histogram* hist = registry.histogram("om.test.tail");
  hist->Record(0.0005);
  hist->Record(4000.0);  // Top (open-ended) bucket.
  const std::vector<OpenMetricsSample> samples =
      ParseOpenMetrics(RenderOpenMetrics(registry.Snapshot()));

  const std::vector<const OpenMetricsSample*> buckets =
      SamplesNamed(samples, "om_test_tail_bucket");
  ASSERT_GE(buckets.size(), 2u);
  const OpenMetricsSample* last = buckets.back();
  ASSERT_EQ(last->labels.size(), 1u);
  EXPECT_EQ(last->labels[0].first, "le");
  EXPECT_EQ(last->labels[0].second, "+Inf");
  EXPECT_DOUBLE_EQ(last->value, 2.0);  // +Inf closes at the full count.
}

TEST(OpenMetricsParseTest, ToleratesCommentsBlanksAndJunk) {
  const std::string text =
      "# TYPE a counter\n"
      "\n"
      "a_total 7\n"
      "   \t b{le=\"0.001\",code=\"ok\"} 2.5\n"
      "malformed line without a value\n"
      "c{unclosed 9\n"
      "d +Inf\n"
      "# EOF\n";
  const std::vector<OpenMetricsSample> samples = ParseOpenMetrics(text);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  EXPECT_EQ(samples[1].name, "b");
  ASSERT_EQ(samples[1].labels.size(), 2u);
  EXPECT_EQ(samples[1].labels[0].first, "le");
  EXPECT_EQ(samples[1].labels[0].second, "0.001");
  EXPECT_EQ(samples[1].labels[1].second, "ok");
  EXPECT_DOUBLE_EQ(samples[1].value, 2.5);
  EXPECT_EQ(samples[2].name, "d");
  EXPECT_GT(samples[2].value, 1e300);  // +Inf sentinel.
}

}  // namespace
}  // namespace pol::obs
