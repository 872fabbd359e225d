#ifndef POL_OBS_OPENMETRICS_H_
#define POL_OBS_OPENMETRICS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

// OpenMetrics text exposition for a MetricsSnapshot: the serving
// telemetry exporter (core/serving_guard.h) renders the whole Registry
// — windowed quantile/QPS/SLO gauges included, since those are
// published as plain gauges — into a text file any Prometheus-style
// scraper (or `polinv watch`) can read. The guard writes that file
// through store::WriteFileDurable; obs only renders and parses.
//
// Mapping: dotted names are sanitized ('.' and any other illegal
// character become '_'), counters render as `<name>_total`, gauges
// as-is, histograms as the cumulative `<name>_bucket{le="..."}` series
// (upper bounds in seconds, closing with le="+Inf") plus `<name>_sum`
// and `<name>_count`. The document ends with the mandatory `# EOF`.
//
// ParseOpenMetrics is the reading half used by `polinv watch` and the
// round-trip tests: a tolerant line parser for the subset this
// renderer emits, not a full exposition-format validator.

namespace pol::obs {

// "serving.query.p99_us" -> "serving_query_p99_us". Illegal leading
// digits are prefixed with '_'.
std::string OpenMetricsName(std::string_view name);

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot);

// One parsed sample line: `name{label="value",...} 42`.
struct OpenMetricsSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

// Every sample line of `text` in order; comment (#) and blank lines are
// skipped, malformed lines dropped.
std::vector<OpenMetricsSample> ParseOpenMetrics(std::string_view text);

// First sample with this (already-sanitized) name; nullptr when absent.
const OpenMetricsSample* FindSample(
    const std::vector<OpenMetricsSample>& samples, std::string_view name);

}  // namespace pol::obs

#endif  // POL_OBS_OPENMETRICS_H_
