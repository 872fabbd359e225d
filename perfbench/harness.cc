#include "harness.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pol::perfbench {

namespace {

// 1-based nearest rank of the q-quantile of n samples.
size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

bool PercentileReportable(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

TimingSummary Summarize(std::vector<double> samples) {
  TimingSummary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  summary.median = Median(samples);
  std::sort(samples.begin(), samples.end());
  summary.min = samples.front();
  summary.max = samples.back();
  summary.tail_q = 0.5;
  for (const double q : {0.999, 0.99, 0.9}) {
    if (PercentileReportable(samples.size(), q)) {
      summary.tail_q = q;
      break;
    }
  }
  summary.tail = QuantileSorted(samples, summary.tail_q);
  summary.tail_beyond = SamplesBeyond(samples.size(), summary.tail_q);
  return summary;
}

double MedianWindowQuantile(std::vector<TimedSample> samples,
                            double window_seconds, double q, size_t* windows) {
  *windows = 0;
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) { return a.due < b.due; });
  const double origin = samples.front().due;
  std::vector<double> quantiles;
  std::vector<double> window;
  int64_t current = 0;
  const auto flush = [&] {
    if (PercentileReportable(window.size(), q)) {
      std::sort(window.begin(), window.end());
      quantiles.push_back(QuantileSorted(window, q));
    }
    window.clear();
  };
  for (const TimedSample& sample : samples) {
    const auto index =
        static_cast<int64_t>(std::floor((sample.due - origin) / window_seconds));
    if (index != current) {
      flush();
      current = index;
    }
    window.push_back(sample.value);
  }
  flush();
  *windows = quantiles.size();
  return Median(quantiles);
}

int SpanRecorder::Begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start = clock_();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) { spans_[static_cast<size_t>(id)].end = clock_(); }

double SelfSeconds(const std::vector<Span>& spans, int id) {
  const Span& self = spans[static_cast<size_t>(id)];
  std::vector<std::pair<double, double>> children;
  for (const Span& span : spans) {
    if (span.parent != id) continue;
    const double lo = std::max(span.start, self.start);
    const double hi = std::min(span.end, self.end);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = self.start;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return (self.end - self.start) - covered;
}

double SelfSecondsByName(const std::vector<Span>& spans,
                         const std::string& name) {
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += SelfSeconds(spans, static_cast<int>(i));
  }
  return total;
}

double UnattributedShare(const std::vector<Span>& spans, int id) {
  const Span& root = spans[static_cast<size_t>(id)];
  const double duration = root.end - root.start;
  if (duration <= 0.0) return 0.0;
  return SelfSeconds(spans, id) / duration;
}

}  // namespace pol::perfbench
