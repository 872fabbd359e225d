#include "obs/openmetrics.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pol::obs {
namespace {

void AppendUint(std::string* out, uint64_t value) {
  *out += std::to_string(value);
}

void AppendDouble(std::string* out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

void AppendType(std::string* out, const std::string& name,
                std::string_view type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

}  // namespace

std::string OpenMetricsName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(legal ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = OpenMetricsName(name);
    AppendType(&out, metric, "counter");
    out += metric;
    out += "_total ";
    AppendUint(&out, value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = OpenMetricsName(name);
    AppendType(&out, metric, "gauge");
    out += metric;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const MetricsSnapshot::HistogramEntry& entry : snapshot.histograms) {
    const std::string metric = OpenMetricsName(entry.name);
    AppendType(&out, metric, "histogram");
    // Cumulative buckets: one line per non-empty bucket (keyed by its
    // *upper* bound, exposition-format style) plus the mandatory +Inf.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (entry.buckets[i] == 0) continue;
      cumulative += entry.buckets[i];
      out += metric;
      out += "_bucket{le=\"";
      if (i + 1 < Histogram::kBucketCount) {
        AppendDouble(&out, Histogram::BucketLowerBoundSeconds(i + 1));
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      AppendUint(&out, cumulative);
      out += '\n';
    }
    if (cumulative != entry.count) {
      // Top-bucket samples (or a racing snapshot) left the +Inf line
      // unemitted or short; close the series at the true count.
      out += metric;
      out += "_bucket{le=\"+Inf\"} ";
      AppendUint(&out, entry.count);
      out += '\n';
    }
    out += metric;
    out += "_sum ";
    AppendDouble(&out, entry.sum_seconds);
    out += '\n';
    out += metric;
    out += "_count ";
    AppendUint(&out, entry.count);
    out += '\n';
  }
  out += "# EOF\n";
  return out;
}

std::vector<OpenMetricsSample> ParseOpenMetrics(std::string_view text) {
  std::vector<OpenMetricsSample> samples;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.empty() || line.front() == '#') continue;

    OpenMetricsSample sample;
    std::string_view rest;
    const size_t brace = line.find('{');
    const size_t space = line.find(' ');
    if (brace != std::string_view::npos &&
        (space == std::string_view::npos || brace < space)) {
      sample.name = std::string(line.substr(0, brace));
      const size_t close = line.find('}', brace);
      if (close == std::string_view::npos) continue;  // Malformed.
      std::string_view labels = line.substr(brace + 1, close - brace - 1);
      while (!labels.empty()) {
        size_t comma = labels.find(',');
        std::string_view one = labels.substr(0, comma);
        labels = comma == std::string_view::npos
                     ? std::string_view()
                     : labels.substr(comma + 1);
        const size_t eq = one.find("=\"");
        if (eq == std::string_view::npos || one.size() < eq + 3 ||
            one.back() != '"') {
          continue;
        }
        sample.labels.emplace_back(
            std::string(one.substr(0, eq)),
            std::string(one.substr(eq + 2, one.size() - eq - 3)));
      }
      rest = line.substr(close + 1);
    } else {
      if (space == std::string_view::npos) continue;
      sample.name = std::string(line.substr(0, space));
      rest = line.substr(space);
    }
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    if (rest.empty()) continue;
    const std::string value(rest.substr(0, rest.find(' ')));
    if (value == "+Inf") {
      sample.value = 1e308;
    } else {
      char* parsed_end = nullptr;
      sample.value = std::strtod(value.c_str(), &parsed_end);
      if (parsed_end == value.c_str()) continue;  // Not a number.
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

const OpenMetricsSample* FindSample(
    const std::vector<OpenMetricsSample>& samples, std::string_view name) {
  for (const OpenMetricsSample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

}  // namespace pol::obs
