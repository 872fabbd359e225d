#include "obs/metrics.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/mutex.h"

namespace pol::obs {
namespace {

// Registry lookup body; the caller holds the registry mutex (the three
// public accessors lock, so the guarded map access is inside the
// analyzed scope instead of laundered through a reference parameter).
template <typename Metric>
Metric* FindOrCreateLocked(
    std::map<std::string, std::unique_ptr<Metric>, std::less<>>& metrics,
    std::string_view name) {
  const auto it = metrics.find(name);
  if (it != metrics.end()) return it->second.get();
  auto metric = std::make_unique<Metric>();
  Metric* handle = metric.get();
  metrics.emplace(std::string(name), std::move(metric));
  return handle;
}

}  // namespace

Registry& Registry::Global() {
  static Registry* const kGlobal = new Registry();  // NOLINT(pollint:naked-new): leaked singleton, safe at exit.
  return *kGlobal;
}

Counter* Registry::counter(std::string_view name) {
  MutexLock lock(mutex_);
  return FindOrCreateLocked(counters_, name);
}

Gauge* Registry::gauge(std::string_view name) {
  MutexLock lock(mutex_);
  return FindOrCreateLocked(gauges_, name);
}

Histogram* Registry::histogram(std::string_view name) {
  MutexLock lock(mutex_);
  return FindOrCreateLocked(histograms_, name);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramEntry entry;
    entry.name = name;
    entry.overflow_count = histogram->overflow_count();
    entry.sum_seconds = histogram->sum_seconds();
    entry.min_seconds = histogram->min_seconds();
    entry.max_seconds = histogram->max_seconds();
    // One read of each bucket, so the count is exactly their sum.
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      entry.buckets[i] = histogram->bucket(i);
      entry.count += entry.buckets[i];
    }
    snapshot.histograms.push_back(std::move(entry));
  }
  return snapshot;
}

void Registry::Reset() {
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

Json MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  Json out = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, Json(value));
  }
  out.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, Json(value));
  }
  out.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const MetricsSnapshot::HistogramEntry& entry : snapshot.histograms) {
    Json histogram = Json::Object();
    histogram.Set("count", Json(entry.count));
    // Sparse like the buckets: only present when samples actually fell
    // past the last finite bucket bound.
    if (entry.overflow_count > 0) {
      histogram.Set("overflow_count", Json(entry.overflow_count));
    }
    histogram.Set("sum_seconds", Json(entry.sum_seconds));
    histogram.Set("min_seconds", Json(entry.min_seconds));
    histogram.Set("max_seconds", Json(entry.max_seconds));
    // Sparse: only non-empty buckets, keyed by their lower bound in
    // seconds, so quiet histograms stay one line.
    Json buckets = Json::Object();
    for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
      if (entry.buckets[i] == 0) continue;
      buckets.Set(std::to_string(Histogram::BucketLowerBoundSeconds(i)),
                  Json(entry.buckets[i]));
    }
    histogram.Set("buckets", std::move(buckets));
    histograms.Set(entry.name, std::move(histogram));
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

}  // namespace pol::obs
