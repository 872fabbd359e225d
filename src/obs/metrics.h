#ifndef POL_OBS_METRICS_H_
#define POL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

// common/mutex.h and common/thread_annotations.h live in the `base`
// layer (see tools/pollint/layers.txt): freestanding lock vocabulary
// the dependency-free obs layer may use without depending on common.
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/json.h"
#include "obs/stripe.h"

// The process-wide metrics registry: monotonic counters, gauges and
// fixed-bucket latency histograms, named hierarchically with dots
// ("pipeline.chunks_folded", "stage.cleaning.chunk_seconds",
// "checkpoint.write_seconds" — see DESIGN.md §3.4 for the naming
// convention). Lookup by name takes the registry mutex once; the
// returned handle is a stable pointer and every recording operation on
// it is a relaxed atomic — the fast path holds no lock and allocates
// nothing, so instrumentation is safe from any thread including pool
// workers in the hottest stage loops. Hot paths resolve their handles
// once (at construction) and never look a name up per call.

namespace pol::obs {

// Counter, the monotonically increasing event count, is striped per
// thread and lives in obs/stripe.h.

// A point-in-time level (queue depth, in-flight chunks).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A fixed-bucket latency histogram over seconds. Bucket 0 holds
// sub-microsecond samples; bucket i (i >= 1) holds samples in
// [2^(i-1), 2^i) microseconds; the last bucket absorbs everything
// longer (~2^30 us ≈ 18 minutes and up). Recording is two relaxed
// adds (bucket and sum; the count is the bucket sum) plus two bounded
// CAS loops for min/max — no locks, no floats in shared state
// (durations accumulate as integer nanoseconds).
//
// Samples past the last finite bucket bound (>= 2^31 us, where the
// saturating BucketIndex starts folding everything into the top
// bucket) are additionally counted in overflow_count(): quantile
// estimates over the top bucket would otherwise be silently
// pessimistic, so consumers interpolate toward the observed max and
// report the overflow explicitly (MetricsSnapshot, polinv report).
class Histogram {
 public:
  static constexpr size_t kBucketCount = 32;

  void Record(double seconds) {
    if (!(seconds >= 0.0)) seconds = 0.0;  // NaN/negative clamp.
    const auto nanos = static_cast<uint64_t>(seconds * 1e9);
    const uint64_t micros = nanos / 1000;
    buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
    if ((micros >> (kBucketCount - 1)) != 0) {  // >= 2^31 us.
      overflow_count_.fetch_add(1, std::memory_order_relaxed);
    }
    sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    UpdateMin(nanos);
    UpdateMax(nanos);
  }

  // The bucket sum: a record adds to exactly one bucket, so no
  // separate count is kept on the record path.
  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }
  double sum_seconds() const {
    return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  double min_seconds() const {
    const uint64_t nanos = min_nanos_.load(std::memory_order_relaxed);
    return nanos == kNoSample ? 0.0 : static_cast<double>(nanos) * 1e-9;
  }
  double max_seconds() const {
    return static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  uint64_t bucket(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }
  // Samples beyond the last finite bucket bound (see the class
  // comment); always <= bucket(kBucketCount - 1).
  uint64_t overflow_count() const {
    return overflow_count_.load(std::memory_order_relaxed);
  }

  // Inclusive lower bound of a bucket, in seconds.
  static double BucketLowerBoundSeconds(size_t index) {
    if (index == 0) return 0.0;
    return static_cast<double>(uint64_t{1} << (index - 1)) * 1e-6;
  }

  static size_t BucketIndex(uint64_t micros) {
    if (micros == 0) return 0;
    const auto width = static_cast<size_t>(std::bit_width(micros));
    return width < kBucketCount ? width : kBucketCount - 1;
  }

  void Reset() {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    overflow_count_.store(0, std::memory_order_relaxed);
    sum_nanos_.store(0, std::memory_order_relaxed);
    min_nanos_.store(kNoSample, std::memory_order_relaxed);
    max_nanos_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kNoSample = ~uint64_t{0};

  void UpdateMin(uint64_t nanos) {
    uint64_t seen = min_nanos_.load(std::memory_order_relaxed);
    while (nanos < seen && !min_nanos_.compare_exchange_weak(
                               seen, nanos, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(uint64_t nanos) {
    uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
    while (nanos > seen && !max_nanos_.compare_exchange_weak(
                               seen, nanos, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> overflow_count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> min_nanos_{kNoSample};
  std::atomic<uint64_t> max_nanos_{0};
};

// A point-in-time copy of every registered metric, safe to serialize
// while recording continues (individual loads are relaxed; the snapshot
// is not a cross-metric atomic cut, which reports tolerate).
struct MetricsSnapshot {
  struct HistogramEntry {
    std::string name;
    uint64_t count = 0;
    uint64_t overflow_count = 0;  // Samples past the last finite bound.
    double sum_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
    std::array<uint64_t, Histogram::kBucketCount> buckets{};
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  // Sorted by name.
  std::vector<std::pair<std::string, int64_t>> gauges;     // Sorted by name.
  std::vector<HistogramEntry> histograms;                  // Sorted by name.
};

// Renders a snapshot as the "metrics" section of the run report:
// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum
// seconds, min/max, nonzero buckets keyed by lower bound}}}.
Json MetricsSnapshotToJson(const MetricsSnapshot& snapshot);

class Registry {
 public:
  // The process-wide registry every instrumentation site records into.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates a metric. The returned pointer is stable for the
  // registry's lifetime; call once per site and cache when the name is
  // fixed. Registering the same name as two different kinds returns
  // distinct metrics (kind-spaced); avoid by convention.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (handles stay valid). Test isolation
  // and per-run deltas; concurrent recording during a reset lands in
  // either the old or the new epoch.
  void Reset();

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      POL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      POL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      POL_GUARDED_BY(mutex_);
};

}  // namespace pol::obs

#endif  // POL_OBS_METRICS_H_
