#ifndef POL_OBS_WINDOW_H_
#define POL_OBS_WINDOW_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/stripe.h"

// Time-windowed aggregation for the serving path (DESIGN.md §3.8): the
// batch-shaped Registry accumulates since process start, but a serving
// frontend answers "what is p99 *right now*" — so WindowedHistogram
// keeps a ring of the 32-bucket obs::Histogram rotated on a fixed tick
// (e.g. 60 × 1 s), and WindowedRate the same ring over plain counters
// for QPS / shed-rate. Trailing-window reads merge the live slots and
// estimate quantiles by log-linear interpolation inside a bucket, which
// is exact to one power-of-two bucket by construction.
//
// Concurrency: recording is lock-free — one relaxed epoch load on the
// fast path, a CAS only on the first sample of a new window (the CAS
// winner resets the slot before reuse). Each slot is striped per thread
// (obs/stripe.h): a record writes only the calling thread's stripe, one
// cache-line-aligned histogram or count, and reads merge every stripe,
// so concurrent recorders share no written cache line except at a
// rotation. Two benign, bounded sample losses exist at rotation
// boundaries and are accepted by design: a straggler holding a
// now-recycled window drops its sample, and samples racing the
// winner's reset may be wiped. Both touch at most one
// window edge; trailing aggregates over >= 2 windows are unaffected in
// practice and no torn values are ever produced (every shared word is
// an atomic). Merged reads are relaxed like MetricsSnapshot: not a
// cross-slot atomic cut, which the consumers (gauges, SLO burn rates)
// tolerate.

namespace pol::obs {

// A merged view over the trailing windows of one WindowedHistogram.
struct WindowedSnapshot {
  uint64_t count = 0;
  uint64_t overflow_count = 0;  // Samples past the last finite bucket bound.
  double sum_seconds = 0.0;
  double min_seconds = 0.0;  // 0 when empty.
  double max_seconds = 0.0;
  // Trailing span the snapshot covers (windows asked for x tick).
  double span_seconds = 0.0;
  std::array<uint64_t, Histogram::kBucketCount> buckets{};
};

class WindowedHistogram {
 public:
  // `window_seconds` is the rotation tick; `window_count` the ring
  // size, so the longest trailing view spans window_seconds *
  // window_count. Both are clamped to sane minima (> 0, >= 2).
  explicit WindowedHistogram(double window_seconds = 1.0,
                             size_t window_count = 60);

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  // The self-clocked form reads the fast (TSC) clock: recording is the
  // hot path; trailing reads stay on NowSeconds.
  void Record(double value_seconds) {
    RecordAt(NowSecondsFast(), value_seconds);
  }
  // Deterministic-time variant (tests drive the clock explicitly).
  void RecordAt(double now_seconds, double value_seconds);

  // Merge of the trailing `windows` windows ending at `now_seconds`
  // (0 or anything larger than the ring means "all of it").
  WindowedSnapshot TrailingSnapshotAt(double now_seconds,
                                      size_t windows = 0) const;
  WindowedSnapshot TrailingSnapshot(size_t windows = 0) const;

  // Quantile over the trailing windows: p in [0, 1] (clamped). Walks
  // the merged cumulative bucket counts and interpolates inside the
  // landing bucket — linearly for the sub-microsecond bucket 0,
  // log-linearly (value = lower * 2^frac) for the power-of-two buckets,
  // and toward the observed max inside the open-ended top bucket. The
  // estimate is clamped to the observed [min, max], and is within one
  // bucket of the exact sample quantile by construction. Returns 0
  // when the trailing windows are empty.
  double QuantileEstimateAt(double now_seconds, double p,
                            size_t windows = 0) const;
  double QuantileEstimate(double p, size_t windows = 0) const;
  static double QuantileFromSnapshot(const WindowedSnapshot& snapshot,
                                     double p);

  double window_seconds() const { return window_seconds_; }
  size_t window_count() const { return slots_.size(); }

 private:
  struct alignas(kCacheLineBytes) Stripe {
    Histogram hist;
  };
  struct Slot {
    // Its own cache line: every record reads it, only rotation writes.
    alignas(kCacheLineBytes) std::atomic<uint64_t> epoch{kNeverUsed};
    std::array<Stripe, kStripeCount> stripes;
  };

  static constexpr uint64_t kNeverUsed = ~uint64_t{0};

  // Cached-reciprocal multiply instead of a divide on the record path.
  // Writers and readers share the same rounding, so windows stay
  // internally consistent.
  uint64_t EpochOf(double now_seconds) const {
    if (!(now_seconds > 0.0)) return 0;
    return static_cast<uint64_t>(now_seconds * inv_window_seconds_);
  }

  // Claims the slot for `epoch`, resetting it when this call rotates
  // the window in. Returns nullptr for a stale (already-recycled)
  // epoch, whose sample is dropped.
  Slot* AdvanceTo(uint64_t epoch);

  const double window_seconds_;
  const double inv_window_seconds_;
  std::vector<Slot> slots_;
};

// The counter sibling: event counts per window, for QPS / shed-rate /
// SLO good-vs-bad event streams. Same ring, same rotation rules.
class WindowedRate {
 public:
  explicit WindowedRate(double window_seconds = 1.0, size_t window_count = 60);

  WindowedRate(const WindowedRate&) = delete;
  WindowedRate& operator=(const WindowedRate&) = delete;

  void Increment(uint64_t delta = 1) { IncrementAt(NowSecondsFast(), delta); }
  void IncrementAt(double now_seconds, uint64_t delta = 1);

  // Total events in the trailing `windows` windows (0 = whole ring).
  uint64_t TotalAt(double now_seconds, size_t windows = 0) const;
  uint64_t Total(size_t windows = 0) const;

  // TotalAt over the trailing span, as events per second.
  double RatePerSecondAt(double now_seconds, size_t windows = 0) const;
  double RatePerSecond(size_t windows = 0) const;

  double window_seconds() const { return window_seconds_; }
  size_t window_count() const { return slots_.size(); }

 private:
  struct Slot {
    alignas(kCacheLineBytes) std::atomic<uint64_t> epoch{kNeverUsed};
    Counter count;
  };

  static constexpr uint64_t kNeverUsed = ~uint64_t{0};

  uint64_t EpochOf(double now_seconds) const {
    if (!(now_seconds > 0.0)) return 0;
    return static_cast<uint64_t>(now_seconds * inv_window_seconds_);
  }

  const double window_seconds_;
  const double inv_window_seconds_;
  std::vector<Slot> slots_;
};

}  // namespace pol::obs

#endif  // POL_OBS_WINDOW_H_
