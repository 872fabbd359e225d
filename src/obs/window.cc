#include "obs/window.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pol::obs {
namespace {

constexpr double kMinWindowSeconds = 1e-6;

double ClampWindowSeconds(double window_seconds) {
  return window_seconds > kMinWindowSeconds ? window_seconds
                                            : kMinWindowSeconds;
}

size_t ClampWindowCount(size_t window_count) {
  return window_count >= 2 ? window_count : 2;
}

}  // namespace

WindowedHistogram::WindowedHistogram(double window_seconds,
                                     size_t window_count)
    : window_seconds_(ClampWindowSeconds(window_seconds)),
      inv_window_seconds_(1.0 / window_seconds_),
      slots_(ClampWindowCount(window_count)) {}

WindowedHistogram::Slot* WindowedHistogram::AdvanceTo(uint64_t epoch) {
  Slot& slot = slots_[static_cast<size_t>(epoch % slots_.size())];
  uint64_t seen = slot.epoch.load(std::memory_order_acquire);
  while (seen != epoch) {
    // A straggler whose window has already been recycled for a newer
    // epoch drops its sample (bounded loss at the ring edge).
    if (seen != kNeverUsed && seen > epoch) return nullptr;
    if (slot.epoch.compare_exchange_weak(seen, epoch,
                                         std::memory_order_acq_rel)) {
      // This call rotated the window in; clear the previous tenant's
      // samples before reuse. Racing recorders that already saw the new
      // epoch may lose a sample to this reset — bounded, documented.
      for (Stripe& stripe : slot.stripes) stripe.hist.Reset();
      break;
    }
  }
  return &slot;
}

void WindowedHistogram::RecordAt(double now_seconds, double value_seconds) {
  Slot* slot = AdvanceTo(EpochOf(now_seconds));
  if (slot != nullptr) {
    slot->stripes[ThisThreadStripe()].hist.Record(value_seconds);
  }
}

WindowedSnapshot WindowedHistogram::TrailingSnapshotAt(double now_seconds,
                                                       size_t windows) const {
  WindowedSnapshot out;
  if (windows == 0 || windows > slots_.size()) windows = slots_.size();
  out.span_seconds = static_cast<double>(windows) * window_seconds_;
  const uint64_t current = EpochOf(now_seconds);
  const uint64_t span = static_cast<uint64_t>(windows);
  const uint64_t oldest = current >= span - 1 ? current - (span - 1) : 0;
  for (const Slot& slot : slots_) {
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch == kNeverUsed || epoch > current || epoch < oldest) continue;
    for (const Stripe& stripe : slot.stripes) {
      const Histogram& hist = stripe.hist;
      // One read of each bucket, so the count is exactly their sum.
      std::array<uint64_t, Histogram::kBucketCount> buckets;
      uint64_t stripe_count = 0;
      for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
        buckets[i] = hist.bucket(i);
        stripe_count += buckets[i];
      }
      if (stripe_count == 0) continue;
      if (out.count == 0 || hist.min_seconds() < out.min_seconds) {
        out.min_seconds = hist.min_seconds();
      }
      out.max_seconds = std::max(out.max_seconds, hist.max_seconds());
      out.count += stripe_count;
      out.overflow_count += hist.overflow_count();
      out.sum_seconds += hist.sum_seconds();
      for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
        out.buckets[i] += buckets[i];
      }
    }
  }
  return out;
}

WindowedSnapshot WindowedHistogram::TrailingSnapshot(size_t windows) const {
  return TrailingSnapshotAt(NowSeconds(), windows);
}

namespace {

// The estimate for rank fraction `frac` inside bucket `index` of a
// merged snapshot: linear inside the sub-microsecond bucket, log-linear
// (lower * 2^frac) inside the power-of-two buckets, log-linear toward
// the observed max inside the open-ended top bucket.
double InterpolateInBucket(const WindowedSnapshot& snapshot, size_t index,
                           double frac) {
  const double lower = Histogram::BucketLowerBoundSeconds(index);
  if (index == 0) return frac * 1e-6;
  double upper;
  if (index + 1 < Histogram::kBucketCount) {
    upper = Histogram::BucketLowerBoundSeconds(index + 1);
  } else {
    upper = std::max(snapshot.max_seconds, lower * 2.0);
  }
  return lower * std::pow(upper / lower, frac);
}

}  // namespace

double WindowedHistogram::QuantileFromSnapshot(const WindowedSnapshot& snapshot,
                                               double p) {
  if (snapshot.count == 0) return 0.0;
  double clamped = p;
  if (!(clamped >= 0.0)) clamped = 0.0;  // NaN lands here too.
  if (clamped > 1.0) clamped = 1.0;
  const double rank = clamped * static_cast<double>(snapshot.count);
  uint64_t cumulative = 0;
  double estimate = snapshot.max_seconds;
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const uint64_t in_bucket = snapshot.buckets[i];
    if (in_bucket == 0) continue;
    if (rank <= static_cast<double>(cumulative + in_bucket)) {
      const double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(in_bucket);
      estimate = InterpolateInBucket(snapshot, i, frac);
      break;
    }
    cumulative += in_bucket;
  }
  // Interpolation never needs to leave the observed value range.
  estimate = std::max(estimate, snapshot.min_seconds);
  if (snapshot.max_seconds > 0.0) {
    estimate = std::min(estimate, snapshot.max_seconds);
  }
  return estimate;
}

double WindowedHistogram::QuantileEstimateAt(double now_seconds, double p,
                                             size_t windows) const {
  return QuantileFromSnapshot(TrailingSnapshotAt(now_seconds, windows), p);
}

double WindowedHistogram::QuantileEstimate(double p, size_t windows) const {
  return QuantileEstimateAt(NowSeconds(), p, windows);
}

WindowedRate::WindowedRate(double window_seconds, size_t window_count)
    : window_seconds_(ClampWindowSeconds(window_seconds)),
      inv_window_seconds_(1.0 / window_seconds_),
      slots_(ClampWindowCount(window_count)) {}

void WindowedRate::IncrementAt(double now_seconds, uint64_t delta) {
  const uint64_t epoch = EpochOf(now_seconds);
  Slot& slot = slots_[static_cast<size_t>(epoch % slots_.size())];
  uint64_t seen = slot.epoch.load(std::memory_order_acquire);
  while (seen != epoch) {
    if (seen != kNeverUsed && seen > epoch) return;  // Stale straggler.
    if (slot.epoch.compare_exchange_weak(seen, epoch,
                                         std::memory_order_acq_rel)) {
      slot.count.Reset();
      break;
    }
  }
  slot.count.Increment(delta);
}

uint64_t WindowedRate::TotalAt(double now_seconds, size_t windows) const {
  if (windows == 0 || windows > slots_.size()) windows = slots_.size();
  const uint64_t current = EpochOf(now_seconds);
  const uint64_t span = static_cast<uint64_t>(windows);
  const uint64_t oldest = current >= span - 1 ? current - (span - 1) : 0;
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch == kNeverUsed || epoch > current || epoch < oldest) continue;
    total += slot.count.value();
  }
  return total;
}

uint64_t WindowedRate::Total(size_t windows) const {
  return TotalAt(NowSeconds(), windows);
}

double WindowedRate::RatePerSecondAt(double now_seconds,
                                     size_t windows) const {
  if (windows == 0 || windows > slots_.size()) windows = slots_.size();
  const double span = static_cast<double>(windows) * window_seconds_;
  return static_cast<double>(TotalAt(now_seconds, windows)) / span;
}

double WindowedRate::RatePerSecond(size_t windows) const {
  return RatePerSecondAt(NowSeconds(), windows);
}

}  // namespace pol::obs
