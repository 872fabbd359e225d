#ifndef POL_OBS_STRIPE_H_
#define POL_OBS_STRIPE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

// Per-thread striping for the obs layer's hot tallies (DESIGN.md §3.8).
// A relaxed fetch_add on a word every thread writes still bounces that
// cache line between cores on every call; at serving rates the bounce,
// not the add, is the cost. So a hot tally is kStripeCount words, one
// cache line each, and a thread always writes its own stripe: it is
// assigned one the first time it asks, round-robin over threads in that
// order. Readers sum every stripe. The sum is not an atomic cut across
// stripes — the same relaxed contract as a MetricsSnapshot — but every
// add lands in exactly one stripe, so quiesced totals are exact.
//
// The stripe count is a constant: more threads than stripes share
// stripes (still correct, just contended again), and every striped
// object costs kStripeCount cache lines.

namespace pol::obs {

inline constexpr size_t kCacheLineBytes = 64;
inline constexpr size_t kStripeCount = 8;

// The calling thread's stripe, in [0, kStripeCount): handed out
// round-robin on the thread's first call.
inline size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  static thread_local size_t stripe = kStripeCount;  // Not yet assigned.
  if (stripe == kStripeCount) [[unlikely]] {
    stripe = next.fetch_add(1, std::memory_order_relaxed) % kStripeCount;
  }
  return stripe;
}

// A monotonically increasing event count, striped per thread:
// Increment writes only the calling thread's cache line, value() sums
// the stripes. The Registry's counters (obs/metrics.h) are these.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    stripes_[ThisThreadStripe()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(kCacheLineBytes) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kStripeCount> stripes_{};
};

}  // namespace pol::obs

#endif  // POL_OBS_STRIPE_H_
