#ifndef POL_COMMON_DEADLINE_H_
#define POL_COMMON_DEADLINE_H_

#include <limits>

#include "obs/clock.h"

// The per-call completion bound of the serving layer: a Deadline is an
// absolute instant on the obs monotonic clock (obs::NowSeconds(), one
// timing authority for the whole library — see DESIGN.md §3.4) by
// which a query must finish. Deadlines are plain values — copy them
// into closures freely; an infinite deadline never expires, and
// Expired() short-circuits before the clock read for it, so unbounded
// callers pay one predictable branch rather than a clock_gettime on
// every poll (bench_serving_telemetry's 2% guard bar counts on this).
//
// Long scans check cooperatively: the serving guard
// (core/serving_guard.h) polls Expired() every few hundred summaries
// and converts an expired deadline into StatusCode::kDeadlineExceeded
// instead of running unbounded.

namespace pol {

class Deadline {
 public:
  // Default-constructed deadlines never expire.
  Deadline() : at_seconds_(kInfiniteSeconds) {}

  static Deadline Infinite() { return Deadline(); }

  // Expires `seconds` from now (clamped so a negative budget is
  // already expired, not a deadline in the distant past wrapping).
  static Deadline AfterSeconds(double seconds) {
    return Deadline(obs::NowSeconds() + seconds);
  }

  // Expires at an absolute obs::NowSeconds() instant.
  static Deadline AtSeconds(double monotonic_seconds) {
    return Deadline(monotonic_seconds);
  }

  bool is_infinite() const { return at_seconds_ >= kInfiniteSeconds; }

  // The absolute expiry instant (+inf when infinite).
  double at_seconds() const { return at_seconds_; }

  bool Expired() const {
    return !is_infinite() && ExpiredAt(obs::NowSeconds());
  }
  bool ExpiredAt(double now_seconds) const {
    return now_seconds >= at_seconds_;
  }

  // Budget left (+inf when infinite, <= 0 when expired). The *At forms
  // let a caller that already read the clock avoid a second read.
  double RemainingSeconds() const {
    return RemainingSecondsAt(obs::NowSeconds());
  }
  double RemainingSecondsAt(double now_seconds) const {
    return at_seconds_ - now_seconds;
  }

 private:
  static constexpr double kInfiniteSeconds =
      std::numeric_limits<double>::infinity();

  explicit Deadline(double at_seconds) : at_seconds_(at_seconds) {}

  double at_seconds_;
};

}  // namespace pol

#endif  // POL_COMMON_DEADLINE_H_
