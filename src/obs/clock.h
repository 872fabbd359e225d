#ifndef POL_OBS_CLOCK_H_
#define POL_OBS_CLOCK_H_

#include <cstdint>

// The monotonic clock of the observability layer. All wall-clock
// timing in library code goes through these (pollint's `direct-timing`
// rule flags raw std::chrono::steady_clock::now() outside src/obs/), so
// every duration in metrics, spans and run reports shares one epoch —
// process start — and trace timestamps line up across threads.
//
// StageMetrics wall-time accounting reads the same clock, so the
// per-stage seconds in a PipelineResult and the stage spans of a trace
// of the same run agree.

namespace pol::obs {

// Monotonic seconds since the process-local epoch.
double NowSeconds();

// Telemetry-grade fast clock: on x86_64 a raw TSC read scaled by a
// one-time calibration against NowSeconds (~200µs spin on first use),
// an alias for NowSeconds elsewhere. Shares the process epoch but may
// differ from NowSeconds by the calibration error (~0.03%), which the
// windowed consumers tolerate — use it on hot record paths (the
// serving query path reads it twice per call), not for durations that
// feed reports directly.
double NowSecondsFast();

// Monotonic microseconds since the process-local epoch (trace
// timestamps; Chrome's trace-event "ts" unit).
uint64_t NowMicros();

// Accumulates the scope's wall time into *sink on destruction:
//
//   { obs::ScopedTimer timer(&metrics.wall_seconds);  ...work... }
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink), start_(NowSeconds()) {}
  ~ScopedTimer() { *sink_ += NowSeconds() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  double start_;
};

}  // namespace pol::obs

#endif  // POL_OBS_CLOCK_H_
