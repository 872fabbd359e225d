#include "core/serving_telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/serving_metric_names.h"
#include "obs/clock.h"

namespace pol::core {
namespace {

constexpr double kMaxGaugeValue = 9e15;  // Saturation before int64 cast.

int64_t SaturatingRound(double value) {
  if (!(value >= 0.0)) value = 0.0;
  if (value > kMaxGaugeValue) value = kMaxGaugeValue;
  return static_cast<int64_t>(std::llround(value));
}

// Fraction / rate -> fixed-point x1000 (gauges are integers).
int64_t Milli(double value) { return SaturatingRound(value * 1000.0); }

// Seconds -> microseconds for the quantile gauges.
int64_t Micros(double seconds) { return SaturatingRound(seconds * 1e6); }

ServingTelemetryOptions Sanitize(ServingTelemetryOptions options) {
  if (!(options.window_seconds > 0.0)) options.window_seconds = 1.0;
  options.window_count = std::max<size_t>(options.window_count, 2);
  const auto clamp_windows = [&](size_t windows) {
    return std::min(std::max<size_t>(windows, 1), options.window_count);
  };
  options.slo_fast_windows = clamp_windows(options.slo_fast_windows);
  options.slo_slow_windows = clamp_windows(options.slo_slow_windows);
  options.gauge_windows = clamp_windows(options.gauge_windows);
  return options;
}

}  // namespace

std::string_view QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kBatch:
      return "batch";
  }
  return "unknown";
}

ServingTelemetry::ServingTelemetry(ServingTelemetryOptions options)
    : options_(Sanitize(std::move(options))),
      enabled_(options_.enabled),
      interactive_latency_(options_.window_seconds, options_.window_count),
      batch_latency_(options_.window_seconds, options_.window_count),
      ok_rate_(options_.window_seconds, options_.window_count),
      error_rate_(options_.window_seconds, options_.window_count),
      shed_rate_(options_.window_seconds, options_.window_count),
      query_log_(options_.query_log),
      slos_(std::string(kServingSloGaugePrefix)) {
  if (!enabled_) return;

  auto& registry = obs::Registry::Global();
  qps_gauge_ = registry.gauge(kMetricServingQueryQpsMilli);
  error_rate_gauge_ = registry.gauge(kMetricServingQueryErrorRateMilli);
  shed_rate_gauge_ = registry.gauge(kMetricServingQueryShedRateMilli);
  const size_t interactive = static_cast<size_t>(QueryClass::kInteractive);
  const size_t batch = static_cast<size_t>(QueryClass::kBatch);
  quantile_gauges_[interactive][0] =
      registry.gauge(kMetricServingInteractiveP50Us);
  quantile_gauges_[interactive][1] =
      registry.gauge(kMetricServingInteractiveP95Us);
  quantile_gauges_[interactive][2] =
      registry.gauge(kMetricServingInteractiveP99Us);
  quantile_gauges_[batch][0] = registry.gauge(kMetricServingBatchP50Us);
  quantile_gauges_[batch][1] = registry.gauge(kMetricServingBatchP95Us);
  quantile_gauges_[batch][2] = registry.gauge(kMetricServingBatchP99Us);
  querylog_events_gauge_ = registry.gauge(kMetricServingQuerylogEvents);
  querylog_ok_gauge_ = registry.gauge(kMetricServingQuerylogOk);
  querylog_errors_gauge_ = registry.gauge(kMetricServingQuerylogErrors);
  querylog_slow_gauge_ = registry.gauge(kMetricServingQuerylogSlow);

  // The three stock SLOs. Availability spans every outcome (rejected
  // calls feed error_rate_), so an admission storm burns it even though
  // shed queries never reach a latency histogram.
  obs::SloSpec availability;
  availability.name = "availability";
  availability.kind = obs::SloKind::kAvailability;
  availability.objective = options_.availability_objective;
  availability.fast_windows = options_.slo_fast_windows;
  availability.slow_windows = options_.slo_slow_windows;
  availability.burn_threshold = options_.burn_threshold;
  obs::SloSource availability_source;
  availability_source.good = &ok_rate_;
  availability_source.bad = &error_rate_;
  availability_source.latency = nullptr;
  slos_.Add(std::move(availability), availability_source);

  const auto add_latency_slo = [&](std::string name, double threshold_seconds,
                                   const obs::WindowedHistogram* latency) {
    obs::SloSpec spec;
    spec.name = std::move(name);
    spec.kind = obs::SloKind::kLatencyQuantile;
    spec.objective = 0.99;
    spec.threshold_seconds = threshold_seconds;
    spec.fast_windows = options_.slo_fast_windows;
    spec.slow_windows = options_.slo_slow_windows;
    spec.burn_threshold = options_.burn_threshold;
    obs::SloSource source;
    source.good = nullptr;
    source.bad = nullptr;
    source.latency = latency;
    slos_.Add(std::move(spec), source);
  };
  add_latency_slo("interactive_p99", options_.interactive_p99_seconds,
                  &interactive_latency_);
  add_latency_slo("batch_p99", options_.batch_p99_seconds, &batch_latency_);

  // Warm the fast clock's one-time TSC calibration here so the first
  // guarded query never pays it.
  static_cast<void>(obs::NowSecondsFast());
}

uint64_t ServingTelemetry::BeginQuery() {
  if (!enabled_) return 0;
  return query_log_.NextId();
}

void ServingTelemetry::RecordQuery(uint64_t id, QueryClass cls,
                                   std::string_view op, const Status& status,
                                   double queue_wait_seconds,
                                   double scan_seconds,
                                   double deadline_remaining_seconds,
                                   uint64_t snapshot_id,
                                   uint64_t summaries_visited) {
  if (!enabled_) return;
  RecordQueryAt(obs::NowSecondsFast(), id, cls, op, status, queue_wait_seconds,
                scan_seconds, deadline_remaining_seconds, snapshot_id,
                summaries_visited);
}

void ServingTelemetry::RecordQueryAt(
    double now, uint64_t id, QueryClass cls, std::string_view op,
    const Status& status, double queue_wait_seconds, double scan_seconds,
    double deadline_remaining_seconds, uint64_t snapshot_id,
    uint64_t summaries_visited) {
  if (!enabled_) return;
  obs::WindowedHistogram& latency = cls == QueryClass::kInteractive
                                        ? interactive_latency_
                                        : batch_latency_;
  latency.RecordAt(now, scan_seconds);
  if (status.ok()) {
    ok_rate_.IncrementAt(now);
  } else {
    error_rate_.IncrementAt(now);
  }

  obs::QueryEvent event;
  event.id = id;
  event.query_class = QueryClassName(cls);
  event.op = op;
  event.status = StatusCodeName(status.code());
  event.ok = status.ok();
  event.queue_wait_seconds = queue_wait_seconds;
  event.scan_seconds = scan_seconds;
  event.deadline_remaining_seconds = deadline_remaining_seconds;
  event.snapshot_id = snapshot_id;
  event.summaries_visited = summaries_visited;
  query_log_.Record(event);
}

void ServingTelemetry::RecordRejected(QueryClass cls, std::string_view op,
                                      const Status& status) {
  static_cast<void>(cls);  // Rejections are counted store-wide today;
  static_cast<void>(op);   // the params keep the call sites honest.
  if (!enabled_) return;
  const double now = obs::NowSecondsFast();
  error_rate_.IncrementAt(now);
  if (status.code() == StatusCode::kResourceExhausted) {
    shed_rate_.IncrementAt(now);
  }
}

void ServingTelemetry::UpdateWindowGauges() {
  UpdateWindowGaugesAt(obs::NowSeconds());
}

void ServingTelemetry::UpdateWindowGaugesAt(double now_seconds) {
  if (!enabled_) return;
  const size_t windows = options_.gauge_windows;
  const double ok_per_second = ok_rate_.RatePerSecondAt(now_seconds, windows);
  const double errors_per_second =
      error_rate_.RatePerSecondAt(now_seconds, windows);
  qps_gauge_->Set(Milli(ok_per_second + errors_per_second));

  const uint64_t ok = ok_rate_.TotalAt(now_seconds, windows);
  const uint64_t errors = error_rate_.TotalAt(now_seconds, windows);
  const uint64_t shed = shed_rate_.TotalAt(now_seconds, windows);
  const double total = static_cast<double>(ok + errors);
  error_rate_gauge_->Set(
      total > 0.0 ? Milli(static_cast<double>(errors) / total) : 0);
  shed_rate_gauge_->Set(
      total > 0.0 ? Milli(static_cast<double>(shed) / total) : 0);

  static constexpr double kQuantiles[3] = {0.50, 0.95, 0.99};
  for (size_t cls = 0; cls < kNumQueryClasses; ++cls) {
    const obs::WindowedHistogram& latency =
        cls == static_cast<size_t>(QueryClass::kInteractive)
            ? interactive_latency_
            : batch_latency_;
    for (size_t q = 0; q < 3; ++q) {
      quantile_gauges_[cls][q]->Set(
          Micros(latency.QuantileEstimateAt(now_seconds, kQuantiles[q],
                                            windows)));
    }
  }

  const obs::QueryLog::Totals totals = query_log_.totals();
  querylog_events_gauge_->Set(SaturatingRound(
      static_cast<double>(totals.events)));
  querylog_ok_gauge_->Set(SaturatingRound(static_cast<double>(totals.ok)));
  querylog_errors_gauge_->Set(
      SaturatingRound(static_cast<double>(totals.errors)));
  querylog_slow_gauge_->Set(SaturatingRound(static_cast<double>(totals.slow)));
}

std::vector<obs::SloStatus> ServingTelemetry::EvaluateSlos() {
  return EvaluateSlosAt(obs::NowSeconds());
}

std::vector<obs::SloStatus> ServingTelemetry::EvaluateSlosAt(
    double now_seconds) {
  if (!enabled_) return {};
  return slos_.EvaluateAt(now_seconds);
}

}  // namespace pol::core
