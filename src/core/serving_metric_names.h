#ifndef POL_CORE_SERVING_METRIC_NAMES_H_
#define POL_CORE_SERVING_METRIC_NAMES_H_

#include <string_view>

// The central name table of the serving path: every `serving.*` metric,
// trace-span and fail-point name used by src/core/serving* lives here,
// in one greppable place, so a dashboard (or `polinv watch`, or the
// run-report scanners in run_report.cc) never chases a typo'd literal.
// pollint's `serving-metric-name` rule enforces the discipline: an
// ad-hoc "serving."-prefixed string literal anywhere else in
// src/core/serving* is a finding.

namespace pol::core {

// --- ServingGuard admission + breaker (serving_guard.cc). ---
inline constexpr std::string_view kMetricServingAdmitted = "serving.admitted";
inline constexpr std::string_view kMetricServingQueued = "serving.queued";
inline constexpr std::string_view kMetricServingShed = "serving.shed";
inline constexpr std::string_view kMetricServingDeadlineExceeded =
    "serving.deadline_exceeded";
inline constexpr std::string_view kMetricServingScanDeadlineExceeded =
    "serving.scan_deadline_exceeded";
inline constexpr std::string_view kMetricServingBreakerTrips =
    "serving.breaker_trips";
inline constexpr std::string_view kMetricServingBreakerProbes =
    "serving.breaker_probes";
inline constexpr std::string_view kMetricServingBreakerCloses =
    "serving.breaker_closes";
inline constexpr std::string_view kMetricServingBreakerRejected =
    "serving.breaker_rejected_refreshes";
inline constexpr std::string_view kMetricServingDegraded = "serving.degraded";
inline constexpr std::string_view kMetricServingBreakerState =
    "serving.breaker_state";
inline constexpr std::string_view kMetricServingSnapshotAgeRefreshes =
    "serving.snapshot_age_refreshes";

// --- ServingInventory store (serving_inventory.cc). ---
inline constexpr std::string_view kMetricServingReaderAcquisitions =
    "serving.reader_acquisitions";
inline constexpr std::string_view kMetricServingSwaps = "serving.swaps";
inline constexpr std::string_view kMetricServingSeals = "serving.seals";
inline constexpr std::string_view kMetricServingSealSeconds =
    "serving.seal_seconds";
// What each refresh's merge-seal did with the image's keys: copied
// verbatim, decoded and merged with a delta summary, or added new.
inline constexpr std::string_view kMetricServingRefreshKeysCopied =
    "serving.refresh.keys_copied";
inline constexpr std::string_view kMetricServingRefreshKeysMerged =
    "serving.refresh.keys_merged";
inline constexpr std::string_view kMetricServingRefreshKeysAdded =
    "serving.refresh.keys_added";
inline constexpr std::string_view kMetricServingActiveSnapshotSummaries =
    "serving.active_snapshot_summaries";
inline constexpr std::string_view kMetricServingActiveSnapshotId =
    "serving.snapshot.active_id";
inline constexpr std::string_view kMetricServingSnapshotAgeMs =
    "serving.snapshot.age_ms";

// --- Windowed query telemetry (serving_telemetry.cc). Milli-unit
// gauges carry fixed-point fractions (x1000) because gauges are int64.
inline constexpr std::string_view kMetricServingQueryQpsMilli =
    "serving.query.qps_milli";
inline constexpr std::string_view kMetricServingQueryErrorRateMilli =
    "serving.query.error_rate_milli";
inline constexpr std::string_view kMetricServingQueryShedRateMilli =
    "serving.query.shed_rate_milli";
inline constexpr std::string_view kMetricServingInteractiveP50Us =
    "serving.query.interactive.p50_us";
inline constexpr std::string_view kMetricServingInteractiveP95Us =
    "serving.query.interactive.p95_us";
inline constexpr std::string_view kMetricServingInteractiveP99Us =
    "serving.query.interactive.p99_us";
inline constexpr std::string_view kMetricServingBatchP50Us =
    "serving.query.batch.p50_us";
inline constexpr std::string_view kMetricServingBatchP95Us =
    "serving.query.batch.p95_us";
inline constexpr std::string_view kMetricServingBatchP99Us =
    "serving.query.batch.p99_us";
inline constexpr std::string_view kMetricServingQuerylogEvents =
    "serving.querylog.events";
inline constexpr std::string_view kMetricServingQuerylogOk =
    "serving.querylog.ok";
inline constexpr std::string_view kMetricServingQuerylogErrors =
    "serving.querylog.errors";
inline constexpr std::string_view kMetricServingQuerylogSlow =
    "serving.querylog.slow";
inline constexpr std::string_view kMetricServingTelemetryExports =
    "serving.telemetry.exports";
inline constexpr std::string_view kMetricServingTelemetryExportFailures =
    "serving.telemetry.export_failures";

// SLO gauges are published as <prefix><slo name>.<field> by
// obs::SloTracker; run_report.cc scans the same prefix back out.
inline constexpr std::string_view kServingSloGaugePrefix = "serving.slo.";

// --- Trace spans. ---
inline constexpr std::string_view kSpanServingGuardRefresh =
    "serving.guard_refresh";
inline constexpr std::string_view kSpanServingRefresh = "serving.refresh";
inline constexpr std::string_view kSpanServingSwap = "serving.swap";
// Per-query spans are "<prefix><op>#<query id>", so a trace and its
// query-log row join on the id.
inline constexpr std::string_view kSpanServingQueryPrefix = "serving.query.";

// --- Fail points (see common/failpoint.h; faults preset only). ---
inline constexpr std::string_view kFailPointServingMerge = "serving.merge";
inline constexpr std::string_view kFailPointServingSeal = "serving.seal";
inline constexpr std::string_view kFailPointServingSwap = "serving.swap";

}  // namespace pol::core

#endif  // POL_CORE_SERVING_METRIC_NAMES_H_
