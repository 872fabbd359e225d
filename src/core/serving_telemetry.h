#ifndef POL_CORE_SERVING_TELEMETRY_H_
#define POL_CORE_SERVING_TELEMETRY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/slo.h"
#include "obs/window.h"

// Query-level serving telemetry (DESIGN.md §3.8): the windowed state
// the ServingGuard records every guarded call into, and the evaluation
// half the telemetry exporter ticks.
//
//  - Per-class latency WindowedHistograms and ok/error/shed
//    WindowedRates answer "what are p50/p95/p99 and QPS *right now*"
//    (trailing window), where the cumulative Registry histograms answer
//    "since process start".
//  - A QueryLog ring keeps the wide event of every admitted query —
//    slow and failed queries preferentially — joinable to trace spans
//    on the query id.
//  - An SloTracker evaluates availability and per-class p99 latency
//    objectives over fast/slow windows and publishes `serving.slo.*`
//    burn-rate gauges (run_report.cc folds them into the
//    "serving_slo" report block).
//
// Threading: BeginQuery / RecordQuery / RecordRejected are safe from
// any number of query threads. Windowed recording is lock-free and
// striped per thread; a notable query-log row takes its stripe's ring
// lock, off the measured scan path (obs/window.h, obs/querylog.h).
// UpdateWindowGauges / EvaluateSlos follow obs::SloTracker's contract:
// one evaluator at a time — the exporter thread, or a test.
//
// Reconciliation invariant (the chaos soak asserts it): every admitted
// query is recorded exactly once, so
//   serving.admitted == query_log().totals().ok + totals().errors
// for a guard whose telemetry was enabled from construction.

namespace pol::core {

// Admission class of one guarded call. Interactive: point lookups and
// corridor queries a user is waiting on. Batch: whole-grouping-set
// sweeps (LaneAnalyzer-style analytics) that must not crowd them out.
enum class QueryClass { kInteractive = 0, kBatch = 1 };

inline constexpr size_t kNumQueryClasses = 2;

// "interactive" / "batch" — static storage, usable directly as the
// query-log `query_class` field.
std::string_view QueryClassName(QueryClass cls);

struct ServingTelemetryOptions {
  // Master switch: false makes every Record* a no-op.
  bool enabled = true;
  // Window geometry shared by the latency histograms and the rates.
  double window_seconds = 1.0;
  size_t window_count = 64;
  // Trailing spans for SLO burn-rate evaluation, in windows: the fast
  // window trips quickly on a storm, the slow window keeps a blip from
  // paging. Both must be <= window_count.
  size_t slo_fast_windows = 5;
  size_t slo_slow_windows = 60;
  // Trailing span for the instantaneous QPS / rate / quantile gauges.
  size_t gauge_windows = 5;
  // Objectives. Availability counts admitted-or-rejected outcomes;
  // latency objectives are per-class p99 bounds on scan time.
  double availability_objective = 0.999;
  double interactive_p99_seconds = 0.050;
  double batch_p99_seconds = 2.0;
  // Burn-rate threshold (1.0 = burning exactly at budget-exhaustion
  // pace) that both windows must meet before an SLO reports burning.
  double burn_threshold = 1.0;
  obs::QueryLogOptions query_log;
};

class ServingTelemetry {
 public:
  explicit ServingTelemetry(
      ServingTelemetryOptions options = ServingTelemetryOptions());

  ServingTelemetry(const ServingTelemetry&) = delete;
  ServingTelemetry& operator=(const ServingTelemetry&) = delete;

  // options.enabled. When false every Record* below is a no-op and
  // BeginQuery returns 0.
  bool enabled() const { return enabled_; }

  // Issues the query id an admitted query logs and traces under.
  uint64_t BeginQuery();

  // One admitted query's outcome. `op` and the strings reachable from
  // `status` must be static-storage (see obs/querylog.h); the guard
  // passes operation-name literals. Feeds the latency window, the
  // ok/error rates, and the query log. The At variant takes the
  // caller's clock read (the guard already timed the scan) so the hot
  // path pays no extra one.
  void RecordQuery(uint64_t id, QueryClass cls, std::string_view op,
                   const Status& status, double queue_wait_seconds,
                   double scan_seconds, double deadline_remaining_seconds,
                   uint64_t snapshot_id, uint64_t summaries_visited);
  void RecordQueryAt(double now_seconds, uint64_t id, QueryClass cls,
                     std::string_view op, const Status& status,
                     double queue_wait_seconds, double scan_seconds,
                     double deadline_remaining_seconds, uint64_t snapshot_id,
                     uint64_t summaries_visited);

  // A query rejected before admission (shed, queue-expired deadline,
  // ...). Feeds the error rate — and the shed rate for
  // kResourceExhausted — but writes no query-log row: log totals
  // reconcile against serving.admitted, not attempts.
  void RecordRejected(QueryClass cls, std::string_view op,
                      const Status& status);

  // Publishes the trailing-window gauges (serving.query.* QPS, error /
  // shed fractions, per-class p50/p95/p99, serving.querylog.* totals).
  // Evaluator thread only.
  void UpdateWindowGauges();
  void UpdateWindowGaugesAt(double now_seconds);

  // Evaluates every SLO and publishes the serving.slo.* gauge set.
  // Evaluator thread only.
  std::vector<obs::SloStatus> EvaluateSlos();
  std::vector<obs::SloStatus> EvaluateSlosAt(double now_seconds);

  // --- Introspection (tests, soak assertions, polinv watch). ---
  const obs::QueryLog& query_log() const { return query_log_; }
  obs::QueryLog* mutable_query_log() { return &query_log_; }
  const obs::WindowedHistogram& latency(QueryClass cls) const {
    return cls == QueryClass::kInteractive ? interactive_latency_
                                           : batch_latency_;
  }
  const obs::WindowedRate& ok_rate() const { return ok_rate_; }
  const obs::WindowedRate& error_rate() const { return error_rate_; }
  const obs::WindowedRate& shed_rate() const { return shed_rate_; }
  const ServingTelemetryOptions& options() const { return options_; }

 private:
  const ServingTelemetryOptions options_;
  const bool enabled_;

  // Named members (not an array) because WindowedHistogram is
  // noncopyable and each needs the configured window geometry.
  obs::WindowedHistogram interactive_latency_;
  obs::WindowedHistogram batch_latency_;
  obs::WindowedRate ok_rate_;
  obs::WindowedRate error_rate_;
  obs::WindowedRate shed_rate_;
  obs::QueryLog query_log_;
  obs::SloTracker slos_;

  // Gauge handles, resolved once when enabled (all null otherwise).
  obs::Gauge* qps_gauge_ = nullptr;
  obs::Gauge* error_rate_gauge_ = nullptr;
  obs::Gauge* shed_rate_gauge_ = nullptr;
  obs::Gauge* quantile_gauges_[kNumQueryClasses][3] = {};
  obs::Gauge* querylog_events_gauge_ = nullptr;
  obs::Gauge* querylog_ok_gauge_ = nullptr;
  obs::Gauge* querylog_errors_gauge_ = nullptr;
  obs::Gauge* querylog_slow_gauge_ = nullptr;
};

}  // namespace pol::core

#endif  // POL_CORE_SERVING_TELEMETRY_H_
