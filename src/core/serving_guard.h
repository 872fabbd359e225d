#ifndef POL_CORE_SERVING_GUARD_H_
#define POL_CORE_SERVING_GUARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/serving_inventory.h"
#include "core/serving_telemetry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// The serving-resilience layer around core::ServingInventory: the
// paper's inventory is built once a day and queried all day, and an
// always-on query frontend needs three protections the raw store does
// not give it (DESIGN.md §3.7):
//
//  1. **Deadlines.** Every guarded call carries a pol::Deadline
//     (common/deadline.h, monotonic via obs/clock.h). Long scans —
//     VisitGroupingSet sweeps, CellsForRoute corridors — poll it
//     cooperatively every `deadline_check_stride` summaries through
//     InventoryQuery::VisitGroupingSetWhile and return
//     StatusCode::kDeadlineExceeded instead of running unbounded.
//  2. **Admission control.** Two query classes (interactive point
//     lookups vs batch sweeps) each hold a bounded number of in-flight
//     slots. A call that finds its class full waits at most
//     `max_queue_wait_seconds` (and never past its own deadline) for a
//     slot, then is shed with StatusCode::kResourceExhausted — bounded
//     queues, not unbounded convoys. The admission fast path is two
//     atomic operations; the mutex and pol::CondVar are touched only
//     when a class is saturated.
//  3. **Refresh circuit breaker.** Consecutive *retryable* Refresh
//     failures (Status::IsRetryable(), the same authority the stage
//     retry loop uses; fail points inject exactly these) trip the
//     breaker open: further refreshes are rejected with
//     StatusCode::kUnavailable while readers keep serving the last
//     good snapshot — degraded, not down. After `breaker_open_seconds`
//     one half-open probe refresh is let through; success closes the
//     breaker, another retryable failure re-opens it. Non-retryable
//     failures (a resolution-mismatched delta) are caller errors: they
//     fail the call but never trip the breaker, because the store
//     itself is healthy. `snapshot_age_refreshes` counts refresh
//     attempts since the last published snapshot — the staleness the
//     degraded mode is trading for availability.
//
// Metrics (obs::Registry, in the pol.run_report/1 metrics block and
// the report's "serving" section):
//   serving.admitted / serving.queued / serving.shed /
//   serving.deadline_exceeded    (admission outcomes: every guarded
//                                 call lands in admitted, shed, or
//                                 deadline_exceeded exactly once;
//                                 queued counts the admitted-or-shed
//                                 calls that had to wait)
//   serving.scan_deadline_exceeded  (admitted calls canceled mid-scan)
//   serving.breaker_trips / serving.breaker_probes /
//   serving.breaker_closes / serving.breaker_rejected_refreshes
//   serving.degraded (gauge 0/1), serving.breaker_state (gauge:
//   0 closed, 1 open, 2 half-open),
//   serving.snapshot_age_refreshes (gauge)
//
// The guard is a wrapper, not a store: it owns no snapshot and adds no
// state to the read path beyond the admission slots, so
// bench_serving_telemetry holds it (telemetry off) to <2% overhead on
// the Acquire + point-lookup hot path.
//
// Shared cache lines (DESIGN.md §3.7): a guarded call reads its
// snapshot through the calling thread's pin
// (ServingInventory::PinnedRead, valid for the whole call), and its
// counters and telemetry are striped per thread, so it writes no cache
// line another thread's guarded call also writes — except the class's
// `in_flight` slot count (exact admission limits), the query log's id
// counter (increasing ids) and, on OK calls, the reservoir's
// seen-counter (a uniform sample). The first call after a Swap re-pins
// under the store's holder mutex.
//
// Query-level telemetry (DESIGN.md §3.8): unless disabled through
// ServingGuardOptions::telemetry, every guarded call additionally
// lands in the guard's ServingTelemetry — a query id (joined to the
// per-query trace span "serving.query.<op>#<id>" when tracing is on),
// a wide query-log event, the per-class trailing-window latency
// histograms, and the ok/error/shed rates the serving.slo.* burn-rate
// gauges evaluate over. The windowed record path is lock-free and
// bench_serving_telemetry holds the whole package — windows, query
// log, exporter — to <2% on the same hot path. The optional exporter
// thread (StartTelemetryExporter) periodically refreshes the gauges,
// evaluates the SLOs, and durably rewrites (store::WriteFileDurable)
// an OpenMetrics text file `polinv watch` or any Prometheus-style
// scraper can tail.

namespace pol::core {

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

// "closed" / "open" / "half-open" (run-report and log vocabulary).
std::string_view BreakerStateName(BreakerState state);

struct ServingGuardOptions {
  // In-flight slots per admission class.
  int max_concurrent_interactive = 64;
  int max_concurrent_batch = 4;
  // Longest a call may wait for a slot before being shed (its own
  // deadline caps the wait too, whichever comes first).
  double max_queue_wait_seconds = 0.05;
  // Consecutive retryable refresh failures that trip the breaker.
  int breaker_trip_failures = 3;
  // Cooldown before an open breaker admits a half-open probe.
  double breaker_open_seconds = 30.0;
  // Deadline poll cadence inside long scans, in summaries visited.
  // Must be a power of two.
  uint32_t deadline_check_stride = 256;
  // Query-level telemetry (windows, query log, SLOs). Set
  // telemetry.enabled = false to strip every per-query clock read and
  // record from the path — the admission counters above stay.
  ServingTelemetryOptions telemetry;
};

// The periodic exporter owned by ServingGuard: each tick refreshes the
// windowed gauges, evaluates the SLOs, and (when a path is set)
// durably replaces an OpenMetrics rendering of the whole Registry
// (store::WriteFileDurable).
struct TelemetryExporterOptions {
  // Export file path; empty keeps the tick gauges-only.
  std::string openmetrics_path;
  double period_seconds = 1.0;
};

class ServingGuard {
 public:
  // The store must outlive the guard. Metric handles are resolved once
  // here; gauges are reset to the healthy state.
  explicit ServingGuard(ServingInventory* store,
                        ServingGuardOptions options = ServingGuardOptions());

  // Stops the exporter thread, if running.
  ~ServingGuard();

  ServingGuard(const ServingGuard&) = delete;
  ServingGuard& operator=(const ServingGuard&) = delete;

  // The guarded-call primitive: admit under `cls` (shedding or
  // deadline-rejecting instead of queueing unboundedly), acquire the
  // active snapshot, run `fn(snapshot)` on the calling thread, release
  // the slot. `fn` is Status(const InventorySnapshot&); the snapshot
  // reference is valid exactly for the call, so no lifetime escapes.
  // `fn` observes the deadline it closed over for cooperative
  // cancellation; a kDeadlineExceeded return is counted as a mid-scan
  // cancel. Templated so the hot path inlines — the guard's cost is
  // the admission atomics plus one clock read (three with telemetry,
  // which also buys the windowed record and the query-log row). The
  // snapshot is the thread's pinned one; a guarded call made from
  // inside `fn` is safe, and sees a newer snapshot if one was swapped
  // in meanwhile.
  template <typename Fn>
  Status Run(QueryClass cls, const Deadline& deadline, Fn&& fn) {
    return RunOp("query", cls, deadline, std::forward<Fn>(fn));
  }

  // Run with a telemetry operation name: the static-storage `op`
  // literal lands in the query-log row and names the per-query trace
  // span (constants' kSpanServingQueryPrefix + op + "#" + id), so a
  // trace and its query-log row join on the id.
  template <typename Fn>
  Status RunOp(std::string_view op, QueryClass cls, const Deadline& deadline,
               Fn&& fn) {
    return RunCounted(op, cls, deadline, nullptr, std::forward<Fn>(fn));
  }

  // VisitGroupingSet with the deadline threaded through the scan: the
  // visitor runs until the set is exhausted or the deadline expires
  // (checked every deadline_check_stride summaries), in which case the
  // sweep stops and kDeadlineExceeded is returned. Sweeps default to
  // the batch class.
  Status VisitGroupingSet(GroupingSet set, const Deadline& deadline,
                          const InventoryQuery::SummaryVisitor& visitor,
                          QueryClass cls = QueryClass::kBatch);

  // CellsForRoute under admission + deadline; the corridor is copied
  // out so no snapshot lifetime escapes the call.
  Result<std::vector<hex::CellIndex>> CellsForRoute(
      sim::PortId origin, sim::PortId destination, ais::MarketSegment segment,
      const Deadline& deadline, QueryClass cls = QueryClass::kInteractive);

  // Refresh through the circuit breaker (see the class comment for the
  // closed / open / half-open protocol). Failures never disturb the
  // active snapshot: readers keep acquiring the last good generation.
  Status Refresh(Inventory&& delta);

  // Breaker introspection (also exported as gauges).
  BreakerState breaker_state() const;
  // Degraded mode: the breaker is open or probing half-open — the
  // store serves, but from a snapshot whose refreshes are failing.
  bool degraded() const;
  // Refresh attempts since the last successfully published snapshot.
  uint64_t snapshot_age_refreshes() const;

  // Never null; disabled telemetry reports enabled() == false and
  // records nothing.
  ServingTelemetry* telemetry() const { return telemetry_.get(); }

  // Starts the periodic exporter thread (FailedPrecondition if one is
  // already running). Each tick runs TickTelemetry(). Stopping is
  // idempotent; the destructor stops a still-running exporter.
  Status StartTelemetryExporter(TelemetryExporterOptions options);
  void StopTelemetryExporter();
  bool telemetry_exporter_running() const;

  // One exporter tick, synchronously: refresh the windowed gauges and
  // the snapshot id/age gauges, evaluate the SLOs, and write the
  // OpenMetrics file when `openmetrics_path` is non-empty. Public so
  // tests and one-shot exports stay deterministic. Returns the write
  // error, if any (gauges are refreshed regardless).
  Status TickTelemetry(const std::string& openmetrics_path);

  ServingInventory* store() const { return store_; }
  const ServingGuardOptions& options() const { return options_; }

 private:
  // Per-class admission slots. `in_flight` is the fast path (two
  // atomics per guarded call); `waiters` tells Release whether anyone
  // is parked on the condition variable, so the uncontended release
  // never takes the mutex. Both are seq_cst where they rendezvous —
  // see AdmitSlow/Release in the .cc for the missed-wakeup argument.
  // `in_flight` is the one line every guarded call of a class writes
  // (the limit must be exact), so each class sits on its own cache
  // line, apart from the read-only state around it.
  struct alignas(obs::kCacheLineBytes) ClassState {
    std::atomic<int> in_flight{0};
    std::atomic<int> waiters{0};
    int limit = 0;
  };

  // When `queue_wait_seconds` is non-null it receives the time spent
  // queued for a slot — 0.0 on the uncontended fast path, which reads
  // no clock for it.
  Status Admit(QueryClass cls, const Deadline& deadline,
               double* queue_wait_seconds = nullptr);
  Status AdmitSlow(ClassState& state, const Deadline& deadline,
                   double* queue_wait_seconds);
  void Release(QueryClass cls);

  // "serving.query.<op>#<id>" (core/serving_metric_names.h prefix).
  static std::string QuerySpanName(std::string_view op, uint64_t id);

  // The instrumented guarded-call core behind Run/RunOp. When
  // telemetry is on the clock is read twice — at admission and at
  // finish (queue wait comes from AdmitSlow, which is already clocked);
  // `summaries_visited` (may be null) is read after `fn` returns, so a
  // scan can point it at a counter its visitor increments. A throwing
  // `fn` releases the slot and propagates without a telemetry record —
  // the query log reconciles against non-throwing traffic.
  template <typename Fn>
  Status RunCounted(std::string_view op, QueryClass cls,
                    const Deadline& deadline,
                    const uint64_t* summaries_visited, Fn&& fn) {
    ServingTelemetry* const telemetry = telemetry_.get();
    const bool telemetered = telemetry->enabled();
    double queue_wait_seconds = 0.0;
    {
      const Status admit = Admit(cls, deadline, &queue_wait_seconds);
      if (!admit.ok()) {
        if (telemetered) telemetry->RecordRejected(cls, op, admit);
        return admit;
      }
    }
    const double admitted_at = telemetered ? obs::NowSecondsFast() : 0.0;
    const ServingInventory::PinnedRead snapshot(*store_);
    const uint64_t id = telemetered ? telemetry->BeginQuery() : 0;
    // The per-query span joins the query-log row on the id. Built only
    // while the recorder collects, so the untraced path allocates
    // nothing (the name must outlive the span, hence the local).
    std::string span_name;
    std::optional<obs::ScopedSpan> span;
    if (telemetered && obs::TraceRecorder::Global().enabled()) {
      span_name = QuerySpanName(op, id);
      span.emplace(span_name);
    }
    Status status;
    try {
      status = fn(*snapshot);
    } catch (...) {
      Release(cls);
      throw;
    }
    Release(cls);
    if (status.code() == StatusCode::kDeadlineExceeded) {
      scan_deadline_exceeded_->Increment();
    }
    if (telemetered) {
      const double finished_at = obs::NowSecondsFast();
      telemetry->RecordQueryAt(
          finished_at, id, cls, op, status, queue_wait_seconds,
          finished_at - admitted_at,
          deadline.is_infinite() ? -1.0
                                 : deadline.RemainingSecondsAt(finished_at),
          snapshot->stats().seal_sequence,
          summaries_visited != nullptr ? *summaries_visited : 0);
    }
    return status;
  }

  void ExporterLoop(TelemetryExporterOptions exporter_options);

  ServingInventory* const store_;
  const ServingGuardOptions options_;
  const std::unique_ptr<ServingTelemetry> telemetry_;

  mutable Mutex mutex_;
  CondVar slot_available_;
  BreakerState breaker_state_ POL_GUARDED_BY(mutex_) = BreakerState::kClosed;
  int consecutive_failures_ POL_GUARDED_BY(mutex_) = 0;
  double opened_at_seconds_ POL_GUARDED_BY(mutex_) = 0.0;
  bool probe_in_flight_ POL_GUARDED_BY(mutex_) = false;
  uint64_t snapshot_age_refreshes_ POL_GUARDED_BY(mutex_) = 0;

  ClassState classes_[2];

  obs::Counter* admitted_;
  obs::Counter* queued_;
  obs::Counter* shed_;
  obs::Counter* deadline_exceeded_;
  obs::Counter* scan_deadline_exceeded_;
  obs::Counter* breaker_trips_;
  obs::Counter* breaker_probes_;
  obs::Counter* breaker_closes_;
  obs::Counter* breaker_rejected_;
  obs::Gauge* degraded_gauge_;
  obs::Gauge* breaker_state_gauge_;
  obs::Gauge* age_gauge_;
  obs::Counter* telemetry_exports_;
  obs::Counter* telemetry_export_failures_;
  obs::Gauge* active_snapshot_id_gauge_;
  obs::Gauge* snapshot_age_ms_gauge_;

  // Exporter thread state. Start/Stop (and the destructor) must not
  // race each other; the flags below coordinate with the loop itself.
  mutable Mutex exporter_mutex_;
  CondVar exporter_cv_;
  bool exporter_stop_ POL_GUARDED_BY(exporter_mutex_) = false;
  bool exporter_running_ POL_GUARDED_BY(exporter_mutex_) = false;
  std::thread exporter_thread_;  // Touched only by Start/Stop/dtor.
};

}  // namespace pol::core

#endif  // POL_CORE_SERVING_GUARD_H_
