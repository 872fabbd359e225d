#include "core/serving_guard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/serving_metric_names.h"
#include "obs/clock.h"
#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "store/atomic_file.h"

namespace pol::core {
namespace {

int64_t MillisGauge(double seconds) {
  double millis = seconds * 1000.0;
  if (!(millis >= 0.0)) millis = 0.0;
  if (millis > 9e15) millis = 9e15;
  return static_cast<int64_t>(std::llround(millis));
}

}  // namespace

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

ServingGuard::ServingGuard(ServingInventory* store, ServingGuardOptions options)
    : store_(store),
      options_(std::move(options)),
      telemetry_(std::make_unique<ServingTelemetry>(options_.telemetry)) {
  POL_CHECK(store_ != nullptr);
  POL_CHECK(options_.max_concurrent_interactive >= 1);
  POL_CHECK(options_.max_concurrent_batch >= 1);
  POL_CHECK(options_.max_queue_wait_seconds >= 0.0);
  POL_CHECK(options_.breaker_trip_failures >= 1);
  POL_CHECK(options_.breaker_open_seconds >= 0.0);
  POL_CHECK(options_.deadline_check_stride >= 1);
  POL_CHECK((options_.deadline_check_stride &
             (options_.deadline_check_stride - 1)) == 0);
  classes_[static_cast<size_t>(QueryClass::kInteractive)].limit =
      options_.max_concurrent_interactive;
  classes_[static_cast<size_t>(QueryClass::kBatch)].limit =
      options_.max_concurrent_batch;

  auto& registry = obs::Registry::Global();
  admitted_ = registry.counter(kMetricServingAdmitted);
  queued_ = registry.counter(kMetricServingQueued);
  shed_ = registry.counter(kMetricServingShed);
  deadline_exceeded_ = registry.counter(kMetricServingDeadlineExceeded);
  scan_deadline_exceeded_ =
      registry.counter(kMetricServingScanDeadlineExceeded);
  breaker_trips_ = registry.counter(kMetricServingBreakerTrips);
  breaker_probes_ = registry.counter(kMetricServingBreakerProbes);
  breaker_closes_ = registry.counter(kMetricServingBreakerCloses);
  breaker_rejected_ = registry.counter(kMetricServingBreakerRejected);
  degraded_gauge_ = registry.gauge(kMetricServingDegraded);
  breaker_state_gauge_ = registry.gauge(kMetricServingBreakerState);
  age_gauge_ = registry.gauge(kMetricServingSnapshotAgeRefreshes);
  telemetry_exports_ = registry.counter(kMetricServingTelemetryExports);
  telemetry_export_failures_ =
      registry.counter(kMetricServingTelemetryExportFailures);
  active_snapshot_id_gauge_ = registry.gauge(kMetricServingActiveSnapshotId);
  snapshot_age_ms_gauge_ = registry.gauge(kMetricServingSnapshotAgeMs);
  degraded_gauge_->Set(0);
  breaker_state_gauge_->Set(0);
  age_gauge_->Set(0);
}

ServingGuard::~ServingGuard() { StopTelemetryExporter(); }

std::string ServingGuard::QuerySpanName(std::string_view op, uint64_t id) {
  std::string name;
  name.reserve(kSpanServingQueryPrefix.size() + op.size() + 21);
  name.append(kSpanServingQueryPrefix);
  name.append(op);
  name.push_back('#');
  name.append(std::to_string(id));
  return name;
}

Status ServingGuard::Admit(QueryClass cls, const Deadline& deadline,
                           double* queue_wait_seconds) {
  ClassState& state = classes_[static_cast<size_t>(cls)];
  if (deadline.Expired()) {
    deadline_exceeded_->Increment();
    return Status::DeadlineExceeded("query deadline expired before admission");
  }
  // Optimistic fast path: claim a slot, keep it if the class was below
  // its limit. The transient overshoot is visible only to other
  // admitters (who fall into the same slow path), never as extra
  // concurrency.
  const int prev = state.in_flight.fetch_add(1, std::memory_order_acq_rel);
  if (prev < state.limit) {
    admitted_->Increment();
    return Status::OK();
  }
  state.in_flight.fetch_sub(1, std::memory_order_seq_cst);
  return AdmitSlow(state, deadline, queue_wait_seconds);
}

Status ServingGuard::AdmitSlow(ClassState& state, const Deadline& deadline,
                               double* queue_wait_seconds) {
  queued_->Increment();
  const double queued_at = obs::NowSeconds();
  const double queue_deadline = queued_at + options_.max_queue_wait_seconds;
  MutexLock lock(mutex_);
  // Missed-wakeup argument: `waiters` is published seq_cst before the
  // final in_flight re-check below, and Release decrements in_flight
  // seq_cst before reading `waiters`. So either Release sees our waiter
  // registration and takes the mutex to NotifyAll (which cannot run
  // until we are parked in WaitFor, since we hold the mutex), or our
  // re-check sees its decrement and we claim the slot without waiting.
  state.waiters.fetch_add(1, std::memory_order_seq_cst);
  Status result;  // OK = admitted.
  for (;;) {
    int current = state.in_flight.load(std::memory_order_seq_cst);
    if (current < state.limit) {
      if (state.in_flight.compare_exchange_strong(
              current, current + 1, std::memory_order_acq_rel)) {
        admitted_->Increment();
        break;
      }
      continue;  // Lost the CAS race; re-read and retry immediately.
    }
    const double now = obs::NowSeconds();
    if (deadline.ExpiredAt(now)) {
      deadline_exceeded_->Increment();
      result = Status::DeadlineExceeded(
          "query deadline expired while queued for admission");
      break;
    }
    if (now >= queue_deadline) {
      shed_->Increment();
      result = Status::ResourceExhausted(
          "admission queue wait exhausted; load shed");
      break;
    }
    // Sleep until a Release, but never past the queue budget or the
    // caller's deadline (spurious wakeups just re-run the loop).
    const double wait_until = std::min(queue_deadline, deadline.at_seconds());
    slot_available_.WaitFor(mutex_, wait_until - now);
  }
  state.waiters.fetch_sub(1, std::memory_order_seq_cst);
  if (queue_wait_seconds != nullptr) {
    *queue_wait_seconds = obs::NowSeconds() - queued_at;
  }
  return result;
}

void ServingGuard::Release(QueryClass cls) {
  ClassState& state = classes_[static_cast<size_t>(cls)];
  state.in_flight.fetch_sub(1, std::memory_order_seq_cst);
  if (state.waiters.load(std::memory_order_seq_cst) > 0) {
    // Taking the mutex before notifying closes the race against a
    // waiter that registered but has not parked yet; NotifyAll because
    // waiters of both classes share the one condition variable.
    MutexLock lock(mutex_);
    slot_available_.NotifyAll();
  }
}

Status ServingGuard::VisitGroupingSet(GroupingSet set, const Deadline& deadline,
                                      const InventoryQuery::SummaryVisitor& visitor,
                                      QueryClass cls) {
  uint64_t visited = 0;
  return RunCounted(
      "visit_grouping_set", cls, deadline, &visited,
      [&](const InventorySnapshot& snapshot) {
        const uint32_t stride_mask = options_.deadline_check_stride - 1;
        bool expired = false;
        snapshot.VisitGroupingSetWhile(
            set, [&](const GroupKey& key, const CellSummary& summary) {
              if ((static_cast<uint32_t>(visited++) & stride_mask) == 0 &&
                  deadline.Expired()) {
                expired = true;
                return false;
              }
              visitor(key, summary);
              return true;
            });
        if (expired) {
          return Status::DeadlineExceeded(
              "grouping-set sweep canceled: deadline exceeded mid-scan");
        }
        return Status::OK();
      });
}

Result<std::vector<hex::CellIndex>> ServingGuard::CellsForRoute(
    sim::PortId origin, sim::PortId destination, ais::MarketSegment segment,
    const Deadline& deadline, QueryClass cls) {
  std::vector<hex::CellIndex> cells;
  uint64_t visited = 0;
  Status status = RunCounted(
      "cells_for_route", cls, deadline, &visited,
      [&](const InventorySnapshot& snapshot) {
        cells = snapshot.CellsForRoute(origin, destination, segment);
        visited = cells.size();
        // The index lookup is O(log routes); the corridor copy above is
        // the long part, so the cooperative check lands after it.
        if (deadline.Expired()) {
          cells.clear();
          visited = 0;
          return Status::DeadlineExceeded(
              "route corridor query canceled: deadline exceeded");
        }
        return Status::OK();
      });
  if (!status.ok()) return status;
  return cells;
}

Status ServingGuard::Refresh(Inventory&& delta) {
  POL_TRACE_SPAN(kSpanServingGuardRefresh);
  bool probing = false;
  {
    MutexLock lock(mutex_);
    if (breaker_state_ == BreakerState::kOpen) {
      const double now = obs::NowSeconds();
      if (now - opened_at_seconds_ < options_.breaker_open_seconds) {
        ++snapshot_age_refreshes_;
        age_gauge_->Set(static_cast<int64_t>(snapshot_age_refreshes_));
        breaker_rejected_->Increment();
        return Status::Unavailable(
            "refresh breaker open; serving last good snapshot");
      }
      breaker_state_ = BreakerState::kHalfOpen;
      breaker_state_gauge_->Set(
          static_cast<int64_t>(BreakerState::kHalfOpen));
    }
    if (breaker_state_ == BreakerState::kHalfOpen) {
      if (probe_in_flight_) {
        ++snapshot_age_refreshes_;
        age_gauge_->Set(static_cast<int64_t>(snapshot_age_refreshes_));
        breaker_rejected_->Increment();
        return Status::Unavailable(
            "refresh breaker half-open; a probe is already in flight");
      }
      probe_in_flight_ = true;
      probing = true;
      breaker_probes_->Increment();
    }
  }

  // The store refresh (merge + seal + swap) runs outside mutex_ so the
  // breaker bookkeeping never blocks behind a slow seal — readers and
  // admission keep moving while the refresh is in flight.
  const Status status = store_->Refresh(std::move(delta));

  MutexLock lock(mutex_);
  if (probing) probe_in_flight_ = false;
  if (status.ok()) {
    consecutive_failures_ = 0;
    snapshot_age_refreshes_ = 0;
    if (breaker_state_ != BreakerState::kClosed) {
      breaker_closes_->Increment();
    }
    breaker_state_ = BreakerState::kClosed;
    breaker_state_gauge_->Set(static_cast<int64_t>(BreakerState::kClosed));
    degraded_gauge_->Set(0);
  } else {
    ++snapshot_age_refreshes_;
    if (status.IsRetryable()) {
      ++consecutive_failures_;
      // A failed half-open probe re-opens immediately; a closed breaker
      // waits for the configured run of consecutive failures.
      if (probing ||
          consecutive_failures_ >= options_.breaker_trip_failures) {
        breaker_state_ = BreakerState::kOpen;
        opened_at_seconds_ = obs::NowSeconds();
        breaker_trips_->Increment();
        breaker_state_gauge_->Set(static_cast<int64_t>(BreakerState::kOpen));
        degraded_gauge_->Set(1);
      }
    }
    // Non-retryable failures (e.g. a resolution-mismatched delta) are
    // caller errors: the store is healthy, so they neither count toward
    // the trip threshold nor re-open a probing breaker.
  }
  age_gauge_->Set(static_cast<int64_t>(snapshot_age_refreshes_));
  return status;
}

BreakerState ServingGuard::breaker_state() const {
  MutexLock lock(mutex_);
  return breaker_state_;
}

bool ServingGuard::degraded() const {
  MutexLock lock(mutex_);
  return breaker_state_ != BreakerState::kClosed;
}

uint64_t ServingGuard::snapshot_age_refreshes() const {
  MutexLock lock(mutex_);
  return snapshot_age_refreshes_;
}

Status ServingGuard::TickTelemetry(const std::string& openmetrics_path) {
  telemetry_->UpdateWindowGauges();
  telemetry_->EvaluateSlos();
  active_snapshot_id_gauge_->Set(
      static_cast<int64_t>(store_->active_seal_sequence()));
  snapshot_age_ms_gauge_->Set(
      MillisGauge(store_->active_snapshot_age_seconds()));
  if (openmetrics_path.empty()) {
    telemetry_exports_->Increment();
    return Status::OK();
  }
  const Status written = store::WriteFileDurable(
      openmetrics_path,
      obs::RenderOpenMetrics(obs::Registry::Global().Snapshot()));
  if (!written.ok()) {
    telemetry_export_failures_->Increment();
    return Status::IoError("openmetrics export failed: " + written.message());
  }
  telemetry_exports_->Increment();
  return Status::OK();
}

Status ServingGuard::StartTelemetryExporter(
    TelemetryExporterOptions exporter_options) {
  if (!(exporter_options.period_seconds > 0.0)) {
    return Status::InvalidArgument("exporter period must be positive");
  }
  {
    MutexLock lock(exporter_mutex_);
    if (exporter_running_) {
      return Status::FailedPrecondition("telemetry exporter already running");
    }
    exporter_running_ = true;
    exporter_stop_ = false;
  }
  exporter_thread_ = std::thread(&ServingGuard::ExporterLoop, this,
                                 std::move(exporter_options));
  return Status::OK();
}

void ServingGuard::StopTelemetryExporter() {
  {
    MutexLock lock(exporter_mutex_);
    if (!exporter_running_) return;
    exporter_stop_ = true;
    exporter_cv_.NotifyAll();
  }
  if (exporter_thread_.joinable()) exporter_thread_.join();
  MutexLock lock(exporter_mutex_);
  exporter_running_ = false;
}

bool ServingGuard::telemetry_exporter_running() const {
  MutexLock lock(exporter_mutex_);
  return exporter_running_;
}

void ServingGuard::ExporterLoop(TelemetryExporterOptions exporter_options) {
  for (;;) {
    {
      MutexLock lock(exporter_mutex_);
      if (!exporter_stop_) {
        // Timeout (or spurious wake) just runs a tick; the stop flag is
        // the guarded predicate that ends the loop.
        exporter_cv_.WaitFor(exporter_mutex_, exporter_options.period_seconds);
      }
      if (exporter_stop_) return;
    }
    // An export-write failure is already counted and retried next tick;
    // the loop has nowhere to report it.
    const Status tick = TickTelemetry(exporter_options.openmetrics_path);
    static_cast<void>(tick);
  }
}

}  // namespace pol::core
