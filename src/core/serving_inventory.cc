#include "core/serving_inventory.h"

#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/mutex.h"
#include "core/serving_metric_names.h"
#include "core/snapshot_codec.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pol::core {

ServingInventory::ServingInventory(
    std::shared_ptr<const InventorySnapshot> initial) {
  POL_CHECK(initial != nullptr);
  {
    MutexLock lock(refresh_mutex_);
    foundation_ = initial;
  }
  Swap(std::move(initial));
}

ServingInventory::ServingInventory(Inventory base)
    : ServingInventory(base.Seal()) {}

ServingInventory::ServingInventory(
    Inventory base, std::shared_ptr<const InventorySnapshot> initial)
    : ServingInventory(std::move(initial)) {
  MutexLock lock(refresh_mutex_);
  POL_CHECK(base.resolution() == foundation_->resolution())
      << "build side and initial snapshot disagree on resolution";
}

Result<std::unique_ptr<ServingInventory>> ServingInventory::OpenLatest(
    const store::SnapshotStore& store, uint64_t* generation) {
  POL_ASSIGN_OR_RETURN(std::shared_ptr<const InventorySnapshot> snapshot,
                       OpenLatestSnapshot(store, generation));
  return std::make_unique<ServingInventory>(std::move(snapshot));
}

Result<std::unique_ptr<ServingInventory>> ServingInventory::OpenLatest(
    const store::SnapshotStore& store, Inventory base, uint64_t* generation) {
  POL_ASSIGN_OR_RETURN(std::shared_ptr<const InventorySnapshot> snapshot,
                       OpenLatestSnapshot(store, generation));
  if (base.resolution() != snapshot->resolution()) {
    return Status::FailedPrecondition(
        "restored build side resolution " +
        std::to_string(base.resolution()) + " != stored snapshot's " +
        std::to_string(snapshot->resolution()));
  }
  return std::make_unique<ServingInventory>(std::move(snapshot));
}

void ServingInventory::AttachDurableStore(store::SnapshotStore* durable) {
  MutexLock lock(refresh_mutex_);
  durable_store_ = durable;
}

std::shared_ptr<const InventorySnapshot> ServingInventory::Acquire() const {
  obs::Registry::Global()
      .counter(kMetricServingReaderAcquisitions)
      ->Increment();
#if defined(POL_SERVING_SNAPSHOT_ATOMIC)
  return snapshot_.load(std::memory_order_acquire);
#else
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
#endif
}

void ServingInventory::Swap(std::shared_ptr<const InventorySnapshot> next) {
  POL_CHECK(next != nullptr);
  POL_TRACE_SPAN(kSpanServingSwap);
  const uint64_t seal_sequence = next->stats().seal_sequence;
#if defined(POL_SERVING_SNAPSHOT_ATOMIC)
  snapshot_.store(std::move(next), std::memory_order_release);
#else
  {
    MutexLock lock(snapshot_mutex_);
    snapshot_ = std::move(next);
  }
#endif
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  active_seal_sequence_.store(seal_sequence, std::memory_order_relaxed);
  published_at_micros_.store(obs::NowMicros(), std::memory_order_relaxed);
  auto& registry = obs::Registry::Global();
  registry.counter(kMetricServingSwaps)->Increment();
  registry.gauge(kMetricServingActiveSnapshotSummaries)
      ->Set(static_cast<int64_t>(Acquire()->size()));
}

double ServingInventory::active_snapshot_age_seconds() const {
  const uint64_t published = published_at_micros_.load(
      std::memory_order_relaxed);
  const uint64_t now = obs::NowMicros();
  return now > published ? static_cast<double>(now - published) * 1e-6 : 0.0;
}

Status ServingInventory::Refresh(Inventory&& delta) {
  POL_TRACE_SPAN(kSpanServingRefresh);
  MutexLock lock(refresh_mutex_);
  POL_RETURN_IF_ERROR(POL_FAILPOINT(kFailPointServingMerge));
  POL_ASSIGN_OR_RETURN(foundation_, foundation_->MergeSeal(std::move(delta)));
  POL_RETURN_IF_ERROR(POL_FAILPOINT(kFailPointServingSeal));
  if (durable_store_ != nullptr) {
    // Durability before visibility: the sealed snapshot must be on
    // disk before any reader can acquire it. On failure the refresh
    // fails retryably with the delta kept in the foundation — identical
    // semantics to the serving.swap fail point below.
    POL_RETURN_IF_ERROR(foundation_->WriteTo(durable_store_));
  }
  POL_RETURN_IF_ERROR(POL_FAILPOINT(kFailPointServingSwap));
  Swap(foundation_);
  return Status::OK();
}

}  // namespace pol::core
