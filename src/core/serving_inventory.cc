#include "core/serving_inventory.h"

#include <atomic>
#include <cstdint>
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

// A thread's pin: the snapshot it last read and the swap generation it
// was read at (0: none yet). `in_use` is set while the outermost
// PinnedRead on the thread reads through it, so a nested read never
// re-pins (and so releases) a snapshot the outer read is using.
struct ServingInventory::ReadPin {
  uint64_t generation = 0;
  std::shared_ptr<const InventorySnapshot> snapshot;
  bool in_use = false;
};

namespace {

// Swap generations, process-wide: a pin's generation names both the
// store and the snapshot it was read from, so a pin left over from one
// store never matches another (even one built at the same address).
std::atomic<uint64_t> next_swap_generation{0};

}  // namespace

ServingInventory::ReadPin& ServingInventory::ThisThreadPin() {
  thread_local ReadPin pin;
  return pin;
}

bool ServingInventory::PinIsCurrent(const ReadPin& pin) const {
  return pin.generation == generation_.load(std::memory_order_acquire);
}

std::shared_ptr<const InventorySnapshot> ServingInventory::LoadActive()
    const {
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

void ServingInventory::Repin(ReadPin& pin) const {
  // Declared before the lock so the superseded snapshot — possibly its
  // last reference, and so a large free or an unmap — is released after
  // the holder mutex.
  std::shared_ptr<const InventorySnapshot> superseded;
  MutexLock lock(snapshot_mutex_);
  superseded = std::move(pin.snapshot);
  pin.snapshot = snapshot_;
  pin.generation = generation_.load(std::memory_order_relaxed);
}

ServingInventory::PinnedRead::PinnedRead(const ServingInventory& store) {
  store.reader_acquisitions_->Increment();
  ReadPin& pin = ThisThreadPin();
  if (!store.PinIsCurrent(pin)) {
    if (pin.in_use) {
      own_ = store.LoadActive();
      snapshot_ = own_.get();
      return;
    }
    store.Repin(pin);
  }
  snapshot_ = pin.snapshot.get();
  if (!pin.in_use) {
    pin.in_use = true;
    pin_in_use_ = &pin.in_use;
  }
}

ServingInventory::PinnedRead::~PinnedRead() {
  if (pin_in_use_ != nullptr) *pin_in_use_ = false;
}

ServingInventory::ServingInventory(
    std::shared_ptr<const InventorySnapshot> initial)
    : reader_acquisitions_(obs::Registry::Global().counter(
          kMetricServingReaderAcquisitions)) {
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
  reader_acquisitions_->Increment();
  ReadPin& pin = ThisThreadPin();
  if (!PinIsCurrent(pin)) {
    if (pin.in_use) return LoadActive();
    Repin(pin);
  }
  return pin.snapshot;
}

void ServingInventory::Swap(std::shared_ptr<const InventorySnapshot> next) {
  POL_CHECK(next != nullptr);
  POL_TRACE_SPAN(kSpanServingSwap);
  const uint64_t seal_sequence = next->stats().seal_sequence;
  const auto summaries = static_cast<int64_t>(next->size());
  {
    // The superseded snapshot is released after the lock, by `next`.
    MutexLock lock(snapshot_mutex_);
    snapshot_.swap(next);
    generation_.store(
        next_swap_generation.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_release);
  }
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  active_seal_sequence_.store(seal_sequence, std::memory_order_relaxed);
  published_at_micros_.store(obs::NowMicros(), std::memory_order_relaxed);
  auto& registry = obs::Registry::Global();
  registry.counter(kMetricServingSwaps)->Increment();
  registry.gauge(kMetricServingActiveSnapshotSummaries)->Set(summaries);
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
