#ifndef POL_CORE_SERVING_INVENTORY_H_
#define POL_CORE_SERVING_INVENTORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <version>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "core/inventory.h"
#include "core/inventory_snapshot.h"

// The hot-swap serving store: an atomic holder of the current immutable
// InventorySnapshot plus the build-side Inventory it was sealed from.
// Readers Acquire() the active snapshot (one atomic shared_ptr load)
// and query it lock-free; Refresh() folds a new batch into the build
// side, seals a fresh snapshot in the background, and publishes it with
// Swap(). A sealed snapshot serves its heap image exactly as a stored
// one serves its mapping, summaries decoding lazily on first touch.
// Concurrent readers keep querying the old snapshot, which
// stays alive until its last shared_ptr drops. This is the paper's
// daily incremental fold turned into a zero-downtime refresh.
//
// ServingInventory is a holder, not a query surface: readers Acquire()
// a snapshot (or go through ServingGuard, which acquires per call) and
// query that. Holding the acquired shared_ptr keeps every pointer
// answered from it valid, and a multi-call consumer (e.g. a LaneAnalyzer
// sweep) sees one consistent view across its calls.
//
// Metrics (obs::Registry, surfaced in the pol.run_report/1 metrics
// block): serving.seal_seconds (histogram, recorded by Seal),
// serving.seals / serving.swaps / serving.reader_acquisitions
// (counters), serving.active_snapshot_summaries (gauge).

// Snapshot-holder backend selection. The lock-free path needs library
// support for std::atomic<std::shared_ptr>; ThreadSanitizer builds use
// the mutex fallback instead, because TSan cannot see through
// libstdc++'s _Sp_atomic spinlock (the lock bit lives inside the
// control-block word) and reports its internal pointer swap as a race.
#if defined(__SANITIZE_THREAD__)
#define POL_SERVING_SNAPSHOT_MUTEX 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POL_SERVING_SNAPSHOT_MUTEX 1
#endif
#endif
#if !defined(POL_SERVING_SNAPSHOT_MUTEX) && \
    defined(__cpp_lib_atomic_shared_ptr)
#define POL_SERVING_SNAPSHOT_ATOMIC 1
#endif

namespace pol::store {
class SnapshotStore;
}  // namespace pol::store

namespace pol::core {

class ServingInventory final {
 public:
  // Takes ownership of the build side and publishes its first snapshot.
  explicit ServingInventory(Inventory base);

  // Takes ownership of the build side and publishes `initial` as-is —
  // no seal. This is the zero-copy cold-start path: `initial` is
  // typically a stored generation (core/snapshot_codec.h) served
  // straight off its mapping. Resolutions must agree (POL_CHECKed).
  ServingInventory(Inventory base,
                   std::shared_ptr<const InventorySnapshot> initial);

  // Cold start from a snapshot store: maps the newest readable
  // generation (falling back past corrupt ones) and serves it
  // immediately over an *empty* build side — queries are answered in
  // mmap time, no LoadFromFile, no Seal. Note a later Refresh seals
  // from the build side, which starts empty here: processes that also
  // restore build-side state should use the second overload, which
  // serves the stored snapshot while keeping `base` as the refresh
  // foundation (resolutions must match).
  static Result<std::unique_ptr<ServingInventory>> OpenLatest(
      const store::SnapshotStore& store, uint64_t* generation = nullptr);
  static Result<std::unique_ptr<ServingInventory>> OpenLatest(
      const store::SnapshotStore& store, Inventory base,
      uint64_t* generation = nullptr);

  // Publish-on-refresh: after this, every successful Refresh writes the
  // freshly sealed snapshot's image to `durable` as it is
  // (InventorySnapshot::WriteTo, no re-encode) *before* swapping it in,
  // so readers never see a snapshot that is not durable. A publish
  // failure fails the Refresh with the build side holding the merged
  // delta and the old snapshot still serving — the same retryable
  // contract as the serving.swap fail point, so the refresh circuit
  // breaker (core/serving_guard.h) trips on a persistently failing
  // store. Pass nullptr to detach. The store must outlive this object;
  // publishes are serialized by the refresh lock.
  void AttachDurableStore(store::SnapshotStore* durable);

  // The active snapshot; never null. Holding the returned shared_ptr
  // keeps that snapshot (and every pointer queried from it) alive
  // across any number of concurrent Swap()s.
  std::shared_ptr<const InventorySnapshot> Acquire() const;

  // Folds `delta` into the build side, seals, and publishes. Readers
  // see either the old or the new snapshot, never a partial merge.
  // Serialized against concurrent Refresh() calls; fails on resolution
  // mismatch (the build side is left unchanged on failure, and the
  // active snapshot is never republished on any failure path).
  //
  // Fail points (faults preset): "serving.merge" fires before the fold
  // (build side untouched — a poisoned delta), "serving.seal" after the
  // fold but before sealing, "serving.swap" after sealing but before
  // publishing. The latter two model a refresh that died mid-flight:
  // the build side holds the merged delta, the last good snapshot keeps
  // serving, and the next successful Refresh publishes everything. The
  // refresh circuit breaker (core/serving_guard.h) trips on consecutive
  // failures from any of the three.
  Status Refresh(Inventory&& delta);

  // Publishes an externally built snapshot (e.g. sealed from a
  // full rebuild). Must not be null.
  void Swap(std::shared_ptr<const InventorySnapshot> next);

  // Snapshots published so far, the initial one included.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

  // Seal sequence of the active snapshot (the process-wide ordinal
  // Inventory::Seal stamped into InventorySnapshotStats) — the
  // snapshot id query-log rows and the serving.snapshot.active_id
  // gauge carry. 0 only before the constructor's first Swap.
  uint64_t active_seal_sequence() const {
    return active_seal_sequence_.load(std::memory_order_relaxed);
  }

  // Seconds since the active snapshot was published (obs clock); the
  // staleness the serving.snapshot.age_ms gauge tracks.
  double active_snapshot_age_seconds() const;

  // Canonical bytes of the build side (Inventory::SerializeTo under the
  // refresh lock): the persistence hook for checkpointing the serving
  // store, and the byte-identity witness the refresh-failure guarantees
  // are tested against.
  void SerializeBuildSide(std::string* out) const;

  // Summaries and distinct cells of the active snapshot.
  size_t size() const { return Acquire()->size(); }
  uint64_t DistinctCells() const { return Acquire()->DistinctCells(); }

 private:
  mutable Mutex refresh_mutex_;
  Inventory base_ POL_GUARDED_BY(refresh_mutex_);
  // Durable publish target of Refresh; nullptr = in-memory only.
  store::SnapshotStore* durable_store_ POL_GUARDED_BY(refresh_mutex_) =
      nullptr;
  std::atomic<uint64_t> swap_count_{0};
  std::atomic<uint64_t> active_seal_sequence_{0};
  std::atomic<uint64_t> published_at_micros_{0};
#if defined(POL_SERVING_SNAPSHOT_ATOMIC)
  std::atomic<std::shared_ptr<const InventorySnapshot>> snapshot_;
#else
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const InventorySnapshot> snapshot_
      POL_GUARDED_BY(snapshot_mutex_);
#endif
};

}  // namespace pol::core

#endif  // POL_CORE_SERVING_INVENTORY_H_
