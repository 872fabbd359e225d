#ifndef POL_CORE_SERVING_INVENTORY_H_
#define POL_CORE_SERVING_INVENTORY_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "obs/metrics.h"

// The hot-swap serving store: the holder of the current immutable
// InventorySnapshot. Refresh() merge-seals a delta into the newest
// sealed image (InventorySnapshot::MergeSeal: untouched summaries
// copied verbatim, only the delta's keys decoded and re-encoded) and
// publishes the result with Swap(). A sealed snapshot serves its heap
// image exactly as a stored one serves its mapping, summaries decoding
// lazily on first touch. Concurrent readers keep querying the old
// snapshot, which stays alive until its last reference drops. This is
// the paper's daily incremental fold turned into a zero-downtime
// refresh.
//
// Reads go through a per-thread pin (PinnedRead, and Acquire on top of
// it): each thread keeps a reference to the snapshot it last read,
// tagged with the store's swap generation. A read whose pin matches the
// current generation — one load of a word only Swap writes — uses the
// pinned snapshot and writes nothing shared: no refcount, no lock (the
// serving.reader_acquisitions count it adds is striped per thread).
// Only after a Swap does a thread's next read take the slow path,
// re-pinning under the holder mutex. So a superseded snapshot lives
// until every thread that read it has read again (or exited), and a
// thread that stops reading keeps its last snapshot until it exits.
// A thread has one pin, so a thread alternating between two stores
// re-pins at every switch. There is one holder in every build: the
// mutex slow path is plain code TSan sees through, so sanitizer builds
// test the production read path.
//
// No build-side Inventory is kept: the image is the refresh foundation,
// so a process cold-started from a stored generation refreshes it as
// fully as the process that sealed it.
//
// ServingInventory is a holder, not a query surface: readers Acquire()
// a snapshot (or go through ServingGuard, which takes a PinnedRead per
// call) and query that. Holding the acquired shared_ptr keeps every
// pointer answered from it valid, and a multi-call consumer (e.g. a
// LaneAnalyzer sweep) sees one consistent view across its calls.
//
// Metrics (obs::Registry, surfaced in the pol.run_report/1 metrics
// block): serving.seal_seconds (histogram, recorded by every seal and
// merge-seal), serving.seals / serving.swaps /
// serving.reader_acquisitions / serving.refresh.keys_copied /
// serving.refresh.keys_merged / serving.refresh.keys_added (counters),
// serving.active_snapshot_summaries (gauge).

namespace pol::store {
class SnapshotStore;
}  // namespace pol::store

namespace pol::core {

class ServingInventory final {
 public:
  // Serves `initial` as-is — no seal. This is the zero-copy cold-start
  // path: `initial` is typically a stored generation
  // (core/snapshot_codec.h) served straight off its mapping. It is also
  // the first refresh foundation.
  explicit ServingInventory(std::shared_ptr<const InventorySnapshot> initial);

  // Seals `base` and serves the result.
  explicit ServingInventory(Inventory base);

  // Serves `initial` after checking that `base` has its resolution
  // (POL_CHECKed), then drops `base`: the served image, not a build
  // side, is what Refresh merges into.
  ServingInventory(Inventory base,
                   std::shared_ptr<const InventorySnapshot> initial);

  // Cold start from a snapshot store: maps the newest readable
  // generation (falling back past corrupt ones) and serves it
  // immediately — queries are answered in mmap time, no decode of
  // every summary, no Seal — and later refreshes merge into it. The second overload
  // first checks that `base` has the stored generation's resolution
  // (FailedPrecondition otherwise), then drops it like the constructor
  // above.
  static Result<std::unique_ptr<ServingInventory>> OpenLatest(
      const store::SnapshotStore& store, uint64_t* generation = nullptr);
  static Result<std::unique_ptr<ServingInventory>> OpenLatest(
      const store::SnapshotStore& store, Inventory base,
      uint64_t* generation = nullptr);

  // Publish-on-refresh: after this, every successful Refresh writes the
  // freshly sealed snapshot's image to `durable` as it is
  // (InventorySnapshot::WriteTo, no re-encode) *before* swapping it in,
  // so readers never see a snapshot that is not durable. A publish
  // failure fails the Refresh with the old snapshot still serving and
  // the delta kept in the refresh foundation — the same retryable
  // contract as the serving.swap fail point, so the refresh circuit
  // breaker (core/serving_guard.h) trips on a persistently failing
  // store. Pass nullptr to detach. The store must outlive this object;
  // publishes are serialized by the refresh lock.
  void AttachDurableStore(store::SnapshotStore* durable);

  // The active snapshot; never null. Holding the returned shared_ptr
  // keeps that snapshot (and every pointer queried from it) alive
  // across any number of concurrent Swap()s. Copied from the calling
  // thread's pin (re-pinned first if a Swap moved the generation), so
  // it costs one refcount increment.
  std::shared_ptr<const InventorySnapshot> Acquire() const;

  // The active snapshot for one scope, read through the calling
  // thread's pin: while the pin is current it takes no reference and
  // writes no shared cache line (the guarded-call read). The snapshot
  // stays valid for the PinnedRead's lifetime, across concurrent
  // Swap()s. A PinnedRead nested inside another on the same thread (a
  // guarded call made from inside a guarded call) borrows the pin when
  // it is current, and otherwise takes its own reference, so the outer
  // read's snapshot is never released under it. Counts one
  // serving.reader_acquisitions, like Acquire.
  class PinnedRead {
   public:
    explicit PinnedRead(const ServingInventory& store);
    ~PinnedRead();

    PinnedRead(const PinnedRead&) = delete;
    PinnedRead& operator=(const PinnedRead&) = delete;

    const InventorySnapshot& operator*() const { return *snapshot_; }
    const InventorySnapshot* operator->() const { return snapshot_; }

   private:
    const InventorySnapshot* snapshot_ = nullptr;
    // Set when this read marked the thread's pin in use (the outermost
    // read); cleared again by the destructor.
    bool* pin_in_use_ = nullptr;
    // A nested read that found the pin stale holds its own reference.
    std::shared_ptr<const InventorySnapshot> own_;
  };

  // Merge-seals `delta` into the refresh foundation — the newest sealed
  // image, published or not — and publishes the result. Every
  // successful refresh, an empty delta's included, publishes a new
  // generation with a new seal sequence. Readers see either the old or
  // the new snapshot, never a partial merge. Serialized against
  // concurrent Refresh() calls. Fails with nothing changed on a
  // resolution mismatch (FailedPrecondition) or when a summary the
  // delta shares with the image does not decode (kDataLoss); the active
  // snapshot is never republished on any failure path.
  //
  // Fail points (faults preset): "serving.merge" fires before the
  // merge-seal (nothing changes — a poisoned delta), "serving.seal"
  // after the merge-seal has written the new image but before it is
  // published, "serving.swap" after publishing but before the swap. The
  // latter two model a refresh that died mid-flight: the new image
  // becomes the refresh foundation, the last good snapshot keeps
  // serving, and the next successful Refresh publishes every delta
  // folded so far. The refresh circuit breaker (core/serving_guard.h)
  // trips on consecutive failures from any of the three.
  Status Refresh(Inventory&& delta);

  // Snapshots published so far, the initial one included.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

  // Seal sequence of the active snapshot (the process-wide ordinal
  // stamped into InventorySnapshotStats by every seal) — the snapshot
  // id query-log rows and the serving.snapshot.active_id gauge carry.
  // 0 only before the constructor's first Swap.
  uint64_t active_seal_sequence() const {
    return active_seal_sequence_.load(std::memory_order_relaxed);
  }

  // Seconds since the active snapshot was published (obs clock); the
  // staleness the serving.snapshot.age_ms gauge tracks.
  double active_snapshot_age_seconds() const;

  // Summaries and distinct cells of the active snapshot.
  size_t size() const { return Acquire()->size(); }
  uint64_t DistinctCells() const { return Acquire()->DistinctCells(); }

 private:
  struct ReadPin;

  // Makes `next` the active snapshot. Must not be null.
  void Swap(std::shared_ptr<const InventorySnapshot> next);

  // The active snapshot, copied under the holder mutex.
  std::shared_ptr<const InventorySnapshot> LoadActive() const;
  // Points the thread's pin at the active snapshot and generation.
  void Repin(ReadPin& pin) const;
  bool PinIsCurrent(const ReadPin& pin) const;
  // The calling thread's pin (one per thread, shared by every store).
  static ReadPin& ThisThreadPin();

  mutable Mutex refresh_mutex_;
  // What the next Refresh merges into: the newest sealed image. It runs
  // ahead of the active snapshot only after a refresh that failed past
  // its merge-seal.
  std::shared_ptr<const InventorySnapshot> foundation_
      POL_GUARDED_BY(refresh_mutex_);
  // Durable publish target of Refresh; nullptr = in-memory only.
  store::SnapshotStore* durable_store_ POL_GUARDED_BY(refresh_mutex_) =
      nullptr;
  std::atomic<uint64_t> swap_count_{0};
  std::atomic<uint64_t> active_seal_sequence_{0};
  std::atomic<uint64_t> published_at_micros_{0};
  obs::Counter* const reader_acquisitions_;
  mutable Mutex snapshot_mutex_;
  std::shared_ptr<const InventorySnapshot> snapshot_
      POL_GUARDED_BY(snapshot_mutex_);
  // The swap generation of snapshot_: drawn from one process-wide
  // sequence, so equal generations name the same store and the same
  // snapshot. Written (under snapshot_mutex_) only by Swap, read by
  // every pinned read; on its own cache line so the writes beside it
  // never invalidate the readers' copy.
  alignas(obs::kCacheLineBytes) std::atomic<uint64_t> generation_{0};
};

}  // namespace pol::core

#endif  // POL_CORE_SERVING_INVENTORY_H_
