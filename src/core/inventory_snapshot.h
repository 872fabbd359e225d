#ifndef POL_CORE_INVENTORY_SNAPSHOT_H_
#define POL_CORE_INVENTORY_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/inventory.h"
#include "core/inventory_query.h"
#include "store/mapped_file.h"
#include "store/snapshot_store.h"

// The serving side of the inventory: an immutable, fully indexed
// snapshot over one POLSNAP1 image (see DESIGN.md §3.5 and the section
// schema in core/snapshot_codec.h). The image is either a stored
// generation mmap'd from disk or a heap image just written by
// Inventory::Seal() or MergeSeal(); all open through FromImage, and no
// query can tell them apart.
//
// It supplies the InventoryQuery primitives; the query policy on top
// (per-set lookups, the reversed-route rule, the fallback ladder) is
// InventoryQuery's. Layout: per grouping set one (cell, dims)-sorted
// fixed-width key array plus summary offsets into a blob — Find is a
// binary search in place, visitation is a linear walk in deterministic
// order — and two secondary indexes encoded at seal time: route spans
// over a route-cell array ((origin, destination, segment) -> cells,
// backing RouteCells in O(log n + k)) and a cell -> present-segments
// bitmask table. Summaries are decoded lazily, once per entry, into a CAS
// cache; everything else is read straight from the image. Nothing
// mutates after opening except that cache, so any number of threads may
// query concurrently without locks; ServingInventory hot-swaps whole
// snapshots to refresh.

namespace pol::core {

// Index sizes and seal cost of one snapshot (polinv `stats` prints
// these; serving.seal_seconds records the duration distribution).
struct InventorySnapshotStats {
  std::array<uint64_t, kNumGroupingSets> summaries_per_set{};
  uint64_t route_index_routes = 0;   // Distinct (o, d, segment) keys.
  uint64_t route_index_cells = 0;    // Total indexed route cells.
  uint64_t segment_index_cells = 0;  // Cells with a per-type summary.
  double seal_seconds = 0.0;         // Sort/merge plus section encode.
  // Process-wide seal ordinal, from 1: the snapshot id the serving
  // telemetry stamps into query-log rows and the
  // serving.snapshot.active_id gauge, so a logged query pins down
  // exactly which generation answered it.
  uint64_t seal_sequence = 0;
};

class InventorySnapshot final : public InventoryQuery {
  struct OpenTag {};

 public:
  // Serves a container-validated POLSNAP1 image (`opened.view` must
  // point into `opened.file`). Checks the payload: meta, section sizes
  // against the meta counts, offset monotonicity, key / route /
  // segment order — the preconditions the unchecked query paths rely
  // on. kDataLoss on any violation. stats() are the seal-time stats
  // stored in the image.
  static Result<std::shared_ptr<const InventorySnapshot>> FromImage(
      store::SnapshotStore::Opened opened);

  // Constructible only through FromImage (the tag is private); public
  // so std::make_shared can reach it.
  explicit InventorySnapshot(OpenTag) {}
  ~InventorySnapshot() override;
  InventorySnapshot(const InventorySnapshot&) = delete;
  InventorySnapshot& operator=(const InventorySnapshot&) = delete;

  int resolution() const override { return resolution_; }
  size_t size() const override { return total_; }

  const CellSummary* Find(const GroupKey& key) const override;
  std::vector<hex::CellIndex> RouteCells(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const override;

  std::vector<ais::MarketSegment> SegmentsAt(
      hex::CellIndex cell) const override;

  bool VisitGroupingSetWhile(GroupingSet set,
                             const CancellableVisitor& visitor) const override;

  uint64_t DistinctCells() const override;

  const InventorySnapshotStats& stats() const { return stats_; }

  // The merge-seal: writes a new image that holds this snapshot's
  // entries with `delta` folded in, and serves it. Shared keys are
  // decoded and the delta's summaries merged into them (moved, not
  // copied). Then per grouping set the image's sorted keys are walked
  // beside the delta's: untouched entries are copied verbatim (keys and
  // summary bytes, offsets rebased), merged and new keys encoded. The
  // route and segment sections are rebuilt from the image's plus the
  // delta's new keys. The result equals Inventory::Seal() of the
  // decoded image merged with `delta`, byte for byte outside the meta,
  // which carries a fresh seal sequence. An empty delta still yields a
  // new image. Summaries this snapshot has already decoded are shared
  // with the entries copied verbatim, so readers do not decode them
  // again. FailedPrecondition on a resolution mismatch; kDataLoss when
  // a shared key's summary does not decode. Records
  // serving.seal_seconds and the serving.refresh.keys_* counters.
  Result<std::shared_ptr<const InventorySnapshot>> MergeSeal(
      Inventory&& delta) const;

  // Copies out the complete POLSNAP1 image this snapshot serves.
  void EncodeTo(std::string* out) const;

  // Durably publishes the image as the store's next generation; the
  // new generation number lands in `*generation` when non-null.
  Status WriteTo(store::SnapshotStore* store,
                 uint64_t* generation = nullptr) const;

 private:
  // A decoded summary, shared by every snapshot whose entry holds its
  // exact bytes: a merge-seal's verbatim copies take the decodes of the
  // image they copy from. The last snapshot to hold it frees it.
  struct Decoded {
    std::atomic<uint32_t> holders{1};
    CellSummary summary;
  };

  // One grouping set's sections, pointing into the image.
  struct SetView {
    const char* keys = nullptr;     // count * 16 B, (cell, dims)-sorted.
    size_t count = 0;
    const char* offsets = nullptr;  // (count + 1) * u64 into the blob.
    const char* blob = nullptr;
    size_t blob_size = 0;
    // Lazily decoded summaries, one slot per key. Entries decode on
    // first access; the CAS loser's copy dies with its unique_ptr.
    std::unique_ptr<std::atomic<Decoded*>[]> cache;
  };

  // Inventory::Seal() is Write over the empty image, SerializeTo is
  // WriteImage over it, and DeserializeFrom Binds a snapshot without a
  // decode cache to its input.
  friend class Inventory;

  // Seal and MergeSeal: writes the image (stamped) and serves it.
  static std::shared_ptr<const InventorySnapshot> Write(
      const InventorySnapshot& base, int resolution,
      const SummaryMap& entries);

  // The one image writer: `base`'s entries overlaid with `entries`, an
  // entry whose key `base` holds replacing it. `stamp` writes the seal
  // time and a fresh seal ordinal into the meta; without it both are 0,
  // so equal contents give equal bytes (the canonical image).
  // `copied_runs`, when non-null, receives the runs of base entries
  // copied verbatim, as {set, base index, new index, count}: their
  // decoded summaries carry over to the new image.
  static std::string WriteImage(
      const InventorySnapshot& base, int resolution, const SummaryMap& entries,
      bool stamp, std::vector<std::array<size_t, 4>>* copied_runs);

  // A snapshot of nothing: what Seal writes over.
  static const InventorySnapshot& Empty();

  Status Bind(const store::SnapshotFileView& view);
  const CellSummary* Materialize(const SetView& set, size_t i) const;

  store::MappedFile image_;
  int resolution_ = 0;
  size_t total_ = 0;
  InventorySnapshotStats stats_;
  std::array<SetView, kNumGroupingSets> sets_;
  const char* route_spans_ = nullptr;  // 24 B {route, begin, end}.
  size_t route_span_count_ = 0;
  const char* route_cells_ = nullptr;  // u64 cells, span-ordered.
  size_t route_cell_count_ = 0;
  const char* segments_ = nullptr;     // 16 B {cell, mask}, by cell.
  size_t segment_count_ = 0;
};

}  // namespace pol::core

#endif  // POL_CORE_INVENTORY_SNAPSHOT_H_
