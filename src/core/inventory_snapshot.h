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
// generation mmap'd from disk or the heap image Inventory::Seal() just
// encoded; both open through FromImage, and no query can tell them
// apart.
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
  double seal_seconds = 0.0;         // Sort plus section encode.
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

  void VisitGroupingSet(GroupingSet set,
                        const SummaryVisitor& visitor) const override;
  bool VisitGroupingSetWhile(GroupingSet set,
                             const CancellableVisitor& visitor) const override;

  uint64_t DistinctCells() const override;

  const InventorySnapshotStats& stats() const { return stats_; }

  // Copies out the complete POLSNAP1 image this snapshot serves.
  void EncodeTo(std::string* out) const;

  // Durably publishes the image as the store's next generation; the
  // new generation number lands in `*generation` when non-null.
  Status WriteTo(store::SnapshotStore* store,
                 uint64_t* generation = nullptr) const;

 private:
  // One grouping set's sections, pointing into the image.
  struct SetView {
    const char* keys = nullptr;     // count * 16 B, (cell, dims)-sorted.
    size_t count = 0;
    const char* offsets = nullptr;  // (count + 1) * u64 into the blob.
    const char* blob = nullptr;
    size_t blob_size = 0;
    // Lazily decoded summaries, one slot per key. Entries decode on
    // first access; the CAS loser's copy dies with its unique_ptr.
    std::unique_ptr<std::atomic<const CellSummary*>[]> cache;
  };

  Status Bind(const store::SnapshotFileView& view);
  const CellSummary* Materialize(const SetView& set, size_t i) const;
  template <typename Visitor>
  bool Walk(GroupingSet set, const Visitor& visitor) const;

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
