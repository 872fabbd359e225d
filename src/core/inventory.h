#ifndef POL_CORE_INVENTORY_H_
#define POL_CORE_INVENTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/extractor.h"
#include "core/inventory_query.h"

// The global inventory — the paper's end product: a keyed store of
// per-cell statistical summaries for all grouping sets, queryable by
// location (and segment, and port pair), whose byte form is the
// checksummed POLSNAP1 image it is served from.
//
// This is the *build side*: a mutable map that InventoryBuilder folds
// chunk results into and MergeFrom folds daily batches into. It supplies
// the InventoryQuery primitives straight off the map (Find is a hash
// probe; RouteCells, SegmentsAt and the visits are scans) and keeps no
// secondary index. Seal() encodes the current contents, route and
// segment indexes included, into the POLSNAP1 image an immutable
// InventorySnapshot serves from — the same class and layout a stored
// generation opens as (see inventory_snapshot.h, snapshot_codec.h and
// serving_inventory.h).

namespace pol::core {

class InventorySnapshot;

// Table 4 quantities for one built inventory.
struct CompressionReport {
  int resolution = 0;
  uint64_t records = 0;        // Records aggregated.
  uint64_t cells = 0;          // Distinct cells touched (GI 1).
  uint64_t summaries = 0;      // Summaries across all grouping sets.
  double compression = 0.0;    // 1 - cells / records.
  double utilization = 0.0;    // cells / NumCells(resolution).
  uint64_t serialized_bytes = 0;
};

class Inventory final : public InventoryQuery {
 public:
  Inventory(int resolution, SummaryMap summaries);

  int resolution() const override { return resolution_; }
  size_t size() const override { return summaries_.size(); }
  const SummaryMap& summaries() const { return summaries_; }

  const CellSummary* Find(const GroupKey& key) const override;

  // A full scan over every summary: the reference the snapshot's route
  // sections are property-tested against and the bench_query_speedup
  // baseline.
  std::vector<hex::CellIndex> RouteCells(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const override;

  std::vector<ais::MarketSegment> SegmentsAt(
      hex::CellIndex cell) const override;

  bool VisitGroupingSetWhile(GroupingSet set,
                             const CancellableVisitor& visitor) const override;

  // Distinct cells in grouping set 1 (the Table 4 "#Cells").
  uint64_t DistinctCells() const override;

  // Table 4 numbers for this inventory given the aggregated record count.
  CompressionReport Compression(uint64_t records) const;

  // Incremental updates: folds another inventory (e.g. the next day's
  // batch) into this one. Summaries merge exactly (every Table-3
  // statistic is mergeable), so building per-period inventories and
  // merging equals one build over the concatenated archive. Fails on
  // resolution mismatch. Not safe concurrently with queries — serve
  // reads from a sealed snapshot (ServingInventory) while merging.
  Status MergeFrom(Inventory&& other);

  // Encodes the current contents straight into a POLSNAP1 heap image
  // (sorted key sections, summary blobs, both secondary indexes, built
  // from the sorted keys in the same pass; see snapshot_codec.h) and
  // serves it through InventorySnapshot::FromImage, like a stored
  // generation. This is InventorySnapshot::MergeSeal's writer over the
  // empty image. No summary is copied; the build side keeps
  // working and the snapshot shares nothing with it. Records
  // serving.seal_seconds.
  std::shared_ptr<const InventorySnapshot> Seal() const;

  // The inventory's byte form is its canonical POLSNAP1 image: what
  // Seal() writes, except that the meta's seal time and ordinal are 0,
  // so equal inventories give equal bytes. Replaces *out with it.
  void SerializeTo(std::string* out) const;

  // Validates an image (container framing and CRCs, then the payload
  // checks a served snapshot runs) and decodes every summary into the
  // map, reading `input` in place. kDataLoss on any damage, trailing
  // bytes, or a key that appears twice.
  static Result<Inventory> DeserializeFrom(std::string_view input);

 private:
  // MergeSeal merges the summaries of a delta it consumes in place, and
  // the builder splices its folds straight into the map.
  friend class InventorySnapshot;
  friend class InventoryBuilder;

  int resolution_;
  SummaryMap summaries_;
};

}  // namespace pol::core

#endif  // POL_CORE_INVENTORY_H_
