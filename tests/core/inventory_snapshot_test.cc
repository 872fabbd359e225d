// The sealed serving-side snapshot: flat-array lookups, seal-time
// secondary indexes, and stats must all agree with the build-side
// Inventory they were sealed from.

#include "core/inventory_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/inventory.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {
namespace {

PipelineRecord SampleRecord(ais::Mmsi mmsi, uint64_t trip, sim::PortId origin,
                            sim::PortId destination,
                            ais::MarketSegment segment) {
  PipelineRecord r;
  r.mmsi = mmsi;
  r.trip_id = trip;
  r.origin = origin;
  r.destination = destination;
  r.segment = segment;
  r.sog_knots = 13;
  r.cog_deg = 45;
  r.heading_deg = 44;
  r.eto_s = 3600;
  r.ata_s = 7200;
  return r;
}

// Same shape as the inventory_test fixture: two cells, two segments,
// one container route across both cells.
Inventory SmallInventory() {
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  const hex::CellIndex cell_b = hex::LatLngToCell({1.3, 104.2}, 6);
  SummaryMap summaries;
  auto add = [&summaries](const GroupKey& key, const PipelineRecord& r,
                          int times) {
    auto [it, inserted] = summaries.try_emplace(key);
    (void)inserted;
    for (int i = 0; i < times; ++i) it->second.Add(r);
  };
  const auto rec_container =
      SampleRecord(215000001, 11, 3, 21, ais::MarketSegment::kContainer);
  const auto rec_tanker =
      SampleRecord(377000002, 12, 4, 22, ais::MarketSegment::kTanker);
  add(KeyCell(cell_a), rec_container, 5);
  add(KeyCell(cell_a), rec_tanker, 3);
  add(KeyCellType(cell_a, ais::MarketSegment::kContainer), rec_container, 5);
  add(KeyCellType(cell_a, ais::MarketSegment::kTanker), rec_tanker, 3);
  add(KeyCellRouteType(cell_a, 3, 21, ais::MarketSegment::kContainer),
      rec_container, 5);
  add(KeyCell(cell_b), rec_container, 2);
  add(KeyCellType(cell_b, ais::MarketSegment::kContainer), rec_container, 2);
  add(KeyCellRouteType(cell_b, 3, 21, ais::MarketSegment::kContainer),
      rec_container, 2);
  return Inventory(6, std::move(summaries));
}

std::string Bytes(const CellSummary& summary) {
  std::string out;
  summary.Serialize(&out);
  return out;
}

TEST(InventorySnapshotTest, LookupsMatchBuildSide) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  const hex::CellIndex cell_b = hex::LatLngToCell({1.3, 104.2}, 6);

  EXPECT_EQ(snap->resolution(), inv.resolution());
  EXPECT_EQ(snap->size(), inv.size());
  EXPECT_EQ(snap->DistinctCells(), inv.DistinctCells());

  for (const hex::CellIndex cell : {cell_a, cell_b}) {
    ASSERT_NE(snap->Cell(cell), nullptr);
    EXPECT_EQ(Bytes(*snap->Cell(cell)), Bytes(*inv.Cell(cell)));
  }
  ASSERT_NE(snap->CellType(cell_a, ais::MarketSegment::kTanker), nullptr);
  EXPECT_EQ(Bytes(*snap->CellType(cell_a, ais::MarketSegment::kTanker)),
            Bytes(*inv.CellType(cell_a, ais::MarketSegment::kTanker)));
  ASSERT_NE(
      snap->CellRouteType(cell_b, 3, 21, ais::MarketSegment::kContainer),
      nullptr);
  EXPECT_EQ(snap->Cell(hex::LatLngToCell({50, 0}, 6)), nullptr);
  EXPECT_EQ(snap->CellType(cell_b, ais::MarketSegment::kTanker), nullptr);
}

TEST(InventorySnapshotTest, RouteSectionsAnswerBothOrientations) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  const auto forward =
      snap->CellsForRoute(3, 21, ais::MarketSegment::kContainer);
  EXPECT_EQ(forward.size(), 2u);
  EXPECT_TRUE(std::is_sorted(forward.begin(), forward.end()));
  EXPECT_EQ(snap->CellsForRoute(21, 3, ais::MarketSegment::kContainer),
            forward);
  EXPECT_EQ(forward, inv.CellsForRoute(3, 21, ais::MarketSegment::kContainer));
  EXPECT_TRUE(
      snap->CellsForRoute(3, 21, ais::MarketSegment::kTanker).empty());
}

TEST(InventorySnapshotTest, SegmentIndexListsPresentSegments) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  const hex::CellIndex cell_b = hex::LatLngToCell({1.3, 104.2}, 6);

  const std::vector<ais::MarketSegment> at_a = snap->SegmentsAt(cell_a);
  ASSERT_EQ(at_a.size(), 2u);
  EXPECT_EQ(at_a[0], ais::MarketSegment::kContainer);
  EXPECT_EQ(at_a[1], ais::MarketSegment::kTanker);
  EXPECT_EQ(snap->SegmentsAt(cell_a), inv.SegmentsAt(cell_a));
  EXPECT_EQ(snap->SegmentsAt(cell_b),
            std::vector<ais::MarketSegment>{ais::MarketSegment::kContainer});
  EXPECT_TRUE(snap->SegmentsAt(hex::LatLngToCell({50, 0}, 6)).empty());
}

TEST(InventorySnapshotTest, VisitGroupingSetIsSortedAndComplete) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  size_t total = 0;
  for (int set = 0; set < kNumGroupingSets; ++set) {
    std::vector<GroupKey> keys;
    snap->VisitGroupingSet(static_cast<GroupingSet>(set),
                           [&keys](const GroupKey& key, const CellSummary&) {
                             keys.push_back(key);
                           });
    total += keys.size();
    for (size_t i = 1; i < keys.size(); ++i) {
      const bool ordered =
          keys[i - 1].cell < keys[i].cell ||
          (keys[i - 1].cell == keys[i].cell &&
           GroupKeyDimsPacked(keys[i - 1]) < GroupKeyDimsPacked(keys[i]));
      EXPECT_TRUE(ordered) << "set " << set << " position " << i;
    }
    for (const GroupKey& key : keys) {
      EXPECT_EQ(key.grouping_set, static_cast<uint8_t>(set));
    }
  }
  EXPECT_EQ(total, inv.size());
}

TEST(InventorySnapshotTest, StatsCountIndexSizes) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  const InventorySnapshotStats& stats = snap->stats();
  EXPECT_EQ(stats.summaries_per_set[0], 2u);  // (cell)
  EXPECT_EQ(stats.summaries_per_set[1], 3u);  // (cell, type)
  EXPECT_EQ(stats.summaries_per_set[2], 2u);  // (cell, o, d, type)
  EXPECT_EQ(stats.route_index_routes, 1u);
  EXPECT_EQ(stats.route_index_cells, 2u);
  EXPECT_EQ(stats.segment_index_cells, 2u);
  EXPECT_GE(stats.seal_seconds, 0.0);
}

TEST(InventorySnapshotTest, SharedQueryHelpersWork) {
  const Inventory inv = SmallInventory();
  const std::shared_ptr<const InventorySnapshot> snap = inv.Seal();
  const CellSummary* at = snap->AtPosition({1.3, 103.8});
  ASSERT_NE(at, nullptr);
  EXPECT_EQ(at->record_count(), 8u);
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  const sim::PortId top = snap->TopDestination(
      cell_a, ais::MarketSegment::kContainer, /*any_segment=*/false);
  EXPECT_EQ(top, 21u);
  EXPECT_EQ(snap->TopDestination(hex::LatLngToCell({50, 0}, 6),
                                 ais::MarketSegment::kContainer,
                                 /*any_segment=*/true),
            sim::kNoPort);
}

}  // namespace
}  // namespace pol::core
