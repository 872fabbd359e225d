#include "core/inventory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "core/inventory_snapshot.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "store/snapshot_format.h"

namespace pol::core {
namespace {

PipelineRecord SampleRecord(ais::Mmsi mmsi, uint64_t trip,
                            sim::PortId origin, sim::PortId destination,
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

// Builds a small inventory by hand: two cells, two segments, one route.
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
  const auto rec_container = SampleRecord(
      215000001, 11, 3, 21, ais::MarketSegment::kContainer);
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

TEST(InventoryTest, PointLookups) {
  const Inventory inv = SmallInventory();
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);

  const CellSummary* all = inv.Cell(cell_a);
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->record_count(), 8u);

  const CellSummary* containers =
      inv.CellType(cell_a, ais::MarketSegment::kContainer);
  ASSERT_NE(containers, nullptr);
  EXPECT_EQ(containers->record_count(), 5u);

  const CellSummary* route = inv.CellRouteType(
      cell_a, 3, 21, ais::MarketSegment::kContainer);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->record_count(), 5u);

  EXPECT_EQ(inv.CellType(cell_a, ais::MarketSegment::kPassenger), nullptr);
  EXPECT_EQ(inv.Cell(hex::LatLngToCell({50, 0}, 6)), nullptr);
}

TEST(InventoryTest, AtPositionUsesTheRightCell) {
  const Inventory inv = SmallInventory();
  const CellSummary* summary = inv.AtPosition({1.3, 103.8});
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->record_count(), 8u);
  EXPECT_EQ(inv.AtPosition({50.0, 0.0}), nullptr);
}

TEST(InventoryTest, TopDestination) {
  const Inventory inv = SmallInventory();
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  // All traffic: container route to 21 dominates (5 vs 3 records).
  EXPECT_EQ(inv.TopDestination(cell_a, ais::MarketSegment::kOther, true),
            21u);
  // Tanker-only view: destination 22.
  EXPECT_EQ(
      inv.TopDestination(cell_a, ais::MarketSegment::kTanker, false), 22u);
  // Unknown cell.
  EXPECT_EQ(inv.TopDestination(hex::LatLngToCell({50, 0}, 6),
                               ais::MarketSegment::kOther, true),
            sim::kNoPort);
}

TEST(InventoryTest, CellsForRoute) {
  const Inventory inv = SmallInventory();
  const auto cells =
      inv.CellsForRoute(3, 21, ais::MarketSegment::kContainer);
  EXPECT_EQ(cells.size(), 2u);
  EXPECT_TRUE(inv.CellsForRoute(9, 9, ais::MarketSegment::kTanker).empty());
}

// Regression: a route keyed (3, 21) used to silently match nothing when
// queried as (21, 3). The reversed pair now answers with the same
// corridor, and the exact orientation still wins when both exist.
TEST(InventoryTest, CellsForRouteAnswersReversedPortPairs) {
  const Inventory inv = SmallInventory();
  const auto forward =
      inv.CellsForRoute(3, 21, ais::MarketSegment::kContainer);
  const auto reversed =
      inv.CellsForRoute(21, 3, ais::MarketSegment::kContainer);
  ASSERT_EQ(forward.size(), 2u);
  EXPECT_EQ(reversed, forward);
  // The fallback is per (pair, segment): no tanker traffic on 3 -> 21
  // in either orientation.
  EXPECT_TRUE(inv.CellsForRoute(21, 3, ais::MarketSegment::kTanker).empty());
}

TEST(InventoryTest, CompressionReportMath) {
  const Inventory inv = SmallInventory();
  EXPECT_EQ(inv.DistinctCells(), 2u);
  const CompressionReport report = inv.Compression(1000);
  EXPECT_EQ(report.records, 1000u);
  EXPECT_EQ(report.cells, 2u);
  EXPECT_DOUBLE_EQ(report.compression, 1.0 - 2.0 / 1000.0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LT(report.utilization, 1e-5);  // 2 cells of 14.1 M.
  EXPECT_GT(report.serialized_bytes, 0u);
}

TEST(InventoryTest, SerializeRoundTrip) {
  const Inventory inv = SmallInventory();
  std::string bytes;
  inv.SerializeTo(&bytes);
  const auto restored = Inventory::DeserializeFrom(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->resolution(), 6);
  EXPECT_EQ(restored->size(), inv.size());
  const hex::CellIndex cell_a = hex::LatLngToCell({1.3, 103.8}, 6);
  ASSERT_NE(restored->Cell(cell_a), nullptr);
  EXPECT_EQ(restored->Cell(cell_a)->record_count(), 8u);
  EXPECT_EQ(
      restored->TopDestination(cell_a, ais::MarketSegment::kTanker, false),
      22u);
}

TEST(InventoryTest, SerializationIsCanonical) {
  // The same logical inventory must serialize to identical bytes
  // regardless of hash-map iteration order; round-tripping is the
  // easiest way to scramble the order.
  const Inventory inv = SmallInventory();
  std::string first;
  inv.SerializeTo(&first);
  const auto restored = Inventory::DeserializeFrom(first);
  ASSERT_TRUE(restored.ok());
  std::string second;
  restored->SerializeTo(&second);
  EXPECT_EQ(first, second);
}

TEST(InventoryTest, EmptyInventoryRoundTrips) {
  // Most daily deltas are empty: their image must still round-trip.
  std::string bytes;
  Inventory(7, SummaryMap{}).SerializeTo(&bytes);
  const auto restored = Inventory::DeserializeFrom(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->resolution(), 7);
  EXPECT_EQ(restored->size(), 0u);
  std::string again;
  restored->SerializeTo(&again);
  EXPECT_EQ(again, bytes);
}

TEST(InventoryTest, SerializedBytesAreTheSealedImageUnstamped) {
  // SerializeTo writes what Seal writes, except that the meta's seal
  // time and ordinal are 0.
  const Inventory inv = SmallInventory();
  std::string bytes;
  inv.SerializeTo(&bytes);
  std::string sealed;
  inv.Seal()->EncodeTo(&sealed);
  const auto view = store::SnapshotFileView::Validate(bytes);
  const auto sealed_view = store::SnapshotFileView::Validate(sealed);
  ASSERT_TRUE(view.ok() && sealed_view.ok());
  ASSERT_EQ(view->Sections().size(), sealed_view->Sections().size());
  for (size_t i = 0; i < view->Sections().size(); ++i) {
    const uint32_t id = view->Sections()[i].id;
    EXPECT_EQ(id, sealed_view->Sections()[i].id);
    if (id == kSnapSectionMeta) continue;
    EXPECT_EQ(*view->Section(id), *sealed_view->Section(id)) << id;
  }
  const auto meta = DecodeSnapshotMeta(*view);
  const auto sealed_meta = DecodeSnapshotMeta(*sealed_view);
  ASSERT_TRUE(meta.ok() && sealed_meta.ok());
  EXPECT_EQ(meta->stats.seal_seconds, 0.0);
  EXPECT_EQ(meta->stats.seal_sequence, 0u);
  EXPECT_GT(sealed_meta->stats.seal_sequence, 0u);
  EXPECT_EQ(meta->total, sealed_meta->total);
  EXPECT_EQ(meta->stats.summaries_per_set,
            sealed_meta->stats.summaries_per_set);
}

TEST(InventoryTest, DamagedImageIsDataLoss) {
  const Inventory inv = SmallInventory();
  std::string bytes;
  inv.SerializeTo(&bytes);

  // Bit flip in a payload section.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] =
      static_cast<char>(corrupted[bytes.size() / 2] ^ 0x10);
  EXPECT_EQ(Inventory::DeserializeFrom(corrupted).status().code(),
            StatusCode::kDataLoss);

  // Truncation.
  EXPECT_EQ(Inventory::DeserializeFrom(bytes.substr(0, bytes.size() - 10))
                .status()
                .code(),
            StatusCode::kDataLoss);

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(Inventory::DeserializeFrom(bad_magic).status().code(),
            StatusCode::kDataLoss);

  // Trailing bytes: the image records its own size.
  EXPECT_EQ(Inventory::DeserializeFrom(bytes + "x").status().code(),
            StatusCode::kDataLoss);
}

// Re-frames `image` with `patch` applied to each section's payload and
// every CRC recomputed: a CRC-valid image carrying exactly that damage.
std::string Reframe(
    const std::string& image,
    const std::function<void(uint32_t id, std::string* payload)>& patch) {
  const auto view = store::SnapshotFileView::Validate(image);
  EXPECT_TRUE(view.ok());
  store::SnapshotFileWriter writer(view->Sections().size());
  for (const store::SnapshotFileView::SectionInfo& info : view->Sections()) {
    std::string payload(*view->Section(info.id));
    patch(info.id, &payload);
    writer.BeginSection(info.id)->append(payload);
  }
  return writer.Finish();
}

TEST(InventoryTest, RepeatedKeyInCrcValidImageIsDataLoss) {
  // Two (cell, type) keys of one cell, the second's packed dims
  // rewritten to the first's plus a bit outside the packing: the keys
  // stay in strict order and every CRC is right, but both decode to one
  // key with different summaries. Keeping either would be a silently
  // different answer.
  std::string bytes;
  SmallInventory().SerializeTo(&bytes);
  ASSERT_EQ(Reframe(bytes, [](uint32_t, std::string*) {}), bytes);
  bool patched = false;
  const std::string repeated =
      Reframe(bytes, [&patched](uint32_t id, std::string* keys) {
        if (id != kSnapSectionKeysBase +
                      static_cast<uint32_t>(GroupingSet::kCellType)) {
          return;
        }
        for (size_t at = 16; at + 16 <= keys->size() && !patched; at += 16) {
          if (store::LoadU64(keys->data() + at) !=
              store::LoadU64(keys->data() + at - 16)) {
            continue;
          }
          store::StoreU64(keys->data() + at + 8,
                          store::LoadU64(keys->data() + at - 8) |
                              (uint64_t{1} << 48));
          patched = true;
        }
      });
  ASSERT_TRUE(patched);
  const auto restored = Inventory::DeserializeFrom(repeated);
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
      << restored.status().ToString();
  EXPECT_NE(restored.status().message().find("repeated summary key"),
            std::string::npos)
      << restored.status().ToString();
}

}  // namespace
}  // namespace pol::core
