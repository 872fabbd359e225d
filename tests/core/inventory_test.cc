#include "core/inventory.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/varint.h"
#include "hexgrid/hexgrid.h"

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
    auto [it, inserted] = summaries.try_emplace(key, SummaryParams());
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
  // The scan reference path implements the same contract.
  EXPECT_EQ(inv.CellsForRoute(21, 3, ais::MarketSegment::kContainer),
            forward);
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

TEST(InventoryTest, CorruptionIsDetected) {
  const Inventory inv = SmallInventory();
  std::string bytes;
  inv.SerializeTo(&bytes);

  // Bit flip in the body.
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] =
      static_cast<char>(corrupted[bytes.size() / 2] ^ 0x10);
  EXPECT_EQ(Inventory::DeserializeFrom(corrupted).status().code(),
            StatusCode::kCorruption);

  // Truncation.
  EXPECT_FALSE(
      Inventory::DeserializeFrom(bytes.substr(0, bytes.size() - 10)).ok());

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Inventory::DeserializeFrom(bad_magic).ok());
}

TEST(InventoryTest, RepeatedKeyInCrcValidBodyIsCorruption) {
  // A hand-framed POLINV01 file whose body carries the same key twice
  // with different summaries. The CRC is right, so only the record
  // decoder can refuse it; keeping either summary would be a silently
  // different answer.
  const hex::CellIndex cell = hex::LatLngToCell({1.3, 103.8}, 6);
  const GroupKey key = KeyCell(cell);
  std::string body;
  PutVarint64(&body, 6);  // Resolution.
  PutVarint64(&body, 2);  // Record count.
  for (int records : {1, 2}) {
    CellSummary summary;
    for (int i = 0; i < records; ++i) {
      summary.Add(SampleRecord(215000001, 1, 10, 22,
                               ais::MarketSegment::kTanker));
    }
    std::string summary_bytes;
    summary.Serialize(&summary_bytes);
    PutVarint64(&body, key.cell);
    PutVarint64(&body, GroupKeyDimsPacked(key));
    PutLengthPrefixed(&body, summary_bytes);
  }
  std::string file = "POLINV01";
  PutVarint64(&file, body.size());
  file += body;
  const uint32_t crc = Crc32(body);
  for (int shift = 0; shift < 32; shift += 8) {
    file.push_back(static_cast<char>((crc >> shift) & 0xff));
  }
  const auto restored = Inventory::DeserializeFrom(file);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
      << restored.status().ToString();
}

TEST(InventoryTest, FileRoundTrip) {
  const Inventory inv = SmallInventory();
  const std::string path = "/tmp/pol_inventory_test.polinv";
  ASSERT_TRUE(inv.SaveToFile(path).ok());
  const auto loaded = Inventory::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), inv.size());
  std::remove(path.c_str());
  EXPECT_FALSE(Inventory::LoadFromFile("/tmp/does_not_exist.polinv").ok());
}

}  // namespace
}  // namespace pol::core
