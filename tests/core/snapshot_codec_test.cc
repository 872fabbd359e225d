// Snapshot codec: a sealed InventorySnapshot round-trips through the
// POLSNAP1 store with its meta intact, and the newest-first open falls
// back past damaged generations counting one store open. The
// scan-vs-snapshot answer property lives in
// inventory_query_property_test.

#include "core/snapshot_codec.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/inventory.h"
#include "core/inventory_snapshot.h"
#include "hexgrid/hexgrid.h"
#include "obs/metrics.h"
#include "store/snapshot_format.h"
#include "store/snapshot_store.h"
#include "store/store_metric_names.h"

namespace pol::core {
namespace {

struct RouteKey {
  sim::PortId origin;
  sim::PortId destination;
  ais::MarketSegment segment;
};

struct Sample {
  Inventory inventory;
  std::vector<hex::CellIndex> cells;
  std::vector<RouteKey> routes;
};

// Same shape as inventory_query_property_test: small key spaces so
// collisions, multi-cell corridors, and reversed pairs all occur.
Sample RandomInventory(uint64_t seed) {
  Rng rng(seed);
  SummaryMap summaries;
  std::vector<hex::CellIndex> cells;
  std::vector<RouteKey> routes;
  const int groups = 30 + static_cast<int>(rng.NextBelow(50));
  for (int i = 0; i < groups; ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(
        {rng.Uniform(-55, 55), rng.Uniform(-180, 180)}, 6);
    const auto origin = static_cast<sim::PortId>(1 + rng.NextBelow(5));
    const auto destination = static_cast<sim::PortId>(1 + rng.NextBelow(5));
    const auto segment =
        static_cast<ais::MarketSegment>(rng.NextBelow(ais::kNumMarketSegments));
    PipelineRecord r;
    r.mmsi = static_cast<ais::Mmsi>(200000000 + rng.NextBelow(20));
    r.trip_id = 1 + rng.NextBelow(40);
    r.origin = origin;
    r.destination = destination;
    r.segment = segment;
    r.sog_knots = rng.Uniform(2, 22);
    r.cog_deg = rng.Uniform(0, 360);
    r.heading_deg = r.cog_deg;
    r.eto_s = rng.Uniform(100, 100000);
    r.ata_s = rng.Uniform(100, 100000);
    cells.push_back(cell);
    routes.push_back({origin, destination, segment});
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, segment),
          KeyCellRouteType(cell, origin, destination, segment)}) {
      auto [it, inserted] = summaries.try_emplace(key);
      (void)inserted;
      const int adds = 1 + static_cast<int>(rng.NextBelow(4));
      for (int k = 0; k < adds; ++k) it->second.Add(r);
    }
  }
  return Sample{Inventory(6, std::move(summaries)), std::move(cells),
                std::move(routes)};
}

class SnapshotCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_codec_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
  }

  void TearDown() override { std::filesystem::remove_all(directory_); }

  store::SnapshotStore Store() const {
    store::SnapshotStoreOptions options;
    options.directory = directory_;
    return store::SnapshotStore(options);
  }

  std::string directory_;
};

TEST_F(SnapshotCodecTest, WriteToPublishesAndRestoresMeta) {
  const Sample sample = RandomInventory(7);
  const std::shared_ptr<const InventorySnapshot> sealed =
      sample.inventory.Seal();
  store::SnapshotStore store = Store();
  uint64_t generation = 0;
  ASSERT_TRUE(sealed->WriteTo(&store, &generation).ok());
  EXPECT_EQ(generation, 1u);

  uint64_t served = 0;
  const Result<std::shared_ptr<const InventorySnapshot>> mapped =
      OpenLatestSnapshot(store, &served);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ((*mapped)->resolution(), sealed->resolution());
  EXPECT_EQ((*mapped)->size(), sealed->size());

  const InventorySnapshotStats& a = sealed->stats();
  const InventorySnapshotStats& b = (*mapped)->stats();
  EXPECT_EQ(a.summaries_per_set, b.summaries_per_set);
  EXPECT_EQ(a.route_index_routes, b.route_index_routes);
  EXPECT_EQ(a.route_index_cells, b.route_index_cells);
  EXPECT_EQ(a.segment_index_cells, b.segment_index_cells);
  EXPECT_EQ(a.seal_sequence, b.seal_sequence);
  EXPECT_DOUBLE_EQ(a.seal_seconds, b.seal_seconds);
}

TEST_F(SnapshotCodecTest, EncodeIsDeterministic) {
  const Sample sample = RandomInventory(11);
  const std::shared_ptr<const InventorySnapshot> sealed =
      sample.inventory.Seal();
  std::string first;
  std::string second;
  sealed->EncodeTo(&first);
  sealed->EncodeTo(&second);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST_F(SnapshotCodecTest, DecodeSnapshotMetaMatchesStats) {
  const Sample sample = RandomInventory(13);
  const std::shared_ptr<const InventorySnapshot> sealed =
      sample.inventory.Seal();
  store::SnapshotStore store = Store();
  ASSERT_TRUE(sealed->WriteTo(&store).ok());
  const Result<store::SnapshotStore::Opened> opened = store.OpenLatest();
  ASSERT_TRUE(opened.ok());
  const Result<SnapshotMeta> meta = DecodeSnapshotMeta(opened->view);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->resolution, sealed->resolution());
  EXPECT_EQ(meta->total, sealed->size());
  EXPECT_EQ(meta->stats.summaries_per_set, sealed->stats().summaries_per_set);
  EXPECT_EQ(meta->stats.seal_sequence, sealed->stats().seal_sequence);
}

TEST_F(SnapshotCodecTest, VisitWhileStopsEarlyOnMappedSnapshot) {
  const Sample sample = RandomInventory(17);
  store::SnapshotStore store = Store();
  ASSERT_TRUE(sample.inventory.Seal()->WriteTo(&store).ok());
  const Result<std::shared_ptr<const InventorySnapshot>> opened =
      OpenLatestSnapshot(store);
  ASSERT_TRUE(opened.ok());
  int visits = 0;
  const bool completed = (*opened)->VisitGroupingSetWhile(
      GroupingSet::kCell, [&visits](const GroupKey&, const CellSummary&) {
        return ++visits < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visits, 3);
}

// One OpenLatestSnapshot over a damaged newest generation and a good
// older one is one store open: the fallback walk counts the skip, the
// served open and its latency exactly once, whether the damage is in
// the container (a flipped byte fails its CRC) or only in the payload
// (a container-valid image the codec rejects).
TEST_F(SnapshotCodecTest, DamagedNewestGenerationCountsOneOpen) {
  const Sample sample = RandomInventory(19);
  const std::shared_ptr<const InventorySnapshot> sealed =
      sample.inventory.Seal();
  for (const bool payload_damage : {false, true}) {
    SCOPED_TRACE(payload_damage ? "payload damage" : "container damage");
    std::filesystem::remove_all(directory_);
    store::SnapshotStore store = Store();
    ASSERT_TRUE(sealed->WriteTo(&store).ok());
    if (payload_damage) {
      store::SnapshotFileWriter writer(1);
      writer.BeginSection(kSnapSectionMeta)->append("not a meta section");
      ASSERT_TRUE(store.Publish(writer.Finish()).ok());
    } else {
      ASSERT_TRUE(sealed->WriteTo(&store).ok());
      std::fstream file(store.GenerationPath(2),
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(100);
      file.put('\x5a');
    }

    obs::Registry& registry = obs::Registry::Global();
    const uint64_t opens = registry.counter(store::kMetricStoreOpens)->value();
    const uint64_t failures =
        registry.counter(store::kMetricStoreOpenFailures)->value();
    const uint64_t fallbacks =
        registry.counter(store::kMetricStoreFallbacks)->value();
    const uint64_t timed =
        registry.histogram(store::kMetricStoreOpenSeconds)->count();
    uint64_t generation = 0;
    const Result<std::shared_ptr<const InventorySnapshot>> opened =
        OpenLatestSnapshot(store, &generation);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(generation, 1u);
    EXPECT_EQ((*opened)->size(), sealed->size());
    EXPECT_EQ(registry.counter(store::kMetricStoreOpens)->value(),
              opens + 1);
    EXPECT_EQ(registry.counter(store::kMetricStoreOpenFailures)->value(),
              failures);
    EXPECT_EQ(registry.counter(store::kMetricStoreFallbacks)->value(),
              fallbacks + 1);
    EXPECT_EQ(registry.histogram(store::kMetricStoreOpenSeconds)->count(),
              timed + 1);
  }
}

TEST_F(SnapshotCodecTest, EmptyInventoryRoundTrips) {
  const Inventory empty(6, SummaryMap{});
  const std::shared_ptr<const InventorySnapshot> sealed = empty.Seal();
  store::SnapshotStore store = Store();
  ASSERT_TRUE(sealed->WriteTo(&store).ok());
  const Result<std::shared_ptr<const InventorySnapshot>> opened =
      OpenLatestSnapshot(store);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->size(), 0u);
  EXPECT_EQ((*opened)->DistinctCells(), 0u);
  EXPECT_EQ((*opened)->Cell(hex::LatLngToCell({10, 10}, 6)), nullptr);
  EXPECT_TRUE(
      (*opened)->CellsForRoute(1, 2, ais::MarketSegment::kContainer).empty());
}

}  // namespace
}  // namespace pol::core
