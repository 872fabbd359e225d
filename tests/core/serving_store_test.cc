// ServingInventory + SnapshotStore wiring: publish-on-refresh through
// the durable store, zero-copy cold start via OpenLatest, and the chaos
// path — a publish killed mid-flight, a restart, and OpenLatest
// recovering the byte-identical previous generation while
// store.fallbacks counts the skip. The fail-point scenarios need the
// faults preset (POL_FAILPOINTS) and skip elsewhere.

#include "core/serving_inventory.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "core/inventory.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "obs/metrics.h"
#include "store/snapshot_store.h"
#include "store/store_metric_names.h"

namespace pol::core {
namespace {

#if defined(POL_FAILPOINTS)
constexpr bool kFailPointsEnabled = true;
#else
constexpr bool kFailPointsEnabled = false;
#endif

constexpr sim::PortId kOrigin = 3;
constexpr sim::PortId kDestination = 21;
constexpr auto kSegment = ais::MarketSegment::kContainer;

// Every generation extends the one corridor with disjoint cells, so
// corridor size witnesses exactly which snapshots were folded in.
Inventory Batch(int generation, int cells) {
  SummaryMap summaries;
  for (int i = 0; i < cells; ++i) {
    const hex::CellIndex cell =
        hex::LatLngToCell({1.0 + 0.2 * generation, 100.0 + 0.4 * i}, 6);
    PipelineRecord r;
    r.mmsi = 215000001;
    r.trip_id = static_cast<uint64_t>(generation * 1000 + i);
    r.origin = kOrigin;
    r.destination = kDestination;
    r.segment = kSegment;
    r.sog_knots = 13;
    r.cog_deg = 90;
    r.heading_deg = 90;
    r.eto_s = 3600;
    r.ata_s = 7200;
    for (const GroupKey& key :
         {KeyCell(cell), KeyCellType(cell, kSegment),
          KeyCellRouteType(cell, kOrigin, kDestination, kSegment)}) {
      summaries.try_emplace(key).first->second.Add(r);
    }
  }
  return Inventory(6, std::move(summaries));
}

size_t Corridor(const InventoryQuery& q) {
  return q.CellsForRoute(kOrigin, kDestination, kSegment).size();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

uint64_t Fallbacks() {
  return obs::Registry::Global()
      .counter(store::kMetricStoreFallbacks)
      ->value();
}

class ServingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    directory_ = (std::filesystem::path(::testing::TempDir()) /
                  ("pol_serve_store_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
    std::filesystem::remove_all(directory_);
  }

  void TearDown() override {
    FailPointRegistry::Global().DisarmAll();
    std::filesystem::remove_all(directory_);
  }

  store::SnapshotStore Store() const {
    store::SnapshotStoreOptions options;
    options.directory = directory_;
    return store::SnapshotStore(options);
  }

  std::string directory_;
};

TEST_F(ServingStoreTest, RefreshPublishesToAttachedStore) {
  store::SnapshotStore store = Store();
  ServingInventory serving(Batch(0, 4));
  serving.AttachDurableStore(&store);
  EXPECT_TRUE(store.ListGenerations().empty());  // Attach alone: no I/O.

  ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));
  ASSERT_TRUE(serving.Refresh(Batch(2, 4)).ok());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1, 2}));

  // The newest generation serves exactly what the refresh published.
  const Result<std::shared_ptr<const InventorySnapshot>> mapped =
      OpenLatestSnapshot(store);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->size(), serving.size());
  EXPECT_EQ(Corridor(**mapped), Corridor(*serving.Acquire()));
  // 3 batches x 4 disjoint cells.
  EXPECT_EQ(Corridor(*serving.Acquire()), 12u);
}

TEST_F(ServingStoreTest, ColdStartServesWithoutSealing) {
  {
    store::SnapshotStore store = Store();
    ServingInventory serving(Batch(0, 4));
    serving.AttachDurableStore(&store);
    ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
  }
  // "Restart": a fresh store handle over the same directory.
  store::SnapshotStore restarted = Store();
  uint64_t generation = 0;
  const Result<std::unique_ptr<ServingInventory>> serving =
      ServingInventory::OpenLatest(restarted, &generation);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(Corridor(*(*serving)->Acquire()), 8u);
  EXPECT_EQ((*serving)->DistinctCells(), 8u);
  // The cold-started process keeps refreshing and publishing.
  (*serving)->AttachDurableStore(&restarted);
  ASSERT_TRUE((*serving)->Refresh(Batch(2, 4)).ok());
  EXPECT_EQ(restarted.ListGenerations(), (std::vector<uint64_t>{1, 2}));
  // The refresh merged the delta into the served image: full history.
  EXPECT_EQ(Corridor(*(*serving)->Acquire()), 12u);
}

TEST_F(ServingStoreTest, ColdStartWithRestoredBaseRefreshesFully) {
  {
    store::SnapshotStore store = Store();
    ServingInventory serving(Batch(0, 4));
    serving.AttachDurableStore(&store);
    ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
  }
  store::SnapshotStore restarted = Store();
  // Restore a build side equivalent to what was folded in, then serve
  // the mapped snapshot over it.
  Inventory base = Batch(0, 4);
  ASSERT_TRUE(base.MergeFrom(Batch(1, 4)).ok());
  const Result<std::unique_ptr<ServingInventory>> serving =
      ServingInventory::OpenLatest(restarted, std::move(base));
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_EQ(Corridor(*(*serving)->Acquire()), 8u);
  (*serving)->AttachDurableStore(&restarted);
  ASSERT_TRUE((*serving)->Refresh(Batch(2, 4)).ok());
  // Full history, not just deltas.
  EXPECT_EQ(Corridor(*(*serving)->Acquire()), 12u);
}

TEST_F(ServingStoreTest, ColdStartResolutionMismatchFails) {
  {
    store::SnapshotStore store = Store();
    ServingInventory serving(Batch(0, 2));
    serving.AttachDurableStore(&store);
    ASSERT_TRUE(serving.Refresh(Batch(1, 2)).ok());
  }
  store::SnapshotStore restarted = Store();
  const Result<std::unique_ptr<ServingInventory>> serving =
      ServingInventory::OpenLatest(restarted, Inventory(7, SummaryMap{}));
  EXPECT_EQ(serving.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServingStoreTest, EmptyStoreColdStartIsNotFound) {
  const store::SnapshotStore store = Store();
  EXPECT_EQ(ServingInventory::OpenLatest(store).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServingStoreTest, PublishFailureKeepsReadersOnOldSnapshot) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  store::SnapshotStore store = Store();
  ServingInventory serving(Batch(0, 4));
  serving.AttachDurableStore(&store);
  ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
  const uint64_t swaps_before = serving.swap_count();

  FailPointSpec spec;
  spec.code = StatusCode::kIoError;
  FailPointRegistry::Global().Arm(store::kFailPointStoreRename, spec);
  const Status refresh = serving.Refresh(Batch(2, 4));
  FailPointRegistry::Global().Disarm(store::kFailPointStoreRename);
  EXPECT_FALSE(refresh.ok());
  // Durability before visibility: no swap happened, readers still see
  // the last durable snapshot, and the store gained no generation.
  EXPECT_EQ(serving.swap_count(), swaps_before);
  EXPECT_EQ(Corridor(*serving.Acquire()), 8u);
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1}));

  // The retry publishes the merged delta plus the new one.
  ASSERT_TRUE(serving.Refresh(Batch(3, 4)).ok());
  EXPECT_EQ(Corridor(*serving.Acquire()), 16u);
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(ServingStoreTest, KillDuringPublishRecoversPreviousGeneration) {
  if (!kFailPointsEnabled) {
    GTEST_SKIP() << "fail points compiled out (build with POL_FAILPOINTS)";
  }
  std::string generation_one_bytes;
  {
    store::SnapshotStore store = Store();
    ServingInventory serving(Batch(0, 4));
    serving.AttachDurableStore(&store);
    ASSERT_TRUE(serving.Refresh(Batch(1, 4)).ok());
    generation_one_bytes = FileBytes(store.GenerationPath(1));
    ASSERT_FALSE(generation_one_bytes.empty());

    // The process dies mid-publish: the rename never lands, leaving a
    // torn .tmp next to the good generation.
    FailPointSpec spec;
    spec.code = StatusCode::kIoError;
    FailPointRegistry::Global().Arm(store::kFailPointStoreRename, spec);
    EXPECT_FALSE(serving.Refresh(Batch(2, 4)).ok());
    FailPointRegistry::Global().Disarm(store::kFailPointStoreRename);
    EXPECT_TRUE(
        std::filesystem::exists(store.GenerationPath(2) + ".tmp"));
    // Crashes can also surface a renamed-but-never-synced file as
    // garbage after restart; plant that harder case too.
    std::ofstream torn(store.GenerationPath(2), std::ios::binary);
    torn << "torn write from a dying process";
  }

  // Restart: cold start must fall back past the torn generation 2 and
  // serve generation 1, byte-identical to what was published.
  store::SnapshotStore restarted = Store();
  const uint64_t fallbacks_before = Fallbacks();
  uint64_t generation = 0;
  const Result<std::unique_ptr<ServingInventory>> serving =
      ServingInventory::OpenLatest(restarted, &generation);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(Corridor(*(*serving)->Acquire()), 8u);
  EXPECT_EQ(Fallbacks(), fallbacks_before + 1);
  std::string served_bytes;
  (*serving)->Acquire()->EncodeTo(&served_bytes);
  EXPECT_EQ(served_bytes, generation_one_bytes);

  // Recovery: the next publish supersedes the torn file and sweeps the
  // stray temp; a further restart serves the new generation cleanly.
  (*serving)->AttachDurableStore(&restarted);
  ASSERT_TRUE((*serving)->Refresh(Batch(3, 4)).ok());
  EXPECT_EQ(restarted.ListGenerations(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(
      std::filesystem::exists(restarted.GenerationPath(2) + ".tmp"));
  uint64_t recovered = 0;
  const Result<std::shared_ptr<const InventorySnapshot>> reopened =
      OpenLatestSnapshot(restarted, &recovered);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovered, 3u);
  EXPECT_EQ(Corridor(**reopened), 12u);  // Generation 1 + batch 3.
}

}  // namespace
}  // namespace pol::core
