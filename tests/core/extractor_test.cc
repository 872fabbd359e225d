#include "core/extractor.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/inventory_builder.h"
#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {
namespace {

PipelineRecord At(ais::Mmsi mmsi, UnixSeconds t, double lat, double lng,
                  uint64_t trip, ais::MarketSegment segment) {
  PipelineRecord r;
  r.mmsi = mmsi;
  r.timestamp = t;
  r.lat_deg = lat;
  r.lng_deg = lng;
  r.sog_knots = 14;
  r.cog_deg = 90;
  r.heading_deg = 90;
  r.trip_id = trip;
  r.origin = 1;
  r.destination = 2;
  r.segment = segment;
  return r;
}

// One Fold of projected records, sealed.
Inventory Extract(const flow::Dataset<PipelineRecord>& projected,
                  const ExtractorConfig& config) {
  InventoryBuilder builder(config);
  builder.Fold(projected);
  return std::move(builder).Finish();
}

TEST(ProjectTest, AssignsCells) {
  flow::ThreadPool pool(2);
  const auto records = flow::Dataset<PipelineRecord>::FromVector(
      {At(215000001, 0, 1.3, 103.8, 7, ais::MarketSegment::kContainer)}, 1,
      &pool);
  const auto projected = ProjectToGrid(records, 6);
  const auto collected = projected.Collect();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].cell, hex::LatLngToCell({1.3, 103.8}, 6));
  EXPECT_EQ(collected[0].next_cell, hex::kInvalidCell);
}

TEST(ProjectTest, TransitionsFollowInTripOrder) {
  flow::ThreadPool pool(2);
  // A straight eastward track crossing several res-6 cells.
  std::vector<PipelineRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(At(215000001, i * 600, 0.0, i * 0.05, 7,
                         ais::MarketSegment::kContainer));
  }
  const auto projected =
      ProjectToGrid(flow::Dataset<PipelineRecord>::FromVector(records, 1, &pool), 6);
  const auto collected = projected.Collect();
  int transitions = 0;
  for (size_t i = 0; i + 1 < collected.size(); ++i) {
    if (collected[i].next_cell != hex::kInvalidCell) {
      ++transitions;
      EXPECT_EQ(collected[i].next_cell, collected[i + 1].cell);
      EXPECT_NE(collected[i].next_cell, collected[i].cell);
    } else {
      EXPECT_EQ(collected[i].cell, collected[i + 1].cell);
    }
  }
  EXPECT_GT(transitions, 5);  // The track crosses many cells.
}

TEST(ProjectTest, NoTransitionAcrossTrips) {
  flow::ThreadPool pool(2);
  std::vector<PipelineRecord> records = {
      At(215000001, 0, 0.0, 0.0, 7, ais::MarketSegment::kContainer),
      At(215000001, 600, 0.0, 1.0, 8, ais::MarketSegment::kContainer),
  };
  const auto projected =
      ProjectToGrid(flow::Dataset<PipelineRecord>::FromVector(records, 1, &pool), 6);
  EXPECT_EQ(projected.Collect()[0].next_cell, hex::kInvalidCell);
}

TEST(ProjectTest, NoTransitionAcrossVessels) {
  flow::ThreadPool pool(2);
  std::vector<PipelineRecord> records = {
      At(215000001, 0, 0.0, 0.0, 7, ais::MarketSegment::kContainer),
      At(377000002, 600, 0.0, 1.0, 7, ais::MarketSegment::kContainer),
  };
  const auto projected =
      ProjectToGrid(flow::Dataset<PipelineRecord>::FromVector(records, 1, &pool), 6);
  EXPECT_EQ(projected.Collect()[0].next_cell, hex::kInvalidCell);
}

TEST(ExtractTest, ThreeGroupingSetsPerRecord) {
  flow::ThreadPool pool(2);
  const auto projected = ProjectToGrid(
      flow::Dataset<PipelineRecord>::FromVector(
          {At(215000001, 0, 1.3, 103.8, 7, ais::MarketSegment::kContainer)},
          1, &pool),
      6);
  const Inventory inventory = Extract(projected, {});
  const SummaryMap& summaries = inventory.summaries();
  EXPECT_EQ(summaries.size(), 3u);  // One key per grouping set.
  const hex::CellIndex cell = hex::LatLngToCell({1.3, 103.8}, 6);
  EXPECT_TRUE(summaries.count(KeyCell(cell)));
  EXPECT_TRUE(
      summaries.count(KeyCellType(cell, ais::MarketSegment::kContainer)));
  EXPECT_TRUE(summaries.count(
      KeyCellRouteType(cell, 1, 2, ais::MarketSegment::kContainer)));
}

TEST(ExtractTest, GroupingSetsCanBeDisabled) {
  flow::ThreadPool pool(2);
  const auto projected = ProjectToGrid(
      flow::Dataset<PipelineRecord>::FromVector(
          {At(215000001, 0, 1.3, 103.8, 7, ais::MarketSegment::kContainer)},
          1, &pool),
      6);
  ExtractorConfig config;
  config.gi_cell_type = false;
  config.gi_cell_route_type = false;
  EXPECT_EQ(Extract(projected, config).size(), 1u);
}

TEST(ExtractTest, SegmentsSplitCorrectly) {
  flow::ThreadPool pool(2);
  std::vector<PipelineRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(At(215000001, i, 1.3, 103.8, 7,
                         ais::MarketSegment::kContainer));
  }
  for (int i = 0; i < 4; ++i) {
    records.push_back(
        At(377000002, i, 1.3, 103.8, 8, ais::MarketSegment::kTanker));
  }
  const auto projected = ProjectToGrid(
      flow::Dataset<PipelineRecord>::FromVector(records, 2, &pool), 6);
  const Inventory inventory = Extract(projected, {});
  const SummaryMap& summaries = inventory.summaries();
  const hex::CellIndex cell = hex::LatLngToCell({1.3, 103.8}, 6);
  EXPECT_EQ(summaries.at(KeyCell(cell)).record_count(), 14u);
  EXPECT_EQ(
      summaries.at(KeyCellType(cell, ais::MarketSegment::kContainer))
          .record_count(),
      10u);
  EXPECT_EQ(summaries.at(KeyCellType(cell, ais::MarketSegment::kTanker))
                .record_count(),
            4u);
}

TEST(ExtractTest, ResultIndependentOfPartitioning) {
  Rng rng(13);
  std::vector<PipelineRecord> records;
  for (int i = 0; i < 3000; ++i) {
    records.push_back(At(
        static_cast<ais::Mmsi>(215000001 + rng.NextBelow(20)),
        static_cast<UnixSeconds>(i), rng.Uniform(0, 2), rng.Uniform(100, 104),
        1 + rng.NextBelow(40),
        static_cast<ais::MarketSegment>(rng.NextBelow(3))));
  }
  std::vector<size_t> sizes;
  std::vector<uint64_t> checksums;
  for (const int partitions : {1, 5, 16}) {
    flow::ThreadPool pool(3);
    const auto projected = ProjectToGrid(
        flow::Dataset<PipelineRecord>::FromVector(records, partitions, &pool),
        6);
    const Inventory inventory = Extract(projected, {});
  const SummaryMap& summaries = inventory.summaries();
    sizes.push_back(summaries.size());
    uint64_t checksum = 0;
    for (const auto& [key, summary] : summaries) {
      checksum ^= GroupKeyHash{}(key) * (summary.record_count() + 1);
    }
    checksums.push_back(checksum);
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[1], sizes[2]);
  EXPECT_EQ(checksums[0], checksums[1]);
  EXPECT_EQ(checksums[1], checksums[2]);
}

}  // namespace
}  // namespace pol::core
