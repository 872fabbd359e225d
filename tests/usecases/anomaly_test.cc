#include "usecases/anomaly.h"

#include <gtest/gtest.h>

#include "core/inventory.h"
#include "hexgrid/hexgrid.h"

namespace pol::uc {
namespace {

const geo::LatLng kLaneCenter{50.2, -0.9};  // English Channel.

// A hand-built inventory: one busy lane cell with eastbound ~14 kn
// traffic of containers.
core::Inventory LaneInventory() {
  const hex::CellIndex cell = hex::LatLngToCell(kLaneCenter, 6);
  core::SummaryMap summaries;
  core::CellSummary all;
  core::CellSummary containers;
  for (int i = 0; i < 200; ++i) {
    core::PipelineRecord r;
    r.mmsi = 215000001 + (i % 9);
    r.trip_id = 1 + (i % 20);
    r.segment = ais::MarketSegment::kContainer;
    r.sog_knots = 14.0 + (i % 5) * 0.3;
    r.cog_deg = 78.0 + (i % 7) * 0.5;
    r.heading_deg = r.cog_deg;
    r.eto_s = 3600;
    r.ata_s = 7200;
    all.Add(r);
    containers.Add(r);
  }
  summaries.emplace(core::KeyCell(cell), std::move(all));
  summaries.emplace(
      core::KeyCellType(cell, ais::MarketSegment::kContainer),
      std::move(containers));
  return core::Inventory(6, std::move(summaries));
}

TEST(AnomalyTest, NormalTrafficScoresZero) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  const auto assessment = detector.Assess(
      kLaneCenter, 14.5, 79.0, ais::MarketSegment::kContainer);
  EXPECT_EQ(assessment.score, 0);
  EXPECT_FALSE(assessment.off_lane);
  EXPECT_FALSE(assessment.speed_anomaly);
  EXPECT_FALSE(assessment.course_anomaly);
  EXPECT_GT(assessment.cell_support, 100u);
}

TEST(AnomalyTest, OffLanePositionFlagged) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  // Mid-Atlantic: no history at all.
  const auto assessment = detector.Assess({45.0, -35.0}, 14.0, 80.0,
                                          ais::MarketSegment::kContainer);
  EXPECT_TRUE(assessment.off_lane);
  EXPECT_EQ(assessment.score, 1);
  EXPECT_EQ(assessment.cell_support, 0u);
}

TEST(AnomalyTest, ThinHistoryCountsAsOffLane) {
  const hex::CellIndex cell = hex::LatLngToCell(kLaneCenter, 6);
  core::SummaryMap summaries;
  core::CellSummary sparse;
  core::PipelineRecord r;
  r.mmsi = 215000001;
  r.sog_knots = 10;
  r.cog_deg = 80;
  sparse.Add(r);
  summaries.emplace(core::KeyCell(cell), std::move(sparse));
  const core::Inventory inv(6, std::move(summaries));
  const AnomalyDetector detector(&inv);
  const auto assessment = detector.Assess(kLaneCenter, 10.0, 80.0,
                                          ais::MarketSegment::kContainer);
  EXPECT_TRUE(assessment.off_lane);
  // The support reported is the thin all-traffic summary's.
  EXPECT_EQ(assessment.cell_support, 1u);
}

TEST(AnomalyTest, SpeedOutlierFlagged) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  // Lane mean ~14.6 kn, std well under 1 kn: 3 kn is wildly slow.
  const auto slow = detector.Assess(kLaneCenter, 3.0, 79.0,
                                    ais::MarketSegment::kContainer);
  EXPECT_TRUE(slow.speed_anomaly);
  EXPECT_GT(slow.speed_z, 3.0);
  const auto fast = detector.Assess(kLaneCenter, 28.0, 79.0,
                                    ais::MarketSegment::kContainer);
  EXPECT_TRUE(fast.speed_anomaly);
}

TEST(AnomalyTest, CourseAgainstTheLaneFlagged) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  // The lane runs ~ENE (78-81 deg); sailing the reciprocal is anomalous.
  const auto counter = detector.Assess(kLaneCenter, 14.5, 260.0,
                                       ais::MarketSegment::kContainer);
  EXPECT_TRUE(counter.course_anomaly);
  EXPECT_GT(counter.course_deviation_deg, 150.0);
  EXPECT_EQ(counter.score, 1);
}

TEST(AnomalyTest, UnavailableFieldsSkipChecks) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  const auto assessment =
      detector.Assess(kLaneCenter, ais::kSogUnavailable,
                      ais::kCogUnavailable, ais::MarketSegment::kContainer);
  EXPECT_EQ(assessment.score, 0);
}

TEST(AnomalyTest, CombinedSignalsAccumulate) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  const auto assessment = detector.Assess(kLaneCenter, 35.0, 260.0,
                                          ais::MarketSegment::kContainer);
  EXPECT_EQ(assessment.score, 2);  // Speed + course.
}

TEST(AnomalyTest, FallsBackToAllTrafficSummary) {
  const core::Inventory inv = LaneInventory();
  const AnomalyDetector detector(&inv);
  // No tanker-specific summary exists; the all-traffic one answers.
  const auto assessment = detector.Assess(kLaneCenter, 14.5, 79.0,
                                          ais::MarketSegment::kTanker);
  EXPECT_FALSE(assessment.off_lane);
  EXPECT_EQ(assessment.score, 0);
}

}  // namespace
}  // namespace pol::uc
