// Tests of the knowledge-extraction helpers: lane classification
// (section 4.1.1 / Figure 4 structures) and port congestion monitoring.

#include <gtest/gtest.h>

#include "core/cleaning.h"
#include "core/inventory.h"
#include "core/pipeline.h"
#include "sim/fleet.h"
#include "usecases/congestion.h"
#include "usecases/lane_analysis.h"

namespace pol::uc {
namespace {

core::PipelineRecord Obs(double sog, double cog) {
  core::PipelineRecord r;
  r.mmsi = 215000001;
  r.trip_id = 1;
  r.sog_knots = sog;
  r.cog_deg = cog;
  r.heading_deg = cog;
  return r;
}

core::CellSummary SummaryOf(const std::vector<core::PipelineRecord>& records) {
  core::CellSummary s;
  for (const auto& r : records) s.Add(r);
  return s;
}

TEST(LaneAnalyzerTest, ClassifiesSyntheticCells) {
  const core::Inventory empty(6, core::SummaryMap{});
  const LaneAnalyzer analyzer(&empty);

  // Sparse.
  EXPECT_EQ(analyzer.Classify(SummaryOf({Obs(12, 90)})), CellClass::kSparse);

  // Lane: forty observations, all ~ east.
  std::vector<core::PipelineRecord> lane;
  for (int i = 0; i < 40; ++i) lane.push_back(Obs(14, 88 + (i % 5)));
  EXPECT_EQ(analyzer.Classify(SummaryOf(lane)), CellClass::kLane);

  // Bidirectional: half east, half west.
  std::vector<core::PipelineRecord> bidir;
  for (int i = 0; i < 20; ++i) bidir.push_back(Obs(14, 75 + (i % 5)));
  for (int i = 0; i < 20; ++i) bidir.push_back(Obs(14, 255 + (i % 5)));
  EXPECT_EQ(analyzer.Classify(SummaryOf(bidir)), CellClass::kBidirectional);

  // Loitering: slow drifting, random courses.
  std::vector<core::PipelineRecord> drift;
  for (int i = 0; i < 40; ++i) drift.push_back(Obs(0.5, (i * 77) % 360));
  EXPECT_EQ(analyzer.Classify(SummaryOf(drift)), CellClass::kLoitering);

  // Mixed: fast traffic in many directions (port basin / junction).
  std::vector<core::PipelineRecord> mixed;
  for (int i = 0; i < 40; ++i) mixed.push_back(Obs(10, (i * 97) % 360));
  EXPECT_EQ(analyzer.Classify(SummaryOf(mixed)), CellClass::kMixed);
}

TEST(LaneAnalyzerTest, AnalyzeAllOverSimulatedTraffic) {
  sim::FleetConfig config;
  config.seed = 55;
  config.commercial_vessels = 20;
  config.noncommercial_vessels = 0;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 60 * kSecondsPerDay;
  config.coastal_interval_s = 300;
  config.ocean_interval_s = 900;
  const sim::SimulationOutput archive = sim::FleetSimulator(config).Run();
  core::PipelineConfig pc;
  pc.resolution = 7;  // Fine enough to separate the offset lanes.
  pc.extractor.gi_cell_type = false;
  pc.extractor.gi_cell_route_type = false;
  const core::PipelineResult result =
      core::RunPipeline(archive.reports, archive.fleet, pc);

  LaneAnalysisConfig lane_config;
  lane_config.min_records = 10;
  const LaneAnalyzer analyzer(result.inventory.get(), lane_config);
  const LaneAnalysisReport report = analyzer.AnalyzeAll();
  EXPECT_GT(report.classified, 20u);
  // Simulated traffic has directional lanes and anchorage loitering.
  EXPECT_GT(report.cells_per_class.count(CellClass::kLane), 0u);
  EXPECT_GT(report.cells_per_class.at(CellClass::kLane), 0u);
  const auto loiter_it = report.cells_per_class.find(CellClass::kLoitering);
  ASSERT_NE(loiter_it, report.cells_per_class.end());
  EXPECT_GT(loiter_it->second, 0u);
  // CellsOfClass agrees with the report.
  EXPECT_EQ(analyzer.CellsOfClass(CellClass::kLane).size(),
            report.cells_per_class.at(CellClass::kLane));
}

TEST(CongestionTest, MeasuresStaysAndWaits) {
  sim::FleetConfig config;
  config.seed = 77;
  config.commercial_vessels = 15;
  config.noncommercial_vessels = 0;
  config.start_time = 1640995200;
  config.end_time = config.start_time + 60 * kSecondsPerDay;
  config.corrupt_field_rate = 0.0;
  config.position_jump_rate = 0.0;
  const sim::SimulationOutput archive = sim::FleetSimulator(config).Run();

  flow::ThreadPool pool(2);
  core::CleaningStats cleaning;
  const auto cleaned =
      core::CleanReports(archive.reports, {}, &pool, &cleaning);
  const core::Geofencer geofencer(&sim::PortDatabase::Global(), 6);
  const auto calls = core::ExtractPortCalls(cleaned, geofencer);
  ASSERT_FALSE(calls.empty());

  const auto activity = AnalyzePortActivity(
      calls, cleaned, sim::PortDatabase::Global());
  ASSERT_FALSE(activity.empty());
  // Sorted busiest-first; totals add up to the call table.
  uint64_t total_calls = 0;
  for (size_t i = 0; i < activity.size(); ++i) {
    total_calls += activity[i].calls;
    if (i > 0) {
      EXPECT_LE(activity[i].calls, activity[i - 1].calls);
    }
    EXPECT_GT(activity[i].mean_stay_hours, 0.0);
    EXPECT_GE(activity[i].p90_stay_hours, activity[i].mean_stay_hours * 0.3);
  }
  EXPECT_EQ(total_calls, calls.size());
  // The simulator sends ~35% of arrivals to anchorage first: some port
  // must show pre-berth waits with plausible durations (4-36 h).
  uint64_t total_waits = 0;
  double max_wait = 0;
  for (const auto& entry : activity) {
    total_waits += entry.waits;
    max_wait = std::max(max_wait, entry.mean_wait_hours);
  }
  EXPECT_GT(total_waits, 0u);
  EXPECT_GT(max_wait, 2.0);
  EXPECT_LT(max_wait, 48.0);
}

}  // namespace
}  // namespace pol::uc
