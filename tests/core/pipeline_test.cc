// End-to-end integration: simulator output through the full pipeline.

#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"
#include "obs/trace.h"
#include "sim/fleet.h"

namespace pol::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetConfig config;
    config.seed = 99;
    config.commercial_vessels = 15;
    config.noncommercial_vessels = 12;
    config.start_time = 1640995200;
    config.end_time = config.start_time + 45 * kSecondsPerDay;
    config.coastal_interval_s = 300;
    config.ocean_interval_s = 1200;
    output_ = new sim::SimulationOutput(sim::FleetSimulator(config).Run());

    PipelineConfig pipeline_config;
    pipeline_config.partitions = 4;
    pipeline_config.threads = 2;
    pipeline_config.resolution = 6;
    result_ = new PipelineResult(
        RunPipeline(output_->reports, output_->fleet, pipeline_config));
  }

  static void TearDownTestSuite() {
    delete result_;
    delete output_;
    result_ = nullptr;
    output_ = nullptr;
  }

  static sim::SimulationOutput* output_;
  static PipelineResult* result_;
};

sim::SimulationOutput* PipelineTest::output_ = nullptr;
PipelineResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, CleaningCatchesInjectedErrors) {
  const CleaningStats& stats = result_->cleaning;
  EXPECT_EQ(stats.input, output_->reports.size());
  // Every injected corrupt field fails validation.
  EXPECT_GE(stats.invalid_fields, output_->injected_corrupt);
  // Injected duplicates are exact copies: nearly all must be caught (a
  // duplicate of a corrupted report is removed by field validation
  // before the dedup scan sees it).
  EXPECT_GE(stats.duplicates, output_->injected_duplicates * 9 / 10);
  // Most injected jumps violate the 50 kn limit (a few small offsets at
  // low reporting rates can be feasible).
  EXPECT_GT(stats.infeasible_jumps, output_->injected_jumps / 2);
  EXPECT_LT(stats.kept, stats.input);
}

TEST_F(PipelineTest, CommercialFilterShrinksData) {
  const EnrichmentStats& stats = result_->enrichment;
  EXPECT_GT(stats.non_commercial, 0u);
  EXPECT_LT(stats.kept, stats.input);
  EXPECT_EQ(stats.unknown_vessel, 0u);  // Registry covers the whole fleet.
}

TEST_F(PipelineTest, TripsAreFound) {
  const TripStats& stats = result_->trips;
  EXPECT_GT(stats.trips, 0u);
  EXPECT_GT(stats.annotated, 0u);
  // Trip count is in the neighbourhood of the simulator's ground truth
  // (exact equality is not expected: cleaning drops reports, fences
  // differ slightly from the simulator's berth placement).
  // Upper slack: a voyage passing through an intermediate port's fence
  // legitimately splits into two trips.
  EXPECT_GT(stats.trips, output_->voyages.size() / 2);
  EXPECT_LT(stats.trips, output_->voyages.size() * 3);
}

TEST_F(PipelineTest, InventoryIsBuilt) {
  const Inventory& inv = *result_->inventory;
  EXPECT_EQ(inv.resolution(), 6);
  EXPECT_GT(inv.size(), 100u);
  EXPECT_GT(inv.DistinctCells(), 50u);
}

TEST_F(PipelineTest, CompressionIsMassive) {
  const CompressionReport report = result_->Compression();
  // The paper reports >98% compression at res 6/7 (Table 4) on a year of
  // data; this 45-day small-fleet config shows the same effect at
  // reduced strength (the full-scale shape is checked by the Table 4
  // bench).
  EXPECT_GT(report.compression, 0.45);
  EXPECT_GT(report.records, report.cells);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LT(report.utilization, 0.2);
}

TEST_F(PipelineTest, SummariesReflectVoyageGroundTruth) {
  // Pick a completed voyage and check the inventory around its midpoint:
  // the route-level summary for (origin, destination, segment) must
  // exist along the way.
  const Inventory& inv = *result_->inventory;
  int checked = 0;
  for (const sim::VoyageTruth& voyage : output_->voyages) {
    const auto cells = inv.CellsForRoute(
        voyage.origin, voyage.destination,
        [&]() {
          for (const auto& vessel : output_->fleet) {
            if (vessel.mmsi == voyage.mmsi) return vessel.segment;
          }
          return ais::MarketSegment::kOther;
        }());
    if (cells.empty()) continue;  // Short or heavily-filtered voyage.
    ++checked;
    // The recorded cells must lie within the voyage's reach.
    const sim::Port& origin =
        **sim::PortDatabase::Global().Find(voyage.origin);
    for (const hex::CellIndex cell : cells) {
      EXPECT_LT(geo::HaversineKm(hex::CellToLatLng(cell), origin.position),
                voyage.distance_km + 500.0);
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PipelineTest, SpeedStatisticsArephysical) {
  const Inventory& inv = *result_->inventory;
  for (const auto& [key, summary] : inv.summaries()) {
    if (summary.speed().count() == 0) continue;
    EXPECT_GE(summary.speed().min(), 0.0);
    EXPECT_LE(summary.speed().max(), 102.3);
    EXPECT_LE(summary.speed().Mean(), 30.0) << GroupKeyToString(key);
  }
}

TEST_F(PipelineTest, EtoPlusAtaIsTripDuration) {
  // For every summary, mean(ETO) + mean(ATA) must be a plausible trip
  // duration (positive, below the simulation window).
  const Inventory& inv = *result_->inventory;
  for (const auto& [key, summary] : inv.summaries()) {
    if (summary.eto().count() == 0) continue;
    const double total = summary.eto().Mean() + summary.ata().Mean();
    EXPECT_GT(total, 0.0);
    EXPECT_LT(total, 45.0 * kSecondsPerDay);
  }
}

TEST_F(PipelineTest, ResolutionSevenProducesMoreCells) {
  PipelineConfig config;
  config.partitions = 4;
  config.threads = 2;
  config.resolution = 7;
  const PipelineResult res7 =
      RunPipeline(output_->reports, output_->fleet, config);
  // Finer grid: more cells, lower compression (Table 4's shape).
  EXPECT_GT(res7.inventory->DistinctCells(),
            result_->inventory->DistinctCells());
  EXPECT_LT(res7.Compression().compression,
            result_->Compression().compression);
  EXPECT_LT(res7.Compression().utilization,
            result_->Compression().utilization);
}

// Every traced run builds a thread pool whose workers record spans into
// the global recorder. A worker's buffer goes when the worker exits, so
// many traced runs hold no more buffers than the threads still alive,
// while every run's events stay readable until Clear().
TEST(PipelineTraceTest, TracedRunsReleaseExitedThreadsBuffers) {
  constexpr int kRuns = 40;
  constexpr int kThreads = 2;
  sim::FleetConfig fleet_config;
  fleet_config.seed = 7;
  fleet_config.commercial_vessels = 3;
  fleet_config.noncommercial_vessels = 1;
  fleet_config.start_time = 1640995200;
  fleet_config.end_time = fleet_config.start_time + 6 * kSecondsPerDay;
  fleet_config.coastal_interval_s = 600;
  fleet_config.ocean_interval_s = 1800;
  const sim::SimulationOutput archive =
      sim::FleetSimulator(fleet_config).Run();
  PipelineConfig config;
  config.partitions = 2;
  config.threads = kThreads;
  config.resolution = 6;

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Start();
  size_t events = 0;
  for (int run = 0; run < kRuns; ++run) {
    const PipelineResult result =
        RunPipeline(archive.reports, archive.fleet, config);
    ASSERT_TRUE(result.inventory != nullptr);
    // The pool's workers have exited, so at most this thread's buffer
    // (and those of threads still running) remains.
    EXPECT_LE(recorder.buffer_count(), size_t{1} + kThreads) << "run " << run;
    // The exited workers' events were kept, on top of every earlier run's.
    EXPECT_GT(recorder.event_count(), events) << "run " << run;
    events = recorder.event_count();
  }
  recorder.Stop();
  recorder.Clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

}  // namespace
}  // namespace pol::core
