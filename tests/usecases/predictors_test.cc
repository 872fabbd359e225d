// Unit tests of EtaEstimator, DestinationPredictor and RouteForecaster
// on small hand-built inventories (the integration suite covers the
// simulated end-to-end behaviour).

#include <gtest/gtest.h>

#include <vector>

#include "core/inventory.h"
#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"
#include "usecases/destination.h"
#include "usecases/eta.h"
#include "usecases/route_forecast.h"

namespace pol::uc {
namespace {

constexpr ais::MarketSegment kSeg = ais::MarketSegment::kContainer;

core::PipelineRecord Record(uint64_t trip, sim::PortId origin,
                            sim::PortId destination, int64_t ata_s,
                            sim::PortId vote_dest = sim::kNoPort) {
  core::PipelineRecord r;
  r.mmsi = 215000001;
  r.trip_id = trip;
  r.origin = origin;
  r.destination = vote_dest == sim::kNoPort ? destination : vote_dest;
  r.segment = kSeg;
  r.sog_knots = 14;
  r.cog_deg = 90;
  r.heading_deg = 90;
  r.eto_s = 1000;
  r.ata_s = ata_s;
  return r;
}

// --- EtaEstimator fallback chain. ---

TEST(EtaEstimatorTest, PrefersRouteSpecificSummary) {
  const hex::CellIndex cell = hex::LatLngToCell({10, 10}, 6);
  core::SummaryMap summaries;
  {
    core::CellSummary route;
    route.Add(Record(1, 3, 9, 5000));
    summaries.emplace(core::KeyCellRouteType(cell, 3, 9, kSeg),
                      std::move(route));
    core::CellSummary type;
    type.Add(Record(2, 4, 8, 90000));
    summaries.emplace(core::KeyCellType(cell, kSeg), std::move(type));
    core::CellSummary all;
    all.Add(Record(3, 4, 8, 70000));
    summaries.emplace(core::KeyCell(cell), std::move(all));
  }
  const core::Inventory inv(6, std::move(summaries));
  const EtaEstimator estimator(&inv);

  // With a declared route: the route-level answer (5000 s).
  const auto specific = estimator.Estimate({10, 10}, kSeg, 3, 9);
  ASSERT_TRUE(specific.ok());
  EXPECT_EQ(specific->grouping_set, 2);
  EXPECT_NEAR(specific->seconds, 5000, 1);

  // Unknown route: falls back to the per-type summary.
  const auto by_type = estimator.Estimate({10, 10}, kSeg, 5, 6);
  ASSERT_TRUE(by_type.ok());
  EXPECT_EQ(by_type->grouping_set, 1);
  EXPECT_NEAR(by_type->seconds, 90000, 1);

  // No route declared at all: same per-type fallback.
  const auto undeclared = estimator.Estimate({10, 10}, kSeg);
  ASSERT_TRUE(undeclared.ok());
  EXPECT_EQ(undeclared->grouping_set, 1);
}

TEST(EtaEstimatorTest, FallsBackToAllTrafficThenFails) {
  const hex::CellIndex cell = hex::LatLngToCell({10, 10}, 6);
  core::SummaryMap summaries;
  core::CellSummary all;
  all.Add(Record(3, 4, 8, 70000));
  summaries.emplace(core::KeyCell(cell), std::move(all));
  const core::Inventory inv(6, std::move(summaries));
  const EtaEstimator estimator(&inv);

  const auto fallback =
      estimator.Estimate({10, 10}, ais::MarketSegment::kTanker, 3, 9);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->grouping_set, 0);

  const auto nothing = estimator.Estimate({50, 50}, kSeg);
  EXPECT_EQ(nothing.status().code(), StatusCode::kNotFound);
}

TEST(EtaEstimatorTest, PercentileBandIsOrdered) {
  const hex::CellIndex cell = hex::LatLngToCell({10, 10}, 6);
  core::SummaryMap summaries;
  core::CellSummary all;
  for (int i = 0; i < 100; ++i) all.Add(Record(1 + i, 3, 9, 1000 + i * 100));
  summaries.emplace(core::KeyCell(cell), std::move(all));
  const core::Inventory inv(6, std::move(summaries));
  const auto estimate = EtaEstimator(&inv).Estimate({10, 10}, kSeg);
  ASSERT_TRUE(estimate.ok());
  EXPECT_LT(estimate->p10_seconds, estimate->seconds);
  EXPECT_GT(estimate->p90_seconds, estimate->seconds);
  EXPECT_EQ(estimate->support, 100u);
}

TEST(EtaEstimatorTest, RejectsBadPosition) {
  const core::Inventory inv(6, core::SummaryMap{});
  EXPECT_FALSE(EtaEstimator(&inv).Estimate({95, 0}, kSeg).ok());
}

// --- DestinationPredictor voting. ---

core::Inventory VotingInventory(const std::vector<geo::LatLng>& track,
                                sim::PortId early_dest,
                                sim::PortId late_dest) {
  // First half of the track votes early_dest, second half late_dest.
  core::SummaryMap summaries;
  for (size_t i = 0; i < track.size(); ++i) {
    const hex::CellIndex cell = hex::LatLngToCell(track[i], 6);
    const sim::PortId dest = i < track.size() / 2 ? early_dest : late_dest;
    auto [it, inserted] =
        summaries.try_emplace(core::KeyCellType(cell, kSeg));
    (void)inserted;
    for (int k = 0; k < 5; ++k) {
      it->second.Add(Record(100 + i, 3, dest, 1000, dest));
    }
  }
  return core::Inventory(6, std::move(summaries));
}

TEST(DestinationPredictorTest, VotesFollowTheCorridor) {
  std::vector<geo::LatLng> track;
  for (int i = 0; i < 20; ++i) track.push_back({0.0, i * 0.4});
  const core::Inventory inv = VotingInventory(track, 7, 9);
  DestinationPredictor predictor(&inv, /*decay=*/0.8);
  // Feed the first half: leader is port 7.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(predictor.Observe(track[static_cast<size_t>(i)], kSeg));
  }
  EXPECT_EQ(predictor.Predict(), 7u);
  // Feed the second half: with decay the leader flips to port 9.
  for (int i = 10; i < 20; ++i) {
    predictor.Observe(track[static_cast<size_t>(i)], kSeg);
  }
  EXPECT_EQ(predictor.Predict(), 9u);
  const auto ranking = predictor.Ranking(2);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].port, 9u);
  EXPECT_GT(ranking[0].share, ranking[1].share);
  EXPECT_NEAR(ranking[0].share + ranking[1].share, 1.0, 1e-9);
}

TEST(DestinationPredictorTest, UninformativeCellsReturnFalse) {
  const core::Inventory inv(6, core::SummaryMap{});
  DestinationPredictor predictor(&inv);
  EXPECT_FALSE(predictor.Observe({0, 0}, kSeg));
  EXPECT_EQ(predictor.Predict(), sim::kNoPort);
  EXPECT_TRUE(predictor.Ranking().empty());
}

TEST(DestinationPredictorTest, ResetClearsState) {
  std::vector<geo::LatLng> track = {{0.0, 0.0}};
  const core::Inventory inv = VotingInventory(track, 7, 7);
  DestinationPredictor predictor(&inv);
  predictor.Observe(track[0], kSeg);
  EXPECT_EQ(predictor.Predict(), 7u);
  predictor.Reset();
  EXPECT_EQ(predictor.Predict(), sim::kNoPort);
}

// --- RouteForecaster on a synthetic corridor. ---

TEST(RouteForecasterTest, FollowsTransitionChain) {
  // A straight corridor of res-6 cells from (0, 0) eastward toward the
  // port of Tema (5.63N, 0.01E is in the table; use a synthetic port
  // database instead for full control).
  sim::Port dest;
  dest.name = "Target";
  dest.position = {0.0, 8.0};
  dest.geofence_radius_km = 10.0;
  const sim::PortDatabase ports({dest});

  // Cells every ~0.06 deg along the equator from lng 0 to 8.
  std::vector<hex::CellIndex> chain;
  for (double lng = 0.0; lng <= 8.0; lng += 0.06) {
    const hex::CellIndex cell = hex::LatLngToCell({0.0, lng}, 6);
    if (chain.empty() || chain.back() != cell) chain.push_back(cell);
  }
  ASSERT_GT(chain.size(), 50u);

  core::SummaryMap summaries;
  for (size_t i = 0; i < chain.size(); ++i) {
    core::PipelineRecord r = Record(1, 1, 1, 1000);
    r.origin = 1;
    r.destination = 1;
    if (i + 1 < chain.size()) r.next_cell = chain[i + 1];
    auto [it, inserted] = summaries.try_emplace(
        core::KeyCellRouteType(chain[i], 1, 1, kSeg));
    (void)inserted;
    it->second.Add(r);
  }
  const core::Inventory inv(6, std::move(summaries));
  const RouteForecaster forecaster(&inv, &ports);

  const auto forecast = forecaster.Forecast({0.0, 1.0}, 1, 1, kSeg);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  // The path must march monotonically east along the chain to the end.
  ASSERT_GE(forecast->cells.size(), 10u);
  EXPECT_EQ(forecast->cells.back(), chain.back());
  double prev_lng = -1.0;
  for (const hex::CellIndex cell : forecast->cells) {
    const double lng = hex::CellToLatLng(cell).lng_deg;
    EXPECT_GT(lng, prev_lng);
    prev_lng = lng;
  }
  EXPECT_NEAR(forecast->distance_km,
              geo::HaversineKm({0, 1}, {0, 8}), 150.0);
}

TEST(RouteForecasterTest, FailsOffCorridorAndUnknownRoute) {
  sim::Port dest;
  dest.name = "Target";
  dest.position = {0.0, 8.0};
  const sim::PortDatabase ports({dest});
  const core::Inventory inv(6, core::SummaryMap{});
  const RouteForecaster forecaster(&inv, &ports);
  EXPECT_EQ(forecaster.Forecast({0, 1}, 1, 1, kSeg).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(forecaster.Forecast({0, 1}, 1, 99, kSeg).ok());
}

TEST(RouteForecasterTest, DisconnectedGraphFails) {
  sim::Port dest;
  dest.name = "Target";
  dest.position = {0.0, 8.0};
  dest.geofence_radius_km = 10.0;
  const sim::PortDatabase ports({dest});
  // Two corridor cells with NO transitions: corridor exists, graph
  // cannot reach the goal.
  core::SummaryMap summaries;
  for (const double lng : {1.0, 8.0}) {
    auto [it, inserted] = summaries.try_emplace(core::KeyCellRouteType(
        hex::LatLngToCell({0.0, lng}, 6), 1, 1, kSeg));
    (void)inserted;
    it->second.Add(Record(1, 1, 1, 1000));
  }
  const core::Inventory inv(6, std::move(summaries));
  const RouteForecaster forecaster(&inv, &ports);
  const auto forecast = forecaster.Forecast({0.0, 1.0}, 1, 1, kSeg);
  EXPECT_EQ(forecast.status().code(), StatusCode::kNotFound);
}

TEST(RouteForecasterTest, ForecastsAlongCorridorRecordedTheOtherWay) {
  // Port 1 at lng 0, port 2 at lng 8. The corridor is recorded only as
  // 2 -> 1 (westbound); the vessel sails 1 -> 2.
  sim::Port west;
  west.name = "West";
  west.position = {0.0, 0.0};
  west.geofence_radius_km = 10.0;
  sim::Port east = west;
  east.name = "East";
  east.position = {0.0, 8.0};
  const sim::PortDatabase ports({west, east});

  // Cells wider apart than the forecaster's gap bridge, so only the
  // recorded transitions can connect them.
  std::vector<hex::CellIndex> chain;
  for (int i = 0; i <= 32; ++i) {
    chain.push_back(hex::LatLngToCell({0.0, 0.25 * i}, 6));
  }
  for (size_t i = 1; i < chain.size(); ++i) {
    ASSERT_GT(geo::HaversineKm(hex::CellToLatLng(chain[i - 1]),
                               hex::CellToLatLng(chain[i])),
              hex::EdgeLengthKm(6) * 4.5);
  }
  core::SummaryMap summaries;
  for (size_t i = 0; i < chain.size(); ++i) {
    core::PipelineRecord r = Record(1, 2, 1, 1000);
    if (i > 0) r.next_cell = chain[i - 1];  // Westbound transitions.
    summaries.try_emplace(core::KeyCellRouteType(chain[i], 2, 1, kSeg))
        .first->second.Add(r);
  }
  const core::Inventory inv(6, std::move(summaries));
  const RouteForecaster forecaster(&inv, &ports);

  const auto forecast = forecaster.Forecast({0.0, 1.0}, 1, 2, kSeg);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast->cells.front(), chain[4]);
  EXPECT_EQ(forecast->cells.back(), chain.back());
  EXPECT_EQ(forecast->cells.size(), chain.size() - 4);
  EXPECT_EQ(forecast->graph_edges, chain.size() - 1);
}

}  // namespace
}  // namespace pol::uc
