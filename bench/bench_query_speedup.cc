// Section 4 "hits" reproduction plus the serving-side index benchmark.
//
// Part 1 — the paper's claim: answering a per-location query from the
// inventory touches 99.73% (res 6) / 98.44% (res 7) fewer rows than a
// full scan of the archive. This bench materializes both sides: (a)
// online computation of a cell's statistics by scanning every record,
// (b) one lookup into the sealed inventory snapshot.
//
// Part 2 — CellsForRoute scan vs snapshot route index: a synthetic
// inventory with >= 10k route-grouping summaries, querying corridor
// cells per (origin, destination, segment) key through the legacy
// full-scan reference path and through the seal-time secondary index.
//
// The measured numbers land in the bench summary (bench::Summary:
// BENCH_query_speedup.json by default).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "hexgrid/hexgrid.h"
#include "obs/json.h"
#include "stats/welford.h"

namespace pol {
namespace {

struct RouteKey {
  sim::PortId origin;
  sim::PortId destination;
  ais::MarketSegment segment;
};

// A synthetic inventory whose (cell, origin, destination, type) grouping
// set carries `routes` port pairs of ~`cells_per_route` corridor cells
// each — the scale knob for the route-index benchmark.
core::Inventory SyntheticRouteInventory(int routes, int cells_per_route,
                                        std::vector<RouteKey>* keys) {
  Rng rng(20260808);
  core::SummaryMap map;
  for (int r = 0; r < routes; ++r) {
    const auto origin = static_cast<sim::PortId>(1 + rng.NextBelow(400));
    const auto destination =
        static_cast<sim::PortId>(1 + rng.NextBelow(400));
    const auto segment =
        static_cast<ais::MarketSegment>(rng.NextBelow(ais::kNumMarketSegments));
    keys->push_back({origin, destination, segment});
    for (int c = 0; c < cells_per_route; ++c) {
      const geo::LatLng position{rng.Uniform(-60.0, 60.0),
                                 rng.Uniform(-180.0, 180.0)};
      const hex::CellIndex cell = hex::LatLngToCell(position, 6);
      map.emplace(core::KeyCellRouteType(cell, origin, destination, segment),
                  core::CellSummary());
    }
  }
  return core::Inventory(6, std::move(map));
}

int Run(int argc, char** argv) {
  bench::Summary summary("query_speedup", argc, argv);
  bench::PrintHeader("Query cost: inventory lookup vs full scan");
  sim::FleetConfig config = bench::GlobalYearConfig();
  config.noncommercial_vessels = 0;
  sim::SimulationOutput sim_output = sim::FleetSimulator(config).Run();

  core::PipelineConfig pipeline_config;
  pipeline_config.partitions = 8;
  pipeline_config.resolution = 6;
  core::PipelineResult result = core::RunPipeline(
      sim_output.reports, sim_output.fleet, pipeline_config);
  const core::Inventory& inv = *result.inventory;
  const std::shared_ptr<const core::InventorySnapshot> snapshot = inv.Seal();
  const uint64_t archive_rows = sim_output.reports.size();

  // Query workload: the busiest 50 cells (realistic monitoring targets).
  std::vector<hex::CellIndex> queries;
  {
    std::vector<std::pair<uint64_t, hex::CellIndex>> ranked;
    snapshot->VisitGroupingSet(
        core::GroupingSet::kCell,
        [&ranked](const core::GroupKey& key,
                  const core::CellSummary& summary) {
          ranked.push_back({summary.record_count(), key.cell});
        });
    std::sort(ranked.rbegin(), ranked.rend());
    for (size_t i = 0; i < std::min<size_t>(50, ranked.size()); ++i) {
      queries.push_back(ranked[i].second);
    }
  }

  // (a) Full scan per query: compute the cell's mean speed online.
  volatile double sink = 0.0;
  uint64_t scan_rows_touched = 0;
  const double scan_s = bench::TimeSeconds([&] {
    for (const hex::CellIndex target : queries) {
      stats::Welford speed;
      for (const auto& report : sim_output.reports) {
        ++scan_rows_touched;
        if (hex::LatLngToCell({report.lat_deg, report.lng_deg}, 6) ==
            target) {
          speed.Add(report.sog_knots);
        }
      }
      sink = sink + speed.Mean();
    }
  });

  // (b) Snapshot lookups — the serving read path.
  uint64_t lookup_rows_touched = 0;
  const double lookup_s = bench::TimeSeconds([&] {
    for (int repeat = 0; repeat < 1000; ++repeat) {
      for (const hex::CellIndex target : queries) {
        const core::CellSummary* summary = snapshot->Cell(target);
        ++lookup_rows_touched;  // One summary row per query.
        if (summary != nullptr) sink = sink + summary->speed().Mean();
      }
    }
  });
  const double lookup_per_query_s =
      lookup_s / (1000.0 * static_cast<double>(queries.size()));
  const double scan_per_query_s =
      scan_s / static_cast<double>(queries.size());

  bench::PrintHeader("Results (50 location queries)");
  std::printf("archive rows:                     %s\n",
              bench::FormatCount(archive_rows).c_str());
  std::printf("full scan  — rows/query:          %s, %.3f s/query\n",
              bench::FormatCount(archive_rows).c_str(), scan_per_query_s);
  std::printf("snapshot   — rows/query:          1, %.9f s/query\n",
              lookup_per_query_s);
  const double fewer_hits =
      1.0 - 1.0 / static_cast<double>(archive_rows);
  std::printf("fewer rows touched:               %s (paper: 99.73%% at res 6)\n",
              bench::FormatPercent(fewer_hits, 4).c_str());
  std::printf("wall-clock speedup:               %.0fx\n",
              scan_per_query_s / lookup_per_query_s);
  const bool hits_pass = fewer_hits > 0.99;
  std::printf("shape check (>99%% fewer hits):   %s\n",
              hits_pass ? "PASS" : "FAIL");

  // Part 2: CellsForRoute, legacy full scan vs the seal-time route
  // index, on >= 10k route-grouping summaries.
  bench::PrintHeader("CellsForRoute: summary-map scan vs snapshot index");
  std::vector<RouteKey> route_keys;
  const core::Inventory synthetic =
      SyntheticRouteInventory(/*routes=*/250, /*cells_per_route=*/45,
                              &route_keys);
  const std::shared_ptr<const core::InventorySnapshot> synthetic_snapshot =
      synthetic.Seal();
  const uint64_t route_summaries = synthetic.size();
  std::printf("route-grouping summaries:         %s across %zu routes\n",
              bench::FormatCount(route_summaries).c_str(), route_keys.size());

  // Workload: every synthetic route once, half of them queried through
  // the reversed-pair fallback.
  std::vector<RouteKey> workload = route_keys;
  for (size_t i = 0; i < workload.size(); i += 2) {
    std::swap(workload[i].origin, workload[i].destination);
  }

  // Both paths must return identical corridors before timing them.
  for (const RouteKey& q : workload) {
    const auto scanned =
        synthetic.CellsForRoute(q.origin, q.destination, q.segment);
    const auto indexed =
        synthetic_snapshot->CellsForRoute(q.origin, q.destination, q.segment);
    if (scanned != indexed) {
      std::printf("scan/index mismatch for route %u -> %u — FAIL\n",
                  static_cast<unsigned>(q.origin),
                  static_cast<unsigned>(q.destination));
      return 1;
    }
  }

  uint64_t scan_cells = 0;
  const double route_scan_s = bench::TimeSeconds([&] {
    for (const RouteKey& q : workload) {
      scan_cells +=
          synthetic.CellsForRoute(q.origin, q.destination, q.segment)
              .size();
    }
  });
  constexpr int kIndexRepeats = 50;
  uint64_t indexed_cells = 0;
  const double route_index_s = bench::TimeSeconds([&] {
    for (int repeat = 0; repeat < kIndexRepeats; ++repeat) {
      for (const RouteKey& q : workload) {
        indexed_cells += synthetic_snapshot
                             ->CellsForRoute(q.origin, q.destination,
                                             q.segment)
                             .size();
      }
    }
  });
  const double route_scan_per_query_s =
      route_scan_s / static_cast<double>(workload.size());
  const double route_index_per_query_s =
      route_index_s /
      static_cast<double>(kIndexRepeats * workload.size());
  const double route_speedup = route_scan_per_query_s / route_index_per_query_s;
  std::printf("summary-map scan:                 %.9f s/query\n",
              route_scan_per_query_s);
  std::printf("snapshot route index:             %.9f s/query\n",
              route_index_per_query_s);
  std::printf("speedup:                          %.0fx\n", route_speedup);
  const bool route_pass = route_speedup >= 10.0;
  std::printf("shape check (>=10x):              %s\n",
              route_pass ? "PASS" : "FAIL");
  (void)sink;
  (void)scan_cells;
  (void)indexed_cells;

  obs::Json location = obs::Json::Object();
  location.Set("archive_rows", static_cast<int64_t>(archive_rows));
  location.Set("scan_s_per_query", scan_per_query_s);
  location.Set("snapshot_s_per_query", lookup_per_query_s);
  location.Set("fewer_hits_fraction", fewer_hits);
  location.Set("pass", hits_pass);
  summary.Set("location_query", std::move(location));
  obs::Json route = obs::Json::Object();
  route.Set("route_summaries", static_cast<int64_t>(route_summaries));
  route.Set("routes", static_cast<int64_t>(route_keys.size()));
  route.Set("scan_s_per_query", route_scan_per_query_s);
  route.Set("indexed_s_per_query", route_index_per_query_s);
  route.Set("speedup", route_speedup);
  route.Set("pass", route_pass);
  summary.Set("route_query", std::move(route));
  const int written = summary.Write();
  if (!hits_pass || !route_pass) return 1;
  return written;
}

}  // namespace
}  // namespace pol

int main(int argc, char** argv) { return pol::Run(argc, argv); }
