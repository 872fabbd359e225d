// Quickstart: build a patterns-of-life inventory from (simulated) AIS
// data and query it by location.
//
//   $ ./quickstart
//   $ ./quickstart --trace-out trace.json --report-out report.json
//
// Walks the whole public API in ~40 lines of logic: simulate traffic,
// run the pipeline, query cells, publish the inventory to a snapshot
// store and reload it.
// `--trace-out` writes a Chrome trace of the run (load it in
// chrome://tracing or https://ui.perfetto.dev); `--report-out` writes
// the machine-readable run report (`polinv report <file>` pretty-prints
// it).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "core/snapshot_codec.h"
#include "hexgrid/hexgrid.h"
#include "sim/fleet.h"
#include "store/snapshot_store.h"

int main(int argc, char** argv) {
  using namespace pol;

  std::string trace_out;
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--report-out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else {
      std::printf("usage: %s [--trace-out <path>] [--report-out <path>]\n",
                  argv[0]);
      return 2;
    }
  }

  // 1. An AIS archive. Here: two simulated months of global traffic
  //    (plug in your own std::vector<ais::PositionReport> instead).
  sim::FleetConfig fleet_config;
  fleet_config.seed = 2022;
  fleet_config.commercial_vessels = 40;
  fleet_config.noncommercial_vessels = 20;
  fleet_config.start_time = 1640995200;  // 2022-01-01 UTC.
  fleet_config.end_time = fleet_config.start_time + 60 * kSecondsPerDay;
  const sim::SimulationOutput archive = sim::FleetSimulator(fleet_config).Run();
  std::printf("archive: %zu position reports from %zu vessels\n",
              archive.reports.size(), archive.fleet.size());

  // 2. Run the pipeline: clean -> enrich -> trips -> project -> extract.
  core::PipelineConfig config;
  config.resolution = 6;          // ~36 km^2 hexagons, as in the paper.
  config.commercial_only = true;  // Focus on the logistics chain.
  config.chunks = 4;              // Bound peak memory; result is identical.
  config.obs.trace_path = trace_out;
  config.obs.report_path = report_out;
  const core::PipelineResult result =
      core::RunPipeline(archive.reports, archive.fleet, config);
  const core::Inventory& inventory = *result.inventory;

  std::printf("pipeline: kept %llu of %llu rows, found %llu trips\n",
              static_cast<unsigned long long>(result.enrichment.kept),
              static_cast<unsigned long long>(result.cleaning.input),
              static_cast<unsigned long long>(result.trips.trips));
  std::printf("%s", flow::StageMetricsTable(result.stage_metrics).c_str());
  if (!trace_out.empty()) {
    std::printf("trace written to %s (open in chrome://tracing)\n",
                trace_out.c_str());
  }
  if (!report_out.empty()) {
    std::printf("run report written to %s (pretty-print: polinv report)\n",
                report_out.c_str());
  }
  const core::CompressionReport compression = result.Compression();
  std::printf("inventory: %llu cells, %.2f%% compression vs raw rows\n",
              static_cast<unsigned long long>(compression.cells),
              compression.compression * 100);

  // 3. Seal the build-side inventory into an immutable snapshot and
  // query by location: what does traffic look like off Singapore?
  // Snapshots answer every core::InventoryQuery call from flat sorted
  // arrays — this is the read path a serving process uses.
  const std::shared_ptr<const core::InventorySnapshot> snapshot =
      inventory.Seal();
  // (At this small sample scale the exact cell can be empty; fall back
  // to the busiest cell of the inventory so the output is informative.)
  geo::LatLng query_point{1.2, 103.9};
  if (snapshot->AtPosition(query_point) == nullptr) {
    uint64_t best = 0;
    snapshot->VisitGroupingSet(
        core::GroupingSet::kCell,
        [&best, &query_point](const core::GroupKey& key,
                              const core::CellSummary& summary) {
          if (summary.record_count() > best) {
            best = summary.record_count();
            query_point = hex::CellToLatLng(key.cell);
          }
        });
    std::printf("(cell off Singapore empty in this sample; querying the "
                "busiest cell instead)\n");
  }
  if (const core::CellSummary* cell = snapshot->AtPosition(query_point)) {
    std::printf("\ncell at %s:\n", query_point.ToString().c_str());
    std::printf("  records:      %llu\n",
                static_cast<unsigned long long>(cell->record_count()));
    std::printf("  distinct ships: %.0f, trips: %.0f\n",
                cell->ships().Estimate(), cell->trips().Estimate());
    std::printf("  speed: mean %.1f kn, p10/p90 %.1f/%.1f kn\n",
                cell->speed().Mean(), cell->speed_percentiles().Quantile(0.1),
                cell->speed_percentiles().Quantile(0.9));
    std::printf("  course: %.0f deg (concentration %.2f)\n",
                cell->course_mean().MeanDeg(),
                cell->course_mean().ResultantLength());
    for (const auto& dest : cell->destinations().TopN(3)) {
      const auto port = sim::PortDatabase::Global().Find(
          static_cast<sim::PortId>(dest.key));
      std::printf("  frequent destination: %s (%llu records)\n",
                  port.ok() ? (*port)->name.c_str() : "?",
                  static_cast<unsigned long long>(dest.count));
    }
  } else {
    std::printf("no traffic recorded off Singapore in this sample\n");
  }

  // 4. Persist as the next generation of a snapshot store, and reload
  // it the way a serving process cold-starts: map the newest readable
  // generation and serve it in place.
  const std::string directory = "/tmp/quickstart-store";
  store::SnapshotStore store(
      store::SnapshotStoreOptions{directory, /*keep=*/2});
  uint64_t generation = 0;
  if (const Status saved = snapshot->WriteTo(&store, &generation);
      !saved.ok()) {
    std::printf("save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const Result<std::shared_ptr<const core::InventorySnapshot>> reloaded =
      core::OpenLatestSnapshot(store);
  if (!reloaded.ok()) {
    std::printf("load failed: %s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsaved and reloaded inventory: %zu summaries, %s "
              "(inspect: polinv stats %s)\n",
              (*reloaded)->size(), store.GenerationPath(generation).c_str(),
              directory.c_str());
  return 0;
}
