// Ablation: uniform vs adaptive (non-uniform) inventory — the paper's
// section-5 future work ("larger cells in open sea areas ... high
// resolution in dense areas"), implemented and measured here.
//
// Sweeps the density threshold and reports cell counts, footprint and
// lookup behaviour against the uniform fine-resolution inventory. Each
// adaptive inventory is sealed, and its cell counts and probe answers
// are read from that snapshot: the image the store would publish.

#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "core/adaptive.h"
#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "hexgrid/hexgrid.h"

namespace pol {
namespace {

constexpr int kCoarseRes = 5;

// Adaptive cells per resolution level.
std::map<int, uint64_t> CellsPerResolution(const core::InventoryQuery& q) {
  std::map<int, uint64_t> out;
  q.VisitGroupingSet(core::GroupingSet::kCell,
                     [&out](const core::GroupKey& key,
                            const core::CellSummary&) {
                       ++out[hex::CellResolution(key.cell)];
                     });
  return out;
}

double CellReduction(const core::InventoryQuery& adaptive,
                     uint64_t fine_cells) {
  return 1.0 - static_cast<double>(adaptive.DistinctCells()) /
                   static_cast<double>(fine_cells);
}

int Run() {
  bench::PrintHeader(
      "Ablation: uniform vs adaptive inventory (future work, section 5)");
  sim::FleetConfig config = bench::GlobalYearConfig();
  config.noncommercial_vessels = 0;
  sim::SimulationOutput sim_output = sim::FleetSimulator(config).Run();

  core::PipelineConfig pipeline_config;
  pipeline_config.partitions = 8;
  pipeline_config.resolution = 7;
  pipeline_config.extractor.gi_cell_type = false;
  pipeline_config.extractor.gi_cell_route_type = false;
  core::PipelineResult result = core::RunPipeline(
      sim_output.reports, sim_output.fleet, pipeline_config);
  const core::Inventory& fine = *result.inventory;
  const uint64_t fine_cells = fine.DistinctCells();
  std::printf("uniform res-7 inventory: %s cells\n",
              bench::FormatCount(fine_cells).c_str());

  // Lookup workload: trip positions (covered by the fine inventory).
  std::vector<geo::LatLng> probes;
  for (size_t i = 0; i < sim_output.reports.size() && probes.size() < 3000;
       i += 97) {
    const auto& report = sim_output.reports[i];
    if (!ais::ValidatePositionReport(report).ok()) continue;
    const geo::LatLng p{report.lat_deg, report.lng_deg};
    if (fine.AtPosition(p) != nullptr) probes.push_back(p);
  }

  const std::vector<int> w = {12, 12, 14, 12, 14, 16};
  bench::PrintRow({"threshold", "cells", "reduction", "coverage",
                   "mean support", "res mix (5/6/7)"},
                  w);
  for (const uint64_t threshold : {10ull, 25ull, 50ull, 100ull, 400ull}) {
    const std::shared_ptr<const core::InventorySnapshot> adaptive =
        core::BuildAdaptiveInventory(fine, kCoarseRes, threshold).Seal();
    const std::map<int, uint64_t> per_resolution =
        CellsPerResolution(*adaptive);
    int covered = 0;
    double support_sum = 0;
    for (const geo::LatLng& p : probes) {
      if (const core::CellSummary* s =
              core::AdaptiveLookup(*adaptive, p, kCoarseRes)) {
        ++covered;
        support_sum += static_cast<double>(s->record_count());
      }
    }
    char mix[48];
    auto level = [&per_resolution](int res) {
      const auto it = per_resolution.find(res);
      return it == per_resolution.end() ? uint64_t{0} : it->second;
    };
    std::snprintf(mix, sizeof(mix), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(level(5)),
                  static_cast<unsigned long long>(level(6)),
                  static_cast<unsigned long long>(level(7)));
    char support[24];
    std::snprintf(support, sizeof(support), "%.0f",
                  covered == 0 ? 0.0 : support_sum / covered);
    bench::PrintRow(
        {std::to_string(threshold),
         bench::FormatCount(adaptive->DistinctCells()),
         bench::FormatPercent(CellReduction(*adaptive, fine_cells)),
         bench::FormatPercent(static_cast<double>(covered) /
                              static_cast<double>(probes.size())),
         support, mix},
        w);
  }

  bench::PrintHeader("Shape checks");
  const std::shared_ptr<const core::InventorySnapshot> mid =
      core::BuildAdaptiveInventory(fine, kCoarseRes, 50).Seal();
  const double mid_reduction = CellReduction(*mid, fine_cells);
  const std::map<int, uint64_t> mid_per_resolution = CellsPerResolution(*mid);
  std::printf("adaptive shrinks the inventory:           %s (%.0f%% fewer "
              "cells at threshold 50)\n",
              mid_reduction > 0.3 ? "PASS" : "FAIL", mid_reduction * 100);
  std::printf("dense areas keep the fine resolution:     %s\n",
              mid_per_resolution.count(7) ? "PASS" : "FAIL");
  std::printf("open sea collapses to coarse cells:       %s\n",
              mid_per_resolution.count(5) ? "PASS" : "FAIL");
  return 0;
}

}  // namespace
}  // namespace pol

int main() { return pol::Run(); }
