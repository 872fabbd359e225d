#include "core/adaptive.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/inventory_snapshot.h"
#include "core/pipeline.h"
#include "hexgrid/hexgrid.h"
#include "sim/fleet.h"

namespace pol::core {
namespace {

class AdaptiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetConfig config;
    config.seed = 606;
    config.commercial_vessels = 15;
    config.noncommercial_vessels = 0;
    config.start_time = 1640995200;
    config.end_time = config.start_time + 60 * kSecondsPerDay;
    config.coastal_interval_s = 300;
    config.ocean_interval_s = 900;
    output_ = new sim::SimulationOutput(sim::FleetSimulator(config).Run());

    PipelineConfig pipeline_config;
    pipeline_config.partitions = 4;
    pipeline_config.threads = 2;
    pipeline_config.resolution = 7;
    pipeline_config.extractor.gi_cell_type = false;
    pipeline_config.extractor.gi_cell_route_type = false;
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

constexpr uint64_t kThreshold = 20;
constexpr int kCoarseRes = 4;

// Adaptive (cell) keys per resolution level.
std::map<int, uint64_t> CellsPerResolution(const InventoryQuery& adaptive) {
  std::map<int, uint64_t> out;
  adaptive.VisitGroupingSet(GroupingSet::kCell,
                            [&out](const GroupKey& key, const CellSummary&) {
                              ++out[hex::CellResolution(key.cell)];
                            });
  return out;
}

uint64_t CellRecords(const InventoryQuery& inventory) {
  uint64_t records = 0;
  inventory.VisitGroupingSet(
      GroupingSet::kCell, [&records](const GroupKey&, const CellSummary& s) {
        records += s.record_count();
      });
  return records;
}

std::string Bytes(const CellSummary* summary) {
  if (summary == nullptr) return "<null>";
  std::string out;
  summary->Serialize(&out);
  return out;
}

// Every (cell key, summary bytes) pair, ordered by key.
std::map<hex::CellIndex, std::string> CellEntries(
    const InventoryQuery& inventory) {
  std::map<hex::CellIndex, std::string> out;
  inventory.VisitGroupingSet(
      GroupingSet::kCell, [&out](const GroupKey& key, const CellSummary& s) {
        out.emplace(key.cell, Bytes(&s));
      });
  return out;
}

sim::SimulationOutput* AdaptiveTest::output_ = nullptr;
PipelineResult* AdaptiveTest::result_ = nullptr;

TEST_F(AdaptiveTest, UsesFewerCellsThanUniform) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  const uint64_t fine_cells = result_->inventory->DistinctCells();
  EXPECT_GT(adaptive.size(), 0u);
  EXPECT_LT(adaptive.size(), fine_cells);
  // Only the (cell) grouping set is written.
  EXPECT_EQ(adaptive.DistinctCells(), adaptive.size());
  const double cell_reduction =
      1.0 - static_cast<double>(adaptive.DistinctCells()) /
                static_cast<double>(fine_cells);
  EXPECT_GT(cell_reduction, 0.3);  // Open ocean collapses hard.
}

TEST_F(AdaptiveTest, PreservesTotalRecordCount) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  uint64_t fine_records = 0;
  for (const auto& [key, summary] : result_->inventory->summaries()) {
    if (key.grouping_set == 0) fine_records += summary.record_count();
  }
  // The cut is a partition of the merged tree: no record lost or
  // double-counted.
  EXPECT_EQ(CellRecords(adaptive), fine_records);
}

TEST_F(AdaptiveTest, MixesResolutions) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  const std::map<int, uint64_t> per_resolution = CellsPerResolution(adaptive);
  // Both coarse and fine levels must be present (dense lanes stay fine,
  // open ocean collapses).
  EXPECT_GE(per_resolution.size(), 2u);
  EXPECT_TRUE(per_resolution.count(7));
  EXPECT_TRUE(per_resolution.count(4) || per_resolution.count(5));
}

TEST_F(AdaptiveTest, DenseCellsStayFine) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  EXPECT_EQ(adaptive.resolution(), result_->inventory->resolution());
  // Every emitted non-finest cell must be below the threshold (it was
  // not split), except cells already at the coarsest level whose parent
  // chain ended.
  adaptive.VisitGroupingSet(
      GroupingSet::kCell, [&adaptive](const GroupKey& key,
                                      const CellSummary& summary) {
        const int res = hex::CellResolution(key.cell);
        if (res < adaptive.resolution() && res > kCoarseRes) {
          EXPECT_LT(summary.record_count(), kThreshold)
              << hex::CellToString(key.cell);
        }
      });
}

TEST_F(AdaptiveTest, LookupFindsCoveringCell) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  // Sample traffic positions that the FINE inventory covers (raw
  // reports include moored and non-trip records that never entered any
  // inventory): the adaptive inventory must answer for almost all of
  // them (boundary fuzz from approximate containment is allowed but
  // rare).
  int hits = 0;
  int samples = 0;
  for (size_t i = 0; i < output_->reports.size(); i += 501) {
    const auto& report = output_->reports[i];
    if (!ais::ValidatePositionReport(report).ok()) continue;
    if (result_->inventory->AtPosition({report.lat_deg, report.lng_deg}) ==
        nullptr) {
      continue;
    }
    ++samples;
    int res = -1;
    const CellSummary* summary = AdaptiveLookup(
        adaptive, {report.lat_deg, report.lng_deg}, kCoarseRes, &res);
    if (summary != nullptr) {
      ++hits;
      EXPECT_GE(res, kCoarseRes);
      EXPECT_LE(res, adaptive.resolution());
      EXPECT_GT(summary->record_count(), 0u);
    }
  }
  ASSERT_GT(samples, 50);
  EXPECT_GT(hits, samples * 97 / 100);
}

TEST_F(AdaptiveTest, ThresholdControlsGranularity) {
  const Inventory aggressive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, 1000000);
  const Inventory fine_keeping =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, 1);
  // A huge threshold collapses everything to the coarse level; a tiny
  // one keeps every fine cell.
  EXPECT_LT(aggressive.size(), fine_keeping.size());
  EXPECT_EQ(CellsPerResolution(aggressive).count(7), 0u);
}

TEST_F(AdaptiveTest, DegenerateSameResolutionBuild) {
  const Inventory same =
      BuildAdaptiveInventory(*result_->inventory, 7, kThreshold);
  EXPECT_EQ(same.size(), result_->inventory->DistinctCells());
}

TEST_F(AdaptiveTest, BuildsFromAServedSnapshot) {
  // The builder reads only the InventoryQuery surface, so a sealed
  // (served) fine inventory yields the same adaptive inventory.
  const Inventory from_build_side =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  const Inventory from_snapshot =
      BuildAdaptiveInventory(*result_->inventory->Seal(), kCoarseRes,
                             kThreshold);
  std::string build_side_bytes;
  std::string snapshot_bytes;
  from_build_side.SerializeTo(&build_side_bytes);
  from_snapshot.SerializeTo(&snapshot_bytes);
  EXPECT_EQ(build_side_bytes, snapshot_bytes);
}

TEST_F(AdaptiveTest, SealedLookupMatchesBuildSide) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  const std::shared_ptr<const InventorySnapshot> sealed = adaptive.Seal();
  EXPECT_EQ(sealed->resolution(), adaptive.resolution());
  EXPECT_EQ(sealed->DistinctCells(), adaptive.DistinctCells());
  // Every valid report position — covered, at a cell edge or uncovered
  // — answers at the same level with the same summary bytes.
  int probes = 0;
  int answered = 0;
  for (size_t i = 0; i < output_->reports.size(); i += 97) {
    const auto& report = output_->reports[i];
    if (!ais::ValidatePositionReport(report).ok()) continue;
    const geo::LatLng position{report.lat_deg, report.lng_deg};
    int build_res = -1;
    int sealed_res = -1;
    const CellSummary* build_side =
        AdaptiveLookup(adaptive, position, kCoarseRes, &build_res);
    const CellSummary* served =
        AdaptiveLookup(*sealed, position, kCoarseRes, &sealed_res);
    ++probes;
    if (build_side != nullptr) ++answered;
    EXPECT_EQ(build_res, sealed_res) << i;
    EXPECT_EQ(Bytes(build_side), Bytes(served)) << i;
  }
  ASSERT_GT(probes, 500);
  EXPECT_GT(answered, 0);
  EXPECT_LT(answered, probes);  // Moored positions stay uncovered.
}

TEST_F(AdaptiveTest, SerializeRoundTripsMixedResolutionKeys) {
  const Inventory adaptive =
      BuildAdaptiveInventory(*result_->inventory, kCoarseRes, kThreshold);
  std::string bytes;
  adaptive.SerializeTo(&bytes);
  Result<Inventory> decoded = Inventory::DeserializeFrom(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->resolution(), adaptive.resolution());
  EXPECT_GE(CellsPerResolution(*decoded).size(), 2u);
  EXPECT_EQ(CellEntries(*decoded), CellEntries(adaptive));
  std::string reencoded;
  decoded->SerializeTo(&reencoded);
  EXPECT_EQ(reencoded, bytes);
}

}  // namespace
}  // namespace pol::core
