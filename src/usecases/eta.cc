#include "usecases/eta.h"

#include "hexgrid/hexgrid.h"

namespace pol::uc {
namespace {

EtaEstimate FromSummary(const core::CellSummary& summary, int grouping_set) {
  EtaEstimate estimate;
  estimate.seconds = summary.ata().Mean();
  estimate.p10_seconds = summary.ata_percentiles().Quantile(0.1);
  estimate.p90_seconds = summary.ata_percentiles().Quantile(0.9);
  estimate.support = summary.ata().count();
  estimate.grouping_set = grouping_set;
  return estimate;
}

}  // namespace

Result<EtaEstimate> EtaEstimator::Estimate(const geo::LatLng& position,
                                           ais::MarketSegment segment,
                                           sim::PortId origin,
                                           sim::PortId destination) const {
  const hex::CellIndex cell =
      hex::LatLngToCell(position, inventory_->resolution());
  if (cell == hex::kInvalidCell) {
    return Status::InvalidArgument("bad position");
  }
  const core::InventoryQuery::Resolved resolved = inventory_->Resolve(
      cell, segment, origin, destination,
      [](const core::CellSummary& summary, core::GroupingSet) {
        return summary.ata().count() > 0;
      });
  if (resolved.summary != nullptr) {
    return FromSummary(*resolved.summary, static_cast<int>(resolved.level));
  }
  return Status::NotFound("no historical arrivals for this cell");
}

}  // namespace pol::uc
