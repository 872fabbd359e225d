#include "core/inventory.h"

#include <algorithm>
#include <string>
#include <vector>

#include "hexgrid/hex_math.h"

namespace pol::core {

Inventory::Inventory(int resolution, SummaryMap summaries)
    : resolution_(resolution), summaries_(std::move(summaries)) {}

const CellSummary* Inventory::Find(const GroupKey& key) const {
  const auto it = summaries_.find(key);
  return it == summaries_.end() ? nullptr : &it->second;
}

std::vector<hex::CellIndex> Inventory::RouteCells(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  std::vector<hex::CellIndex> cells;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set ==
            static_cast<uint8_t>(GroupingSet::kCellRouteType) &&
        key.origin == origin && key.destination == destination &&
        key.segment == static_cast<uint8_t>(segment)) {
      cells.push_back(key.cell);
    }
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

std::vector<ais::MarketSegment> Inventory::SegmentsAt(
    hex::CellIndex cell) const {
  std::vector<ais::MarketSegment> segments;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set == static_cast<uint8_t>(GroupingSet::kCellType) &&
        key.cell == cell) {
      segments.push_back(static_cast<ais::MarketSegment>(key.segment));
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

bool Inventory::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set != static_cast<uint8_t>(set)) continue;
    if (!visitor(key, summary)) return false;
  }
  return true;
}

uint64_t Inventory::DistinctCells() const {
  uint64_t cells = 0;
  for (const auto& [key, summary] : summaries_) {
    if (key.grouping_set == static_cast<uint8_t>(GroupingSet::kCell)) {
      ++cells;
    }
  }
  return cells;
}

CompressionReport Inventory::Compression(uint64_t records) const {
  CompressionReport report;
  report.resolution = resolution_;
  report.records = records;
  report.cells = DistinctCells();
  report.summaries = summaries_.size();
  report.compression =
      records == 0 ? 0.0
                   : 1.0 - static_cast<double>(report.cells) /
                               static_cast<double>(records);
  report.utilization = static_cast<double>(report.cells) /
                       static_cast<double>(hex::NumCells(resolution_));
  std::string bytes;
  SerializeTo(&bytes);
  report.serialized_bytes = bytes.size();
  return report;
}

Status Inventory::MergeFrom(Inventory&& other) {
  if (other.resolution_ != resolution_) {
    return Status::FailedPrecondition(
        "cannot merge inventories of different resolutions");
  }
  SpliceSummaries(&summaries_, &other.summaries_);
  return Status::OK();
}

}  // namespace pol::core
