#include "core/inventory_query.h"

#include <utility>
#include <vector>

#include "hexgrid/hexgrid.h"

namespace pol::core {

InventoryQuery::~InventoryQuery() = default;

void InventoryQuery::VisitGroupingSet(GroupingSet set,
                                      const SummaryVisitor& visitor) const {
  VisitGroupingSetWhile(
      set, [&visitor](const GroupKey& key, const CellSummary& summary) {
        visitor(key, summary);
        return true;
      });
}

InventoryQuery::RouteCorridor InventoryQuery::CorridorForRoute(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  RouteCorridor corridor;
  corridor.cells = RouteCells(origin, destination, segment);
  corridor.origin = origin;
  corridor.destination = destination;
  if (corridor.cells.empty()) {
    std::vector<hex::CellIndex> reversed =
        RouteCells(destination, origin, segment);
    if (!reversed.empty()) {
      corridor.cells = std::move(reversed);
      corridor.origin = destination;
      corridor.destination = origin;
      corridor.reversed = true;
    }
  }
  return corridor;
}

const CellSummary* InventoryQuery::AtPosition(
    const geo::LatLng& position) const {
  return Cell(hex::LatLngToCell(position, resolution()));
}

sim::PortId InventoryQuery::TopDestination(hex::CellIndex cell,
                                           ais::MarketSegment segment,
                                           bool any_segment) const {
  const CellSummary* summary =
      any_segment ? Cell(cell) : CellType(cell, segment);
  if (summary == nullptr) return sim::kNoPort;
  const auto top = summary->destinations().TopN(1);
  if (top.empty()) return sim::kNoPort;
  return static_cast<sim::PortId>(top[0].key);
}

}  // namespace pol::core
