#ifndef POL_CORE_INVENTORY_QUERY_H_
#define POL_CORE_INVENTORY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/cell_summary.h"
#include "core/group_key.h"

// The narrow read-side interface of the global inventory (the paper's
// section 4 query surface). Every consumer — the usecases, polinv, the
// examples and the benches — binds to this interface, never to a
// concrete store: the same estimator runs against the mutable
// build-side `Inventory`, an immutable `InventorySnapshot` (sealed from
// it or mapped from a stored generation — one class either way), or a
// hot-swappable `ServingInventory`. pollint's
// `inventory-query` rule enforces the boundary by flagging direct
// `summaries()` map iteration outside src/core/.

namespace pol::core {

class InventoryQuery {
 public:
  virtual ~InventoryQuery();

  // Grid resolution all keys are expressed at.
  virtual int resolution() const = 0;

  // Total summaries across all grouping sets.
  virtual size_t size() const = 0;

  // Point lookups per grouping set; nullptr when the group is absent.
  // Returned pointers stay valid for the lifetime of the queried store
  // (for ServingInventory: of the snapshot they were answered from).
  virtual const CellSummary* Cell(hex::CellIndex cell) const = 0;
  virtual const CellSummary* CellType(hex::CellIndex cell,
                                      ais::MarketSegment segment) const = 0;
  virtual const CellSummary* CellRouteType(hex::CellIndex cell,
                                           sim::PortId origin,
                                           sim::PortId destination,
                                           ais::MarketSegment segment)
      const = 0;

  // All cells carrying a summary for an (origin, destination, segment)
  // key — the route-forecasting query of section 4.1.3 — in ascending
  // cell order. A route key with no summaries answers with the
  // *reversed* pair's cells when those exist: corridors are recorded
  // directionally, and the silent empty answer on a return voyage was a
  // long-standing trap (see DESIGN.md §3.5).
  virtual std::vector<hex::CellIndex> CellsForRoute(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const = 0;

  // Market segments with a (cell, type) summary at `cell`, ascending.
  virtual std::vector<ais::MarketSegment> SegmentsAt(
      hex::CellIndex cell) const = 0;

  // Visits every summary of one grouping set. Visit order is
  // unspecified for map-backed stores and ascending (cell, dims) for
  // snapshots; aggregations must not depend on it.
  using SummaryVisitor =
      std::function<void(const GroupKey&, const CellSummary&)>;
  virtual void VisitGroupingSet(GroupingSet set,
                                const SummaryVisitor& visitor) const = 0;

  // Like VisitGroupingSet, but the visitor returns false to stop the
  // walk — the cooperative-cancellation hook the serving guard threads
  // per-call deadlines through (see core/serving_guard.h). Returns true
  // when every summary was visited, false when a visitor stopped early.
  // The base implementation suppresses visits after a stop (correct for
  // any store); Inventory and InventorySnapshot override it with a real
  // early exit out of the walk.
  using CancellableVisitor =
      std::function<bool(const GroupKey&, const CellSummary&)>;
  virtual bool VisitGroupingSetWhile(GroupingSet set,
                                     const CancellableVisitor& visitor) const;

  // Distinct cells in grouping set 1 (the Table 4 "#Cells"). Default
  // counts via VisitGroupingSet; snapshots answer in O(1).
  virtual uint64_t DistinctCells() const;

  // --- Conveniences shared by every implementation. ---

  // Summary of the cell containing a position (the "query for a
  // specific location" of the paper's abstract).
  const CellSummary* AtPosition(const geo::LatLng& position) const;

  // The most frequent destination port for a cell (optionally per
  // segment); kNoPort when unknown.
  sim::PortId TopDestination(hex::CellIndex cell, ais::MarketSegment segment,
                             bool any_segment) const;
};

}  // namespace pol::core

#endif  // POL_CORE_INVENTORY_QUERY_H_
