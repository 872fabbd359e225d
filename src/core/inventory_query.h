#ifndef POL_CORE_INVENTORY_QUERY_H_
#define POL_CORE_INVENTORY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/cell_summary.h"
#include "core/group_key.h"

// The read side of the global inventory (the paper's section 4 query
// surface), and the one place query policy is decided. Every consumer —
// the usecases, polinv, the examples and the benches — binds to this
// class, never to a concrete store. Its two stores, the mutable
// build-side `Inventory` and the immutable `InventorySnapshot` (sealed
// from it or mapped from a stored generation — one class either way),
// supply only the virtual primitives below: one key lookup, the cells
// of one exact route key, the segments at a cell and one stoppable visit.
//
// The policy on top is defined once, here, and is not virtual: the
// per-grouping-set lookups, the reversed-port-pair rule of
// CellsForRoute, and the most-specific-first fallback ladder every
// section 4 usecase answers from (Resolve). pollint's
// `inventory-query` rule enforces the boundary by flagging direct
// `summaries()` map iteration outside src/core/.

namespace pol::core {

class InventoryQuery {
 public:
  virtual ~InventoryQuery();

  // --- Primitives: each store implements these. ---

  // Grid resolution all keys are expressed at.
  virtual int resolution() const = 0;

  // Total summaries across all grouping sets.
  virtual size_t size() const = 0;

  // The summary stored under `key`; nullptr when absent. Returned
  // pointers stay valid for the lifetime of the queried store.
  virtual const CellSummary* Find(const GroupKey& key) const = 0;

  // Cells carrying a summary under the exact (origin, destination,
  // segment) route key, ascending. No reversed-pair fallback: that
  // policy is CellsForRoute's.
  virtual std::vector<hex::CellIndex> RouteCells(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const = 0;

  // Market segments with a (cell, type) summary at `cell`, ascending.
  virtual std::vector<ais::MarketSegment> SegmentsAt(
      hex::CellIndex cell) const = 0;

  // Visits the summaries of one grouping set until the visitor returns
  // false — the cooperative-cancellation hook the serving guard threads
  // per-call deadlines through (see core/serving_guard.h). Returns true
  // when every summary was visited, false when a visitor stopped early.
  // Visit order is unspecified for map-backed stores and ascending
  // (cell, dims) for snapshots; aggregations must not depend on it.
  using CancellableVisitor =
      std::function<bool(const GroupKey&, const CellSummary&)>;
  virtual bool VisitGroupingSetWhile(
      GroupingSet set, const CancellableVisitor& visitor) const = 0;

  // Distinct cells in grouping set 1 (the Table 4 "#Cells").
  virtual uint64_t DistinctCells() const = 0;

  // --- Policy: defined once, over the primitives. ---

  // Visits every summary of one grouping set: VisitGroupingSetWhile
  // with a visitor that never stops.
  using SummaryVisitor =
      std::function<void(const GroupKey&, const CellSummary&)>;
  void VisitGroupingSet(GroupingSet set, const SummaryVisitor& visitor) const;

  // Point lookups per grouping set; nullptr when the group is absent.
  const CellSummary* Cell(hex::CellIndex cell) const {
    return Find(KeyCell(cell));
  }
  const CellSummary* CellType(hex::CellIndex cell,
                              ais::MarketSegment segment) const {
    return Find(KeyCellType(cell, segment));
  }
  const CellSummary* CellRouteType(hex::CellIndex cell, sim::PortId origin,
                                   sim::PortId destination,
                                   ais::MarketSegment segment) const {
    return Find(KeyCellRouteType(cell, origin, destination, segment));
  }

  // A route key's corridor and the port-pair orientation whose
  // summaries hold it. Corridors are recorded directionally: a key with
  // no cells answers with the reversed pair's cells when those exist,
  // and `origin`/`destination` then name that reversed pair — the key
  // to look the corridor's summaries up under (see DESIGN.md §3.5).
  struct RouteCorridor {
    std::vector<hex::CellIndex> cells;  // Ascending.
    sim::PortId origin = sim::kNoPort;
    sim::PortId destination = sim::kNoPort;
    bool reversed = false;  // True when (destination, origin) answered.
  };
  RouteCorridor CorridorForRoute(sim::PortId origin, sim::PortId destination,
                                 ais::MarketSegment segment) const;

  // The corridor's cells alone — the route-forecasting query of
  // section 4.1.3.
  std::vector<hex::CellIndex> CellsForRoute(sim::PortId origin,
                                            sim::PortId destination,
                                            ais::MarketSegment segment) const {
    return CorridorForRoute(origin, destination, segment).cells;
  }

  // The fallback ladder of the section 4 usecases: the most specific
  // grouping set whose summary `accept` takes answers. Levels, in
  // order: (cell, origin, destination, segment) — skipped when either
  // port is kNoPort — then (cell, segment), then (cell). `accept` is
  // called as accept(summary, level) for every present summary, in
  // ladder order, until one is taken. A null summary means no level
  // was accepted. A template so a usecase's acceptance test inlines
  // into its lookup loop.
  struct Resolved {
    const CellSummary* summary = nullptr;
    GroupingSet level = GroupingSet::kCell;
  };
  template <typename Accept>
  Resolved Resolve(hex::CellIndex cell, ais::MarketSegment segment,
                   sim::PortId origin, sim::PortId destination,
                   const Accept& accept) const {
    const auto offer = [&accept](const CellSummary* summary,
                                 GroupingSet level) {
      return summary != nullptr && accept(*summary, level);
    };
    if (origin != sim::kNoPort && destination != sim::kNoPort) {
      const CellSummary* route =
          CellRouteType(cell, origin, destination, segment);
      if (offer(route, GroupingSet::kCellRouteType)) {
        return {route, GroupingSet::kCellRouteType};
      }
    }
    const CellSummary* type = CellType(cell, segment);
    if (offer(type, GroupingSet::kCellType)) {
      return {type, GroupingSet::kCellType};
    }
    const CellSummary* all = Cell(cell);
    if (offer(all, GroupingSet::kCell)) return {all, GroupingSet::kCell};
    return {};
  }

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
