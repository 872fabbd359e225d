#ifndef POL_CORE_ROUTE_INDEX_H_
#define POL_CORE_ROUTE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/extractor.h"

// Secondary index over the (cell, origin, destination, type) grouping
// set: (origin, destination, segment) -> the ascending list of cells
// that carry a summary for that route key. Turns CellsForRoute — and
// therefore the corridor lookup at the head of every A* route forecast —
// from a full scan of all summaries into one binary search plus a copy
// of the k result cells. Built at Inventory construction and rebuilt
// when a merge adds a route key; sealed snapshots copy it. Read-only
// afterwards, so concurrent lookups need no locking.

namespace pol::core {

class RouteIndex {
 public:
  // (Re)builds the index from the route-grouping-set keys of a summary
  // map. Any previous contents are discarded.
  void Build(const SummaryMap& summaries);

  void Clear();

  // Cells of the exact (origin, destination, segment) key, ascending;
  // empty when the key has no summaries. O(log routes + k).
  std::vector<hex::CellIndex> Cells(sim::PortId origin,
                                    sim::PortId destination,
                                    ais::MarketSegment segment) const;

  // The CellsForRoute answer policy: the exact key's cells, or — when
  // that key is empty — the reversed pair's cells, so a query against
  // the return direction of a recorded corridor no longer silently
  // matches nothing.
  std::vector<hex::CellIndex> CellsWithReversedFallback(
      sim::PortId origin, sim::PortId destination,
      ais::MarketSegment segment) const;

  // Index sizes (for polinv stats and the snapshot stats block).
  size_t routes() const { return spans_.size(); }
  size_t cells() const { return cells_.size(); }

  // The canonical packed (origin, destination, segment) route key —
  // also the on-disk span key of the POLSNAP1 route-index section, so
  // the snapshot can binary-search spans straight off its image.
  static uint64_t PackRouteKey(sim::PortId origin, sim::PortId destination,
                               ais::MarketSegment segment);

  // Visits every span as (packed_route, begin, end) in sorted route
  // order, for Inventory::Seal's section writer.
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    for (const Span& span : spans_) fn(span.route, span.begin, span.end);
  }

  // The flat, span-ordered cell array the spans index into.
  const std::vector<hex::CellIndex>& cell_array() const { return cells_; }

 private:
  struct Span {
    uint64_t route = 0;  // Packed (origin, destination, segment).
    size_t begin = 0;    // Range into cells_.
    size_t end = 0;
  };

  const Span* Find(uint64_t packed) const;

  std::vector<Span> spans_;          // Sorted by packed route key.
  std::vector<hex::CellIndex> cells_;  // Ascending within each span.
};

}  // namespace pol::core

#endif  // POL_CORE_ROUTE_INDEX_H_
