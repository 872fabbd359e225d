#ifndef POL_CORE_ADAPTIVE_H_
#define POL_CORE_ADAPTIVE_H_

#include <cstdint>

#include "core/inventory.h"

// Adaptive (non-uniform) inventory — the paper's stated future work
// ("using larger cells in open sea areas which are known to have low
// vessel traffic density, preserving at the same time high resolution in
// dense areas, such as the ones near the ports", section 5), implemented
// here on top of the hierarchical grid.
//
// Construction is bottom-up from a uniform fine-resolution inventory:
// summaries are merged into parents level by level (all Table-3
// statistics are mergeable), then the tree is cut top-down — a cell is
// split into its children only while it carries at least
// `dense_threshold` records and has not reached the fine resolution.
// The emitted cells form a (near-)partition of the covered area at mixed
// resolutions, and they are the (cell) grouping set of an ordinary
// Inventory: it seals, serializes, publishes and serves like any other.
//
// Note on exactness: parent/child containment in the grid is
// approximate (as in H3), so a point close to a cell boundary can fall
// into a sibling at the finer level; AdaptiveLookup therefore probes the
// coarse-to-fine ancestor chain and falls back to the point's immediate
// neighbours at the finest level.

namespace pol::core {

// Builds from the (cell) grouping set of a uniform inventory (a build
// side or a served snapshot) at `fine.resolution()`. The result is at
// that resolution too, and its (cell) set holds the cut's cells. Cells
// coarser than `coarse_res` are never produced; `dense_threshold` is
// the record count at which a cell keeps its children.
Inventory BuildAdaptiveInventory(const InventoryQuery& fine, int coarse_res,
                                 uint64_t dense_threshold);

// The summary of the (variable-resolution) cell of `adaptive` that
// contains `position`, and the resolution it was answered at; nullptr
// when uncovered. `coarse_res` is the one the inventory was built with.
const CellSummary* AdaptiveLookup(const InventoryQuery& adaptive,
                                  const geo::LatLng& position, int coarse_res,
                                  int* resolution = nullptr);

}  // namespace pol::core

#endif  // POL_CORE_ADAPTIVE_H_
