#include "core/adaptive.h"

#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {

Inventory BuildAdaptiveInventory(const InventoryQuery& fine, int coarse_res,
                                 uint64_t dense_threshold) {
  const int fine_res = fine.resolution();
  POL_CHECK(coarse_res >= 0 && coarse_res <= fine_res);

  // Bottom-up: per-level summary maps, each level the merge of the one
  // below. levels[r - coarse_res] holds resolution r. The maps are
  // ordered so that every parent merges its children in ascending cell
  // order: the result then does not depend on the order `fine` visits
  // its cells in (a build side and a snapshot differ there).
  const int num_levels = fine_res - coarse_res + 1;
  std::vector<std::map<hex::CellIndex, CellSummary>> levels(
      static_cast<size_t>(num_levels));
  // Children of each cell, per level (for the top-down cut).
  std::vector<std::unordered_map<hex::CellIndex, std::vector<hex::CellIndex>>>
      children(static_cast<size_t>(num_levels));

  // Seed the finest level from the (cell) grouping set.
  auto& finest = levels[static_cast<size_t>(num_levels - 1)];
  fine.VisitGroupingSet(GroupingSet::kCell,
                        [&finest](const GroupKey& key, const CellSummary& s) {
                          finest.emplace(key.cell, s);  // Copyable.
                        });

  // Merge upward level by level.
  for (int level = num_levels - 1; level > 0; --level) {
    auto& lower = levels[static_cast<size_t>(level)];
    auto& upper = levels[static_cast<size_t>(level - 1)];
    auto& kids = children[static_cast<size_t>(level - 1)];
    const int upper_res = coarse_res + level - 1;
    for (auto& [cell, summary] : lower) {
      const hex::CellIndex parent = hex::CellToParent(cell, upper_res);
      // The lower-level summary must stay intact (it may be emitted by
      // the cut), so the parent gets a copy.
      CellSummary copy = summary;
      auto [it, inserted] = upper.try_emplace(parent);
      if (inserted) {
        it->second = std::move(copy);
      } else {
        it->second.Merge(std::move(copy));
      }
      kids[parent].push_back(cell);
    }
  }

  // Top-down cut: keep a cell when it is sparse or already finest;
  // otherwise descend into its children.
  SummaryMap result;
  std::vector<std::pair<int, hex::CellIndex>> stack;
  for (const auto& [cell, summary] : levels[0]) {
    stack.push_back({0, cell});
  }
  while (!stack.empty()) {
    const auto [level, cell] = stack.back();
    stack.pop_back();
    auto& level_map = levels[static_cast<size_t>(level)];
    const auto it = level_map.find(cell);
    if (it == level_map.end()) continue;
    const bool can_split = level + 1 < num_levels;
    if (can_split && it->second.record_count() >= dense_threshold) {
      for (const hex::CellIndex child :
           children[static_cast<size_t>(level)][cell]) {
        stack.push_back({level + 1, child});
      }
    } else {
      result.emplace(KeyCell(cell), std::move(it->second));
    }
  }
  return Inventory(fine_res, std::move(result));
}

const CellSummary* AdaptiveLookup(const InventoryQuery& adaptive,
                                  const geo::LatLng& position, int coarse_res,
                                  int* resolution) {
  const int fine_res = adaptive.resolution();
  // Probe coarse to fine along the point's own ancestor chain.
  for (int res = coarse_res; res <= fine_res; ++res) {
    if (const CellSummary* summary =
            adaptive.Cell(hex::LatLngToCell(position, res))) {
      if (resolution != nullptr) *resolution = res;
      return summary;
    }
  }
  // Containment is approximate near boundaries: fall back to the finest
  // level's immediate neighbours.
  const hex::CellIndex fine_cell = hex::LatLngToCell(position, fine_res);
  for (const hex::CellIndex neighbor : hex::Neighbors(fine_cell)) {
    if (const CellSummary* summary = adaptive.Cell(neighbor)) {
      if (resolution != nullptr) *resolution = fine_res;
      return summary;
    }
  }
  return nullptr;
}

}  // namespace pol::core
