#include "core/inventory_snapshot.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "core/serving_metric_names.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pol::core {
namespace {

// The canonical key order of the flat arrays (and of the serialized
// inventory format): cell first, then the packed dimensions.
bool KeyLess(const GroupKey& a, const GroupKey& b) {
  if (a.cell != b.cell) return a.cell < b.cell;
  return GroupKeyDimsPacked(a) < GroupKeyDimsPacked(b);
}

}  // namespace

const CellSummary* InventorySnapshot::Lookup(GroupingSet set,
                                             const GroupKey& key) const {
  const GroupArray& group = groups_[static_cast<size_t>(set)];
  const auto it =
      std::lower_bound(group.keys.begin(), group.keys.end(), key, KeyLess);
  if (it == group.keys.end() || !(*it == key)) return nullptr;
  return &group.values[static_cast<size_t>(it - group.keys.begin())];
}

const CellSummary* InventorySnapshot::Cell(hex::CellIndex cell) const {
  return Lookup(GroupingSet::kCell, KeyCell(cell));
}

const CellSummary* InventorySnapshot::CellType(
    hex::CellIndex cell, ais::MarketSegment segment) const {
  return Lookup(GroupingSet::kCellType, KeyCellType(cell, segment));
}

const CellSummary* InventorySnapshot::CellRouteType(
    hex::CellIndex cell, sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  return Lookup(GroupingSet::kCellRouteType,
                KeyCellRouteType(cell, origin, destination, segment));
}

std::vector<hex::CellIndex> InventorySnapshot::CellsForRoute(
    sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  return route_index_.CellsWithReversedFallback(origin, destination, segment);
}

std::vector<ais::MarketSegment> InventorySnapshot::SegmentsAt(
    hex::CellIndex cell) const {
  const auto it = std::lower_bound(
      segment_index_.begin(), segment_index_.end(), cell,
      [](const CellSegments& entry, hex::CellIndex c) {
        return entry.cell < c;
      });
  std::vector<ais::MarketSegment> segments;
  if (it == segment_index_.end() || it->cell != cell) return segments;
  for (int bit = 0; bit < ais::kNumMarketSegments; ++bit) {
    if ((it->mask >> bit) & 1) {
      segments.push_back(static_cast<ais::MarketSegment>(bit));
    }
  }
  return segments;
}

void InventorySnapshot::VisitGroupingSet(GroupingSet set,
                                         const SummaryVisitor& visitor) const {
  const GroupArray& group = groups_[static_cast<size_t>(set)];
  for (size_t i = 0; i < group.keys.size(); ++i) {
    visitor(group.keys[i], group.values[i]);
  }
}

bool InventorySnapshot::VisitGroupingSetWhile(
    GroupingSet set, const CancellableVisitor& visitor) const {
  const GroupArray& group = groups_[static_cast<size_t>(set)];
  for (size_t i = 0; i < group.keys.size(); ++i) {
    if (!visitor(group.keys[i], group.values[i])) return false;
  }
  return true;
}

uint64_t InventorySnapshot::DistinctCells() const {
  return groups_[static_cast<size_t>(GroupingSet::kCell)].keys.size();
}

std::shared_ptr<const InventorySnapshot> Inventory::Seal() const {
  POL_TRACE_SPAN("inventory.seal");
  const double start = obs::NowSeconds();
  auto snapshot =
      std::make_shared<InventorySnapshot>(InventorySnapshot::SealTag{});
  snapshot->resolution_ = resolution_;
  snapshot->total_ = summaries_.size();

  // Flat sorted key/summary arrays per grouping set. Sort pointers into
  // the map first so each summary is copied exactly once, directly into
  // its final slot.
  std::array<std::vector<const SummaryMap::value_type*>, kNumGroupingSets>
      per_set;
  for (const auto& entry : summaries_) {
    const size_t set = entry.first.grouping_set;
    if (set < kNumGroupingSets) per_set[set].push_back(&entry);
  }
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    auto& pointers = per_set[set];
    std::sort(pointers.begin(), pointers.end(),
              [](const SummaryMap::value_type* a,
                 const SummaryMap::value_type* b) {
                return KeyLess(a->first, b->first);
              });
    InventorySnapshot::GroupArray& group = snapshot->groups_[set];
    group.keys.reserve(pointers.size());
    group.values.reserve(pointers.size());
    for (const SummaryMap::value_type* entry : pointers) {
      group.keys.push_back(entry->first);
      group.values.push_back(entry->second);
    }
    snapshot->stats_.summaries_per_set[set] = pointers.size();
  }

  // Secondary index 1: (origin, destination, segment) -> cells. The
  // build side keeps it current with the key set, so sealing copies it.
  snapshot->route_index_ = route_index_;
  snapshot->stats_.route_index_routes = snapshot->route_index_.routes();
  snapshot->stats_.route_index_cells = snapshot->route_index_.cells();

  // Secondary index 2: cell -> present-segments bitmask, derived from
  // the already-sorted (cell, type) key array.
  const InventorySnapshot::GroupArray& cell_type =
      snapshot->groups_[static_cast<size_t>(GroupingSet::kCellType)];
  for (const GroupKey& key : cell_type.keys) {
    if (key.segment >= ais::kNumMarketSegments) continue;
    if (snapshot->segment_index_.empty() ||
        snapshot->segment_index_.back().cell != key.cell) {
      snapshot->segment_index_.push_back(
          InventorySnapshot::CellSegments{key.cell, 0});
    }
    snapshot->segment_index_.back().mask = static_cast<uint16_t>(
        snapshot->segment_index_.back().mask | (uint16_t{1} << key.segment));
  }
  snapshot->stats_.segment_index_cells = snapshot->segment_index_.size();

  snapshot->stats_.seal_seconds = obs::NowSeconds() - start;
  // Process-wide seal ordinal: the snapshot id the serving telemetry
  // joins query-log rows and the active_id gauge on.
  static std::atomic<uint64_t> seal_counter{0};
  snapshot->stats_.seal_sequence =
      seal_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  auto& registry = obs::Registry::Global();
  registry.histogram(kMetricServingSealSeconds)
      ->Record(snapshot->stats_.seal_seconds);
  registry.counter(kMetricServingSeals)->Increment();
  return snapshot;
}

}  // namespace pol::core
