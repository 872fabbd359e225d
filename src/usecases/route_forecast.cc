#include "usecases/route_forecast.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"

namespace pol::uc {
namespace {

// Snaps a position to the nearest cell of the corridor set, within a few
// cell widths (a live vessel is rarely exactly on a historical centre).
hex::CellIndex SnapToCorridor(
    const std::unordered_set<hex::CellIndex>& corridor,
    const geo::LatLng& position, int res, double max_km) {
  const hex::CellIndex exact = hex::LatLngToCell(position, res);
  if (corridor.count(exact)) return exact;
  hex::CellIndex best = hex::kInvalidCell;
  double best_km = max_km;
  for (const hex::CellIndex cell : corridor) {
    const double d = geo::HaversineKm(position, hex::CellToLatLng(cell));
    if (d < best_km) {
      best_km = d;
      best = cell;
    }
  }
  return best;
}

}  // namespace

Result<RouteForecast> RouteForecaster::Forecast(
    const geo::LatLng& position, sim::PortId origin, sim::PortId destination,
    ais::MarketSegment segment) const {
  POL_ASSIGN_OR_RETURN(const sim::Port* dest_port,
                       ports_->Find(destination));
  const int res = inventory_->resolution();

  // The full set of cells historical voyages of this key crossed — or,
  // for a corridor recorded only the other way, of the reversed key.
  const core::InventoryQuery::RouteCorridor route =
      inventory_->CorridorForRoute(origin, destination, segment);
  const std::vector<hex::CellIndex>& cells = route.cells;
  if (cells.empty()) {
    return Status::NotFound("no historical cells for this route key");
  }
  const std::unordered_set<hex::CellIndex> corridor(cells.begin(),
                                                    cells.end());

  // Current and target cells (snapped into the corridor).
  const double snap_km = hex::EdgeLengthKm(res) * 5.0;
  const hex::CellIndex start =
      SnapToCorridor(corridor, position, res, snap_km);
  if (start == hex::kInvalidCell) {
    return Status::NotFound("position is outside the historical corridor");
  }
  const hex::CellIndex goal = SnapToCorridor(
      corridor, dest_port->position, res,
      dest_port->geofence_radius_km + hex::EdgeLengthKm(res) * 8.0);
  if (goal == hex::kInvalidCell) {
    return Status::NotFound("corridor does not reach the destination");
  }

  // Directed transition graph over the corridor. Summaries live under
  // the orientation that answered; a transition recorded on the
  // reversed key runs the other way on this voyage.
  std::unordered_map<hex::CellIndex, std::vector<hex::CellIndex>> edges;
  size_t edge_count = 0;
  for (const hex::CellIndex cell : cells) {
    const core::CellSummary* summary = inventory_->CellRouteType(
        cell, route.origin, route.destination, segment);
    if (summary == nullptr) continue;
    for (const auto& entry : summary->transitions().Entries()) {
      const hex::CellIndex next = entry.key;
      if (!corridor.count(next)) continue;
      if (route.reversed) {
        edges[next].push_back(cell);
      } else {
        edges[cell].push_back(next);
      }
      ++edge_count;
    }
  }
  // Bridge reporting gaps: reception is sparse mid-ocean, so consecutive
  // reports of the training voyages often skip cells and the recorded
  // transitions alone leave holes. Corridor cells within a few cell
  // widths of each other are connected bidirectionally — membership in
  // the corridor already certifies historical presence for this exact
  // route key, so bridging stays inside observed behaviour.
  {
    const double bridge_km = hex::EdgeLengthKm(res) * 4.5;
    std::vector<geo::LatLng> centers;
    centers.reserve(cells.size());
    for (const hex::CellIndex cell : cells) {
      centers.push_back(hex::CellToLatLng(cell));
    }
    // Bucket by the grandparent cell (~7 cell widths) so each cell is
    // only compared against candidates in its own and adjacent buckets.
    const int bucket_res = res >= 2 ? res - 2 : 0;
    std::unordered_map<hex::CellIndex, std::vector<size_t>> buckets;
    for (size_t i = 0; i < cells.size(); ++i) {
      buckets[hex::CellToParent(cells[i], bucket_res)].push_back(i);
    }
    for (const auto& [bucket_cell, members] : buckets) {
      for (const hex::CellIndex area : hex::GridDisk(bucket_cell, 1)) {
        const auto it = buckets.find(area);
        if (it == buckets.end()) continue;
        for (const size_t i : members) {
          for (const size_t j : it->second) {
            if (j <= i) continue;
            if (geo::HaversineKm(centers[i], centers[j]) <= bridge_km) {
              edges[cells[i]].push_back(cells[j]);
              edges[cells[j]].push_back(cells[i]);
              edge_count += 2;
            }
          }
        }
      }
    }
  }

  // A* with great-circle distance to the goal as the (admissible)
  // heuristic and centre-to-centre distance as the edge cost.
  const geo::LatLng goal_pos = hex::CellToLatLng(goal);
  using QueueEntry = std::pair<double, hex::CellIndex>;  // (f-score, cell).
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      open;
  std::unordered_map<hex::CellIndex, double> g_score;
  std::unordered_map<hex::CellIndex, hex::CellIndex> came_from;
  g_score[start] = 0.0;
  open.push({geo::HaversineKm(hex::CellToLatLng(start), goal_pos), start});
  while (!open.empty()) {
    const auto [f, cell] = open.top();
    open.pop();
    if (cell == goal) break;
    const auto g_it = g_score.find(cell);
    const double g = g_it->second;
    if (f > g + geo::HaversineKm(hex::CellToLatLng(cell), goal_pos) + 1e-6) {
      continue;  // Stale queue entry.
    }
    const auto edge_it = edges.find(cell);
    if (edge_it == edges.end()) continue;
    const geo::LatLng cell_pos = hex::CellToLatLng(cell);
    for (const hex::CellIndex next : edge_it->second) {
      const geo::LatLng next_pos = hex::CellToLatLng(next);
      const double tentative = g + geo::HaversineKm(cell_pos, next_pos);
      const auto it = g_score.find(next);
      if (it == g_score.end() || tentative < it->second - 1e-9) {
        g_score[next] = tentative;
        came_from[next] = cell;
        open.push({tentative + geo::HaversineKm(next_pos, goal_pos), next});
      }
    }
  }
  if (!g_score.count(goal)) {
    return Status::NotFound("transition graph does not connect to the goal");
  }

  RouteForecast forecast;
  forecast.distance_km = g_score[goal];
  forecast.graph_cells = corridor.size();
  forecast.graph_edges = edge_count;
  for (hex::CellIndex cell = goal;;) {
    forecast.cells.push_back(cell);
    const auto it = came_from.find(cell);
    if (it == came_from.end()) break;
    cell = it->second;
  }
  std::reverse(forecast.cells.begin(), forecast.cells.end());
  return forecast;
}

}  // namespace pol::uc
