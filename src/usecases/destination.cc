#include "usecases/destination.h"

#include <algorithm>
#include <vector>

#include "hexgrid/hexgrid.h"

namespace pol::uc {

bool DestinationPredictor::Observe(const geo::LatLng& position,
                                   ais::MarketSegment segment) {
  ++observations_;
  const hex::CellIndex cell =
      hex::LatLngToCell(position, inventory_->resolution());
  const auto any = [](const core::CellSummary&, core::GroupingSet) {
    return true;
  };
  const core::CellSummary* summary =
      inventory_->Resolve(cell, segment, sim::kNoPort, sim::kNoPort, any)
          .summary;
  if (summary == nullptr) return false;
  const auto top = summary->destinations().TopN(5);
  if (top.empty()) return false;
  // Age existing votes, then add the cell's destination shares.
  for (auto& [port, weight] : votes_) weight *= decay_;
  uint64_t total = 0;
  for (const auto& entry : top) total += entry.count;
  if (total == 0) return false;
  for (const auto& entry : top) {
    votes_[static_cast<sim::PortId>(entry.key)] +=
        static_cast<double>(entry.count) / static_cast<double>(total);
  }
  return true;
}

std::vector<DestinationGuess> DestinationPredictor::Ranking(size_t n) const {
  double total = 0.0;
  for (const auto& [port, weight] : votes_) total += weight;
  std::vector<DestinationGuess> ranking;
  ranking.reserve(votes_.size());
  for (const auto& [port, weight] : votes_) {
    ranking.push_back({port, total > 0.0 ? weight / total : 0.0});
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const DestinationGuess& a, const DestinationGuess& b) {
              if (a.share != b.share) return a.share > b.share;
              return a.port < b.port;
            });
  if (ranking.size() > n) ranking.resize(n);
  return ranking;
}

sim::PortId DestinationPredictor::Predict() const {
  const auto ranking = Ranking(1);
  return ranking.empty() ? sim::kNoPort : ranking[0].port;
}

}  // namespace pol::uc
