#include "usecases/anomaly.h"

#include <cmath>

#include "geo/geodesic.h"
#include "hexgrid/hexgrid.h"

namespace pol::uc {

AnomalyAssessment AnomalyDetector::Assess(const geo::LatLng& position,
                                          double sog_knots, double cog_deg,
                                          ais::MarketSegment segment) const {
  AnomalyAssessment assessment;
  const hex::CellIndex cell =
      hex::LatLngToCell(position, inventory_->resolution());
  // Segment-specific baseline when it carries enough history; otherwise
  // the all-traffic summary of the cell. Without a reliable baseline the
  // support reported is the all-traffic summary's.
  uint64_t all_traffic_support = 0;
  const auto reliable = [this, &all_traffic_support](
                            const core::CellSummary& candidate,
                            core::GroupingSet level) {
    if (level == core::GroupingSet::kCell) {
      all_traffic_support = candidate.record_count();
    }
    return candidate.record_count() >= config_.min_support;
  };
  const core::CellSummary* summary =
      inventory_->Resolve(cell, segment, sim::kNoPort, sim::kNoPort, reliable)
          .summary;
  assessment.cell_support =
      summary == nullptr ? all_traffic_support : summary->record_count();

  if (summary == nullptr) {
    assessment.off_lane = true;
    assessment.score = 1;
    return assessment;  // No reliable kinematic baseline off the lanes.
  }

  if (sog_knots < ais::kSogUnavailable && summary->speed().count() >= 2) {
    const double std_dev = summary->speed().StdDev();
    if (std_dev > 1e-6) {
      assessment.speed_z =
          std::fabs(sog_knots - summary->speed().Mean()) / std_dev;
      if (assessment.speed_z > config_.speed_sigmas) {
        assessment.speed_anomaly = true;
      }
    }
  }

  if (cog_deg < ais::kCogUnavailable &&
      summary->course_mean().count() > 0 &&
      summary->course_mean().ResultantLength() >=
          config_.min_course_concentration) {
    assessment.course_deviation_deg =
        geo::AngularDifferenceDeg(cog_deg, summary->course_mean().MeanDeg());
    if (assessment.course_deviation_deg > config_.course_tolerance_deg) {
      assessment.course_anomaly = true;
    }
  }

  assessment.score = (assessment.off_lane ? 1 : 0) +
                     (assessment.speed_anomaly ? 1 : 0) +
                     (assessment.course_anomaly ? 1 : 0);
  return assessment;
}

}  // namespace pol::uc
