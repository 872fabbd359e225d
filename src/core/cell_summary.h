#ifndef POL_CORE_CELL_SUMMARY_H_
#define POL_CORE_CELL_SUMMARY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/records.h"
#include "stats/circular.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/spacesaving.h"
#include "stats/tdigest.h"
#include "stats/welford.h"

// The per-group statistical summary — the feature set of Table 3:
//
//   Records      Cnt
//   Ships        Dist           (HyperLogLog over MMSIs)
//   Course       Mean*, Bins    (circular mean; 30-degree bins)
//   Heading      Mean*, Bins
//   Speed        Mean, Std, Percentiles (10/50/90)
//   Trips        Dist           (HyperLogLog over trip ids)
//   ETO          Mean, Std, Percentiles
//   ATA          Mean, Std, Percentiles
//   Origin       Top-N          (SpaceSaving over port ids)
//   Destination  Top-N
//   Transitions  Top-N          (SpaceSaving over next-cell ids)
//
// Summaries are mergeable (the reduce contract) and serialize into the
// inventory's binary format.

namespace pol::core {

// Size/accuracy constants. Inventories hold millions of summaries, so
// they favour compactness; the error envelopes stay well inside what
// the use cases need (see the accuracy tests). They fix the summary
// bytes, so changing one changes every stored image.
inline constexpr double kSummaryTDigestCompression = 25.0;
inline constexpr size_t kSummaryTopNCapacity = 12;
inline constexpr int kSummaryHllPrecision = 10;

class CellSummary {
 public:
  CellSummary();

  // Folds one trip-annotated record. Unavailable kinematic fields are
  // skipped; transition/next-cell is recorded when present.
  void Add(const PipelineRecord& record);

  void Merge(CellSummary&& other);

  // Feature accessors (Table 3 naming).
  uint64_t record_count() const { return record_count_; }
  const stats::HyperLogLog& ships() const { return ships_; }
  const stats::HyperLogLog& trips() const { return trips_; }
  const stats::CircularMean& course_mean() const { return course_mean_; }
  const stats::CircularMean& heading_mean() const { return heading_mean_; }
  const stats::Histogram& course_bins() const { return course_bins_; }
  const stats::Histogram& heading_bins() const { return heading_bins_; }
  const stats::Welford& speed() const { return speed_; }
  const stats::TDigest& speed_percentiles() const { return speed_q_; }
  const stats::Welford& eto() const { return eto_; }
  const stats::TDigest& eto_percentiles() const { return eto_q_; }
  const stats::Welford& ata() const { return ata_; }
  const stats::TDigest& ata_percentiles() const { return ata_q_; }
  const stats::SpaceSaving& origins() const { return origins_; }
  const stats::SpaceSaving& destinations() const { return destinations_; }
  const stats::SpaceSaving& transitions() const { return transitions_; }

  void Serialize(std::string* out) const;
  Status Deserialize(std::string_view* input);

  // Rough in-memory footprint, bytes (for capacity planning tests).
  size_t MemoryFootprint() const;

 private:
  uint64_t record_count_ = 0;
  stats::HyperLogLog ships_;
  stats::HyperLogLog trips_;
  stats::CircularMean course_mean_;
  stats::CircularMean heading_mean_;
  stats::Histogram course_bins_;
  stats::Histogram heading_bins_;
  stats::Welford speed_;
  stats::TDigest speed_q_;
  stats::Welford eto_;
  stats::TDigest eto_q_;
  stats::Welford ata_;
  stats::TDigest ata_q_;
  stats::SpaceSaving origins_;
  stats::SpaceSaving destinations_;
  stats::SpaceSaving transitions_;
};

}  // namespace pol::core

#endif  // POL_CORE_CELL_SUMMARY_H_
