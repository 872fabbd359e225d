#ifndef POL_CORE_CLEANING_H_
#define POL_CORE_CLEANING_H_

#include <cstdint>
#include <vector>

#include "ais/messages.h"
#include "core/records.h"
#include "flow/dataset.h"

// Data cleaning and preprocessing (paper section 3.3.1):
//   1. protocol range validation of every field;
//   2. per-vessel partitioning and time-ordering;
//   3. exact-duplicate removal;
//   4. kinematic feasibility: transitions implying more than
//      `max_speed_knots` (default 50 kn) are discarded.

namespace pol::core {

struct CleaningConfig {
  int partitions = 8;
  double max_speed_knots = 50.0;
};

struct CleaningStats {
  uint64_t input = 0;
  uint64_t invalid_fields = 0;
  uint64_t duplicates = 0;
  uint64_t infeasible_jumps = 0;
  uint64_t kept = 0;

  bool operator==(const CleaningStats&) const = default;

  void Accumulate(const CleaningStats& other) {
    input += other.input;
    invalid_fields += other.invalid_fields;
    duplicates += other.duplicates;
    infeasible_jumps += other.infeasible_jumps;
    kept += other.kept;
  }
};

// Splits a raw archive into `chunks` vessel-coherent chunks over
// `partitions` hash partitions in total: every record of a vessel lands
// in the same partition, and each chunk holds a contiguous, balanced
// group of those partitions. This is the pipeline's chunk source —
// because chunk boundaries coincide with partition boundaries
// of the single global partitioning, running the per-partition stages
// chunk by chunk and folding results in ascending chunk order is
// bit-identical to one monolithic run (see dataset.h).
std::vector<flow::Dataset<ais::PositionReport>> SplitReportsByVessel(
    const std::vector<ais::PositionReport>& reports, int partitions,
    int chunks, flow::ThreadPool* pool);

// Cleans one vessel-coherent chunk (any output of SplitReportsByVessel):
// field validation, per-vessel time ordering, dedup, feasibility filter.
// Stats are ACCUMULATED into `*stats` so per-chunk calls sum to the
// archive totals (`input` and `kept` included).
flow::Dataset<PipelineRecord> CleanChunk(
    const flow::Dataset<ais::PositionReport>& chunk,
    const CleaningConfig& config, CleaningStats* stats);

// Runs the cleaning stage over a whole archive in one chunk, resetting
// `*stats` first (single-call totals). The result is partitioned by
// vessel and time-sorted within each vessel (each vessel's records are
// contiguous), ready for trip extraction.
flow::Dataset<PipelineRecord> CleanReports(
    const std::vector<ais::PositionReport>& reports,
    const CleaningConfig& config, flow::ThreadPool* pool,
    CleaningStats* stats);

}  // namespace pol::core

#endif  // POL_CORE_CLEANING_H_
