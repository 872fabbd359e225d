#ifndef POL_CORE_INVENTORY_BUILDER_H_
#define POL_CORE_INVENTORY_BUILDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "core/extractor.h"
#include "core/inventory.h"
#include "flow/stage.h"

// Incremental inventory construction — feature extraction (paper
// §3.3.4), the pipeline's sink after the chunk step (ChunkProcessor in
// pipeline.h). The builder owns the growing SummaryMap; each Fold call
// aggregates one chunk of projected records into it (map phase parallel
// over the chunk's partitions, reduce phase folded in ascending
// partition order), and Finish seals the result into an Inventory.
//
// Determinism contract: folding chunks in ascending chunk order is
// bit-identical to a single Fold over the union of the chunks, as long
// as the chunks are a partition-ordered split of one global vessel
// partitioning (SplitReportsByVessel + ChunkProcessor produce exactly
// that). This is what makes chunked builds reproduce the single-shot
// serialized inventory byte for byte, and lets new data batches fold
// into an existing build without reprocessing the archive.

namespace pol::core {

class InventoryBuilder {
 public:
  explicit InventoryBuilder(const ExtractorConfig& config)
      : config_(config) {
    metrics_.name = "extraction";
  }

  // Aggregates one chunk of projected records (ProjectToGrid output)
  // into the summaries. Call in ascending chunk order; Fold itself is
  // sequential (the caller serializes chunk results — see StageRunner),
  // but each call parallelizes its map phase over the chunk's
  // partitions.
  void Fold(const flow::Dataset<PipelineRecord>& projected);

  // Records aggregated so far across all folds.
  uint64_t records_folded() const { return records_; }

  // Summaries built so far.
  size_t size() const { return summaries_.size(); }

  // Per-stage metrics of the extraction stage (records in = folded
  // records, records out = summaries, wall time summed over folds).
  const flow::StageMetrics& metrics() const { return metrics_; }

  // Serializes the in-progress build (summaries + fold accounting) so a
  // checkpoint can resume it. Same canonical key order as
  // Inventory::SerializeTo; framing (magic/CRC) is the caller's job —
  // see core/checkpoint.h. Note: summary serialization flushes t-digest
  // buffers, which mutates equivalent internal state of the live
  // summaries; resumed and uninterrupted runs therefore only compare
  // byte-identical when both use the same checkpoint schedule.
  void SerializeState(std::string* out) const;

  // Restores a build serialized by SerializeState into this (fresh)
  // builder. Fails with Corruption on malformed input and
  // FailedPrecondition on a resolution mismatch with the config.
  Status RestoreState(std::string_view input);

  // Seals the build. The builder is consumed.
  Inventory Finish() && {
    return Inventory(config_.resolution, std::move(summaries_));
  }

 private:
  ExtractorConfig config_;
  SummaryMap summaries_;
  uint64_t records_ = 0;
  flow::StageMetrics metrics_;
};

}  // namespace pol::core

#endif  // POL_CORE_INVENTORY_BUILDER_H_
