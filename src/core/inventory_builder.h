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
// inventory image byte for byte, and lets new data batches fold
// into an existing build without reprocessing the archive.

namespace pol::core {

// What a builder has folded, beside its summaries: the fold accounting
// a checkpoint carries in its meta (core/checkpoint.h), so a resumed
// run reports the extraction stage as an uninterrupted one does.
struct FoldAccounting {
  uint64_t chunks = 0;          // Fold calls.
  uint64_t records = 0;         // Records folded.
  uint64_t peak_partition = 0;  // Largest partition folded.
  double wall_seconds = 0.0;    // Fold time, summed.

  bool operator==(const FoldAccounting&) const = default;
};

class InventoryBuilder {
 public:
  explicit InventoryBuilder(const ExtractorConfig& config)
      : config_(config), inventory_(config.resolution, SummaryMap()) {
    metrics_.name = "extraction";
  }

  // Aggregates one chunk of projected records (ProjectToGrid output)
  // into the summaries. Call in ascending chunk order; Fold itself is
  // sequential (the caller serializes chunk results — see StageRunner),
  // but each call parallelizes its map phase over the chunk's
  // partitions.
  void Fold(const flow::Dataset<PipelineRecord>& projected);

  // Records aggregated so far across all folds.
  uint64_t records_folded() const { return metrics_.records_in; }

  // Summaries built so far.
  size_t size() const { return inventory_.size(); }

  // Per-stage metrics of the extraction stage (records in = folded
  // records, records out = summaries, wall time summed over folds).
  const flow::StageMetrics& metrics() const { return metrics_; }

  // What has been folded so far, for a checkpoint's meta.
  FoldAccounting accounting() const;

  // Writes the in-progress build's summaries as their canonical
  // POLSNAP1 image (Inventory::SerializeTo), so two builders with equal
  // summaries write equal bytes; a checkpoint stores it beside
  // accounting(). Note: summary serialization flushes t-digest buffers,
  // which mutates equivalent internal state of the live summaries;
  // resumed and uninterrupted runs therefore only compare
  // byte-identical when both use the same checkpoint schedule.
  void SerializeState(std::string* out) const { inventory_.SerializeTo(out); }

  // Restores a build written by SerializeState, with its accounting,
  // into this (fresh) builder. Fails with kDataLoss on a malformed
  // image and FailedPrecondition on a resolution mismatch with the
  // config; commits nothing on failure.
  Status RestoreState(std::string_view image,
                      const FoldAccounting& accounting);

  // Seals the build. The builder is consumed.
  Inventory Finish() && { return std::move(inventory_); }

 private:
  ExtractorConfig config_;
  Inventory inventory_;
  flow::StageMetrics metrics_;
};

}  // namespace pol::core

#endif  // POL_CORE_INVENTORY_BUILDER_H_
