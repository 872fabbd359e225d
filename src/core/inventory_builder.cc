#include "core/inventory_builder.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hexgrid/hexgrid.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace pol::core {

void InventoryBuilder::Fold(const flow::Dataset<PipelineRecord>& projected) {
  POL_TRACE_SPAN("stage.extraction");
  const double start = obs::NowSeconds();
  const size_t partitions = static_cast<size_t>(projected.num_partitions());

  // Map phase: per-partition grouping. Each record feeds up to three
  // grouping sets (Table 2).
  std::vector<SummaryMap> locals(partitions);
  size_t peak_partition = 0;
  projected.pool()->ParallelFor(partitions, [&](size_t p) {
    SummaryMap& local = locals[p];
    for (const PipelineRecord& record :
         projected.partition(static_cast<int>(p))) {
      if (record.cell == hex::kInvalidCell) continue;
      local.try_emplace(KeyCell(record.cell)).first->second.Add(record);
      if (config_.gi_cell_type) {
        local.try_emplace(KeyCellType(record.cell, record.segment))
            .first->second.Add(record);
      }
      if (config_.gi_cell_route_type && record.trip_id != 0) {
        local
            .try_emplace(KeyCellRouteType(record.cell, record.origin,
                                          record.destination, record.segment))
            .first->second.Add(record);
      }
    }
  });

  // Reduce phase: fold partials into the builder's map in ascending
  // partition order (deterministic; summaries are mergeable by
  // construction). New keys splice across as map nodes, so only keys
  // that several partitions share pay a merge. Deliberately sequential:
  // inventories hold millions of summaries and the dominant cost is
  // memory, so each local map is released the moment it has been
  // folded — a bucket-parallel merge would pin every partial until the
  // end. The map phase above carries the parallelism.
  for (size_t p = 0; p < partitions; ++p) {
    peak_partition = std::max(
        peak_partition, projected.partition(static_cast<int>(p)).size());
    SpliceSummaries(&inventory_.summaries_, &locals[p]);
    SummaryMap().swap(locals[p]);  // Free before touching the next one.
  }

  ++metrics_.chunks;
  metrics_.records_in += projected.Count();
  metrics_.records_out = inventory_.size();
  metrics_.peak_partition = std::max(metrics_.peak_partition, peak_partition);
  const double seconds = obs::NowSeconds() - start;
  metrics_.wall_seconds += seconds;
  flow::internal::RecordStageRegistryMetrics(metrics_.name, seconds);
}

FoldAccounting InventoryBuilder::accounting() const {
  return {metrics_.chunks, metrics_.records_in, metrics_.peak_partition,
          metrics_.wall_seconds};
}

Status InventoryBuilder::RestoreState(std::string_view image,
                                      const FoldAccounting& accounting) {
  POL_ASSIGN_OR_RETURN(Inventory restored, Inventory::DeserializeFrom(image));
  if (restored.resolution() != config_.resolution) {
    return Status::FailedPrecondition(
        "checkpoint resolution does not match builder config");
  }
  inventory_ = std::move(restored);
  metrics_.chunks = accounting.chunks;
  metrics_.records_in = accounting.records;
  metrics_.records_out = inventory_.size();
  metrics_.peak_partition = static_cast<size_t>(accounting.peak_partition);
  metrics_.wall_seconds = accounting.wall_seconds;
  return Status::OK();
}

}  // namespace pol::core
