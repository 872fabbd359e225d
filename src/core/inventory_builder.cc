#include "core/inventory_builder.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/varint.h"
#include "hexgrid/hexgrid.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace pol::core {

void InventoryBuilder::Fold(const flow::Dataset<PipelineRecord>& projected) {
  POL_TRACE_SPAN("stage.extraction");
  const double start = obs::NowSeconds();
  const size_t partitions = static_cast<size_t>(projected.num_partitions());
  const SummaryParams& params = config_.summary_params;

  // Map phase: per-partition grouping. Each record feeds up to three
  // grouping sets (Table 2).
  std::vector<SummaryMap> locals(partitions);
  size_t peak_partition = 0;
  projected.pool()->ParallelFor(partitions, [&](size_t p) {
    SummaryMap& local = locals[p];
    for (const PipelineRecord& record :
         projected.partition(static_cast<int>(p))) {
      if (record.cell == hex::kInvalidCell) continue;
      if (config_.gi_cell) {
        local.try_emplace(KeyCell(record.cell), params)
            .first->second.Add(record);
      }
      if (config_.gi_cell_type) {
        local.try_emplace(KeyCellType(record.cell, record.segment), params)
            .first->second.Add(record);
      }
      if (config_.gi_cell_route_type && record.trip_id != 0) {
        local
            .try_emplace(KeyCellRouteType(record.cell, record.origin,
                                          record.destination, record.segment),
                         params)
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
    SpliceSummaries(&summaries_, &locals[p]);
    SummaryMap().swap(locals[p]);  // Free before touching the next one.
  }

  const uint64_t records_in = projected.Count();
  records_ += records_in;
  ++metrics_.chunks;
  metrics_.records_in += records_in;
  metrics_.records_out = summaries_.size();
  metrics_.peak_partition = std::max(metrics_.peak_partition, peak_partition);
  const double seconds = obs::NowSeconds() - start;
  metrics_.wall_seconds += seconds;
  flow::internal::RecordStageRegistryMetrics(metrics_.name, seconds);
}

void InventoryBuilder::SerializeState(std::string* out) const {
  PutVarint64(out, static_cast<uint64_t>(config_.resolution));
  PutVarint64(out, records_);
  PutVarint64(out, metrics_.chunks);
  PutVarint64(out, metrics_.records_in);
  PutVarint64(out, metrics_.peak_partition);
  PutDouble(out, metrics_.wall_seconds);
  PutVarint64(out, summaries_.size());
  // Canonical key order, shared with Inventory::SerializeTo, so two
  // builders with equal state serialize to equal bytes.
  SerializeSummaryRecords(summaries_, out);
}

Status InventoryBuilder::RestoreState(std::string_view input) {
  uint64_t resolution = 0;
  uint64_t records = 0;
  uint64_t chunks = 0;
  uint64_t records_in = 0;
  uint64_t peak_partition = 0;
  double wall_seconds = 0.0;
  uint64_t count = 0;
  POL_RETURN_IF_ERROR(GetVarint64(&input, &resolution));
  POL_RETURN_IF_ERROR(GetVarint64(&input, &records));
  POL_RETURN_IF_ERROR(GetVarint64(&input, &chunks));
  POL_RETURN_IF_ERROR(GetVarint64(&input, &records_in));
  POL_RETURN_IF_ERROR(GetVarint64(&input, &peak_partition));
  POL_RETURN_IF_ERROR(GetDouble(&input, &wall_seconds));
  POL_RETURN_IF_ERROR(GetVarint64(&input, &count));
  if (resolution != static_cast<uint64_t>(config_.resolution)) {
    return Status::FailedPrecondition(
        "checkpoint resolution does not match builder config");
  }
  SummaryMap summaries;
  POL_RETURN_IF_ERROR(DeserializeSummaryRecords(&input, count, &summaries));
  if (!input.empty()) {
    return Status::Corruption("trailing bytes in builder state");
  }
  summaries_ = std::move(summaries);
  records_ = records;
  metrics_.chunks = chunks;
  metrics_.records_in = records_in;
  metrics_.records_out = summaries_.size();
  metrics_.peak_partition = static_cast<size_t>(peak_partition);
  metrics_.wall_seconds = wall_seconds;
  return Status::OK();
}

}  // namespace pol::core
