#ifndef POL_CORE_EXTRACTOR_H_
#define POL_CORE_EXTRACTOR_H_

#include <unordered_map>

#include "core/cell_summary.h"
#include "core/group_key.h"
#include "core/records.h"
#include "flow/dataset.h"

// Projection to the spatial index (paper section 3.3.3) and the
// extraction config over the grouping sets (section 3.3.4).
//
// Projection assigns each record its grid cell and, preserving the
// in-trip message order, the next distinct cell (the raw material of the
// Transitions feature). Extraction itself is InventoryBuilder::Fold
// (inventory_builder.h): a MapReduce over GroupKeys whose local
// per-partition maps merge in ascending partition order — the same
// structure Spark gives the original system.

namespace pol::core {

struct ExtractorConfig {
  int resolution = 6;
  // Which grouping sets of Table 2 to materialize.
  bool gi_cell = true;
  bool gi_cell_type = true;
  bool gi_cell_route_type = true;
  SummaryParams summary_params;
};

using SummaryMap =
    std::unordered_map<GroupKey, CellSummary, GroupKeyHash>;

// Folds `from` into `into` and leaves `from` empty. Keys absent from
// `into` move across as map nodes, so their summaries are neither
// copied nor reallocated; keys present merge their summaries. Nodes
// move in `from`'s iteration order.
void SpliceSummaries(SummaryMap* into, SummaryMap* from);

// Assigns `cell` and `next_cell` at the configured resolution. Records
// must be vessel-partitioned and time-sorted (ExtractTrips output).
flow::Dataset<PipelineRecord> ProjectToGrid(
    const flow::Dataset<PipelineRecord>& records, int resolution);

}  // namespace pol::core

#endif  // POL_CORE_EXTRACTOR_H_
