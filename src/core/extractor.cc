#include "core/extractor.h"

#include <utility>
#include <vector>

#include "core/inventory_builder.h"
#include "hexgrid/hexgrid.h"

namespace pol::core {

flow::Dataset<PipelineRecord> ProjectToGrid(
    const flow::Dataset<PipelineRecord>& records, int resolution) {
  return records.MapPartitions(
      [resolution](const std::vector<PipelineRecord>& part) {
        std::vector<PipelineRecord> out;
        out.reserve(part.size());
        for (const PipelineRecord& record : part) {
          PipelineRecord projected = record;
          projected.cell =
              hex::LatLngToCell({record.lat_deg, record.lng_deg}, resolution);
          projected.next_cell = hex::kInvalidCell;
          out.push_back(projected);
        }
        // Transitions: consecutive in-trip records of the same vessel
        // landing in different cells (order within the partition is the
        // vessel's time order).
        for (size_t i = 0; i + 1 < out.size(); ++i) {
          if (out[i].mmsi == out[i + 1].mmsi &&
              out[i].trip_id == out[i + 1].trip_id && out[i].trip_id != 0 &&
              out[i].cell != out[i + 1].cell &&
              out[i + 1].cell != hex::kInvalidCell) {
            out[i].next_cell = out[i + 1].cell;
          }
        }
        return out;
      });
}

void SpliceSummaries(SummaryMap* into, SummaryMap* from) {
  for (auto it = from->begin(); it != from->end();) {
    const auto node = it++;
    const auto present = into->find(node->first);
    if (present != into->end()) {
      present->second.Merge(std::move(node->second));
      continue;
    }
    into->insert(from->extract(node));
  }
  from->clear();
}

SummaryMap ExtractFeatures(const flow::Dataset<PipelineRecord>& projected,
                           const ExtractorConfig& config) {
  InventoryBuilder builder(config);
  builder.Fold(projected);
  return std::move(builder).TakeSummaries();
}

}  // namespace pol::core
