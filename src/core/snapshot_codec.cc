#include "core/snapshot_codec.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "common/varint.h"
#include "hexgrid/cell_index.h"
#include "store/snapshot_format.h"

namespace pol::core {
namespace {

Status Payload(std::string why) {
  return Status::DataLoss("POLSNAP1 payload: " + std::move(why));
}

Status ReadMetaVarint(std::string_view* meta, uint64_t* value,
                      std::string_view field) {
  if (!GetVarint64(meta, value).ok()) {
    return Payload("meta section truncated at " + std::string(field));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshotMeta(const SnapshotMeta& meta) {
  std::string out;
  PutVarint64(&out, kSnapPayloadVersion);
  PutVarint64(&out, static_cast<uint64_t>(meta.resolution));
  PutVarint64(&out, meta.total);
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    PutVarint64(&out, meta.stats.summaries_per_set[set]);
  }
  PutVarint64(&out, meta.stats.route_index_routes);
  PutVarint64(&out, meta.stats.route_index_cells);
  PutVarint64(&out, meta.stats.segment_index_cells);
  PutDouble(&out, meta.stats.seal_seconds);
  PutVarint64(&out, meta.stats.seal_sequence);
  return out;
}

Result<SnapshotMeta> DecodeSnapshotMeta(const store::SnapshotFileView& view) {
  POL_ASSIGN_OR_RETURN(std::string_view meta, view.Section(kSnapSectionMeta));
  uint64_t version = 0;
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &version, "version"));
  if (version != kSnapPayloadVersion) {
    return Payload("unsupported payload version " + std::to_string(version));
  }
  SnapshotMeta out;
  uint64_t resolution = 0;
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &resolution, "resolution"));
  if (resolution > hex::kMaxResolution) {
    return Payload("bad resolution " + std::to_string(resolution));
  }
  out.resolution = static_cast<int>(resolution);
  POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &out.total, "total"));
  // The total becomes size() and the active-summaries gauge, so it must
  // be exactly what the key sections hold (summed without overflow).
  uint64_t remaining = out.total;
  for (size_t set = 0; set < kNumGroupingSets; ++set) {
    uint64_t& count = out.stats.summaries_per_set[set];
    POL_RETURN_IF_ERROR(ReadMetaVarint(&meta, &count, "per-set count"));
    if (count > remaining) {
      return Payload("meta total is less than its per-set counts");
    }
    remaining -= count;
  }
  if (remaining != 0) {
    return Payload("meta total exceeds its per-set counts");
  }
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.route_index_routes, "route spans"));
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.route_index_cells, "route cells"));
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.segment_index_cells, "segment cells"));
  if (!GetDouble(&meta, &out.stats.seal_seconds).ok()) {
    return Payload("meta section truncated at seal seconds");
  }
  POL_RETURN_IF_ERROR(
      ReadMetaVarint(&meta, &out.stats.seal_sequence, "seal sequence"));
  return out;
}

Result<std::shared_ptr<const InventorySnapshot>> SnapshotFromOpened(
    store::SnapshotStore::Opened opened) {
  return InventorySnapshot::FromImage(std::move(opened));
}

Result<std::shared_ptr<const InventorySnapshot>> OpenLatestSnapshot(
    const store::SnapshotStore& store, uint64_t* generation) {
  std::shared_ptr<const InventorySnapshot> snapshot;
  POL_ASSIGN_OR_RETURN(
      const store::SnapshotStore::Opened opened,
      store.OpenLatest([&snapshot](store::SnapshotStore::Opened* candidate) {
        Result<std::shared_ptr<const InventorySnapshot>> served =
            SnapshotFromOpened(std::move(*candidate));
        if (!served.ok()) return served.status();
        snapshot = std::move(served).value();
        return Status::OK();
      }));
  if (generation != nullptr) *generation = opened.generation;
  return snapshot;
}

}  // namespace pol::core
