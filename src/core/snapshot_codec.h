#ifndef POL_CORE_SNAPSHOT_CODEC_H_
#define POL_CORE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/inventory_snapshot.h"
#include "store/snapshot_store.h"

// The inventory payload schema inside a POLSNAP1 container (the
// container framing itself lives in store/snapshot_format.h).
// Inventory::Seal() writes these columnar sections straight from the
// build-side map, and InventorySnapshot serves queries from them in
// place, whether the image was just sealed or mapped from a stored
// generation:
//
//   id 0x01  meta            varints: payload version, resolution,
//                            total, per-set counts, route span/cell
//                            counts, segment count, seal stats
//   id 0x10+s keys           16 B records {u64 cell, u64 packed dims},
//                            (cell, dims)-sorted — the binary-search
//                            array of grouping set s
//   id 0x20+s summary offs   u64[count+1] byte offsets into the blob
//   id 0x30+s summary blob   concatenated CellSummary::Serialize bytes
//   id 0x40  route spans     24 B records {u64 packed route, u64 begin,
//                            u64 end}, sorted by route key
//   id 0x41  route cells     u64 cell ids, span-ordered
//   id 0x42  segment index   16 B records {u64 cell, u64 mask}, sorted
//
// Fixed-width sections (keys, offsets, route index, segment masks) are
// binary-searched in place; variable-width CellSummary blobs are
// decoded lazily, one CAS-cached decode per entry on first access —
// cold start is mmap + CRC validation, with zero parsing and no
// re-Seal.

namespace pol::core {

// Section ids of the payload schema. `s` is the grouping-set ordinal.
inline constexpr uint32_t kSnapSectionMeta = 0x01;
inline constexpr uint32_t kSnapSectionKeysBase = 0x10;
inline constexpr uint32_t kSnapSectionSummaryOffsetsBase = 0x20;
inline constexpr uint32_t kSnapSectionSummaryBlobBase = 0x30;
inline constexpr uint32_t kSnapSectionRouteSpans = 0x40;
inline constexpr uint32_t kSnapSectionRouteCells = 0x41;
inline constexpr uint32_t kSnapSectionSegmentIndex = 0x42;

inline constexpr uint64_t kSnapPayloadVersion = 1;

// The meta section, decoded — also what `polinv snapshots` prints per
// generation without touching any payload section.
struct SnapshotMeta {
  int resolution = 0;
  uint64_t total = 0;
  InventorySnapshotStats stats;
};

// The meta section's bytes for `meta` at the current payload version.
std::string EncodeSnapshotMeta(const SnapshotMeta& meta);

// Decodes just the meta section of a validated view. kDataLoss when the
// section is missing, short, disagrees with the payload version, or
// its total is not the sum of its per-set counts.
Result<SnapshotMeta> DecodeSnapshotMeta(const store::SnapshotFileView& view);

// Opens the store's newest readable generation as a serving snapshot
// backed by the mapping (the returned snapshot owns the mapping for its
// lifetime). A generation whose payload fails to open is skipped like
// container damage, inside SnapshotStore::OpenLatest's one fallback
// walk. The snapshot's stats() are the seal-time stats restored from
// the file — seal_sequence identifies the sealing process's ordinal,
// not this process's. `generation` (optional) receives the generation
// number served.
Result<std::shared_ptr<const InventorySnapshot>> OpenLatestSnapshot(
    const store::SnapshotStore& store, uint64_t* generation = nullptr);

// Wraps an already-opened generation (InventorySnapshot::FromImage);
// with store::OpenSnapshotFile, opens one file as a serving snapshot.
Result<std::shared_ptr<const InventorySnapshot>> SnapshotFromOpened(
    store::SnapshotStore::Opened opened);

}  // namespace pol::core

#endif  // POL_CORE_SNAPSHOT_CODEC_H_
