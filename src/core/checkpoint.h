#ifndef POL_CORE_CHECKPOINT_H_
#define POL_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/cleaning.h"
#include "core/enrich.h"
#include "core/inventory_builder.h"
#include "core/trips.h"
#include "flow/stage_runner.h"
#include "store/mapped_file.h"
#include "store/snapshot_store.h"

// Checkpoint/resume for the chunked pipeline. Every K accounted chunks
// (folded or quarantined — the fold cursor), RunPipeline serializes the
// InventoryBuilder state plus the cursor and the quarantine ledger into
// a snapshot; a restarted run detects the newest valid snapshot,
// restores the builder, and resumes folding at the cursor. Because the
// sink runs strictly in ascending chunk order, a snapshot at cursor c
// is exactly the state of an uninterrupted run after c chunks, so a
// killed-and-resumed run produces a byte-identical inventory (the
// fault-injection suite asserts this at every fail point).
//
// Each snapshot is one generation ("snap-<gen>.pol") of a
// store::SnapshotStore rooted at the checkpoint directory: a POLSNAP1
// container (store/snapshot_format.h) holding two sections.
//
//   id 0x80  checkpoint meta   varint version (=3)
//                              varint cursor        chunks accounted
//                              varint total_chunks  of the run
//                              varint quarantine count
//                                per entry: varint chunk_index,
//                                varint records, varint attempts,
//                                varint status code,
//                                length-prefixed message
//                              stage stats of the folded chunks, each
//                                field a varint in declaration order:
//                                CleaningStats (5), EnrichmentStats
//                                (4), TripStats (4)
//                              fold accounting (FoldAccounting): varint
//                                chunks, varint records, varint peak
//                                partition, double wall seconds
//   id 0x81  builder state     the canonical POLSNAP1 image of the
//                              builder's summaries
//                              (InventoryBuilder::SerializeState, i.e.
//                              Inventory::SerializeTo)
//
// The ids are disjoint from the inventory schema's (core/snapshot_codec.h),
// so opening a checkpoint directory as an inventory store, or the
// reverse, fails as kDataLoss. Writes are SnapshotStore::Publish
// (durable, atomic, GC down to `keep`); loading is
// SnapshotStore::OpenLatest, whose one newest-first walk falls back past
// torn, corrupt and rejected generations and counts each skip in
// `store.fallbacks`. The meta decode rejects inconsistent state (cursor
// past the chunk count, more quarantined chunks than accounted ones,
// unordered or out-of-range ledger entries, attempts outside
// [1, INT_MAX]) and any other meta version
// as kDataLoss, so such a generation is fallen back past too: a
// directory holding only version-1 or version-2 generations starts a
// fresh run. A
// loaded checkpoint keeps its generation mapped and hands out the
// builder section in place, so restoring reads the (tens of MB) builder
// state without copying it first. Checkpoint I/O carries the
// "checkpoint.write" and "checkpoint.read" fail points, plus the
// store's own.

namespace pol::core {

// Section ids of the checkpoint schema inside a POLSNAP1 generation.
inline constexpr uint32_t kCheckpointSectionMeta = 0x80;
inline constexpr uint32_t kCheckpointSectionBuilderState = 0x81;
inline constexpr uint64_t kCheckpointVersion = 3;

struct CheckpointConfig {
  // Snapshot directory; empty disables checkpointing. Created on the
  // first write if missing.
  std::string directory;
  // Write a snapshot every this many accounted chunks. The interval is
  // part of the determinism contract: serialization flushes t-digest
  // buffers, so byte-identity between two runs requires the same
  // schedule on both (see InventoryBuilder::SerializeState).
  int interval_chunks = 8;
  // Snapshots retained after rotation (>= 1).
  int keep = 2;
};

// Everything a snapshot carries besides the builder bytes.
struct CheckpointMeta {
  uint64_t cursor = 0;        // Chunks accounted (folded or quarantined).
  uint64_t total_chunks = 0;  // Chunk count of the checkpointed run.
  // The run's dead letters so far, so a resumed run reports the
  // quarantined chunks of the run it continues.
  std::vector<flow::ChunkFailure> quarantined;
  // Stage stats summed over the chunks folded before the cursor, so a
  // resumed run reports the whole archive (paper Table 1).
  CleaningStats cleaning;
  EnrichmentStats enrichment;
  TripStats trips;
  // The builder's accounting at the cursor (InventoryBuilder::RestoreState
  // takes it beside the builder image).
  FoldAccounting folding;
};

// A snapshot to write.
struct CheckpointState : CheckpointMeta {
  std::string builder_state;  // InventoryBuilder::SerializeState image.
};

// A loaded snapshot. `builder_state` points into `file`, the
// generation's mapping, which stays mapped as long as this object.
struct LoadedCheckpoint : CheckpointMeta {
  std::string_view builder_state;
  store::MappedFile file;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  bool enabled() const { return !config_.directory.empty(); }
  const CheckpointConfig& config() const { return config_; }

  // Publishes one snapshot as the next generation and GCs old ones down
  // to `keep`. Generation numbers continue past any already in the
  // directory, so a resumed run never overwrites its predecessor's
  // files. Takes the state by value so a caller that is done with it
  // moves the builder bytes into the image instead of copying them.
  // Fail point: "checkpoint.write".
  Status Write(CheckpointState state);

  // Loads the newest generation that validates (container and meta),
  // falling back to older ones. NotFound when the directory holds no
  // generations; kDataLoss when some exist but none loads. Fail point:
  // "checkpoint.read" (a fired read rejects the generation under
  // inspection, so fallback — and ultimately a fresh start — still
  // works).
  Result<LoadedCheckpoint> LoadLatest() const;

  // Snapshot paths currently on disk, ascending by generation.
  std::vector<std::string> ListSnapshots() const;

 private:
  CheckpointConfig config_;
  store::SnapshotStore store_;
};

}  // namespace pol::core

#endif  // POL_CORE_CHECKPOINT_H_
