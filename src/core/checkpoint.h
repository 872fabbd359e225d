#ifndef POL_CORE_CHECKPOINT_H_
#define POL_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// Checkpoint/resume for the chunked pipeline. Every K accounted chunks
// (folded or quarantined — the fold cursor), RunPipeline serializes the
// InventoryBuilder state plus the cursor and the quarantine ledger into
// a snapshot file; a restarted run detects the newest valid snapshot,
// restores the builder, and resumes folding at the cursor. Because the
// sink runs strictly in ascending chunk order, a snapshot at cursor c
// is exactly the state of an uninterrupted run after c chunks, so a
// killed-and-resumed run produces a byte-identical inventory (the
// fault-injection suite asserts this at every fail point).
//
// Snapshot file format (one file per snapshot, "pol-ckpt-<seq>.snap"):
//
//   magic "POLCKP01" | varint body_size | body | crc32(body) LE32
//
//   body: varint version (=1)
//         varint cursor              chunks accounted so far
//         varint total_chunks        of the run being checkpointed
//         varint quarantine count
//           per entry: varint chunk_index, varint records,
//                      varint attempts, varint status code,
//                      length-prefixed message
//         length-prefixed builder state (InventoryBuilder::SerializeState)
//
// Writes go through store::WriteFileDurable (tmp file + fsync + rename
// + directory fsync) and are rotated (newest `keep` snapshots survive),
// so neither a crash nor a power loss mid-write destroys the previous
// good snapshot. Loading walks snapshots newest-first and falls back
// across corrupt or unreadable ones. Checkpoint I/O carries the
// "checkpoint.write" and "checkpoint.read" fail points, and writes the
// store's "store.write" / "store.rename" ones too.

namespace pol::core {

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

// One quarantined chunk as persisted in a snapshot, so a resumed run
// still reports full-run coverage.
struct CheckpointQuarantineEntry {
  uint64_t chunk_index = 0;
  uint64_t records = 0;
  uint64_t attempts = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
};

// Everything a snapshot carries.
struct CheckpointState {
  uint64_t cursor = 0;        // Chunks accounted (folded or quarantined).
  uint64_t total_chunks = 0;  // Chunk count of the checkpointed run.
  std::vector<CheckpointQuarantineEntry> quarantined;
  std::string builder_state;  // InventoryBuilder::SerializeState bytes.
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  bool enabled() const { return !config_.directory.empty(); }
  const CheckpointConfig& config() const { return config_; }

  // Writes one snapshot atomically and rotates old ones down to
  // `keep`. Sequence numbers continue past any snapshots already in the
  // directory, so a resumed run never overwrites its predecessor's
  // files. Fail point: "checkpoint.write".
  Status Write(const CheckpointState& state);

  // Loads the newest snapshot that validates (magic, size, CRC, body),
  // falling back to older ones on corruption; NotFound when the
  // directory holds no loadable snapshot. Fail point: "checkpoint.read"
  // (a fired read makes the snapshot under inspection unreadable, so
  // fallback — and ultimately a fresh start — still works).
  Result<CheckpointState> LoadLatest() const;

  // Snapshot paths currently on disk, ascending by sequence.
  std::vector<std::string> ListSnapshots() const;

  // Serialization of one snapshot, exposed for tests.
  static void Encode(const CheckpointState& state, std::string* out);
  static Result<CheckpointState> Decode(std::string_view input);

 private:
  CheckpointConfig config_;
  uint64_t next_sequence_ = 1;  // Advanced on construction and per write.
};

}  // namespace pol::core

#endif  // POL_CORE_CHECKPOINT_H_
