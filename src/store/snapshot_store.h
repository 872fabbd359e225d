#ifndef POL_STORE_SNAPSHOT_STORE_H_
#define POL_STORE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"

// A generation-numbered directory of POLSNAP1 files — the durable home
// of sealed inventories. Layout:
//
//   <dir>/snap-00000001.pol generation 1
//   <dir>/snap-00000002.pol generation 2 ...
//
// The directory listing is the only record of which generations exist:
// no side file names the current one, because a file that can itself
// tear would reintroduce the problem the scan solves. Publish is atomic
// (temp + fsync + rename + dir fsync, see atomic_file.h) and monotone:
// a new generation never overwrites an old one, so a reader that
// mapped generation N is untouched by the publish of N+1. OpenLatest
// walks generations newest-first and falls back past torn, truncated
// or CRC-failing files (counted in `store.fallbacks`); OpenSnapshotFile
// is the one way to open a single file. Sealed inventories
// (core/snapshot_codec.h) and pipeline checkpoints (core/checkpoint.h)
// are both stored this way, each behind its own accept check.
//
// Thread safety: OpenLatest/ListGenerations/OpenSnapshotFile are safe
// to call concurrently. Publish is not self-synchronizing — callers
// must serialize publishes (ServingInventory does so under its refresh
// lock). Two processes publishing into one directory is unsupported.

namespace pol::store {

struct SnapshotStoreOptions {
  std::string directory;
  // Generations kept after a successful publish (the newest `keep`
  // survive GC). Clamped to >= 1.
  int keep = 3;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(SnapshotStoreOptions options);

  // A successfully opened generation: the mapping plus its validated
  // section view. The view points into the mapping, so keep both
  // together (moving Opened is fine: mmap addresses are stable and the
  // heap-fallback buffer is pointer-stable under string move).
  struct Opened {
    uint64_t generation = 0;
    MappedFile file;
    SnapshotFileView view;
  };

  // Validates `file_image` (must be a well-formed POLSNAP1 file;
  // InvalidArgument otherwise — publishing garbage is a caller bug,
  // not data loss), lists the directory once, durably writes the image
  // as the next generation (creating the directory if missing), GCs
  // generations beyond `keep` plus the stray .tmp files that listing
  // found, and returns the new generation number. Nothing after the
  // durable write can fail, so a failed publish made no durable
  // generation: it leaves at most a stray .tmp, which open paths ignore
  // and the next successful publish sweeps, or, when only the final
  // directory fsync failed, a renamed file that may not survive a
  // crash.
  Result<uint64_t> Publish(std::string_view file_image);

  // A payload-level check run on each generation whose container
  // validated. A non-OK status rejects that generation exactly like
  // container damage. It may move the mapping out of `*opened` (the
  // caller's payload then owns it); `generation` stays set.
  using AcceptFn = std::function<Status(Opened* opened)>;

  // Maps and validates the newest readable generation, skipping
  // corrupt newer ones (each skip increments `store.fallbacks`) and,
  // when `accept` is given, newer ones it rejects. This is the one
  // newest-first walk: store.opens, store.open_failures and
  // store.open_seconds count one call once. NotFound when the directory
  // holds no generations at all; kDataLoss when generations exist but
  // every one is unreadable.
  Result<Opened> OpenLatest(const AcceptFn& accept = nullptr) const;

  // Generation numbers present on disk, ascending. Missing or
  // unreadable directory yields an empty list.
  std::vector<uint64_t> ListGenerations() const;

  std::string GenerationPath(uint64_t generation) const;
  const SnapshotStoreOptions& options() const { return options_; }

 private:
  SnapshotStoreOptions options_;
};

// Maps and validates one POLSNAP1 file (a generation, or any file in
// that container), firing the "store.open" fail point first. The
// result's `generation` is 0; OpenLatest sets it. Counts no store.*
// metric: the open counters belong to OpenLatest's walk.
Result<SnapshotStore::Opened> OpenSnapshotFile(const std::string& path);

}  // namespace pol::store

#endif  // POL_STORE_SNAPSHOT_STORE_H_
