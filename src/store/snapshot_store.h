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
//   <dir>/MANIFEST          "POLSNAPMF1\ncurrent <gen>\n"  (advisory)
//   <dir>/snap-00000001.pol generation 1
//   <dir>/snap-00000002.pol generation 2 ...
//
// Publish is atomic (temp + fsync + rename + dir fsync, see
// atomic_file.h) and monotone: a new generation never overwrites an
// old one, so a reader that mapped generation N is untouched by the
// publish of N+1. The *directory scan* is the source of truth for
// which generations exist; the MANIFEST is advisory metadata for
// humans and tooling (`polinv snapshots`), because trusting a file
// that can itself be torn would reintroduce the problem the scan
// solves. OpenLatest walks generations newest-first and falls back
// past torn, truncated or CRC-failing files (counted in
// `store.fallbacks`). Sealed inventories (core/snapshot_codec.h) and
// pipeline checkpoints (core/checkpoint.h) are both stored this way,
// each behind its own accept check.
//
// Thread safety: OpenLatest/OpenGeneration/ListGenerations are safe
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
  // not data loss), durably writes it as the next generation, rewrites
  // the MANIFEST, GCs generations beyond `keep`, and returns the new
  // generation number. On failure nothing visible changes except a
  // possible stray .tmp, which open paths ignore and the next
  // successful publish sweeps.
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

  // Maps and validates one specific generation.
  Result<Opened> OpenGeneration(uint64_t generation) const;

  // Generation numbers present on disk, ascending. Missing or
  // unreadable directory yields an empty list.
  std::vector<uint64_t> ListGenerations() const;

  // Advisory MANIFEST "current" value; NotFound when absent, kDataLoss
  // when unparseable.
  Result<uint64_t> ManifestCurrent() const;

  std::string GenerationPath(uint64_t generation) const;
  std::string ManifestPath() const;
  const SnapshotStoreOptions& options() const { return options_; }

 private:
  Result<Opened> OpenPath(const std::string& path, uint64_t generation) const;

  SnapshotStoreOptions options_;
};

}  // namespace pol::store

#endif  // POL_STORE_SNAPSHOT_STORE_H_
