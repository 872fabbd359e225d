#ifndef POL_STORE_ATOMIC_FILE_H_
#define POL_STORE_ATOMIC_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

// Durable, atomic file publication: the one way a file is written in
// src/. Snapshot generations, checkpoints, run reports, trace exports,
// the periodic OpenMetrics export and the bench summaries all come
// through here. A write must be *durable* before it becomes visible,
// so readers can never open a file whose bytes might still be in the
// page cache only. The sequence is the classic one:
//
//   open(path.tmp) -> write -> fsync(file) -> close
//     -> rename(path.tmp, path) -> fsync(parent dir)
//
// The directory fsync is what makes the rename itself survive a crash;
// without it a power cut can roll the directory entry back even though
// the file data is safe. Fail points `store.write` / `store.rename`
// bracket the torn-publish window for the chaos tests.
//
// Raw std::ofstream / fopen anywhere in src/ is a pollint banned-call
// finding — everything written must come through here.

namespace pol::store {

// Atomically and durably replaces `path` with `bytes`. The temp file is
// `path + ".tmp"`; on any failure the temp file is unlinked and `path`
// is left untouched (either the old content or still absent). When the
// temp file cannot be opened because its directory is missing, the
// missing directories are created (and synced) and the open is retried
// once; a write into an existing directory opens exactly once.
Status WriteFileDurable(const std::string& path, std::string_view bytes);

// Reads the entire file into `out` (replacing its contents). NotFound
// if the file does not exist, IoError on any other failure.
Status ReadFileToString(const std::string& path, std::string* out);

// Best-effort fsync of a directory so a completed rename inside it is
// durable. Returns IoError if the directory cannot be opened or synced.
Status SyncDirectory(const std::string& dir);

}  // namespace pol::store

#endif  // POL_STORE_ATOMIC_FILE_H_
