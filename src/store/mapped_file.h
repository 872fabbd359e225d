#ifndef POL_STORE_MAPPED_FILE_H_
#define POL_STORE_MAPPED_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

// Read-only memory mapping of a snapshot file. The mapping owns the
// pages for its lifetime, so string_views handed out by
// SnapshotFileView stay valid as long as the MappedFile (the mapped
// snapshot keeps it alive for the life of the serving snapshot).
//
// When mmap is unavailable (exotic filesystems, size 0), Open falls
// back to reading the file into an anonymous heap buffer — same
// interface, same validation path, just not zero-copy. FromString
// adopts an image that never touched disk (a freshly sealed snapshot)
// the same way. Callers can observe which path was taken via mapped()
// for telemetry.

namespace pol::store {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;

  // Maps `path` read-only. NotFound if the file does not exist, IoError
  // on any other failure. An empty file maps to an empty view (which
  // format validation then rejects as too small).
  static Result<MappedFile> Open(const std::string& path);

  // Takes ownership of an in-memory image: the heap-fallback state,
  // without the read.
  static MappedFile FromString(std::string bytes);

  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }
  size_t size() const { return size_; }
  // True when the bytes are a real mmap (zero-copy); false on the heap
  // fallback path.
  bool mapped() const { return mapped_; }

 private:
  void Release();

  const void* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string heap_;  // Owns the bytes on the fallback path.
};

}  // namespace pol::store

#endif  // POL_STORE_MAPPED_FILE_H_
