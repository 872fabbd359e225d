#include "store/mapped_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include <sys/mman.h>
#include <sys/stat.h>

#include "common/status.h"
#include "store/atomic_file.h"

namespace pol::store {

MappedFile::~MappedFile() { Release(); }

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  Release();
  mapped_ = other.mapped_;
  size_ = other.size_;
  heap_ = std::move(other.heap_);
  // A small heap_ may live in SSO storage, so its data pointer moves
  // with it — re-derive rather than stealing other.data_.
  data_ = mapped_ ? other.data_ : static_cast<const void*>(heap_.data());
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.heap_.clear();
  return *this;
}

void MappedFile::Release() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<void*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  heap_.clear();
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("open failed for " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(raw, &st) != 0) {
    const Status failed = Status::IoError("fstat failed for " + path + ": " +
                                          std::strerror(errno));
    ::close(raw);
    return failed;
  }
  MappedFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* addr =
        ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, raw, 0);
    if (addr != MAP_FAILED) {
      file.data_ = addr;
      file.mapped_ = true;
    }
  }
  ::close(raw);
  if (!file.mapped_) {
    // Heap fallback: same bytes, same validation, not zero-copy.
    std::string bytes;
    Status read = ReadFileToString(path, &bytes);
    if (!read.ok()) return read;
    return FromString(std::move(bytes));
  }
  return file;
}

MappedFile MappedFile::FromString(std::string bytes) {
  MappedFile file;
  file.heap_ = std::move(bytes);
  file.size_ = file.heap_.size();
  file.data_ = file.heap_.data();
  return file;
}

}  // namespace pol::store
