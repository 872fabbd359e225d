#include "store/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

#include <sys/stat.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "store/store_metric_names.h"

namespace pol::store {
namespace {

Status Errno(std::string_view op, const std::string& path) {
  std::string msg(op);
  msg += " failed for ";
  msg += path;
  msg += ": ";
  msg += std::strerror(errno);
  return Status::IoError(std::move(msg));
}

// RAII fd so every early return closes. Close errors on the write path
// are checked explicitly before the rename; this is the safety net.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  // Closes now and reports the result; the destructor becomes a no-op.
  int CloseNow() {
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc;
  }

 private:
  int fd_;
};

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  const char* data = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

// The directory holding `path` ("." for a bare file name).
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

// Creates `dir` and its missing ancestors. Each new directory's parent
// is synced, so the created path is as durable as the file put in it.
Status CreateDirectories(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0) {
    if (errno == EEXIST) return Status::OK();
    if (errno != ENOENT) return Errno("mkdir", dir);
    POL_RETURN_IF_ERROR(CreateDirectories(ParentDir(dir)));
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", dir);
    }
  }
  return SyncDirectory(ParentDir(dir));
}

int OpenForWrite(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

}  // namespace

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    Status injected = POL_FAILPOINT(kFailPointStoreWrite);
    if (!injected.ok()) return injected;
    int raw = OpenForWrite(tmp);
    if (raw < 0 && errno == ENOENT) {
      // Only a missing directory costs the extra syscalls: a write into
      // an existing one (every snapshot publish) opens exactly once.
      POL_RETURN_IF_ERROR(CreateDirectories(ParentDir(path)));
      raw = OpenForWrite(tmp);
    }
    if (raw < 0) return Errno("open", tmp);
    Fd fd(raw);
    Status written = WriteAll(fd.get(), bytes, tmp);
    if (written.ok() && ::fsync(fd.get()) != 0) written = Errno("fsync", tmp);
    if (written.ok() && fd.CloseNow() != 0) written = Errno("close", tmp);
    if (!written.ok()) {
      ::unlink(tmp.c_str());
      return written;
    }
  }
  Status injected = POL_FAILPOINT(kFailPointStoreRename);
  if (!injected.ok()) {
    // The torn-publish window: the temp file is durable but the target
    // was never replaced. Leave the .tmp behind, exactly as a crash
    // here would — the store's open path must ignore stray temps.
    return injected;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status failed = Errno("rename", path);
    ::unlink(tmp.c_str());
    return failed;
  }
  // Make the rename itself durable: sync the containing directory.
  return SyncDirectory(ParentDir(path));
}

Status ReadFileToString(const std::string& path, std::string* out) {
  const int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Errno("open", path);
  }
  Fd fd(raw);
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read", path);
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  return Status::OK();
}

Status SyncDirectory(const std::string& dir) {
  const int raw = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (raw < 0) return Errno("open dir", dir);
  Fd fd(raw);
  if (::fsync(fd.get()) != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

}  // namespace pol::store
