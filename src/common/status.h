#ifndef POL_COMMON_STATUS_H_
#define POL_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

// Status / Result error handling for the Patterns-of-Life library.
//
// The library does not use C++ exceptions (Google style; Arrow/RocksDB
// idiom). Fallible operations return `pol::Status`, or `pol::Result<T>`
// when they produce a value. Success is the common case and is cheap: an
// OK Status carries no allocation.

namespace pol {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kCorruption = 5,
  kIoError = 6,
  kFailedPrecondition = 7,
  kUnimplemented = 8,
  kInternal = 9,
  // Serving-side codes (see core/serving_guard.h): a call ran out of
  // its deadline budget, was shed by admission control, or was refused
  // because the store is degraded (refresh circuit breaker open).
  kDeadlineExceeded = 10,
  kResourceExhausted = 11,
  kUnavailable = 12,
  // Durable data is unrecoverably damaged: a snapshot-store file failed
  // magic/CRC/framing validation (see store/snapshot_format.h). Unlike
  // kCorruption — which flags a flaky read worth retrying — kDataLoss
  // means retrying the same bytes will fail identically; recovery is
  // falling back to an older generation, not a retry.
  kDataLoss = 13,
};

// Highest valid StatusCode value; serialized codes above this are
// corrupt (checkpoint decode uses this bound).
inline constexpr StatusCode kMaxStatusCode = StatusCode::kDataLoss;

// Human-readable name of a status code, e.g. "InvalidArgument".
std::string_view StatusCodeName(StatusCode code);

// Inverse of StatusCodeName: parses "InvalidArgument" back to its code.
// Round-trips every StatusCode; nullopt for unrecognized names.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

// A lightweight error carrier: a code plus an optional message.
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Whether retrying the failed operation can plausibly succeed: true
  // for transient infrastructure faults (I/O errors, corruption seen on
  // a flaky read, internal faults — the codes fail points inject — plus
  // shed load and a temporarily unavailable store), false for caller
  // errors that will fail identically on every attempt (invalid
  // arguments, failed preconditions, exhausted deadlines, ...). This is
  // the one retryability authority: the chunk retry loop of
  // flow::StageRunner (a chunk step's error, see core/pipeline.h) and
  // the serving-side refresh circuit breaker (core/serving_guard.h)
  // both consult it.
  bool IsRetryable() const { return StatusCodeIsRetryable(code_); }

  static bool StatusCodeIsRetryable(StatusCode code) {
    switch (code) {
      case StatusCode::kCorruption:
      case StatusCode::kIoError:
      case StatusCode::kInternal:
      case StatusCode::kResourceExhausted:
      case StatusCode::kUnavailable:
        return true;
      default:
        return false;
    }
  }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> is either a value or an error Status. Access to the value of
// an errored result aborts in debug builds and is undefined otherwise;
// callers must check `ok()` first.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both
  // work inside functions returning Result<T>.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    // An OK status without a value would make the Result unusable.
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    POL_DCHECK(ok()) << "value() on errored Result";
    return *value_;
  }
  T& value() & {
    POL_DCHECK(ok()) << "value() on errored Result";
    return *value_;
  }
  T&& value() && {
    POL_DCHECK(ok()) << "value() on errored Result";
    return *std::move(value_);
  }

  const T& operator*() const& {
    POL_DCHECK(ok()) << "deref of errored Result";
    return *value_;
  }
  T& operator*() & {
    POL_DCHECK(ok()) << "deref of errored Result";
    return *value_;
  }
  const T* operator->() const {
    POL_DCHECK(ok()) << "deref of errored Result";
    return &*value_;
  }
  T* operator->() {
    POL_DCHECK(ok()) << "deref of errored Result";
    return &*value_;
  }

  // Returns the value, or `fallback` when errored.
  T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;  // Engaged exactly when status_ is OK.
};

}  // namespace pol

// Propagates a non-OK Status from an expression, Arrow-style.
#define POL_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::pol::Status _pol_status = (expr);      \
    if (!_pol_status.ok()) return _pol_status; \
  } while (false)

// Evaluates a Result-returning expression, assigning the value to `lhs`
// on success and propagating the Status on error.
#define POL_ASSIGN_OR_RETURN(lhs, expr)          \
  auto POL_CONCAT_(_pol_result, __LINE__) = (expr); \
  if (!POL_CONCAT_(_pol_result, __LINE__).ok())     \
    return POL_CONCAT_(_pol_result, __LINE__).status(); \
  lhs = std::move(POL_CONCAT_(_pol_result, __LINE__)).value()

#define POL_CONCAT_INNER_(a, b) a##b
#define POL_CONCAT_(a, b) POL_CONCAT_INNER_(a, b)

#endif  // POL_COMMON_STATUS_H_
