#ifndef COANE_COMMON_STATUS_H_
#define COANE_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace coane {

/// Error categories used across the library. Mirrors the usual
/// database-engine convention (RocksDB/Arrow style): functions that can fail
/// return a Status (or a Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kIoError,
  kFailedPrecondition,
  kInternal,
  /// Unrecoverable corruption of stored data: checksum mismatches,
  /// truncated or bit-flipped checkpoint/serialization payloads. Distinct
  /// from kIoError (the medium failed) — here the medium worked but the
  /// bytes are wrong.
  kDataLoss,
  /// The operation was cooperatively stopped before completion — a SIGINT/
  /// SIGTERM token or an explicit cancel flag on the RunContext fired.
  /// Partial results may have been preserved by the callee (documented per
  /// function).
  kCancelled,
  /// The RunContext's absolute deadline passed before the operation
  /// finished. Like kCancelled, the stage stops at its next unit-of-work
  /// boundary and preserves partial results where meaningful.
  kDeadlineExceeded,
  /// A configured resource budget (node-count / attribute-dimension /
  /// file-size cap) would be exceeded. The operation fails fast instead
  /// of exhausting memory or CPU.
  kResourceExhausted,
  /// The service is temporarily unable to take the request — admission
  /// control shed it under overload, or the server is draining for
  /// shutdown. Unlike kResourceExhausted (a configured budget would be
  /// exceeded by *this* request), the request itself is fine: retrying
  /// later, against a less-loaded instance, is expected to succeed.
  kUnavailable,
};

/// A lightweight success-or-error value. Cheap to copy in the OK case
/// (no message allocation happens for OK statuses).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
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

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: walk length must be
  /// positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. The value may only be
/// accessed when ok() is true.
template <typename T>
class Result {
 public:
  /// Implicit from value and from error status, so functions can
  /// `return value;` or `return Status::...;` directly.
  Result(T value) : value_(std::move(value)) {}            // NOLINT
  Result(Status status) : status_(std::move(status)) {}    // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  /// Moves the value out; aborts with the error message when !ok().
  /// Dereferencing the empty optional would be undefined behavior, and the
  /// resulting garbage object corrupts the heap far from the real bug —
  /// dying loudly here keeps the failure at its source.
  T ValueOrDie() && {
    if (!value_.has_value()) {
      std::fprintf(stderr, "ValueOrDie() called on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define COANE_RETURN_IF_ERROR(expr)                 \
  do {                                              \
    ::coane::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                      \
  } while (0)

}  // namespace coane

#endif  // COANE_COMMON_STATUS_H_
