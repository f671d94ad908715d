//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recoverable error propagation for the user-facing runtime boundary. The
/// library avoids exceptions per the project coding standard, so fallible
/// operations reachable from untrusted input or a hostile environment
/// (malformed tensors, unsupported pairs, a missing compiler, a corrupt
/// cached object) return a Status / StatusOr<T> instead of calling
/// fatalError. Internal codegen invariants keep convgen_unreachable — a
/// violated invariant means the generator would mis-emit code, and no
/// caller can meaningfully continue.
///
/// The error codes double as a degradation policy: isEnvironmentError()
/// separates failures a caller should retry or degrade around (Unavailable,
/// DataLoss, ResourceExhausted — the compiler vanished, a cached object is
/// torn, the service is at capacity) from failures that are properties of
/// the request itself (InvalidArgument, Unsupported) where the interpreter
/// fallback would fail identically.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_SUPPORT_STATUS_H
#define CONVGEN_SUPPORT_STATUS_H

#include "support/Assert.h"

#include <optional>
#include <string>
#include <utility>

namespace convgen {

enum class ErrorCode {
  Ok = 0,
  /// The request itself is malformed (wrong source format, unsorted input
  /// where the plan requires order). Not retryable; do not degrade.
  InvalidArgument,
  /// The pair (or the pair at these dimensions) has no generated routine.
  /// Not retryable; do not degrade.
  Unsupported,
  /// The environment failed the request: no compiler, a failed compile or
  /// dlopen, a scratch directory that cannot be created. Retryable, and the
  /// interpreter path can serve the same request bit-identically.
  Unavailable,
  /// Stored bytes failed verification (torn or corrupt cached object).
  /// Evict and regenerate.
  DataLoss,
  /// A resource limit was hit. Degrade or retry later. The serving layer
  /// sheds admissions with this code when in-flight work exceeds
  /// CONVGEN_MAX_INFLIGHT and the queue is full.
  ResourceExhausted,
  /// The request's deadline (or the CONVGEN_COMPILE_TIMEOUT_MS bound on an
  /// external compile) expired before the work finished. Deliberately NOT
  /// an environment error: retrying immediately would pay the same bound
  /// again, so callers degrade or re-submit with a larger deadline instead.
  DeadlineExceeded,
  /// A should-not-happen condition reported instead of aborting because a
  /// serving layer sits above; treat like Unavailable.
  Internal,
};

/// Stable lowercase name for an error code ("invalid-argument", ...).
inline const char *errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::InvalidArgument:
    return "invalid-argument";
  case ErrorCode::Unsupported:
    return "unsupported";
  case ErrorCode::Unavailable:
    return "unavailable";
  case ErrorCode::DataLoss:
    return "data-loss";
  case ErrorCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrorCode::DeadlineExceeded:
    return "deadline-exceeded";
  case ErrorCode::Internal:
    return "internal";
  }
  return "unknown";
}

class Status {
public:
  /// Default-constructed Status is success.
  Status() = default;

  static Status error(ErrorCode Code, std::string Message) {
    CONVGEN_ASSERT(Code != ErrorCode::Ok, "error() requires a non-Ok code");
    Status S;
    S.Code_ = Code;
    S.Message_ = std::move(Message);
    return S;
  }

  bool ok() const { return Code_ == ErrorCode::Ok; }
  ErrorCode code() const { return Code_; }
  const std::string &message() const { return Message_; }

  /// True for failures of the environment rather than the request: the
  /// caller may retry with backoff or degrade to the interpreter path.
  bool isEnvironmentError() const {
    return Code_ == ErrorCode::Unavailable || Code_ == ErrorCode::DataLoss ||
           Code_ == ErrorCode::ResourceExhausted ||
           Code_ == ErrorCode::Internal;
  }

  /// "ok" or "<code>: <message>" for diagnostics and logs.
  std::string toString() const {
    if (ok())
      return "ok";
    return std::string(errorCodeName(Code_)) + ": " + Message_;
  }

private:
  ErrorCode Code_ = ErrorCode::Ok;
  std::string Message_;
};

/// A value or the Status explaining its absence. Constructing from an OK
/// Status is a caller bug and is reported as an Internal error rather than
/// silently fabricating a value.
template <typename T> class StatusOr {
public:
  StatusOr(Status S) : St(std::move(S)) {
    if (St.ok())
      St = Status::error(ErrorCode::Internal,
                         "StatusOr constructed from an OK status");
  }
  StatusOr(T Value) : Val(std::move(Value)) {}

  bool ok() const { return Val.has_value(); }

  /// The error (or a default OK status when a value is present).
  const Status &status() const { return St; }

  /// The value; calling on an error is a programming bug and aborts with
  /// the underlying diagnostic (use ok() first on fallible paths).
  T &value() {
    if (!ok())
      fatalError(St.toString().c_str());
    return *Val;
  }
  const T &value() const {
    if (!ok())
      fatalError(St.toString().c_str());
    return *Val;
  }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

  /// Moves the value out (the usual way to consume a checked result).
  T take() { return std::move(value()); }

private:
  Status St;
  std::optional<T> Val;
};

} // namespace convgen

#endif // CONVGEN_SUPPORT_STATUS_H
