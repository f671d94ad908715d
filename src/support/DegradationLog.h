//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-process record of every time the conversion runtime degraded
/// instead of dying: failed JIT compiles, failed dlopen/dlsym loads,
/// bounded-backoff retries, interpreter fallbacks, checksum evictions and
/// failed reads/writes in the shared disk cache. The counter set is the
/// export surface a future serving layer hangs its metrics off; today the fault-injection suite reconciles it
/// against the injected-fault counts (every injected fault must be
/// accounted for), and benches print it when nonzero so a silently
/// degraded measurement cannot masquerade as a native one.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_SUPPORT_DEGRADATIONLOG_H
#define CONVGEN_SUPPORT_DEGRADATIONLOG_H

#include <cstdint>
#include <string>

namespace convgen {
namespace support {

enum class Degradation {
  /// An external JIT compile attempt failed (including injected faults).
  JitCompileFailure = 0,
  /// dlopen or dlsym failed on a freshly compiled or cached object.
  JitLoadFailure,
  /// A transient failure was retried after bounded backoff.
  JitRetry,
  /// A conversion ran through the interpreter because the native path was
  /// unavailable (degraded JIT handle, missing compiler).
  InterpreterFallback,
  /// A disk-cache entry failed checksum verification and was evicted.
  CacheChecksumEviction,
  /// A disk-cache lookup failed (injected or I/O).
  CacheReadFailure,
  /// A disk-cache install failed (injected or I/O); the conversion still
  /// served from the locally compiled object.
  CacheWriteFailure,
  /// The watchdog SIGKILLed an external compiler child that exceeded
  /// CONVGEN_COMPILE_TIMEOUT_MS; the handle degraded to the interpreter.
  CompileTimeout,
  /// A request deadline expired (while queued, while waiting on a
  /// coalesced in-flight compile, or bounding a compile it led).
  DeadlineExceeded,
  /// The serving layer rejected a request for lack of capacity: an
  /// admission with CONVGEN_MAX_INFLIGHT in flight and the queue full.
  LoadShed,
  /// Informational: a cache miss piggybacked on another thread's in-flight
  /// build instead of compiling redundantly. Normal under concurrent load.
  SingleFlightCoalesce,
  /// A warm-start manifest entry failed revalidation at preload — corrupt
  /// line, compiler/ISA/flags skew, plan-key drift, or a checksum mismatch
  /// on the referenced object — and was evicted, never served.
  PreloadEviction,
};
constexpr int kNumDegradations = 12;

/// Stable lowercase name ("jit-compile-failure", ...).
const char *degradationName(Degradation Kind);

/// A consistent snapshot of the counters.
struct DegradationCounters {
  uint64_t Counts[kNumDegradations] = {};

  uint64_t operator[](Degradation Kind) const {
    return Counts[static_cast<int>(Kind)];
  }
  uint64_t total() const {
    uint64_t Sum = 0;
    for (uint64_t C : Counts)
      Sum += C;
    return Sum;
  }

  /// Sum of the counters that mean an execution actually degraded.
  /// Excludes the service-flow kinds — coalesced waits, load sheds, and
  /// request-deadline expiries — which are normal under concurrent load
  /// and never turn a native timing into an interpreter timing.
  uint64_t degradedTotal() const {
    return total() - (*this)[Degradation::SingleFlightCoalesce] -
           (*this)[Degradation::LoadShed] -
           (*this)[Degradation::DeadlineExceeded];
  }
};

class DegradationLog {
public:
  /// The process-wide instance. All methods are thread-safe.
  static DegradationLog &instance();

  /// Counts one degradation; \p Detail (optional) is kept as the most
  /// recent diagnostic for the kind.
  void record(Degradation Kind, const std::string &Detail = "");

  DegradationCounters snapshot() const;

  /// The most recent detail string recorded for \p Kind (empty if none).
  std::string lastDetail(Degradation Kind) const;

  /// "kind=count kind=count ..." over the nonzero counters ("none" when
  /// the process never degraded). The form benches and services print.
  std::string summary() const;

  /// Zeroes counters and details (tests).
  void reset();

private:
  DegradationLog() = default;
  struct Impl;
  Impl &impl() const;
};

} // namespace support
} // namespace convgen

#endif // CONVGEN_SUPPORT_DEGRADATIONLOG_H
