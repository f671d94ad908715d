//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conversion runtime's thread-safe front door: a multi-tenant serving
/// layer over PlanCache/Converter/Jit that any number of request threads
/// may call concurrently. Each convert() call is a stateless per-request
/// transaction — format pair + input tensor in, converted tensor (or a
/// Status) out — with three serving disciplines the lower layers do not
/// impose on their own:
///
///  * Bounded admission. At most MaxInflight requests execute at once;
///    up to QueueDepth more wait (deadline-bounded) for a slot. Beyond
///    that, requests are shed immediately with ResourceExhausted — under
///    overload the service fails fast instead of piling threads onto the
///    cache locks and the allocator.
///  * Request deadlines. A per-request (or service-default) deadline
///    bounds every wait on the request's path: the admission queue, a
///    coalesced wait on another request's in-flight compile, and the
///    watchdog wait on a compiler child. Expired requests return
///    DeadlineExceeded; compute that already started is never preempted.
///  * Degradation accounting. Every shed, deadline expiry, coalesce, and
///    degraded (interpreter-served) run lands in the process-wide
///    DegradationLog and the service's own stats — the export surface the
///    throughput bench and a future metrics endpoint read.
///
/// convert() is the service's one request path: the paper's execution
/// model (compile a routine once, then call it once per request). A
/// restarted server calls PlanCache::preload() before constructing the
/// service, so its first requests hit preloaded handles instead of cold
/// compiles. Interpreter (oracle) traffic does not go through the service:
/// Converter::tryRun routes itself and honors deadlines.
///
/// Environment knobs (read once at construction; see ServiceLimits):
///   CONVGEN_MAX_INFLIGHT        concurrent request cap (default 2x the
///                               hardware thread count)
///   CONVGEN_QUEUE_DEPTH         waiters admitted beyond the cap before
///                               shedding (default 2x MaxInflight)
///   CONVGEN_DEFAULT_DEADLINE_MS deadline applied to requests that do not
///                               carry their own (default 0 = none)
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_SERVICE_CONVERSIONSERVICE_H
#define CONVGEN_SERVICE_CONVERSIONSERVICE_H

#include "codegen/Generator.h"
#include "support/Deadline.h"
#include "support/Status.h"
#include "tensor/SparseTensor.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace convgen {
namespace convert {

/// Admission-control configuration, fixed for the service's lifetime
/// (capacity is structural, unlike the per-request CONVGEN_* knobs that
/// are re-read per use).
struct ServiceLimits {
  /// Requests executing concurrently before new arrivals queue.
  int MaxInflight = 0;
  /// Arrivals waiting for a slot before new ones are shed. 0 sheds the
  /// moment the service is saturated.
  int QueueDepth = 0;
  /// Deadline stamped on requests that carry none; 0 leaves them
  /// unbounded.
  int64_t DefaultDeadlineMs = 0;

  /// Resolves the CONVGEN_MAX_INFLIGHT / CONVGEN_QUEUE_DEPTH /
  /// CONVGEN_DEFAULT_DEADLINE_MS knobs (defaults above).
  static ServiceLimits fromEnv();
};

/// Monotone counters; readable from any thread while requests run. Every
/// request counts in Submitted and lands in exactly one of Completed /
/// Shed / DeadlineExpired / RequestErrors, so the conservation identity
/// holds mid-flight too (each field is exact; the set is not sampled in
/// one instant).
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  /// Rejected with ResourceExhausted at admission (queue full).
  uint64_t Shed = 0;
  /// Returned DeadlineExceeded anywhere on the request path.
  uint64_t DeadlineExpired = 0;
  /// Completed requests served by a degraded (interpreter) handle.
  uint64_t DegradedRuns = 0;
  /// Request-shaped failures (wrong format, unsupported pair, unsorted
  /// input) — the caller's bug, not the service's.
  uint64_t RequestErrors = 0;
};

/// One conversion request. The input tensor is borrowed and must stay
/// alive and unmodified until convert() returns; the result owns fresh
/// storage (the zero-copy JIT adoption path, see jit/Jit.h).
struct ConversionRequest {
  formats::Format Source;
  formats::Format Target;
  const tensor::SparseTensor *Input = nullptr;
  codegen::Options Opts;
  /// Per-request deadline in milliseconds: > 0 bounds this request, 0
  /// explicitly unbounded, < 0 (default) inherits the service default.
  int64_t DeadlineMs = -1;
};

class ConversionService {
public:
  explicit ConversionService(ServiceLimits Limits = ServiceLimits::fromEnv());

  ConversionService(const ConversionService &) = delete;
  ConversionService &operator=(const ConversionService &) = delete;

  /// Executes one request: admission (queue, shed), plan/JIT acquisition
  /// through the shared single-flight PlanCache, dims-aware strategy
  /// routing, then the conversion itself. Never aborts on request or
  /// environment trouble; the Status taxonomy is:
  ///   ResourceExhausted  shed at admission — retry later or elsewhere
  ///   DeadlineExceeded   the request's deadline expired while waiting
  ///   InvalidArgument / Unsupported   the request itself is wrong
  /// Environment failures do not surface: the handle degrades and the
  /// request completes through the interpreter, bit-exact.
  StatusOr<tensor::SparseTensor> convert(const ConversionRequest &Request);

  ServiceStats stats() const;

  /// Requests currently executing (not queued); test synchronization.
  int inflight() const;

  const ServiceLimits &limits() const { return Limits; }

private:
  /// Blocks until a slot frees (bounded by \p Deadline) or sheds.
  Status admit(const support::Deadline &Deadline);
  void release();

  ServiceLimits Limits;

  mutable std::mutex Mu;
  std::condition_variable SlotFreed;
  int Inflight = 0;
  int Queued = 0;

  struct Counters {
    std::atomic<uint64_t> Submitted{0};
    std::atomic<uint64_t> Completed{0};
    std::atomic<uint64_t> Shed{0};
    std::atomic<uint64_t> DeadlineExpired{0};
    std::atomic<uint64_t> DegradedRuns{0};
    std::atomic<uint64_t> RequestErrors{0};
  };
  mutable Counters Counts;
};

} // namespace convert
} // namespace convgen

#endif // CONVGEN_SERVICE_CONVERSIONSERVICE_H
