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
/// Beyond per-request convert(), the service offers submitBatch() — plan-
/// key-grouped execution where one JIT-handle acquisition serves a queue
/// of same-plan tensors — and an async submit() returning a future, both
/// composing with the same admission/shedding/deadline discipline.
/// Construction also triggers the cache warm-start hook
/// (PlanCache::maybePreloadFromEnv), so a restarted server's first
/// requests can hit preloaded handles instead of cold compiles.
///
/// Environment knobs (read once at construction; see ServiceLimits):
///   CONVGEN_MAX_INFLIGHT        concurrent request cap (default 2x the
///                               hardware thread count)
///   CONVGEN_QUEUE_DEPTH         waiters admitted beyond the cap before
///                               shedding (default 2x MaxInflight)
///   CONVGEN_DEFAULT_DEADLINE_MS deadline applied to requests that do not
///                               carry their own (default 0 = none)
///   CONVGEN_PRELOAD             off|eager|background warm-start at boot
///                               (default off; see PlanCache::preload)
///   CONVGEN_MANIFEST            warm-start manifest path override
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
#include <future>
#include <memory>
#include <mutex>
#include <vector>

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
/// request — individual, batch member, or async — counts in Submitted and
/// lands in exactly one of Completed / Shed / DeadlineExpired /
/// RequestErrors, so the conservation identity holds mid-flight too (each
/// field is exact; the set is not sampled in one instant).
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  /// Rejected at admission with ResourceExhausted (queue full).
  uint64_t Shed = 0;
  /// Returned DeadlineExceeded anywhere on the request path.
  uint64_t DeadlineExpired = 0;
  /// Completed requests served by a degraded (interpreter) handle.
  uint64_t DegradedRuns = 0;
  /// Request-shaped failures (wrong format, unsupported pair, unsorted
  /// input) — the caller's bug, not the service's.
  uint64_t RequestErrors = 0;
  /// submitBatch() calls.
  uint64_t Batches = 0;
  /// Requests that arrived inside a batch (also counted in Submitted).
  uint64_t BatchRequests = 0;
  /// Distinct plan-key groups across all batches.
  uint64_t BatchGroups = 0;
  /// submit() futures handed out (their requests also count in Submitted
  /// when the worker runs them).
  uint64_t AsyncSubmitted = 0;
};

/// Per-call breakout a submitBatch() caller can ask for: how much cache
/// traversal the grouping actually saved, and where each member ended up.
struct BatchStats {
  uint64_t Requests = 0;
  /// Distinct plan-key groups (ForceInterpreter and invalid requests run
  /// ungrouped and count one group each).
  uint64_t Groups = 0;
  /// JIT-handle acquisitions performed — at most one per group; fewer when
  /// every member of a group was shed or expired before acquiring.
  uint64_t HandleAcquisitions = 0;
  uint64_t Completed = 0;
  uint64_t Shed = 0;
  uint64_t DeadlineExpired = 0;
  uint64_t RequestErrors = 0;
  uint64_t DegradedRuns = 0;
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
  /// Serve through the reference interpreter even when the JIT path is
  /// healthy (oracle traffic, debugging).
  bool ForceInterpreter = false;
};

class ConversionService {
public:
  explicit ConversionService(ServiceLimits Limits = ServiceLimits::fromEnv());

  /// The process-wide instance, env-configured. All methods thread-safe;
  /// tests build their own instances with explicit limits instead.
  static ConversionService &instance();

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

  /// Executes a batch of requests, grouped by plan key so one JIT-handle
  /// acquisition serves every member of a group (single-flight already
  /// dedups *compiles*; grouping dedups the per-request cache traversal
  /// and the coalesced-flight waits). Results come back positionally —
  /// Results[i] is Requests[i]'s outcome, same Status taxonomy as
  /// convert(). Semantics:
  ///
  ///  * Groups execute in first-appearance order; within a group, members
  ///    run FIFO on the calling thread, each under its own admission slot
  ///    and its own deadline — a batch never bypasses shedding, and a shed
  ///    or expired member fails alone while the batch continues.
  ///  * The group's one handle acquisition is bounded by the *most
  ///    patient* member's deadline (the handle outlives any one member);
  ///    each member then still honors its own deadline before running.
  ///  * ForceInterpreter and malformed (null-input) requests are not
  ///    grouped; they execute individually in position order.
  ///
  /// \p Stats (optional) receives the per-call breakout; the service-wide
  /// counters are updated either way.
  std::vector<StatusOr<tensor::SparseTensor>>
  submitBatch(const std::vector<ConversionRequest> &Requests,
              BatchStats *Stats = nullptr);

  /// Asynchronous convert(): returns immediately with a future that
  /// resolves to the request's outcome. The request runs on a service
  /// worker thread through the same admission/shedding/deadline path as
  /// convert() — a saturated service sheds async requests identically.
  /// The borrowed Request.Input must stay alive and unmodified until the
  /// future is ready (not merely until submit() returns). The destructor
  /// drains outstanding async requests before the service dies.
  std::future<StatusOr<tensor::SparseTensor>> submit(ConversionRequest Request);

  ~ConversionService();

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

  /// Async-worker bookkeeping: the destructor blocks until every submit()
  /// worker has finished (futures handed to callers stay valid — they own
  /// the shared state).
  std::mutex AsyncMu;
  std::condition_variable AsyncDrained;
  int AsyncOutstanding = 0;

  struct Counters {
    std::atomic<uint64_t> Submitted{0};
    std::atomic<uint64_t> Completed{0};
    std::atomic<uint64_t> Shed{0};
    std::atomic<uint64_t> DeadlineExpired{0};
    std::atomic<uint64_t> DegradedRuns{0};
    std::atomic<uint64_t> RequestErrors{0};
    std::atomic<uint64_t> Batches{0};
    std::atomic<uint64_t> BatchRequests{0};
    std::atomic<uint64_t> BatchGroups{0};
    std::atomic<uint64_t> AsyncSubmitted{0};
  };
  mutable Counters Counts;
};

} // namespace convert
} // namespace convgen

#endif // CONVGEN_SERVICE_CONVERSIONSERVICE_H
