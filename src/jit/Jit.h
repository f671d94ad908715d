//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native execution of generated conversion routines: the emitted C99 is
/// compiled with the system compiler into a shared object and loaded with
/// dlopen — the same execution model taco uses for its generated kernels
/// (paper §7.1). The benchmarks run conversions through this backend; the
/// test suite checks it agrees bit-for-bit with the reference interpreter.
/// A routine that sorts or scans calls the prebuilt runtime
/// (jit/Runtime.h) through the table every call passes it; a loaded
/// object holds no state of its own.
///
/// A handle holds a loaded object or the reason it has none, and nothing
/// else: no file on disk, no mutable state but its runRaw phase totals.
///
/// Fault tolerance: environment failures (a missing or broken compiler, a
/// failed dlopen/dlsym, an unwritable scratch directory) never abort.
/// Construction retries transient failures with bounded backoff and then
/// degrades the handle — run()/tryRun() keep working by executing the same
/// generated routine through the reference interpreter, bit-exact with the
/// native path. runRaw(), the benchmark interface, has no interpreter
/// path: on a degraded handle it aborts naming degradationReason(). Every
/// degradation is counted in the process-wide support::DegradationLog;
/// degraded() exposes the state per handle. Request errors (wrong source
/// format, unsorted input, unsupported dims) are returned from tryRun as a
/// Status and never fall back — the interpreter would fail identically.
///
/// The external compiler is invoked with fork/exec (never a shell), so
/// paths and flags with shell metacharacters are safe. Each compile
/// attempt works in a scratch directory under TMPDIR that is removed
/// before the attempt returns, once the object is loaded (a dlopen'd
/// object stays mapped after its file is unlinked) or on failure. A
/// watchdog bounds the wait on the compiler child: a child exceeding
/// min(CONVGEN_COMPILE_TIMEOUT_MS, request-deadline remaining) is
/// SIGKILLed and reaped, and the handle degrades immediately — a hung
/// compiler can stall one request thread for at most the bound, never
/// forever.
///
/// Ownership contract at the JIT boundary (no marshalling copies):
///
///  * Inputs are bound by pointer. marshalInput points the cvg_tensor_t's
///    arrays directly at the SparseTensor's storage; the generated routine
///    treats them as const (the emitter binds them `const ... *restrict`)
///    and the tensor must outlive the call. Nothing is copied in.
///  * Outputs are adopted, not copied. The generated routine mallocs every
///    yielded pos/crd/perm/vals array and publishes the pointers + lengths
///    in the output struct; collectOutput moves those malloc'd buffers
///    into the result SparseTensor's OwnedArray storage, which frees them
///    with std::free when the tensor dies. After collectOutput (or
///    freeOutput) the CTensor's pointers are null; calling both, or either
///    twice, is safe but yields nothing.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_JIT_JIT_H
#define CONVGEN_JIT_JIT_H

#include "codegen/Generator.h"
#include "ir/CEmitter.h"
#include "support/Deadline.h"
#include "support/Status.h"
#include "tensor/SparseTensor.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace convgen {
namespace jit {

/// Bit-compatible with the cvg_tensor_t struct the C emitter declares.
struct CTensor {
  int64_t dims[ir::kMaxLevels + 1] = {};
  int64_t params[ir::kMaxLevels + 1] = {};
  int32_t *pos[ir::kMaxLevels + 1] = {};
  int64_t pos_len[ir::kMaxLevels + 1] = {};
  int32_t *crd[ir::kMaxLevels + 1] = {};
  int64_t crd_len[ir::kMaxLevels + 1] = {};
  int32_t *perm[ir::kMaxLevels + 1] = {};
  int64_t perm_len[ir::kMaxLevels + 1] = {};
  double *vals = nullptr;
  int64_t vals_len = 0;
};

/// Phase slots of the `cvg_phase` array a generated routine adds its
/// per-phase seconds to (its last argument): analysis (attribute queries +
/// remap materialization), edge insertion / initialization, coordinate
/// insertion (including blocked cursor counting), and finalize/yield.
/// Slots 4-7 are the sorted-ranking sub-phases carved out of edge
/// insertion — tuple collect, sort + unique list construction, pos build,
/// crd/perm write — and stay zero in routines without sorted levels (whose
/// slot 1 then covers the whole phase).
constexpr int kNumPhases = 8;

struct RuntimeTable;

/// A loaded routine's entry point (see ir::emitC).
using RoutineFn = void (*)(const RuntimeTable *, const CTensor *, CTensor *,
                           double *);

/// The external C compiler command: CONVGEN_CC, or "cc" when that is unset
/// or empty. Re-read per use so tests can rebind CONVGEN_CC in-process
/// (availability probes are memoized per value).
std::string compilerSpec();

/// True if a working C compiler is available. Probed once per distinct
/// CONVGEN_CC value (so tests can point CONVGEN_CC at a nonexistent binary
/// and observe the no-compiler degradation in-process).
bool jitAvailable();

/// True if the external C compiler accepts -fopenmp (probed once per
/// distinct CONVGEN_CC / CONVGEN_NO_OPENMP setting), so the
/// parallel-annotated loops of generated routines actually run
/// multi-threaded. Set CONVGEN_NO_OPENMP=1 to force serial compilation;
/// the emitted pragmas are then ignored and the code stays valid C.
bool jitOpenMPAvailable();

/// The complete flag string JitConversion hands the compiler: the fixed
/// base flags, -fopenmp when available, and CONVGEN_JIT_FLAGS (exposed so
/// the plan cache can key shared objects on it).
std::string jitEffectiveFlags();

/// The hung-compiler watchdog bound in milliseconds
/// (CONVGEN_COMPILE_TIMEOUT_MS, default 120000; 0 or negative disables the
/// watchdog). A compiler child exceeding it is SIGKILLed and reaped, the
/// attempt fails with DeadlineExceeded (no retry — a hung compiler will
/// hang again), and the handle degrades to the interpreter.
int64_t compileTimeoutMillis();

/// A conversion routine compiled to native code.
class JitConversion {
public:
  /// Emits C for \p Conv, compiles it (default flags -O3, plus -fopenmp
  /// when available), and loads it. Never aborts on environment failures:
  /// a failed compile or load is retried with bounded backoff
  /// (CONVGEN_JIT_ATTEMPTS, default 3) and the handle then degrades to
  /// interpreter-backed execution (degraded() == true, every tryRun still
  /// bit-exact). When \p CachedSoPath is nonempty, a checksum-verified
  /// object there is loaded directly (skipping the external compiler
  /// entirely, compileSeconds() == 0); otherwise the freshly compiled
  /// object is installed there atomically for future processes.
  ///
  /// \p RequestDeadline (optional) bounds each external compile wait by
  /// min(CONVGEN_COMPILE_TIMEOUT_MS, time remaining) and skips further
  /// retry attempts once expired. A handle degraded because the *request*
  /// deadline was the binding bound reports degradedByRequestDeadline();
  /// PlanCache declines to cache such handles, since a more patient caller
  /// could still compile successfully.
  explicit JitConversion(const codegen::Conversion &Conv,
                         const std::string &CachedSoPath = "",
                         support::Deadline RequestDeadline = {});
  ~JitConversion();

  /// Cache-only acquisition for warm-start preload: loads the
  /// checksum-verified object at \p CachedSoPath and returns a live native
  /// handle, or nullptr when no verified object can be loaded there. Never
  /// invokes the external compiler and never returns a degraded handle —
  /// preload must be free to fail per entry without burning a compile or
  /// poisoning the in-memory cache with interpreter-backed handles. An
  /// object that verifies but refuses to dlopen is evicted from the disk
  /// cache exactly as on the regular path.
  static std::shared_ptr<JitConversion>
  loadCachedOnly(const codegen::Conversion &Conv,
                 const std::string &CachedSoPath);

  /// True when the shared object came from the on-disk cache.
  bool loadedFromCache() const { return FromCache; }

  /// The disk-cache slot (empty: disk cache off) this handle was built
  /// with; the warm-start manifest reads it.
  const std::string &cachedSoPath() const { return CachedSoPath; }

  /// True when the native object could not be built or loaded: run and
  /// tryRun execute through the reference interpreter instead, and runRaw
  /// aborts.
  bool degraded() const { return Degraded; }

  /// True when the handle degraded only because the caller's request
  /// deadline expired (as opposed to the environment-wide
  /// CONVGEN_COMPILE_TIMEOUT_MS watchdog or a failed compile/load, which
  /// would fail for every caller).
  bool degradedByRequestDeadline() const { return DeadlineBound; }

  /// The diagnostic of the failure that degraded this handle (empty when
  /// native).
  const std::string &degradationReason() const { return DegradedWhy; }

  JitConversion(const JitConversion &) = delete;
  JitConversion &operator=(const JitConversion &) = delete;

  /// Converts via the native routine (marshals in/out of SparseTensor).
  /// Aborts on request errors; tryRun is the checked form.
  tensor::SparseTensor run(const tensor::SparseTensor &In) const;

  /// Checked conversion: request errors (a tensor in the wrong format, an
  /// unsorted source where the plan requires order, dimensions this object
  /// was not compiled for — including extents too wide for a packed
  /// object's 64-bit sort keys) come back as a Status instead of aborting.
  /// Environment trouble never surfaces here — a degraded handle serves
  /// through the interpreter, bit-exact.
  StatusOr<tensor::SparseTensor> tryRun(const tensor::SparseTensor &In) const;

  /// Raw invocation for benchmarking: \p A must be marshalled with
  /// marshalInput; \p B receives malloc'd arrays that the caller releases
  /// with freeOutput (or adopts via collectOutput). The routine times its
  /// phases into a call-local array, which is then added to this handle's
  /// phaseSeconds() totals. Native handles only: on a degraded handle it
  /// aborts naming degradationReason(), so a benchmark without a compiler
  /// fails loudly instead of timing the interpreter. Check degraded()
  /// first.
  void runRaw(const CTensor *A, CTensor *B) const;

  /// Wall-clock seconds spent in the external compiler (cumulative across
  /// retry attempts).
  double compileSeconds() const { return CompileSecs; }

  /// Cumulative per-phase wall-clock seconds of this handle's runRaw calls
  /// (kNumPhases slots; never null, all zero on a degraded handle). Other
  /// handles, tryRun and run add nothing. The totals are copied under the
  /// handle's lock into a per-thread snapshot, so they may be read while
  /// runRaw calls are in flight; the pointer stays valid until this
  /// thread's next phaseSeconds() call on any handle. Benchmarks snapshot
  /// before/after a timing loop and divide the delta by the rep count;
  /// runRaw calls on other threads during the loop add to the delta.
  const double *phaseSeconds() const;

  const codegen::Conversion &conversion() const { return Conv; }

private:
  /// Bare handle for loadCachedOnly: no initialize(), no degradation — the
  /// factory loads the cached object itself or discards the handle.
  JitConversion(const codegen::Conversion &Conversion,
                const std::string &CachedSoPath, std::nullptr_t)
      : Conv(Conversion), CachedSoPath(CachedSoPath) {}

  /// The one cached load (constructor and loadCachedOnly): the verified
  /// object at CachedSoPath, or false (an object that fails to load is
  /// evicted).
  bool loadVerifiedCached();
  /// Cached-load then compile-with-retry; a non-OK result degrades the
  /// handle instead of propagating.
  Status initialize(const support::Deadline &RequestDeadline);
  /// One compile + install + load attempt in a fresh scratch directory
  /// (removed before it returns). The compiler wait is bounded by
  /// min(CONVGEN_COMPILE_TIMEOUT_MS, deadline remaining) when either is
  /// finite; a child exceeding the bound is SIGKILLed and reaped.
  Status compileAndLoadOnce(const support::Deadline &RequestDeadline);

  codegen::Conversion Conv;
  std::string CachedSoPath;
  void *Handle = nullptr;
  RoutineFn Fn = nullptr;
  /// runRaw's per-handle phase totals, added to under PhaseMu.
  mutable std::mutex PhaseMu;
  mutable double PhaseSecs[kNumPhases] = {};
  double CompileSecs = 0;
  bool FromCache = false;
  bool Degraded = false;
  bool DeadlineBound = false;
  std::string DegradedWhy;
};

/// Points \p Out's arrays at \p In's storage (no copies; \p In must outlive
/// every runRaw call made with \p Out).
void marshalInput(const tensor::SparseTensor &In, CTensor *Out);

/// Moves the malloc'd arrays of \p B into a SparseTensor without copying
/// (OwnedArray adoption) and nulls \p B's pointers.
tensor::SparseTensor collectOutput(const formats::Format &Target,
                                   const std::vector<int64_t> &Dims,
                                   CTensor *B);

/// Releases the malloc'd arrays of \p B (benchmark loops).
void freeOutput(CTensor *B);

} // namespace jit
} // namespace convgen

#endif // CONVGEN_JIT_JIT_H
