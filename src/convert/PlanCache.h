//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide cache of generated conversion plans and their JIT-compiled
/// shared objects, so obtaining a converter is (nearly) free after the first
/// request for a (source, target, options) triple:
///
///   * codegen::generateConversion results are memoized under a stable
///     fingerprint of the formats and options — repeated Converter
///     construction skips remapping, query compilation, and assembly;
///   * live jit::JitConversion handles are shared under the same key —
///     repeated JIT requests skip the external C compiler within the
///     process;
///   * compiled shared objects are additionally installed in an on-disk
///     cache keyed by a hash of the emitted C source, the effective compile
///     flags, and the compiler, so *new* processes skip the external
///     compiler too.
///
/// The on-disk cache is crash-safe under concurrent writers: objects are
/// staged in the cache directory and installed with an atomic rename while
/// holding a per-entry flock, and every entry carries a checksum manifest
/// (<object>.sum) that readers verify before dlopen — N processes sharing
/// one CONVGEN_CACHE_DIR can never serve a torn or stale object. A failed
/// verification evicts the entry (recorded in the DegradationLog) and the
/// object is recompiled.
///
/// Environment knobs:
///   CONVGEN_CACHE_DIR            on-disk cache location (default
///                                $XDG_CACHE_HOME/convgen, then
///                                $HOME/.cache/convgen, then
///                                /tmp/convgen-cache)
///   CONVGEN_DISABLE_DISK_CACHE   any non-"0" value keeps the cache
///                                in-memory only (and turns off
///                                warm-start preload and export)
///   CONVGEN_MANIFEST             warm-start manifest path override
///   CONVGEN_FAULT                fault injection at the cache-read /
///                                cache-write sites (support/Fault.h)
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_CONVERT_PLANCACHE_H
#define CONVGEN_CONVERT_PLANCACHE_H

#include "codegen/Generator.h"
#include "jit/Jit.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace convgen {
namespace convert {

/// Counters exposed for tests and benchmarks. Maintained as relaxed
/// atomics, so stats() is safe (and each field exact) when read from
/// concurrent request threads; the fields are not sampled in one instant,
/// but each is monotone, so before/after deltas bracket the truth.
struct PlanCacheStats {
  uint64_t PlanHits = 0;
  uint64_t PlanMisses = 0;
  /// Of the PlanHits, how many piggybacked on another thread's in-flight
  /// generation instead of finding a completed entry.
  uint64_t PlanCoalesced = 0;
  uint64_t JitHits = 0;
  uint64_t JitMisses = 0;
  /// Of the JitHits, how many piggybacked on another thread's in-flight
  /// compile (single-flight waiters; counted as hits, never misses).
  uint64_t JitCoalesced = 0;
  /// Of the JitMisses, how many loaded a shared object from disk instead
  /// of running the external compiler.
  uint64_t DiskHits = 0;
};

/// How preload() acquires the manifest's entries. Eager, the one mode,
/// validates and dlopens every entry before returning; the enum stays only
/// because perfbench spells PreloadMode::Eager.
enum class PreloadMode { Eager };

/// Outcome counters of one preload() pass.
struct PreloadStats {
  uint64_t Entries = 0; ///< Manifest lines examined.
  uint64_t Loaded = 0;  ///< Entries revalidated, dlopen'd, and installed
                        ///< into the in-memory cache.
  uint64_t Evicted = 0; ///< Entries that failed revalidation — corrupt
                        ///< line, env/version skew, checksum mismatch,
                        ///< failed load — dropped, never served
                        ///< (preload-evict).
  uint64_t Skipped = 0; ///< Entries already warm in memory.
  /// One reason per evicted entry, in manifest order: the text recorded
  /// in the DegradationLog as PreloadEviction.
  std::vector<std::string> EvictReasons;
};

/// Thread-safety contract: every method may be called from any number of
/// request threads concurrently. The cache is sharded by key hash; the hit
/// path takes only a per-shard reader lock over an immutable shared_ptr
/// entry, so warm lookups from N threads proceed in parallel. Misses are
/// single-flight: concurrent requests for the same key coalesce onto one
/// in-flight codegen/compile — the first requester (the leader) does the
/// work synchronously while the rest block on a per-key shared future
/// (bounded by their deadline, when they have one) and are counted as
/// hits, never misses. Exactly one compile per unique key, under any
/// concurrent-miss storm (plus one per flight its leader's own deadline
/// cut short, which waiters with time left redo; see tryJit).
class PlanCache {
public:
  /// The process-wide instance. All methods are thread-safe.
  static PlanCache &instance();

  /// The generated conversion plan for the triple, memoized. Aborts on an
  /// unsupported pair (known-good callers); tryPlan is the checked form.
  std::shared_ptr<const codegen::Conversion>
  plan(const formats::Format &Source, const formats::Format &Target,
       const codegen::Options &Opts = codegen::Options());

  /// Checked plan acquisition: an unsupported pair (or pair-at-dims, when
  /// Opts.DimsHint is set) returns ErrorCode::Unsupported with the
  /// planAssembly's diagnostic instead of aborting. An already expired
  /// \p Deadline returns DeadlineExceeded without generating anything;
  /// in-process codegen itself is never interrupted (it is pure
  /// millisecond-scale compute — only *waiting* is deadline-bounded).
  StatusOr<std::shared_ptr<const codegen::Conversion>>
  tryPlan(const formats::Format &Source, const formats::Format &Target,
          const codegen::Options &Opts = codegen::Options(),
          const support::Deadline &Deadline = {});

  /// A live JIT-compiled conversion for the triple, memoized; compiles at
  /// most once per process and reuses on-disk shared objects across
  /// processes. Aborts on an unsupported pair; environment failures
  /// (failed compile, dlopen) never abort — the returned handle degrades
  /// to bit-exact interpreter execution (JitConversion::degraded()).
  std::shared_ptr<jit::JitConversion>
  jit(const formats::Format &Source, const formats::Format &Target,
      const codegen::Options &Opts = codegen::Options());

  /// Checked JIT acquisition: Unsupported pairs come back as a Status;
  /// environment failures come back as an OK but degraded handle (which
  /// still converts, through the interpreter). \p Deadline bounds the
  /// caller's waiting: an expired deadline fails fast, a coalesced waiter
  /// that times out on the in-flight compile gets DeadlineExceeded (the
  /// compile itself continues for the leader), and a leader's compile wait
  /// is bounded by min(CONVGEN_COMPILE_TIMEOUT_MS, deadline remaining). A
  /// handle degraded *by the caller's deadline* is returned to that caller
  /// but not cached — the next, more patient, caller recompiles; a handle
  /// degraded by the environment (every caller would fail identically) is
  /// cached. A coalesced waiter handed such a deadline-degraded handle
  /// while its own deadline has not expired does not take it: it retries
  /// the lookup, leading or joining a fresh flight.
  StatusOr<std::shared_ptr<jit::JitConversion>>
  tryJit(const formats::Format &Source, const formats::Format &Target,
         const codegen::Options &Opts = codegen::Options(),
         const support::Deadline &Deadline = {});

  /// A consistent-enough snapshot for concurrent readers (see
  /// PlanCacheStats).
  PlanCacheStats stats() const;

  /// Drops all memoized plans and JIT handles (tests; outstanding
  /// shared_ptrs stay valid). In-flight builds are not interrupted; they
  /// repopulate their entry when they land. The on-disk cache is
  /// untouched.
  void clearMemory();

  /// Resolved on-disk cache directory, created on first use; empty when
  /// the disk cache is disabled or cannot be created.
  static std::string diskCacheDir();

  //===----------------------------------------------------------------===//
  // Warm-start: manifest export on the way down, preload on the way up.
  //===----------------------------------------------------------------===//

  /// Resolved warm-start manifest path: CONVGEN_MANIFEST when set,
  /// otherwise <diskCacheDir()>/manifest.txt; empty when the disk cache is
  /// disabled and no explicit path is set.
  static std::string manifestFilePath();

  /// Persists a warm-start manifest describing every standard-format JIT
  /// entry this process compiled or loaded: plan key + strategy bits, an
  /// environment hash (effective flags, compiler identity, host ISA), the
  /// cached object's path and content digest, and a per-line integrity
  /// hash. Written atomically under the entry flock (crash-safe, like
  /// object installs). Entries whose formats are not in the standard
  /// registry, or whose plan key no longer matches the current strategy
  /// knobs, are skipped — preload could never revalidate them. \p Path
  /// defaults to manifestFilePath(). Returns Unavailable, writing nothing,
  /// when the disk cache is disabled.
  Status exportManifest(const std::string &Path = "");

  /// Re-validates and dlopens every manifest entry so a restarted server's
  /// first requests hit warm; a server calls it once before serving. Per
  /// entry, in order: line integrity hash, environment hash
  /// (compiler/ISA/flags — version skew), plan-key recomputation from the
  /// current strategy knobs, object checksum, and recorded-vs-actual
  /// object digest must all pass before jit::JitConversion::loadCachedOnly
  /// installs the handle; any failure evicts the entry (DegradationLog
  /// preload-evict), never serves it, and the external compiler is never
  /// invoked. The manifest is rewritten
  /// without the evicted lines. With the disk cache disabled it returns
  /// zero stats without reading or rewriting the manifest.
  PreloadStats preload(const std::string &ManifestPath = "",
                       PreloadMode Mode = PreloadMode::Eager);

  /// No-op, kept for callers built against the removed measured-outcome
  /// store; strategy choice no longer records or reads measurements.
  void resetOutcomes() {}

private:
  PlanCache() = default;

  using PlanPtr = std::shared_ptr<const codegen::Conversion>;
  using JitPtr = std::shared_ptr<jit::JitConversion>;

  /// One in-flight build: the leader fulfills Promise exactly once;
  /// waiters block on Future (copied under the shard lock).
  template <typename V> struct Flight {
    std::promise<V> Promise;
    std::shared_future<V> Future;
    Flight() : Future(Promise.get_future().share()) {}
  };

  template <typename V>
  using FlightMap = std::map<std::string, std::shared_ptr<Flight<V>>>;

  /// 16 shards keep unrelated keys off each other's locks; within a
  /// shard, shared_mutex keeps the (overwhelmingly common) hit path
  /// reader-parallel. Entries are immutable shared_ptrs — publication
  /// happens-before any reader sees the pointer via the shard lock.
  struct Shard {
    mutable std::shared_mutex Mu;
    std::map<std::string, PlanPtr> Plans;
    std::map<std::string, JitPtr> Jits;
    FlightMap<PlanPtr> PlanFlights;
    FlightMap<JitPtr> JitFlights;
  };
  static constexpr int kNumShards = 16;

  Shard &shardFor(const std::string &Key) const;

  /// Hit/miss/coalesce counters of one cached kind (plans or JIT handles).
  struct FlightCounters {
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
    std::atomic<uint64_t> Coalesced{0};
  };

  /// Whether a freshly built value may enter the shared map: plans always;
  /// a JIT handle unless the leader's own deadline degraded it.
  static bool cacheable(const PlanPtr &) { return true; }
  static bool cacheable(const JitPtr &J) {
    return !J->degradedByRequestDeadline();
  }

  /// The single-flight lookup plan() and jitImpl() share: a reader-locked
  /// hit, else lead (run \p Build, cache it if cacheable()) or join the
  /// key's flight until \p Deadline, retrying when handed a non-cacheable
  /// value with time left. Waiters log under \p Pair unless it is empty.
  template <typename V, typename BuildFn>
  StatusOr<V> lookupOrBuild(std::map<std::string, V> Shard::*Entries,
                            FlightMap<V> Shard::*Flights,
                            FlightCounters &Count, const std::string &Key,
                            const std::string &Pair,
                            const support::Deadline &Deadline, BuildFn Build);

  /// The single-flight JIT path shared by jit() and tryJit(); the only
  /// error a finite \p Deadline can produce is DeadlineExceeded.
  StatusOr<JitPtr> jitImpl(const formats::Format &Source,
                           const formats::Format &Target,
                           const codegen::Options &Opts,
                           const support::Deadline &Deadline);

  mutable std::array<Shard, kNumShards> Shards;

  struct Counters {
    FlightCounters Plan;
    FlightCounters Jit;
    std::atomic<uint64_t> DiskHits{0};
  };
  mutable Counters Stats;
};

/// Stable semantic fingerprint of a format: name, canonical order, both
/// remap statements, level specs, padding, and static parameters. Two
/// formats with equal fingerprints generate identical conversion code.
std::string formatFingerprint(const formats::Format &F);

/// Stable key for a (source, target, options) triple.
std::string planKey(const formats::Format &Source,
                    const formats::Format &Target,
                    const codegen::Options &Opts);

/// 64-bit FNV-1a, rendered as 16 hex digits (disk cache file names and
/// the per-entry checksum manifests).
std::string contentHash(const std::string &Data);

//===------------------------------------------------------------------===//
// Crash-safe disk-cache entry management (shared with jit/Jit.cpp).
//===------------------------------------------------------------------===//

/// True when a checksum-verified object exists at \p SoPath: the bytes at
/// SoPath hash to the manifest at SoPath + ".sum". A missing object is a
/// plain miss; a mismatch (torn write, bit rot, a pre-manifest cache) is
/// re-verified under the entry's writer lock — an install may have
/// renamed the object but not yet its manifest — and then evicted, with a
/// CacheChecksumEviction recorded. Honors the cache-read fault site.
bool readVerifiedCachedObject(const std::string &SoPath);

/// Atomically installs \p LocalSo (and \p LocalC beside it, for
/// debugging) at \p SoPath with its checksum manifest, holding an flock
/// on SoPath + ".lock" across both renames so concurrent writers cannot
/// interleave. Best-effort: returns false (recording CacheWriteFailure)
/// on any I/O failure or an injected cache-write fault; the caller keeps
/// serving from its locally compiled object. Readers that race the two
/// renames see a checksum mismatch at worst and recompile — never a torn
/// object.
bool installCachedObject(const std::string &SoPath,
                         const std::string &LocalSo,
                         const std::string &LocalC);

/// Removes \p SoPath and its manifest under the entry lock (used when a
/// verified object still fails to dlopen, e.g. a foreign-ISA leftover).
void evictCachedObject(const std::string &SoPath, const std::string &Why);

} // namespace convert
} // namespace convgen

#endif // CONVGEN_CONVERT_PLANCACHE_H
