//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "convert/PlanCache.h"

#include "codegen/Knobs.h"
#include "formats/Standard.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/utsname.h>
#include <unistd.h>
#include <vector>

namespace {

/// Identifies the host CPU for the disk-cache key: cached objects are
/// compiled with -march=native, so an object built on one microarchitecture
/// can SIGILL on another even though source and flags hash identically
/// (shared $HOME, baked container images). /proc/cpuinfo's model name and
/// feature flags capture the ISA; uname's machine field is the fallback.
std::string hostIsaFingerprint() {
  std::string Out;
  if (std::FILE *Info = std::fopen("/proc/cpuinfo", "r")) {
    char Line[4096];
    bool HaveModel = false, HaveFlags = false;
    while (std::fgets(Line, sizeof(Line), Info) &&
           !(HaveModel && HaveFlags)) {
      if (!HaveModel && std::strncmp(Line, "model name", 10) == 0) {
        Out += Line;
        HaveModel = true;
      } else if (!HaveFlags && (std::strncmp(Line, "flags", 5) == 0 ||
                                std::strncmp(Line, "Features", 8) == 0)) {
        Out += Line;
        HaveFlags = true;
      }
    }
    std::fclose(Info);
  }
  if (Out.empty()) {
    struct utsname Uts;
    if (uname(&Uts) == 0)
      Out = Uts.machine;
  }
  return Out;
}

/// Reads a whole file into \p Out; false when it cannot be opened or read.
bool readWholeFile(const std::string &Path, std::string *Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Out->clear();
  char Buf[1 << 16];
  for (size_t Got; (Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0;)
    Out->append(Buf, Got);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  return Ok;
}

/// Writes \p Data to a staging name beside \p Path and renames it into
/// place (atomic within the directory); false on any failure, with the
/// staged file removed.
bool writeFileAtomic(const std::string &Path, const std::string &Data) {
  static std::atomic<uint64_t> StageCounter{0};
  std::string Staged = Path + ".tmp." + std::to_string(getpid()) + "." +
                       std::to_string(++StageCounter);
  std::FILE *Out = std::fopen(Staged.c_str(), "wb");
  if (!Out)
    return false;
  bool Ok = std::fwrite(Data.data(), 1, Data.size(), Out) == Data.size();
  if (std::fclose(Out) != 0)
    Ok = false;
  if (Ok && std::rename(Staged.c_str(), Path.c_str()) != 0)
    Ok = false;
  if (!Ok)
    std::remove(Staged.c_str());
  return Ok;
}

/// Exclusive advisory lock on <SoPath>.lock, held for the object's scope.
/// Serializes installers and evictors of one cache entry across processes;
/// readers stay lock-free (the checksum manifest protects them) and only
/// take the lock to re-verify before evicting.
class EntryLock {
public:
  explicit EntryLock(const std::string &SoPath) {
    Fd = open((SoPath + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
              0644);
    if (Fd >= 0 && flock(Fd, LOCK_EX) != 0) {
      close(Fd);
      Fd = -1;
    }
  }
  ~EntryLock() {
    if (Fd >= 0) {
      flock(Fd, LOCK_UN);
      close(Fd);
    }
  }
  bool held() const { return Fd >= 0; }
  EntryLock(const EntryLock &) = delete;
  EntryLock &operator=(const EntryLock &) = delete;

private:
  int Fd = -1;
};

std::string manifestPath(const std::string &SoPath) {
  return SoPath + ".sum";
}

/// True when the bytes at SoPath match the manifest beside it.
bool checksumMatches(const std::string &SoPath) {
  std::string Bytes, Want;
  if (!readWholeFile(SoPath, &Bytes))
    return false;
  if (!readWholeFile(manifestPath(SoPath), &Want))
    return false;
  return convgen::trim(Want) == convgen::convert::contentHash(Bytes);
}

/// Warm-start manifest format version. Bumped whenever the line layout
/// changes; a preloader seeing another version drops the whole file.
const char kManifestHeader[] = "convgen-manifest-v4";

/// Everything outside the emitted C that determines the compiled binary:
/// the full effective flag string (CONVGEN_JIT_FLAGS baked in), the
/// compiler identity, and the host ISA (-march=native bakes it into the
/// object).
std::string toolchainKey() {
  return convgen::jit::jitEffectiveFlags() + "\n" +
         convgen::jit::compilerSpec() + "\n" + hostIsaFingerprint();
}

/// Hash of the toolchain key. A preloader whose hash differs from the
/// manifest writer's is version-skewed and must evict, not serve.
std::string environmentHash() {
  return convgen::convert::contentHash(toolchainKey());
}

/// The disk-cache object for \p Plan: keyed on its emitted C and the
/// toolchain key of the flags it compiles with.
std::string diskObjectPath(const std::string &Dir,
                           const convgen::codegen::Conversion &Plan) {
  std::string Key = Plan.cSource() + "\n" + toolchainKey();
  return Dir + "/" + Plan.Func.Name + "-" +
         convgen::convert::contentHash(Key) + ".so";
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Out;
  std::string::size_type Start = 0;
  for (std::string::size_type Tab = Line.find('\t');
       Tab != std::string::npos; Tab = Line.find('\t', Start)) {
    Out.push_back(Line.substr(Start, Tab - Start));
    Start = Tab + 1;
  }
  Out.push_back(Line.substr(Start));
  return Out;
}

std::string serializeDims(const std::vector<int64_t> &Dims) {
  if (Dims.empty())
    return "-";
  std::string Out;
  for (int64_t D : Dims) {
    if (!Out.empty())
      Out += ",";
    Out += std::to_string(D);
  }
  return Out;
}

bool parseDims(const std::string &Field, std::vector<int64_t> *Dims) {
  Dims->clear();
  if (Field == "-")
    return true;
  std::string Cur;
  for (size_t I = 0; I <= Field.size(); ++I) {
    if (I == Field.size() || Field[I] == ',') {
      if (Cur.empty())
        return false;
      char *End = nullptr;
      long long V = std::strtoll(Cur.c_str(), &End, 10);
      if (!End || *End != '\0')
        return false;
      Dims->push_back(V);
      Cur.clear();
    } else {
      Cur += Field[I];
    }
  }
  return !Dims->empty();
}

/// "q1c1m0s0" <-> option bits (s: forced sorted ranking).
std::string serializeOptBits(const convgen::codegen::Options &Opts) {
  return convgen::strfmt("q%dc%dm%ds%d", Opts.OptimizeQueries ? 1 : 0,
                         Opts.CounterReuse ? 1 : 0,
                         Opts.MaterializeRemap ? 1 : 0,
                         Opts.ForceSortedRanking ? 1 : 0);
}

bool parseOptBits(const std::string &Field,
                  convgen::codegen::Options *Opts) {
  if (Field.size() != 8 || Field[0] != 'q' || Field[2] != 'c' ||
      Field[4] != 'm' || Field[6] != 's')
    return false;
  auto Bit = [](char C, bool *Out) {
    if (C != '0' && C != '1')
      return false;
    *Out = C == '1';
    return true;
  };
  return Bit(Field[1], &Opts->OptimizeQueries) &&
         Bit(Field[3], &Opts->CounterReuse) &&
         Bit(Field[5], &Opts->MaterializeRemap) &&
         Bit(Field[7], &Opts->ForceSortedRanking);
}

} // namespace

using namespace convgen;
using namespace convgen::convert;
using support::Degradation;
using support::DegradationLog;
using support::FaultSite;

bool convert::readVerifiedCachedObject(const std::string &SoPath) {
  if (support::faultInjected(FaultSite::CacheRead)) {
    DegradationLog::instance().record(
        Degradation::CacheReadFailure,
        "injected cache-read fault for " + SoPath);
    return false;
  }
  // Fast path: no lock. rename() publishes whole files, so a reader sees
  // complete bytes; the manifest check catches every other corruption.
  if (std::FILE *Probe = std::fopen(SoPath.c_str(), "rb"))
    std::fclose(Probe);
  else
    return false; // Plain miss.
  if (checksumMatches(SoPath))
    return true;
  // Mismatch: an installer may have renamed the object but not yet its
  // manifest. Re-verify under the writer lock before evicting, so a good
  // fresh object is never deleted out from under its installer.
  EntryLock Lock(SoPath);
  if (checksumMatches(SoPath))
    return true;
  std::remove(SoPath.c_str());
  std::remove(manifestPath(SoPath).c_str());
  DegradationLog::instance().record(
      Degradation::CacheChecksumEviction,
      "evicted " + SoPath + " (checksum mismatch or missing manifest)");
  return false;
}

bool convert::installCachedObject(const std::string &SoPath,
                                  const std::string &LocalSo,
                                  const std::string &LocalC) {
  auto fail = [&](const std::string &Why) {
    DegradationLog::instance().record(Degradation::CacheWriteFailure, Why);
    return false;
  };
  if (support::faultInjected(FaultSite::CacheWrite))
    return fail("injected cache-write fault for " + SoPath);
  std::string Bytes;
  if (!readWholeFile(LocalSo, &Bytes))
    return fail("cannot read freshly compiled object " + LocalSo);
  EntryLock Lock(SoPath);
  if (!Lock.held())
    return fail("cannot lock cache entry " + SoPath);
  // Object first, manifest second: a crash between the renames leaves an
  // object whose manifest mismatches, which readers evict and recompile —
  // never serve.
  if (!writeFileAtomic(SoPath, Bytes))
    return fail("cannot install " + SoPath);
  if (!writeFileAtomic(manifestPath(SoPath), contentHash(Bytes) + "\n"))
    return fail("cannot install manifest for " + SoPath);
  // Keep the generated C beside the object for debugging (best effort).
  std::string CPath = SoPath;
  std::string::size_type Dot = CPath.rfind(".so");
  if (!LocalC.empty() && Dot != std::string::npos) {
    CPath.replace(Dot, 3, ".c");
    std::string CSource;
    if (readWholeFile(LocalC, &CSource))
      writeFileAtomic(CPath, CSource);
  }
  return true;
}

void convert::evictCachedObject(const std::string &SoPath,
                                const std::string &Why) {
  EntryLock Lock(SoPath);
  std::remove(SoPath.c_str());
  std::remove(manifestPath(SoPath).c_str());
  DegradationLog::instance().record(Degradation::CacheChecksumEviction,
                                    "evicted " + SoPath + " (" + Why + ")");
}

std::string convert::contentHash(const std::string &Data) {
  return strfmt("%016llx",
                static_cast<unsigned long long>(support::fnv1a(Data)));
}

std::string convert::formatFingerprint(const formats::Format &F) {
  std::string Out = F.Name + "|" + std::to_string(F.SrcOrder) + "|" +
                    remap::printRemap(F.Remap) + "|" +
                    remap::printRemap(F.Inverse) + "|";
  for (const formats::LevelSpec &L : F.Levels)
    Out += strfmt("%s:%d:%d:%d:%d,%d;", formats::levelKindName(L.Kind),
                  L.Dim, L.Unique ? 1 : 0, L.Padded ? 1 : 0, L.AddendDims[0],
                  L.AddendDims[1]);
  Out += F.PaddedVals ? "|padded" : "|dense-vals";
  for (int64_t P : F.StaticParams)
    Out += "|" + std::to_string(P);
  return Out;
}

std::string convert::planKey(const formats::Format &Source,
                             const formats::Format &Target,
                             const codegen::Options &Opts) {
  std::string Key =
      formatFingerprint(Source) + " => " + formatFingerprint(Target) +
      strfmt(" [q%dc%dm%d]", Opts.OptimizeQueries ? 1 : 0,
             Opts.CounterReuse ? 1 : 0, Opts.MaterializeRemap ? 1 : 0);
  // A dims hint changes the generated code only through the assembly
  // strategy it selects (which levels go sorted/ranked/dedup and whether
  // their sorts pack keys), so the key carries those bits rather than the
  // raw dims: every huge-dims tensor that lands on the same strategy
  // shares one plan and one JIT object.
  // The bits are re-derived on every lookup, so flipping
  // CONVGEN_RANK_DENSE_MAX_BYTES can never hit a stale cached plan.
  // optionsForDims() keeps the hint empty whenever the dims do not affect
  // the plan, so ordinary tensors share the default entry per pair.
  // Forced sorted ranking always carries its strategy bits, so a forced
  // plan can never alias the default plan's cached object even at
  // hint-free dims; the bits fix the routine, so a forced plan and a
  // budget-sorted plan with the same bits share one entry.
  if (!Opts.DimsHint.empty() || Opts.ForceSortedRanking) {
    codegen::AssemblyPlan Plan = codegen::planAssembly(Source, Target, Opts);
    Key += " [s";
    // The anchor of the shared sort is the deepest '1', so the bits
    // determine it.
    for (size_t K = 0; K < Plan.Sorted.size(); ++K)
      Key += Plan.Sorted[K] ? '1' : (Plan.Ranked[K] ? 'r' : '0');
    // The packed sorts compute their key widths from the extents at run
    // time, so every shape that packs shares one entry.
    if (!Plan.PackWidths.empty())
      Key += ":p";
    if (!Plan.Unsupported.empty()) {
      // Unsupported-at-these-dims plans abort in codegen; keep their keys
      // distinct per dims so the diagnostic mentions the right sizes.
      for (int64_t D : Opts.DimsHint)
        Key += ":" + std::to_string(D);
    }
    Key += "]";
  }
  return Key;
}

PlanCache &PlanCache::instance() {
  // Deliberately leaked: request threads (and futures they hold) may
  // still touch the cache during static destruction in exotic shutdown
  // orders; a never-destroyed instance makes instance() safe from any
  // thread at any time.
  static PlanCache *Cache = new PlanCache();
  return *Cache;
}

PlanCache::Shard &PlanCache::shardFor(const std::string &Key) const {
  return Shards[support::fnv1a(Key) % kNumShards];
}

std::string PlanCache::diskCacheDir() {
  const char *Disable = std::getenv("CONVGEN_DISABLE_DISK_CACHE");
  if (Disable && *Disable && std::string(Disable) != "0")
    return "";
  std::string Dir;
  if (const char *Env = std::getenv("CONVGEN_CACHE_DIR")) {
    if (!*Env)
      return "";
    Dir = Env;
  } else if (const char *Xdg = std::getenv("XDG_CACHE_HOME")) {
    Dir = std::string(Xdg) + "/convgen";
  } else if (const char *Home = std::getenv("HOME")) {
    Dir = std::string(Home) + "/.cache/convgen";
  } else {
    Dir = "/tmp/convgen-cache";
  }
  // mkdir -p: create each component, ignoring existing directories.
  for (size_t Slash = Dir.find('/', 1); true;
       Slash = Dir.find('/', Slash + 1)) {
    std::string Prefix =
        Slash == std::string::npos ? Dir : Dir.substr(0, Slash);
    if (!Prefix.empty() && mkdir(Prefix.c_str(), 0755) != 0 &&
        errno != EEXIST)
      return "";
    if (Slash == std::string::npos)
      break;
  }
  return Dir;
}

template <typename V, typename BuildFn>
StatusOr<V> PlanCache::lookupOrBuild(std::map<std::string, V> Shard::*Entries,
                                     FlightMap<V> Shard::*Flights,
                                     FlightCounters &Count,
                                     const std::string &Key,
                                     const std::string &Pair,
                                     const support::Deadline &Deadline,
                                     BuildFn Build) {
  Shard &S = shardFor(Key);
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> Read(S.Mu);
      auto It = (S.*Entries).find(Key);
      if (It != (S.*Entries).end()) {
        Count.Hits.fetch_add(1, std::memory_order_relaxed);
        return It->second;
      }
    }
    // Miss: join or start the key's single flight.
    std::shared_ptr<Flight<V>> F;
    bool Leader = false;
    {
      std::unique_lock<std::shared_mutex> Write(S.Mu);
      auto It = (S.*Entries).find(Key);
      if (It != (S.*Entries).end()) {
        Count.Hits.fetch_add(1, std::memory_order_relaxed);
        return It->second;
      }
      std::shared_ptr<Flight<V>> &Slot = (S.*Flights)[Key];
      Leader = !Slot;
      if (Leader)
        Slot = std::make_shared<Flight<V>>();
      F = Slot;
    }
    if (Leader) {
      // Build outside the lock (other shard traffic proceeds), then
      // publish to the map and the waiters' future.
      V Built = Build();
      {
        std::unique_lock<std::shared_mutex> Write(S.Mu);
        if (cacheable(Built))
          (S.*Entries)[Key] = Built;
        (S.*Flights).erase(Key);
      }
      Count.Misses.fetch_add(1, std::memory_order_relaxed);
      F->Promise.set_value(Built);
      return Built;
    }
    // Coalesced waiter: block on the leader's future, bounded by this
    // caller's own deadline (the build itself keeps running for the leader
    // and everyone more patient). Only JIT lookups carry a finite deadline.
    if (!Pair.empty())
      DegradationLog::instance().record(Degradation::SingleFlightCoalesce,
                                        Pair);
    if (!Deadline.infinite() &&
        F->Future.wait_until(Deadline.timePoint()) ==
            std::future_status::timeout) {
      std::string Why =
          Pair + ": deadline expired waiting on the in-flight compile";
      DegradationLog::instance().record(Degradation::DeadlineExceeded, Why);
      return Status::error(ErrorCode::DeadlineExceeded, "jit: " + Why);
    }
    V Got = F->Future.get();
    // The leader's own deadline cut its build short; this caller still has
    // time, so it leads or joins a fresh flight instead.
    if (!cacheable(Got) && !Deadline.expired())
      continue;
    // A successful wait counts as a hit, never a miss.
    Count.Hits.fetch_add(1, std::memory_order_relaxed);
    Count.Coalesced.fetch_add(1, std::memory_order_relaxed);
    return Got;
  }
}

std::shared_ptr<const codegen::Conversion>
PlanCache::plan(const formats::Format &Source, const formats::Format &Target,
                const codegen::Options &Opts) {
  // Codegen is pure, millisecond-scale compute, so waiters block
  // unboundedly (deadlines bound compiles and queues, not in-process
  // codegen) and the lookup cannot fail.
  auto Generate = [&] {
    return std::make_shared<const codegen::Conversion>(
        codegen::generateConversion(Source, Target, Opts));
  };
  return lookupOrBuild(&Shard::Plans, &Shard::PlanFlights, Stats.Plan,
                       planKey(Source, Target, Opts), "",
                       support::Deadline::never(), Generate)
      .take();
}

/// The checked entry points' shared gate: an already expired deadline
/// fails fast, before any work, and an unsupported pair returns the
/// planner's diagnostic.
static Status precheck(const char *What, const formats::Format &Source,
                       const formats::Format &Target,
                       const codegen::Options &Opts,
                       const support::Deadline &Deadline) {
  if (Deadline.expired()) {
    DegradationLog::instance().record(
        Degradation::DeadlineExceeded,
        strfmt("%s request arrived with an expired deadline", What));
    return Status::error(ErrorCode::DeadlineExceeded,
                         strfmt("%s: request deadline expired", What));
  }
  std::string Why;
  if (!codegen::conversionSupported(Source, Target, Opts, &Why))
    return Status::error(ErrorCode::Unsupported, Why);
  return Status();
}

StatusOr<std::shared_ptr<const codegen::Conversion>>
PlanCache::tryPlan(const formats::Format &Source,
                   const formats::Format &Target,
                   const codegen::Options &Opts,
                   const support::Deadline &Deadline) {
  Status Gate = precheck("plan", Source, Target, Opts, Deadline);
  if (!Gate.ok())
    return Gate;
  return plan(Source, Target, Opts);
}

StatusOr<std::shared_ptr<jit::JitConversion>>
PlanCache::tryJit(const formats::Format &Source, const formats::Format &Target,
                  const codegen::Options &Opts,
                  const support::Deadline &Deadline) {
  Status Gate = precheck("jit", Source, Target, Opts, Deadline);
  if (!Gate.ok())
    return Gate;
  // Environment failures below this point degrade inside JitConversion
  // (which then interprets) rather than surfacing as a Status: the handle
  // the caller gets always converts. Only a finite deadline can turn this
  // into an error (DeadlineExceeded).
  return jitImpl(Source, Target, Opts, Deadline);
}

std::shared_ptr<jit::JitConversion>
PlanCache::jit(const formats::Format &Source, const formats::Format &Target,
               const codegen::Options &Opts) {
  StatusOr<JitPtr> R =
      jitImpl(Source, Target, Opts, support::Deadline::never());
  // Infinite deadline: jitImpl cannot fail (unsupported pairs abort inside
  // codegen on this unchecked path, as they always have).
  return R.take();
}

StatusOr<PlanCache::JitPtr>
PlanCache::jitImpl(const formats::Format &Source,
                   const formats::Format &Target,
                   const codegen::Options &Opts,
                   const support::Deadline &Deadline) {
  // A handle degraded by the leader's own deadline is not cached: the
  // environment did not fail, that caller just ran out of time, and the
  // next request should compile for real. Environment-degraded handles are
  // cached — every caller would fail the same way, and re-failing per
  // request would pay the full retry ladder every time.
  return lookupOrBuild(
      &Shard::Jits, &Shard::JitFlights, Stats.Jit,
      planKey(Source, Target, Opts), Source.Name + " -> " + Target.Name, Deadline, [&] {
        // plan() is itself single-flight, so a concurrent Converter
        // construction for the same triple shares the generation too.
        std::shared_ptr<const codegen::Conversion> Plan =
            plan(Source, Target, Opts);
        std::string Dir = diskCacheDir();
        std::string SoPath =
            Dir.empty() ? "" : diskObjectPath(Dir, *Plan);
        auto Compiled =
            std::make_shared<jit::JitConversion>(*Plan, SoPath, Deadline);
        if (Compiled->loadedFromCache())
          Stats.DiskHits.fetch_add(1, std::memory_order_relaxed);
        return Compiled;
      });
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats Out;
  Out.PlanHits = Stats.Plan.Hits.load(std::memory_order_relaxed);
  Out.PlanMisses = Stats.Plan.Misses.load(std::memory_order_relaxed);
  Out.PlanCoalesced = Stats.Plan.Coalesced.load(std::memory_order_relaxed);
  Out.JitHits = Stats.Jit.Hits.load(std::memory_order_relaxed);
  Out.JitMisses = Stats.Jit.Misses.load(std::memory_order_relaxed);
  Out.JitCoalesced = Stats.Jit.Coalesced.load(std::memory_order_relaxed);
  Out.DiskHits = Stats.DiskHits.load(std::memory_order_relaxed);
  return Out;
}

void PlanCache::clearMemory() {
  // The manifest is exported from the JIT maps, so a cleared cache also
  // behaves like a fresh process at export (tests export before clearing).
  for (Shard &S : Shards) {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    S.Plans.clear();
    S.Jits.clear();
    // Flights stay: their leaders will publish into the cleared maps when
    // they land, and interrupting them would strand their waiters.
  }
}

std::string PlanCache::manifestFilePath() {
  if (const char *Env = std::getenv("CONVGEN_MANIFEST")) {
    if (*Env)
      return Env;
  }
  std::string Dir = diskCacheDir();
  return Dir.empty() ? "" : Dir + "/manifest.txt";
}

Status PlanCache::exportManifest(const std::string &Path) {
  // Without a disk cache this process has no objects to describe; writing
  // its empty view would wipe a manifest other processes share.
  if (diskCacheDir().empty())
    return Status::error(ErrorCode::Unavailable,
                         "manifest: disk cache disabled");
  std::string Resolved = Path.empty() ? manifestFilePath() : Path;
  // Warm-start material: every healthy native handle with a disk-cache
  // slot (degraded handles have no object to preload).
  std::map<std::string, JitPtr> Snapshot;
  for (Shard &S : Shards) {
    std::shared_lock<std::shared_mutex> Read(S.Mu);
    for (const auto &[Key, Handle] : S.Jits)
      if (!Handle->degraded() && !Handle->cachedSoPath().empty())
        Snapshot.emplace(Key, Handle);
  }
  std::string Out = std::string(kManifestHeader) + "\n";
  for (const auto &[PlanKey, Handle] : Snapshot) {
    const codegen::Conversion &Conv = Handle->conversion();
    const std::string &SoPath = Handle->cachedSoPath();
    // Only entries a fresh process can rebuild from names make the file:
    // the formats must round-trip through the standard registry onto the
    // same plan key (custom formats and knob drift since the build fail
    // this and are skipped, not exported broken).
    std::optional<formats::Format> Src =
        formats::standardFormat(Conv.Source.Name);
    std::optional<formats::Format> Dst =
        formats::standardFormat(Conv.Target.Name);
    if (!Src || !Dst)
      continue;
    if (planKey(*Src, *Dst, Conv.Opts) != PlanKey)
      continue;
    // The object digest comes from the entry's own checksum manifest; an
    // entry whose object (or .sum) is already gone is not exportable.
    std::string Digest;
    if (!readWholeFile(manifestPath(SoPath), &Digest))
      continue;
    std::string Line = Conv.Source.Name + "\t" + Conv.Target.Name + "\t" +
                       serializeOptBits(Conv.Opts) + "\t" +
                       serializeDims(Conv.Opts.DimsHint) + "\t" +
                       environmentHash() + "\t" + contentHash(PlanKey) +
                       "\t" + SoPath + "\t" + trim(Digest);
    Out += Line + "\t" + contentHash(Line) + "\n";
  }
  EntryLock Lock(Resolved);
  if (!writeFileAtomic(Resolved, Out))
    return Status::error(ErrorCode::Unavailable,
                         "manifest: cannot write " + Resolved);
  return Status();
}

PreloadStats PlanCache::preload(const std::string &Path, PreloadMode) {
  PreloadStats S;
  // Without a disk cache no entry could load, and rewriting the file
  // without them would cold-boot every process sharing it.
  std::string Dir = diskCacheDir();
  if (Dir.empty())
    return S;
  std::string ManifestPath = Path.empty() ? manifestFilePath() : Path;
  std::string Contents;
  if (!readWholeFile(ManifestPath, &Contents))
    return S; // No manifest: a cold boot, not an error.
  std::vector<std::string> Kept;
  bool Dropped = false;
  std::string::size_type Pos = 0;
  bool First = true;
  bool HeaderOk = false;
  while (Pos <= Contents.size()) {
    std::string::size_type Nl = Contents.find('\n', Pos);
    std::string Line = Contents.substr(
        Pos, Nl == std::string::npos ? std::string::npos : Nl - Pos);
    Pos = Nl == std::string::npos ? Contents.size() + 1 : Nl + 1;
    if (First) {
      First = false;
      HeaderOk = Line == kManifestHeader;
      if (!HeaderOk) {
        // Unknown version or corrupt header: nothing in the file can be
        // trusted. Drop it wholesale.
        DegradationLog::instance().record(
            Degradation::PreloadEviction,
            "manifest " + ManifestPath + ": bad header, dropped");
        Dropped = true;
        break;
      }
      continue;
    }
    if (Line.empty())
      continue;
    S.Entries++;
    auto Evict = [&](const std::string &Why) {
      S.Evicted++;
      Dropped = true;
      DegradationLog::instance().record(Degradation::PreloadEviction,
                                        "manifest entry evicted: " + Why);
    };
    std::vector<std::string> F = splitTabs(Line);
    if (F.size() != 9) {
      Evict("malformed line (" + std::to_string(F.size()) + " fields)");
      continue;
    }
    std::string Prefix = Line.substr(0, Line.rfind('\t'));
    if (F[8] != contentHash(Prefix)) {
      Evict("line integrity hash mismatch");
      continue;
    }
    std::optional<formats::Format> Src = formats::standardFormat(F[0]);
    std::optional<formats::Format> Dst = formats::standardFormat(F[1]);
    if (!Src || !Dst) {
      Evict("unknown format '" + (Src ? F[1] : F[0]) + "'");
      continue;
    }
    codegen::Options Opts;
    if (!parseOptBits(F[2], &Opts) || !parseDims(F[3], &Opts.DimsHint)) {
      Evict("malformed options for " + F[0] + " -> " + F[1]);
      continue;
    }
    if (F[4] != environmentHash()) {
      Evict(F[0] + " -> " + F[1] +
            ": environment skew (compiler/ISA/flags changed)");
      continue;
    }
    std::string Key = planKey(*Src, *Dst, Opts);
    if (F[5] != contentHash(Key)) {
      Evict(F[0] + " -> " + F[1] +
            ": plan key drift (strategy knobs or codegen changed)");
      continue;
    }
    Shard &Sh = shardFor(Key);
    {
      std::shared_lock<std::shared_mutex> Read(Sh.Mu);
      if (Sh.Jits.count(Key)) {
        S.Skipped++;
        Kept.push_back(Line);
        continue;
      }
    }
    StatusOr<PlanPtr> Plan = tryPlan(*Src, *Dst, Opts);
    if (!Plan.ok()) {
      Evict(F[0] + " -> " + F[1] + ": " + Plan.status().message());
      continue;
    }
    std::string SoPath = diskObjectPath(Dir, **Plan);
    if (SoPath != F[6]) {
      Evict(F[0] + " -> " + F[1] +
            ": recorded object path does not match this environment");
      continue;
    }
    if (!readVerifiedCachedObject(SoPath)) {
      Evict(F[0] + " -> " + F[1] + ": cached object missing or corrupt");
      continue;
    }
    std::string Digest;
    if (!readWholeFile(manifestPath(SoPath), &Digest) ||
        trim(Digest) != F[7]) {
      Evict(F[0] + " -> " + F[1] + ": object digest mismatch");
      continue;
    }
    JitPtr Handle = jit::JitConversion::loadCachedOnly(**Plan, SoPath);
    if (!Handle) {
      Evict(F[0] + " -> " + F[1] + ": cached object failed to load");
      continue;
    }
    {
      std::unique_lock<std::shared_mutex> Write(Sh.Mu);
      if (Sh.Jits.count(Key)) {
        // A request raced the preload and built the entry first; its
        // handle wins, ours is discarded.
        S.Skipped++;
        Kept.push_back(Line);
        continue;
      }
      Sh.Jits[Key] = Handle;
    }
    S.Loaded++;
    Kept.push_back(Line);
  }
  if (Dropped) {
    // Rewrite without the evicted lines (best-effort; the per-line
    // validation would drop them again next boot regardless).
    std::string Out = std::string(kManifestHeader) + "\n";
    for (const std::string &L : Kept)
      Out += L + "\n";
    EntryLock Lock(ManifestPath);
    writeFileAtomic(ManifestPath, Out);
  }
  return S;
}
