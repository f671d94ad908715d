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
#include <thread>
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
const char kManifestHeader[] = "convgen-manifest-v1";

/// Everything outside the plan that determines whether a cached object is
/// loadable here: the full effective flag string (strategy knobs and
/// CONVGEN_JIT_FLAGS baked in), the compiler identity, and the host ISA.
/// A preloader whose hash differs from the manifest writer's is
/// version-skewed and must evict, not serve.
std::string environmentHash(const std::string &ExtraFlags) {
  const char *Cc = std::getenv("CONVGEN_CC");
  return convgen::convert::contentHash(
      convgen::jit::jitEffectiveFlags(ExtraFlags) + "\n" +
      (Cc ? Cc : "cc") + "\n" + hostIsaFingerprint());
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

/// "q1c1u0m0" <-> option bits.
std::string serializeOptBits(const convgen::codegen::Options &Opts) {
  return convgen::strfmt("q%dc%du%dm%d", Opts.OptimizeQueries ? 1 : 0,
                         Opts.CounterReuse ? 1 : 0,
                         Opts.ForceUnseqEdges ? 1 : 0,
                         Opts.MaterializeRemap ? 1 : 0);
}

bool parseOptBits(const std::string &Field,
                  convgen::codegen::Options *Opts) {
  if (Field.size() != 8 || Field[0] != 'q' || Field[2] != 'c' ||
      Field[4] != 'u' || Field[6] != 'm')
    return false;
  auto Bit = [](char C, bool *Out) {
    if (C != '0' && C != '1')
      return false;
    *Out = C == '1';
    return true;
  };
  return Bit(Field[1], &Opts->OptimizeQueries) &&
         Bit(Field[3], &Opts->CounterReuse) &&
         Bit(Field[5], &Opts->ForceUnseqEdges) &&
         Bit(Field[7], &Opts->MaterializeRemap);
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
      strfmt(" [q%dc%du%dm%d]", Opts.OptimizeQueries ? 1 : 0,
             Opts.CounterReuse ? 1 : 0, Opts.ForceUnseqEdges ? 1 : 0,
             Opts.MaterializeRemap ? 1 : 0);
  // A dims hint changes the generated code only through the assembly
  // strategy it selects (which levels go sorted/ranked/dedup, whether they
  // share one full-arity sort, and the packed-sort widths), so the key
  // carries those bits rather than the raw dims: every huge-dims tensor
  // that lands on the same strategy shares one plan and one JIT object.
  // The bits are re-derived on every lookup, so flipping
  // CONVGEN_RANK_DENSE_MAX_BYTES can never hit a stale cached plan.
  // optionsForDims() keeps the hint empty whenever the dims do not affect
  // the plan, so ordinary tensors share the default entry per pair.
  // Forced sorted ranking always carries its strategy bits (and a one-bit
  // forced marker below): a forced plan can never alias the default
  // plan's cached object even at hint-free dims.
  if (!Opts.DimsHint.empty() || Opts.ForceSortedRanking) {
    codegen::AssemblyPlan Plan = codegen::planAssembly(Source, Target, Opts);
    Key += " [s";
    for (size_t K = 0; K < Plan.Sorted.size(); ++K)
      Key += Plan.Sorted[K] ? '1' : (Plan.Ranked[K] ? 'r' : '0');
    if (Plan.SharedSortAnchor > 0)
      Key += ":g" + std::to_string(Plan.SharedSortAnchor);
    // The packed-sort bit alone is not enough: the per-dim bit widths are
    // baked into the emitted pack/unpack code, so dims with different
    // widths must not share an entry.
    if (Plan.PackedSort) {
      Key += ":p";
      for (int64_t W : Plan.PackWidths)
        Key += "." + std::to_string(W);
    }
    if (!Plan.Unsupported.empty()) {
      // Unsupported-at-these-dims plans abort in codegen; keep their keys
      // distinct per dims so the diagnostic mentions the right sizes.
      for (int64_t D : Opts.DimsHint)
        Key += ":" + std::to_string(D);
    }
    Key += "]";
    if (Opts.ForceSortedRanking)
      Key += " [f:S1]";
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

std::shared_ptr<const codegen::Conversion>
PlanCache::plan(const formats::Format &Source, const formats::Format &Target,
                const codegen::Options &Opts) {
  std::string Key = planKey(Source, Target, Opts);
  Shard &S = shardFor(Key);
  {
    std::shared_lock<std::shared_mutex> Read(S.Mu);
    auto It = S.Plans.find(Key);
    if (It != S.Plans.end()) {
      Stats.PlanHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  // Miss: join or start the key's single flight. Codegen is pure,
  // millisecond-scale compute, so waiters block unboundedly on the future
  // (deadlines bound compiles and queues, not in-process codegen).
  std::shared_ptr<Flight<PlanPtr>> F;
  {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    auto It = S.Plans.find(Key);
    if (It != S.Plans.end()) {
      Stats.PlanHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
    auto [FlightIt, Leader] =
        S.PlanFlights.emplace(Key, std::shared_ptr<Flight<PlanPtr>>());
    if (Leader)
      FlightIt->second = std::make_shared<Flight<PlanPtr>>();
    F = FlightIt->second;
    if (!Leader) {
      // Coalesced waiter: counted as a hit (the plan exists, in flight),
      // never a miss. Wait outside the lock.
      Stats.PlanHits.fetch_add(1, std::memory_order_relaxed);
      Stats.PlanCoalesced.fetch_add(1, std::memory_order_relaxed);
      Write.unlock();
      return F->Future.get();
    }
  }
  // Leader: generate outside the lock (other shard traffic proceeds), then
  // publish to the map and the waiters' future.
  auto Generated = std::make_shared<const codegen::Conversion>(
      codegen::generateConversion(Source, Target, Opts));
  {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    S.Plans[Key] = Generated;
    S.PlanFlights.erase(Key);
  }
  Stats.PlanMisses.fetch_add(1, std::memory_order_relaxed);
  F->Promise.set_value(Generated);
  return Generated;
}

StatusOr<std::shared_ptr<const codegen::Conversion>>
PlanCache::tryPlan(const formats::Format &Source,
                   const formats::Format &Target,
                   const codegen::Options &Opts,
                   const support::Deadline &Deadline) {
  if (Deadline.expired()) {
    DegradationLog::instance().record(
        Degradation::DeadlineExceeded,
        "plan request arrived with an expired deadline");
    return Status::error(ErrorCode::DeadlineExceeded,
                         "plan: request deadline expired");
  }
  std::string Why;
  bool Supported = codegen::conversionSupported(Source, Target, Opts, &Why);
  if (!Supported)
    return Status::error(ErrorCode::Unsupported, Why);
  return plan(Source, Target, Opts);
}

StatusOr<std::shared_ptr<jit::JitConversion>>
PlanCache::tryJit(const formats::Format &Source, const formats::Format &Target,
                  const codegen::Options &Opts, const std::string &ExtraFlags,
                  const support::Deadline &Deadline) {
  if (Deadline.expired()) {
    DegradationLog::instance().record(
        Degradation::DeadlineExceeded,
        "jit request arrived with an expired deadline");
    return Status::error(ErrorCode::DeadlineExceeded,
                         "jit: request deadline expired");
  }
  std::string Why;
  bool Supported = codegen::conversionSupported(Source, Target, Opts, &Why);
  if (!Supported)
    return Status::error(ErrorCode::Unsupported, Why);
  // Environment failures below this point degrade inside JitConversion
  // (which then interprets) rather than surfacing as a Status: the handle
  // the caller gets always converts. Only a finite deadline can turn this
  // into an error (DeadlineExceeded).
  return jitImpl(Source, Target, Opts, ExtraFlags, Deadline);
}

std::shared_ptr<jit::JitConversion>
PlanCache::jit(const formats::Format &Source, const formats::Format &Target,
               const codegen::Options &Opts, const std::string &ExtraFlags) {
  StatusOr<JitPtr> R =
      jitImpl(Source, Target, Opts, ExtraFlags, support::Deadline::never());
  // Infinite deadline: jitImpl cannot fail (unsupported pairs abort inside
  // codegen on this unchecked path, as they always have).
  return R.take();
}

StatusOr<PlanCache::JitPtr>
PlanCache::jitImpl(const formats::Format &Source,
                   const formats::Format &Target,
                   const codegen::Options &Opts,
                   const std::string &ExtraFlags,
                   const support::Deadline &Deadline) {
  std::string Key = planKey(Source, Target, Opts) + " !" + ExtraFlags;
  Shard &S = shardFor(Key);
  {
    std::shared_lock<std::shared_mutex> Read(S.Mu);
    auto It = S.Jits.find(Key);
    if (It != S.Jits.end()) {
      Stats.JitHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
  }
  // Miss: join or start the key's single flight.
  std::shared_ptr<Flight<JitPtr>> F;
  {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    auto It = S.Jits.find(Key);
    if (It != S.Jits.end()) {
      Stats.JitHits.fetch_add(1, std::memory_order_relaxed);
      return It->second;
    }
    auto [FlightIt, Leader] =
        S.JitFlights.emplace(Key, std::shared_ptr<Flight<JitPtr>>());
    if (Leader)
      FlightIt->second = std::make_shared<Flight<JitPtr>>();
    F = FlightIt->second;
    if (!Leader) {
      Write.unlock();
      // Coalesced waiter: block on the leader's future, bounded by this
      // caller's own deadline (the compile itself keeps running for the
      // leader and everyone more patient). A successful wait counts as a
      // hit, never a miss.
      DegradationLog::instance().record(
          Degradation::SingleFlightCoalesce,
          Source.Name + " -> " + Target.Name);
      if (!Deadline.infinite() &&
          F->Future.wait_until(Deadline.timePoint()) ==
              std::future_status::timeout) {
        DegradationLog::instance().record(
            Degradation::DeadlineExceeded,
            Source.Name + " -> " + Target.Name +
                ": deadline expired waiting on the in-flight compile");
        return Status::error(ErrorCode::DeadlineExceeded,
                             "jit: deadline expired waiting on the "
                             "in-flight compile for " +
                                 Source.Name + " -> " + Target.Name);
      }
      Stats.JitHits.fetch_add(1, std::memory_order_relaxed);
      Stats.JitCoalesced.fetch_add(1, std::memory_order_relaxed);
      return F->Future.get();
    }
  }
  // Leader: build outside the lock. plan() is itself single-flight, so a
  // concurrent Converter construction for the same triple shares the
  // generation too.
  std::shared_ptr<const codegen::Conversion> Plan =
      plan(Source, Target, Opts);
  // The disk key covers everything that determines the binary: the emitted
  // C, the full flag string, the compiler identity (CONVGEN_CC), and the
  // host CPU (-march=native bakes the ISA into the object).
  std::string SoPath;
  std::string Dir = diskCacheDir();
  if (!Dir.empty()) {
    const char *Cc = std::getenv("CONVGEN_CC");
    std::string DiskKey = Plan->cSource() + "\n" +
                          jit::jitEffectiveFlags(ExtraFlags, Opts) + "\n" +
                          (Cc ? Cc : "cc") + "\n" + hostIsaFingerprint();
    SoPath = Dir + "/" + Plan->Func.Name + "-" + contentHash(DiskKey) + ".so";
  }
  auto Compiled = std::make_shared<jit::JitConversion>(*Plan, ExtraFlags,
                                                       SoPath, Deadline);
  {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    // A handle degraded by *this caller's* deadline is served to this
    // flight's waiters (they were no more patient) but never cached: the
    // environment did not fail, this caller just ran out of time, and the
    // next request should compile for real. Environment-degraded handles
    // are cached — every caller would fail the same way, and re-failing
    // per request would pay the full retry ladder every time.
    if (!Compiled->degradedByRequestDeadline())
      S.Jits[Key] = Compiled;
    S.JitFlights.erase(Key);
  }
  Stats.JitMisses.fetch_add(1, std::memory_order_relaxed);
  if (Compiled->loadedFromCache())
    Stats.DiskHits.fetch_add(1, std::memory_order_relaxed);
  // A healthy native handle with a disk-cache slot is warm-start material:
  // remember enough to describe it in an exported manifest. Degraded
  // handles have no object to preload; deadline-degraded ones were not
  // even cached.
  if (!SoPath.empty() && !Compiled->degraded() &&
      !Compiled->degradedByRequestDeadline())
    registerManifestRecord(Key, Source, Target, Opts, ExtraFlags, SoPath);
  F->Promise.set_value(Compiled);
  return Compiled;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats Out;
  Out.PlanHits = Stats.PlanHits.load(std::memory_order_relaxed);
  Out.PlanMisses = Stats.PlanMisses.load(std::memory_order_relaxed);
  Out.PlanCoalesced = Stats.PlanCoalesced.load(std::memory_order_relaxed);
  Out.JitHits = Stats.JitHits.load(std::memory_order_relaxed);
  Out.JitMisses = Stats.JitMisses.load(std::memory_order_relaxed);
  Out.JitCoalesced = Stats.JitCoalesced.load(std::memory_order_relaxed);
  Out.DiskHits = Stats.DiskHits.load(std::memory_order_relaxed);
  return Out;
}

void PlanCache::clearMemory() {
  for (Shard &S : Shards) {
    std::unique_lock<std::shared_mutex> Write(S.Mu);
    S.Plans.clear();
    S.Jits.clear();
    // Flights stay: their leaders will publish into the cleared maps when
    // they land, and interrupting them would strand their waiters.
  }
  // Manifest records go with the handles they describe, so a cleared cache
  // behaves like a fresh process (tests export before clearing).
  std::lock_guard<std::mutex> Lock(RecordsMu);
  Records.clear();
}

void PlanCache::registerManifestRecord(const std::string &JitKey,
                                       const formats::Format &Source,
                                       const formats::Format &Target,
                                       const codegen::Options &Opts,
                                       const std::string &ExtraFlags,
                                       const std::string &SoPath) {
  ManifestRecord Rec;
  Rec.SrcName = Source.Name;
  Rec.DstName = Target.Name;
  Rec.Opts = Opts;
  Rec.ExtraFlags = ExtraFlags;
  // JitKey is planKey + " !" + ExtraFlags; strip the suffix rather than
  // re-deriving the key (planKey runs the assembly planner per call).
  Rec.PlanKey = JitKey.substr(0, JitKey.size() - ExtraFlags.size() - 2);
  Rec.SoPath = SoPath;
  std::lock_guard<std::mutex> Lock(RecordsMu);
  Records[JitKey] = std::move(Rec);
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
  std::string Resolved = Path.empty() ? manifestFilePath() : Path;
  if (Resolved.empty())
    return Status::error(ErrorCode::Unavailable,
                         "manifest: disk cache disabled and no "
                         "CONVGEN_MANIFEST path set");
  std::map<std::string, ManifestRecord> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(RecordsMu);
    Snapshot = Records;
  }
  std::string Out = std::string(kManifestHeader) + "\n";
  for (const auto &[JitKey, Rec] : Snapshot) {
    (void)JitKey;
    // Only entries a fresh process can rebuild from names make the file:
    // the formats must round-trip through the standard registry onto the
    // same plan key (custom formats and knob drift since recording fail
    // this and are skipped, not exported broken).
    // Forced-sorted plans cannot round-trip through the manifest's
    // compact option encoding (q/c/u/m bits only); a fresh process
    // re-plans and recompiles them on demand instead.
    if (Rec.Opts.ForceSortedRanking)
      continue;
    std::optional<formats::Format> Src =
        formats::standardFormat(Rec.SrcName);
    std::optional<formats::Format> Dst =
        formats::standardFormat(Rec.DstName);
    if (!Src || !Dst)
      continue;
    if (planKey(*Src, *Dst, Rec.Opts) != Rec.PlanKey)
      continue;
    if (Rec.ExtraFlags.find('\t') != std::string::npos ||
        Rec.ExtraFlags.find('\n') != std::string::npos)
      continue;
    // The object digest comes from the entry's own checksum manifest; an
    // entry whose object (or .sum) is already gone is not exportable.
    std::string Digest;
    if (!readWholeFile(manifestPath(Rec.SoPath), &Digest))
      continue;
    std::string Line = Rec.SrcName + "\t" + Rec.DstName + "\t" +
                       serializeOptBits(Rec.Opts) + "\t" +
                       serializeDims(Rec.Opts.DimsHint) + "\t" +
                       Rec.ExtraFlags + "\t" +
                       environmentHash(Rec.ExtraFlags) + "\t" +
                       contentHash(Rec.PlanKey) + "\t" + Rec.SoPath +
                       "\t" + trim(Digest);
    Out += Line + "\t" + contentHash(Line) + "\n";
  }
  EntryLock Lock(Resolved);
  if (!writeFileAtomic(Resolved, Out))
    return Status::error(ErrorCode::Unavailable,
                         "manifest: cannot write " + Resolved);
  return Status();
}

PreloadStats PlanCache::preloadEager(
    const std::string &ManifestPath) {
  PreloadStats S;
  std::string Contents;
  if (ManifestPath.empty() || !readWholeFile(ManifestPath, &Contents))
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
    if (F.size() != 10) {
      Evict("malformed line (" + std::to_string(F.size()) + " fields)");
      continue;
    }
    std::string Prefix = Line.substr(0, Line.rfind('\t'));
    if (F[9] != contentHash(Prefix)) {
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
    const std::string &ExtraFlags = F[4];
    if (F[5] != environmentHash(ExtraFlags)) {
      Evict(F[0] + " -> " + F[1] +
            ": environment skew (compiler/ISA/flags changed)");
      continue;
    }
    std::string Key = planKey(*Src, *Dst, Opts);
    if (F[6] != contentHash(Key)) {
      Evict(F[0] + " -> " + F[1] +
            ": plan key drift (strategy knobs or codegen changed)");
      continue;
    }
    std::string JitKey = Key + " !" + ExtraFlags;
    Shard &Sh = shardFor(JitKey);
    {
      std::shared_lock<std::shared_mutex> Read(Sh.Mu);
      if (Sh.Jits.count(JitKey)) {
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
    std::string Dir = diskCacheDir();
    if (Dir.empty()) {
      Evict("disk cache disabled");
      continue;
    }
    const char *Cc = std::getenv("CONVGEN_CC");
    std::string DiskKey = (*Plan)->cSource() + "\n" +
                          jit::jitEffectiveFlags(ExtraFlags) + "\n" +
                          (Cc ? Cc : "cc") + "\n" + hostIsaFingerprint();
    std::string SoPath =
        Dir + "/" + (*Plan)->Func.Name + "-" + contentHash(DiskKey) + ".so";
    if (SoPath != F[7]) {
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
        trim(Digest) != F[8]) {
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
      if (Sh.Jits.count(JitKey)) {
        // A request raced the preload and built the entry first; its
        // handle wins, ours is discarded.
        S.Skipped++;
        Kept.push_back(Line);
        continue;
      }
      Sh.Jits[JitKey] = Handle;
    }
    registerManifestRecord(JitKey, *Src, *Dst, Opts, ExtraFlags, SoPath);
    DegradationLog::instance().record(Degradation::PreloadHit,
                                      F[0] + " -> " + F[1]);
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

PreloadStats PlanCache::preload(
    const std::string &ManifestPath, PreloadMode Mode) {
  if (Mode == PreloadMode::Off)
    return PreloadStats();
  std::string Resolved =
      ManifestPath.empty() ? manifestFilePath() : ManifestPath;
  {
    std::lock_guard<std::mutex> Lock(PreloadMu);
    PreloadStarted = true;
    PreloadDone = false;
  }
  if (Mode == PreloadMode::Eager) {
    PreloadStats S = preloadEager(Resolved);
    {
      std::lock_guard<std::mutex> Lock(PreloadMu);
      PreloadResult = S;
      PreloadDone = true;
    }
    PreloadCv.notify_all();
    return S;
  }
  // Background: a detached warmer thread runs the same pass. Detached
  // because PlanCache is deliberately leaked — there is no destructor to
  // join from; waitForPreload() synchronizes on the done flag instead.
  std::thread([this, Resolved] {
    PreloadStats S = preloadEager(Resolved);
    {
      std::lock_guard<std::mutex> Lock(PreloadMu);
      PreloadResult = S;
      PreloadDone = true;
    }
    PreloadCv.notify_all();
  }).detach();
  return PreloadStats();
}

PreloadStats PlanCache::waitForPreload() {
  std::unique_lock<std::mutex> Lock(PreloadMu);
  if (!PreloadStarted)
    return PreloadStats();
  PreloadCv.wait(Lock, [this] { return PreloadDone; });
  return PreloadResult;
}

void PlanCache::maybePreloadFromEnv() {
  std::call_once(PreloadOnce, [this] {
    const char *Env = std::getenv("CONVGEN_PRELOAD");
    if (!Env || !*Env)
      return;
    std::string Mode = Env;
    if (Mode == "eager")
      preload("", PreloadMode::Eager);
    else if (Mode == "background")
      preload("", PreloadMode::Background);
    // Anything else (including "off") boots cold.
  });
}
