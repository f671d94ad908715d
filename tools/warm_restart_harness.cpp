//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CI warm-restart harness: proves that a killed-and-restarted server
/// resumes from the persisted cache with zero compiler invocations and
/// bit-identical results, and that a corrupted manifest entry is evicted
/// (never served) while the rest of the suite still passes.
///
/// Two modes over one fixed, deterministic workload (five items on four
/// plans, seeded generators, each executed through
/// ConversionService::convert). The last two are hypersparse coo3 ->
/// csf inputs of different shapes that the service routes to sorted
/// ranking; sorted routines compute their packed-key widths from the
/// extents at run time, so both must share one plan key and one disk
/// object. The warm pass thus also proves that a routine calling the
/// prebuilt sort/scan runtime preloads from the manifest and runs:
///
///   warm_restart_harness populate [--sleep-ms=N]
///     Runs the workload (JIT-compiling into CONVGEN_CACHE_DIR), exports
///     the warm-start manifest, and prints one "RESULT <label> <hash>"
///     line per conversion plus "MANIFEST <path>". --sleep-ms spaces the
///     conversions out so CI can kill -9 the process mid-population and
///     check the cache directory survives uncorrupted.
///
///   warm_restart_harness verify [--require-warm] [--expect-evict=N]
///     Preloads the manifest eagerly, reruns the workload, prints the same
///     RESULT lines (CI diffs them against populate's), and checks the
///     preload outcome:
///       --require-warm    every manifest entry must preload (no
///                         evictions) and the workload must then run with
///                         ZERO PlanCache JIT misses — i.e. served
///                         entirely from the preloaded handles. CI runs
///                         this pass with a failing `cc` stub shadowing
///                         the real compiler on PATH (CONVGEN_CC itself is
///                         part of the cache key and the manifest's
///                         environment hash, so *changing* it is — by
///                         design — version skew that evicts everything);
///                         the stub logs any invocation, so a compile
///                         attempt both fails the log assertion and
///                         surfaces here as a degraded handle.
///       --expect-evict=N  exactly N entries must be evicted at preload
///                         (the corrupted-manifest pass uses N=1), and
///                         the workload must still complete bit-exact.
///
/// Exit code 0 on success; 1 with a "FAIL:" diagnostic otherwise.
///
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "service/ConversionService.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace convgen;

namespace {

struct WorkItem {
  std::string Label;
  formats::Format Source;
  formats::Format Target;
  tensor::SparseTensor Input;
  bool Sorted = false; ///< Must route to the sorted-ranking plan.
  /// Nonempty: the label of an earlier item whose plan key and disk
  /// object this item must share.
  std::string SharesPlanWith;
};

/// The fixed workload: four distinct plan keys, seeded generators, small
/// enough that SparseTensor::dump() is a practical fingerprint.
std::vector<WorkItem> workload() {
  std::vector<WorkItem> Items;
  {
    WorkItem W;
    W.Label = "coo-to-csr";
    W.Source = formats::standardFormatOrDie("coo");
    W.Target = formats::standardFormatOrDie("csr");
    W.Input = tensor::buildFromTriplets(
        W.Source, tensor::genBandedRandom(30, 30, 4.0, 7, 3, 42));
    Items.push_back(std::move(W));
  }
  {
    WorkItem W;
    W.Label = "csr-to-csc";
    W.Source = formats::standardFormatOrDie("csr");
    W.Target = formats::standardFormatOrDie("csc");
    W.Input = tensor::buildFromTriplets(
        W.Source, tensor::genRandomUniform(24, 40, 3.0, 6, 7));
    Items.push_back(std::move(W));
  }
  {
    WorkItem W;
    W.Label = "coo3-to-csf";
    W.Source = formats::standardFormatOrDie("coo3");
    W.Target = formats::standardFormatOrDie("csf");
    W.Input = tensor::buildFromTriplets(
        W.Source, tensor::genRandomTensor3(8, 9, 7, 60, 11));
    Items.push_back(std::move(W));
  }
  {
    // A 2048 x 2048 rank space is far above the ratio rule for 5000 nnz.
    WorkItem W;
    W.Label = "coo3-to-csf-sorted";
    W.Source = formats::standardFormatOrDie("coo3");
    W.Target = formats::standardFormatOrDie("csf");
    W.Input = tensor::buildFromTriplets(
        W.Source, tensor::genRandomTensor3(2048, 2048, 64, 5000, 13));
    W.Sorted = true;
    Items.push_back(std::move(W));
  }
  {
    // Another packing shape (10 + 12 + 7 bits instead of 11 + 11 + 6).
    WorkItem W;
    W.Label = "coo3-to-csf-sorted-reshaped";
    W.Source = formats::standardFormatOrDie("coo3");
    W.Target = formats::standardFormatOrDie("csf");
    W.Input = tensor::buildFromTriplets(
        W.Source, tensor::genRandomTensor3(1024, 4096, 128, 3000, 17));
    W.Sorted = true;
    W.SharesPlanWith = "coo3-to-csf-sorted";
    Items.push_back(std::move(W));
  }
  return Items;
}

codegen::Options routedOptions(const WorkItem &W, std::string *Why = nullptr) {
  return codegen::optionsForDims(W.Source, W.Target, {}, W.Input.Dims,
                                 W.Input.storedSize(), Why);
}

int fail(const std::string &Why) {
  std::fprintf(stderr, "FAIL: %s\n", Why.c_str());
  return 1;
}

/// Runs the workload through convert() and prints the result
/// fingerprints; returns false (after printing FAIL) on any non-ok result.
bool runWorkload(convert::ConversionService &Service,
                 const std::vector<WorkItem> &Items, int SleepMs) {
  for (const WorkItem &W : Items) {
    std::string Why;
    if (W.Sorted && !routedOptions(W, &Why).ForceSortedRanking) {
      std::fprintf(stderr, "FAIL: %s does not route to sorted ranking: %s\n",
                   W.Label.c_str(), Why.c_str());
      return false;
    }
    if (SleepMs > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
    convert::ConversionRequest Request;
    Request.Source = W.Source;
    Request.Target = W.Target;
    Request.Input = &W.Input;
    StatusOr<tensor::SparseTensor> Result = Service.convert(Request);
    if (!Result.ok()) {
      std::fprintf(stderr, "FAIL: %s: %s\n", W.Label.c_str(),
                   Result.status().toString().c_str());
      return false;
    }
    std::string Hash = convert::contentHash(Result->dump());
    std::printf("RESULT %s %s\n", W.Label.c_str(), Hash.c_str());
  }
  return true;
}

/// Checks that every item naming a SharesPlanWith partner landed on the
/// partner's plan key and JIT handle, whose object is one disk-cache
/// entry. Run after the workload: the handles are then in memory.
bool checkSharedPlans(const std::vector<WorkItem> &Items) {
  convert::PlanCache &Cache = convert::PlanCache::instance();
  for (const WorkItem &W : Items) {
    if (W.SharesPlanWith.empty())
      continue;
    const WorkItem *Partner = nullptr;
    for (const WorkItem &P : Items)
      if (P.Label == W.SharesPlanWith)
        Partner = &P;
    if (!Partner) {
      std::fprintf(stderr, "FAIL: %s names no item '%s'\n", W.Label.c_str(),
                   W.SharesPlanWith.c_str());
      return false;
    }
    codegen::Options Mine = routedOptions(W);
    codegen::Options Theirs = routedOptions(*Partner);
    if (convert::planKey(W.Source, W.Target, Mine) !=
        convert::planKey(Partner->Source, Partner->Target, Theirs)) {
      std::fprintf(stderr, "FAIL: %s and %s route to different plan keys\n",
                   W.Label.c_str(), Partner->Label.c_str());
      return false;
    }
    auto Handle = Cache.jit(W.Source, W.Target, Mine);
    auto PartnerHandle = Cache.jit(Partner->Source, Partner->Target, Theirs);
    if (Handle != PartnerHandle || Handle->cachedSoPath().empty() ||
        Handle->cachedSoPath() != PartnerHandle->cachedSoPath()) {
      std::fprintf(stderr, "FAIL: %s and %s do not share one disk object "
                   "('%s' vs '%s')\n",
                   W.Label.c_str(), Partner->Label.c_str(),
                   Handle->cachedSoPath().c_str(),
                   PartnerHandle->cachedSoPath().c_str());
      return false;
    }
    std::printf("SHARED %s %s\n", W.Label.c_str(), Partner->Label.c_str());
  }
  return true;
}

int runPopulate(int SleepMs) {
  auto Items = workload();
  convert::ConversionService Service;
  if (!runWorkload(Service, Items, SleepMs) || !checkSharedPlans(Items))
    return 1;
  Status Export = convert::PlanCache::instance().exportManifest();
  if (!Export.ok())
    return fail("manifest export failed: " + Export.toString());
  std::string Manifest = convert::PlanCache::manifestFilePath();
  if (Manifest.empty())
    return fail("no manifest path (is CONVGEN_CACHE_DIR set and the disk "
                "cache enabled?)");
  std::printf("MANIFEST %s\n", Manifest.c_str());
  std::printf("OK populate\n");
  return 0;
}

int runVerify(bool RequireWarm, long ExpectEvict) {
  auto Items = workload();
  convert::PlanCache &Cache = convert::PlanCache::instance();
  convert::PreloadStats PS = Cache.preload();
  std::printf("PRELOAD entries=%llu loaded=%llu evicted=%llu skipped=%llu\n",
              (unsigned long long)PS.Entries, (unsigned long long)PS.Loaded,
              (unsigned long long)PS.Evicted,
              (unsigned long long)PS.Skipped);

  for (const std::string &Why : PS.EvictReasons)
    std::fprintf(stderr, "note: %s\n", Why.c_str());
  if (ExpectEvict >= 0 && PS.Evicted != (uint64_t)ExpectEvict)
    return fail("expected exactly " + std::to_string(ExpectEvict) +
                " preload eviction(s), saw " + std::to_string(PS.Evicted));
  if (RequireWarm) {
    if (PS.Entries == 0)
      return fail("manifest had no entries; nothing was preloaded");
    if (PS.Evicted != 0)
      return fail("preload evicted " + std::to_string(PS.Evicted) +
                  " entr(ies); a warm restart must revalidate all of them");
    if (PS.Loaded + PS.Skipped != PS.Entries)
      return fail("preload loaded " + std::to_string(PS.Loaded) + " of " +
                  std::to_string(PS.Entries) + " manifest entries");
  }

  convert::PlanCacheStats Before = Cache.stats();
  convert::ConversionService Service;
  if (!runWorkload(Service, Items, /*SleepMs=*/0))
    return 1;
  convert::PlanCacheStats After = Cache.stats();
  convert::ServiceStats S = Service.stats();

  if (RequireWarm) {
    // The strong form of "zero compiler invocations": every plan, sorted
    // ones included, was served by a handle the preload installed, without
    // even missing in the in-memory cache. A degraded run would
    // additionally mean something tried (and failed) to compile.
    uint64_t Misses = After.JitMisses - Before.JitMisses;
    if (Misses != 0)
      return fail(std::to_string(Misses) +
                  " JIT cache miss(es) during the warm run; the preload did "
                  "not cover the workload");
    if (S.DegradedRuns != 0)
      return fail(std::to_string(S.DegradedRuns) +
                  " degraded run(s) during the warm run; a compile was "
                  "attempted and failed");
  }
  if (!checkSharedPlans(Items))
    return 1;
  std::printf("OK verify\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Mode = Argc > 1 ? Argv[1] : "";
  int SleepMs = 0;
  bool RequireWarm = false;
  long ExpectEvict = -1;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--sleep-ms=", 0) == 0)
      SleepMs = std::atoi(Arg.c_str() + strlen("--sleep-ms="));
    else if (Arg == "--require-warm")
      RequireWarm = true;
    else if (Arg.rfind("--expect-evict=", 0) == 0)
      ExpectEvict = std::atol(Arg.c_str() + strlen("--expect-evict="));
    else
      return fail("unknown flag: " + Arg);
  }
  if (Mode == "populate")
    return runPopulate(SleepMs);
  if (Mode == "verify")
    return runVerify(RequireWarm, ExpectEvict);
  std::fprintf(stderr,
               "usage: %s populate [--sleep-ms=N]\n"
               "       %s verify [--require-warm] [--expect-evict=N]\n",
               Argv[0], Argv[0]);
  return 2;
}
