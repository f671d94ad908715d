//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache warm-start: PlanCache::exportManifest persists the process's JIT
/// entries, PlanCache::preload revalidates and dlopens them in a "fresh
/// process" (clearMemory stands in for the restart). The contract under
/// test: a valid manifest preloads every entry with zero compiler
/// invocations; any skew — compile flags, manifest version, corrupt line,
/// corrupt object — evicts the entry (never serves it) and leaves the rest
/// loadable; the DegradationLog's preload-evict count reconciles exactly
/// with the preload stats; a process without a disk cache leaves the
/// shared manifest alone; and a sorted routine, which calls the prebuilt
/// sort/scan runtime through the table each call passes it, runs from its
/// disk object with no compiler and preloads from the manifest like any
/// other plan.
///
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace convgen;
using convert::PlanCache;
using convert::PlanCacheStats;
using convert::PreloadStats;
using support::Degradation;
using support::DegradationLog;
using convgen::testing::ScopedEnv;

namespace {

/// mkdtemp'd cache directory + env scoping for one test, removed on exit.
struct ScopedCacheDir {
  ScopedCacheDir()
      : Dir(makeDir()), CacheDir("CONVGEN_CACHE_DIR", Dir),
        Enable("CONVGEN_DISABLE_DISK_CACHE", "0") {}
  ~ScopedCacheDir() {
    std::string Cleanup = "rm -rf " + Dir;
    (void)std::system(Cleanup.c_str());
  }
  static std::string makeDir() {
    char Template[] = "/tmp/convgen-warmstart-XXXXXX";
    char *D = mkdtemp(Template);
    return D ? D : "";
  }
  std::string Dir;
  ScopedEnv CacheDir;
  ScopedEnv Enable;
};

/// The deterministic population every test warms the cache with: three
/// distinct standard-format pairs, all default options.
std::vector<std::pair<std::string, std::string>> pairPool() {
  return {{"coo", "csr"}, {"csr", "csc"}, {"coo3", "csf"}};
}

/// Compiles (or disk-loads) a JIT handle per pool pair; returns how many
/// are native (tests skip entirely when the compiler is missing, so this
/// should equal the pool size).
int populate(PlanCache &Cache) {
  int Native = 0;
  for (const auto &[Src, Dst] : pairPool()) {
    auto H = Cache.jit(formats::standardFormatOrDie(Src),
                       formats::standardFormatOrDie(Dst));
    if (!H->degraded())
      ++Native;
  }
  return Native;
}

bool skipWithoutJit() {
  return !jit::jitAvailable() || support::faultsConfigured();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
}

void expectSameStorage(const tensor::SparseTensor &Want,
                       const tensor::SparseTensor &Got) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size());
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos) << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd) << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals);
}

} // namespace

TEST(WarmStart, ManifestPathHonorsEnvOverride) {
  ScopedEnv Manifest("CONVGEN_MANIFEST", "/some/explicit/manifest.txt");
  EXPECT_EQ(PlanCache::manifestFilePath(), "/some/explicit/manifest.txt");
}

TEST(WarmStart, MissingManifestIsAColdBootNotAnError) {
  PreloadStats S =
      PlanCache::instance().preload("/nonexistent/convgen-manifest");
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Loaded, 0u);
  EXPECT_EQ(S.Evicted, 0u);
}

TEST(WarmStart, ExportPreloadRoundTripLoadsEveryEntryWithoutCompiling) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  ASSERT_TRUE(Cache.exportManifest().ok());

  // "Restart": the in-memory cache is gone; the manifest and objects stay.
  Cache.clearMemory();
  auto Before = DegradationLog::instance().snapshot();
  PreloadStats S = Cache.preload();
  auto After = DegradationLog::instance().snapshot();

  EXPECT_EQ(S.Entries, pairPool().size());
  EXPECT_EQ(S.Loaded, pairPool().size());
  EXPECT_EQ(S.Evicted, 0u);
  EXPECT_EQ(After[Degradation::PreloadEviction],
            Before[Degradation::PreloadEviction]);
  // Preload never runs the compiler and never degrades.
  EXPECT_EQ(After[Degradation::InterpreterFallback],
            Before[Degradation::InterpreterFallback]);
  EXPECT_EQ(After[Degradation::JitCompileFailure],
            Before[Degradation::JitCompileFailure]);

  // First requests hit the preloaded handles: pure in-memory hits, no
  // misses, no compile time, and still bit-identical to the interpreter.
  PlanCacheStats Mid = Cache.stats();
  for (const auto &[Src, Dst] : pairPool()) {
    auto H = Cache.jit(formats::standardFormatOrDie(Src),
                       formats::standardFormatOrDie(Dst));
    EXPECT_FALSE(H->degraded());
    EXPECT_TRUE(H->loadedFromCache());
    EXPECT_EQ(H->compileSeconds(), 0.0);
  }
  PlanCacheStats End = Cache.stats();
  EXPECT_EQ(End.JitMisses, Mid.JitMisses);
  EXPECT_EQ(End.JitHits - Mid.JitHits, pairPool().size());

  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 7, 3, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::standardFormatOrDie("coo"), T);
  auto H = Cache.jit(formats::standardFormatOrDie("coo"),
                     formats::standardFormatOrDie("csr"));
  tensor::SparseTensor FromJit = H->run(In);
  convert::Converter Interp(formats::standardFormatOrDie("coo"),
                            formats::standardFormatOrDie("csr"));
  expectSameStorage(Interp.run(In), FromJit);
}

TEST(WarmStart, FlagSkewEvictsEveryEntryThenRecompilesCleanly) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  ASSERT_TRUE(Cache.exportManifest().ok());
  Cache.clearMemory();

  // The preloader runs under different compile flags than the manifest
  // writer: version skew. Every entry must evict — a handle compiled
  // under the old flags must never serve.
  ScopedEnv Skew("CONVGEN_JIT_FLAGS", "-DCONVGEN_WARMSTART_SKEW=1");
  auto Before = DegradationLog::instance().snapshot();
  PreloadStats S = Cache.preload();
  auto After = DegradationLog::instance().snapshot();
  EXPECT_EQ(S.Entries, pairPool().size());
  EXPECT_EQ(S.Loaded, 0u);
  EXPECT_EQ(S.Evicted, pairPool().size());
  EXPECT_EQ(After[Degradation::PreloadEviction] -
                Before[Degradation::PreloadEviction],
            pairPool().size());

  // The rewritten manifest dropped the skewed lines: a second preload
  // sees an empty (but well-formed) file.
  PreloadStats Again = Cache.preload();
  EXPECT_EQ(Again.Entries, 0u);

  // And the skewed environment still compiles fresh handles on demand —
  // eviction degraded nothing.
  auto H = Cache.jit(formats::standardFormatOrDie("coo"),
                     formats::standardFormatOrDie("csr"));
  EXPECT_FALSE(H->degraded());
  EXPECT_FALSE(H->loadedFromCache());
}

TEST(WarmStart, CorruptManifestLineEvictsOnlyThatEntry) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  std::string ManifestPath = PlanCache::manifestFilePath();
  ASSERT_TRUE(Cache.exportManifest().ok());
  Cache.clearMemory();

  // Flip one byte inside the second entry's line (its integrity hash can
  // no longer match). The other entries must still preload.
  std::string Contents = readFile(ManifestPath);
  ASSERT_FALSE(Contents.empty());
  std::vector<std::string::size_type> LineStarts;
  for (std::string::size_type P = Contents.find('\n');
       P != std::string::npos; P = Contents.find('\n', P + 1))
    LineStarts.push_back(P + 1);
  ASSERT_GE(LineStarts.size(), 2u); // header + at least two entries
  std::string::size_type Target = LineStarts[1]; // second entry line
  Contents[Target] = Contents[Target] == 'x' ? 'y' : 'x';
  writeFile(ManifestPath, Contents);

  auto Before = DegradationLog::instance().snapshot();
  PreloadStats S = Cache.preload();
  auto After = DegradationLog::instance().snapshot();
  EXPECT_EQ(S.Entries, pairPool().size());
  EXPECT_EQ(S.Evicted, 1u);
  EXPECT_EQ(S.Loaded, pairPool().size() - 1);
  EXPECT_EQ(After[Degradation::PreloadEviction] -
                Before[Degradation::PreloadEviction],
            1u);

  // The rewrite keeps only the surviving lines; a second preload over
  // them is clean (they are already warm, so they count as skipped).
  PreloadStats Again = Cache.preload();
  EXPECT_EQ(Again.Entries, pairPool().size() - 1);
  EXPECT_EQ(Again.Evicted, 0u);
  EXPECT_EQ(Again.Loaded + Again.Skipped, pairPool().size() - 1);
}

TEST(WarmStart, CorruptObjectEvictsAtPreloadAndNeverServes) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  ASSERT_TRUE(Cache.exportManifest().ok());
  Cache.clearMemory();

  // Truncate one cached object in place (torn write / bit rot): its
  // checksum can no longer verify, so preload must evict that entry.
  std::string Victim;
  {
    std::string Cmd = "ls " + Scope.Dir + "/*.so";
    std::FILE *Ls = popen(Cmd.c_str(), "r");
    ASSERT_NE(Ls, nullptr);
    char Buf[512];
    if (std::fgets(Buf, sizeof(Buf), Ls)) {
      Victim = Buf;
      while (!Victim.empty() &&
             (Victim.back() == '\n' || Victim.back() == ' '))
        Victim.pop_back();
    }
    pclose(Ls);
  }
  ASSERT_FALSE(Victim.empty());
  writeFile(Victim, "not a shared object");

  PreloadStats S = Cache.preload();
  EXPECT_EQ(S.Entries, pairPool().size());
  EXPECT_EQ(S.Evicted, 1u);
  EXPECT_EQ(S.Loaded, pairPool().size() - 1);
}

TEST(WarmStart, OtherManifestVersionIsDroppedWholeAndObjectsStillServe) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  std::string ManifestPath = PlanCache::manifestFilePath();
  ASSERT_TRUE(Cache.exportManifest().ok());
  Cache.clearMemory();

  // Manifests written under earlier line layouts (v1 carried a per-entry
  // compile-flags field, v2 an unsequenced-edges option bit, v3 no
  // forced-sorted bit): no line of any can be trusted.
  std::string Contents = readFile(ManifestPath);
  std::string::size_type HeaderEnd = Contents.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);
  std::string Header = Contents.substr(0, HeaderEnd);
  EXPECT_EQ(Header, "convgen-manifest-v4");
  for (const char *Old : {"convgen-manifest-v1", "convgen-manifest-v2",
                          "convgen-manifest-v3"}) {
    SCOPED_TRACE(Old);
    writeFile(ManifestPath, Old + Contents.substr(HeaderEnd));
    auto Before = DegradationLog::instance().snapshot();
    PreloadStats S = Cache.preload();
    auto After = DegradationLog::instance().snapshot();
    EXPECT_EQ(S.Entries, 0u);
    EXPECT_EQ(S.Loaded, 0u);
    EXPECT_EQ(After[Degradation::PreloadEviction] -
                  Before[Degradation::PreloadEviction],
              1u);
    EXPECT_EQ(readFile(ManifestPath), Header + "\n");
  }

  // The objects themselves are still valid disk-cache entries.
  PlanCacheStats Mid = Cache.stats();
  auto H = Cache.jit(formats::standardFormatOrDie("coo"),
                     formats::standardFormatOrDie("csr"));
  EXPECT_FALSE(H->degraded());
  EXPECT_TRUE(H->loadedFromCache());
  EXPECT_EQ(Cache.stats().DiskHits - Mid.DiskHits, 1u);
}

TEST(WarmStart, ProcessWithoutDiskCacheNeitherPreloadsNorExports) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  ScopedEnv Manifest("CONVGEN_MANIFEST", Scope.Dir + "/shared-manifest.txt");
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  ASSERT_TRUE(Cache.exportManifest().ok());
  std::string Exported = readFile(PlanCache::manifestFilePath());
  Cache.clearMemory();

  {
    // A process without a disk cache could load none of the entries and
    // has none to describe: it must neither evict them nor replace the
    // shared file with an empty one.
    ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
    PreloadStats S = Cache.preload();
    EXPECT_EQ(S.Entries, 0u);
    EXPECT_EQ(S.Loaded, 0u);
    EXPECT_EQ(S.Evicted, 0u);
    EXPECT_EQ(readFile(PlanCache::manifestFilePath()), Exported);
    EXPECT_EQ(Cache.exportManifest().code(), ErrorCode::Unavailable);
    EXPECT_EQ(readFile(PlanCache::manifestFilePath()), Exported);
  }

  // The next process with a disk cache still boots warm.
  PreloadStats S = Cache.preload();
  EXPECT_EQ(S.Loaded, pairPool().size());
}

TEST(WarmStart, SortedRoutineRunsFromItsDiskObjectWithoutACompiler) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  // Hypersparse enough (5000 nnz in a 2048 x 2048 x 64 space) for the
  // routing rule to pick sorted ranking, whose routine calls the runtime.
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor In = tensor::buildFromTriplets(
      Coo3, tensor::genRandomTensor3(2048, 2048, 64, 5000, 13));
  codegen::Options Opts =
      codegen::optionsForDims(Coo3, Csf, {}, In.Dims, In.storedSize());
  ASSERT_TRUE(Opts.ForceSortedRanking);
  tensor::SparseTensor Reference = convert::Converter(Coo3, Csf).run(In);

  // The compiled routine calls the runtime through its table argument.
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  auto Compiled = Cache.jit(Coo3, Csf, Opts);
  ASSERT_FALSE(Compiled->degraded());
  ASSERT_FALSE(Compiled->loadedFromCache());
  ASSERT_NE(Compiled->conversion().cSource().find("cvg_rt->"),
            std::string::npos);
  expectSameStorage(Reference, Compiled->run(In));
  std::string SoPath = Compiled->cachedSoPath();
  ASSERT_FALSE(SoPath.empty());

  // With no compiler at all, both verified disk loads — a constructor whose
  // slot holds the object, and the preloader's cache-only load of the same,
  // already loaded object — run bit-exact.
  ScopedEnv NoCompiler("CONVGEN_CC", "/nonexistent");
  ASSERT_FALSE(jit::jitAvailable());
  jit::JitConversion Warm(Compiled->conversion(), SoPath);
  EXPECT_FALSE(Warm.degraded()) << Warm.degradationReason();
  EXPECT_TRUE(Warm.loadedFromCache());
  EXPECT_EQ(Warm.compileSeconds(), 0.0);
  expectSameStorage(Reference, Warm.run(In));
  auto Preloaded =
      jit::JitConversion::loadCachedOnly(Compiled->conversion(), SoPath);
  ASSERT_NE(Preloaded, nullptr);
  expectSameStorage(Reference, Preloaded->run(In));
  Cache.clearMemory();
}

TEST(WarmStart, SortedPlanPreloadsAndItsFirstRequestsNeverMiss) {
  if (skipWithoutJit())
    GTEST_SKIP() << "needs a native compiler without injected faults";
  ScopedCacheDir Scope;
  ASSERT_FALSE(Scope.Dir.empty());
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor In = tensor::buildFromTriplets(
      Coo3, tensor::genRandomTensor3(2048, 2048, 64, 5000, 13));
  codegen::Options Opts =
      codegen::optionsForDims(Coo3, Csf, {}, In.Dims, In.storedSize());
  ASSERT_TRUE(Opts.ForceSortedRanking);
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  ASSERT_EQ(populate(Cache), static_cast<int>(pairPool().size()));
  auto Compiled = Cache.jit(Coo3, Csf, Opts);
  ASSERT_FALSE(Compiled->degraded());
  tensor::SparseTensor Reference = Compiled->run(In);
  ASSERT_TRUE(Cache.exportManifest().ok());
  // The forced-sorted bit round-trips through the option field.
  EXPECT_NE(readFile(PlanCache::manifestFilePath()).find("\tq1c1m0s1\t"),
            std::string::npos);

  // "Restart": every entry, the sorted one included, preloads from its
  // disk object.
  Cache.clearMemory();
  auto Before = DegradationLog::instance().snapshot();
  PreloadStats S = Cache.preload();
  auto After = DegradationLog::instance().snapshot();
  EXPECT_EQ(After[Degradation::JitCompileFailure],
            Before[Degradation::JitCompileFailure]);
  EXPECT_EQ(S.Entries, pairPool().size() + 1);
  EXPECT_EQ(S.Loaded, pairPool().size() + 1);
  EXPECT_EQ(S.Evicted, 0u);

  // The first sorted request, at this shape and at another shape that
  // packs onto the same plan, is an in-memory hit.
  tensor::SparseTensor Other = tensor::buildFromTriplets(
      Coo3, tensor::genRandomTensor3(1024, 4096, 128, 3000, 17));
  codegen::Options OtherOpts =
      codegen::optionsForDims(Coo3, Csf, {}, Other.Dims, Other.storedSize());
  ASSERT_EQ(convert::planKey(Coo3, Csf, OtherOpts),
            convert::planKey(Coo3, Csf, Opts));
  PlanCacheStats Mid = Cache.stats();
  auto Warm = Cache.jit(Coo3, Csf, Opts);
  auto WarmOther = Cache.jit(Coo3, Csf, OtherOpts);
  PlanCacheStats End = Cache.stats();
  EXPECT_EQ(End.JitMisses, Mid.JitMisses);
  EXPECT_EQ(End.JitHits - Mid.JitHits, 2u);
  EXPECT_EQ(Warm, WarmOther);
  ASSERT_FALSE(Warm->degraded()) << Warm->degradationReason();
  EXPECT_TRUE(Warm->loadedFromCache());
  expectSameStorage(Reference, Warm->run(In));
  expectSameStorage(convert::Converter(Coo3, Csf).run(Other),
                    WarmOther->run(Other));
  Cache.clearMemory();
}
