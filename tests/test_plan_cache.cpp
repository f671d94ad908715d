//===----------------------------------------------------------------------===//
// Tests for convert::PlanCache: plan memoization (a second Converter for
// the same pair must not re-run codegen), JIT handle sharing (at most one
// external-compiler invocation per triple and process), and the on-disk
// shared-object cache (a "new process", simulated by clearing the in-memory
// cache, skips the external compiler entirely).
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "support/Fault.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unistd.h>

using namespace convgen;
using convert::PlanCache;
using convert::PlanCacheStats;

TEST(PlanCacheKeys, FingerprintDistinguishesFormats) {
  std::string Csr = convert::formatFingerprint(formats::makeCSR());
  std::string Csc = convert::formatFingerprint(formats::makeCSC());
  std::string Coo = convert::formatFingerprint(formats::makeCOO());
  EXPECT_NE(Csr, Csc);
  EXPECT_NE(Csr, Coo);
  // Fingerprints are deterministic.
  EXPECT_EQ(Csr, convert::formatFingerprint(formats::makeCSR()));
}

TEST(PlanCacheKeys, OptionsChangeTheKey) {
  codegen::Options Default;
  codegen::Options NoReuse;
  NoReuse.CounterReuse = false;
  EXPECT_NE(
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default),
      convert::planKey(formats::makeCSR(), formats::makeELL(), NoReuse));
  EXPECT_EQ(
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default),
      convert::planKey(formats::makeCSR(), formats::makeELL(), Default));
}

TEST(PlanCacheMemo, SecondConverterSharesThePlan) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();

  convert::Converter First(formats::makeCOO(), formats::makeCSR());
  convert::Converter Second(formats::makeCOO(), formats::makeCSR());

  PlanCacheStats After = Cache.stats();
  EXPECT_EQ(After.PlanMisses - Before.PlanMisses, 1u);
  EXPECT_GE(After.PlanHits - Before.PlanHits, 1u);
  // Both converters hold the *same* generated routine, not a copy:
  // codegen ran once.
  EXPECT_EQ(&First.conversion(), &Second.conversion());
}

TEST(PlanCacheMemo, DistinctOptionsGenerateSeparatePlans) {
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();

  codegen::Options NoReuse;
  NoReuse.CounterReuse = false;
  convert::Converter A(formats::makeCSR(), formats::makeELL());
  convert::Converter B(formats::makeCSR(), formats::makeELL(), NoReuse);
  EXPECT_NE(&A.conversion(), &B.conversion());
}

TEST(PlanCacheMemo, ConvertersStillConvertCorrectly) {
  PlanCache::instance().clearMemory();
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 5, 21);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Warmup(formats::makeCOO(), formats::makeCSR());
  convert::Converter Cached(formats::makeCOO(), formats::makeCSR());
  tensor::SparseTensor Out = Cached.run(In);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

using convgen::testing::ScopedEnv;

TEST(PlanCacheJit, HandleSharedWithinTheProcess) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();

  auto First = Cache.jit(formats::makeCOO(), formats::makeCSR());
  auto Second = Cache.jit(formats::makeCOO(), formats::makeCSR());

  PlanCacheStats After = Cache.stats();
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 1u);
  EXPECT_GE(After.JitHits - Before.JitHits, 1u);
}

TEST(PlanCacheJit, DiskCacheSkipsTheExternalCompiler) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  if (support::faultsConfigured())
    GTEST_SKIP() << "asserts native-path artifacts; CONVGEN_FAULT is set";
  char Template[] = "/tmp/convgen-cachetest-XXXXXX";
  char *Dir = mkdtemp(Template);
  ASSERT_NE(Dir, nullptr);
  ScopedEnv CacheDir("CONVGEN_CACHE_DIR", Dir);
  ScopedEnv Enable("CONVGEN_DISABLE_DISK_CACHE", "0");

  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();

  // Cold: runs the external compiler and installs the shared object.
  auto Cold = Cache.jit(formats::makeCSR(), formats::makeELL());
  EXPECT_FALSE(Cold->loadedFromCache());
  EXPECT_GT(Cold->compileSeconds(), 0.0);

  // "New process": the in-memory cache is gone, the disk cache is not.
  Cache.clearMemory();
  PlanCacheStats Before = Cache.stats();
  auto Warm = Cache.jit(formats::makeCSR(), formats::makeELL());
  PlanCacheStats After = Cache.stats();
  EXPECT_TRUE(Warm->loadedFromCache());
  EXPECT_EQ(Warm->compileSeconds(), 0.0);
  EXPECT_EQ(After.DiskHits - Before.DiskHits, 1u);

  // The cached object still computes the right answer (bit-identical to
  // the interpreter).
  tensor::Triplets T = tensor::genBandedRandom(30, 30, 3.0, 7, 3, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Interp(formats::makeCSR(), formats::makeELL());
  tensor::SparseTensor FromInterp = Interp.run(In);
  tensor::SparseTensor FromJit = Warm->run(In);
  FromJit.validate();
  ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size());
  for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
    EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd);
    EXPECT_EQ(FromInterp.Levels[K].SizeParam, FromJit.Levels[K].SizeParam);
  }
  EXPECT_EQ(FromInterp.Vals, FromJit.Vals);

  std::string Cleanup = "rm -rf " + std::string(Dir);
  (void)std::system(Cleanup.c_str());
}

TEST(PlanCacheJit, DisablingTheDiskCacheStaysInMemory) {
  ScopedEnv Disable("CONVGEN_DISABLE_DISK_CACHE", "1");
  EXPECT_EQ(PlanCache::diskCacheDir(), "");
}

TEST(PlanCacheKeys, ForcedSortedRankingIsOneKeyBitAndOneDefine) {
  // Strategy is derived from the formats, the extents and nnz, so the only
  // strategy input outside the dims is forced sorted ranking (which the
  // sorted-ranking rule sets): one marker in the plan key and one define
  // in the effective JIT flags (the other half of every cache key). The
  // environment adds no strategy defines of its own.
  ScopedEnv NoExtra("CONVGEN_JIT_FLAGS", "");
  std::string Base = "-O3 -march=native -std=c11 -shared -fPIC";
  if (jit::jitOpenMPAvailable())
    Base += " -fopenmp";
  EXPECT_EQ(jit::jitEffectiveFlags(""), Base);
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  EXPECT_EQ(jit::jitEffectiveFlags("", Opts), Base);
  std::string DefaultKey = convert::planKey(Coo3, Csf, Opts);
  Opts.ForceSortedRanking = true;
  std::string ForcedKey = convert::planKey(Coo3, Csf, Opts);
  EXPECT_NE(ForcedKey, DefaultKey);
  EXPECT_NE(ForcedKey.find(" [f:S1]"), std::string::npos) << ForcedKey;
  EXPECT_NE(ForcedKey.find(" [s111:g3]"), std::string::npos) << ForcedKey;
  EXPECT_EQ(jit::jitEffectiveFlags("", Opts),
            Base + " -DCONVGEN_FORCE_SORTED_RANKING=1");
}

TEST(PlanCacheJit, ForcedSortedRankingCompilesAFreshObjectNotAStaleOne) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  PlanCache &Cache = PlanCache::instance();
  Cache.clearMemory();
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  auto Default = Cache.jit(Coo3, Csf, Opts);
  EXPECT_EQ(Default->conversion().cSource().find("sorted ranking"),
            std::string::npos);
  Opts.ForceSortedRanking = true;
  auto Sorted = Cache.jit(Coo3, Csf, Opts);
  EXPECT_NE(Sorted.get(), Default.get());
  EXPECT_NE(Sorted->conversion().cSource().find("sorted ranking"),
            std::string::npos);
}
