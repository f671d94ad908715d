//===----------------------------------------------------------------------===//
// Fault-injection suite for the conversion runtime (support/Fault.h): the
// acceptance criterion is that under CONVGEN_FAULT the runtime never
// aborts, every conversion stays bit-exact with the interpreter, and every
// injected fault is reconciled against the DegradationLog — injections and
// observed degradations must account for each other exactly.
//
// The binary doubles as the multi-process cache-stress worker: invoked as
//
//   ./test_fault_injection --stress-child <cache-dir>
//
// it runs a batch of JIT conversions against the shared cache directory
// and exits 0 iff every result matches the interpreter. The
// MultiProcess.EightWritersShareOneCacheSafely test fork+execs eight such
// children over one CONVGEN_CACHE_DIR; a torn or stale object would
// surface as a wrong result or a crash in some child.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/Status.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace convgen;
using convgen::testing::ScopedEnv;
using support::Degradation;
using support::DegradationLog;
using support::FaultSite;

namespace {

//===------------------------------------------------------------------===//
// Fixtures and helpers
//===------------------------------------------------------------------===//

/// A small 6x6 lower-triangular matrix (valid for every 2-D format,
/// including skyline) with exact integer values.
tensor::Triplets smallMatrix() {
  tensor::Triplets T;
  T.setDims({6, 6});
  int V = 1;
  for (int64_t I = 0; I < 6; ++I)
    for (int64_t J = 0; J <= I; J += (I % 2) + 1)
      T.Entries.push_back(tensor::Entry({I, J}, static_cast<double>(V++)));
  return T;
}

/// A small order-3 tensor.
tensor::Triplets smallTensor3() {
  tensor::Triplets T;
  T.setDims({4, 5, 3});
  int V = 1;
  for (int64_t I = 0; I < 4; ++I)
    for (int64_t J = I % 3; J < 5; J += 2)
      T.Entries.push_back(
          tensor::Entry({I, J, (I + J) % 3}, static_cast<double>(V++)));
  return T;
}

/// Exact triplet equality against the interpreter-backed Converter — the
/// oracle every degraded (and native) execution must match.
void expectMatchesInterpreter(const formats::Format &Src,
                              const formats::Format &Dst,
                              const tensor::Triplets &T,
                              const tensor::SparseTensor &Got) {
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  convert::Converter Conv(Src, Dst);
  tensor::SparseTensor Want = Conv.run(In);
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size())
      << Src.Name << " -> " << Dst.Name;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << Src.Name << " -> " << Dst.Name << ", pos, level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << Src.Name << " -> " << Dst.Name << ", crd, level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << Src.Name << " -> " << Dst.Name << ", perm, level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << Src.Name << " -> " << Dst.Name << ", param, level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << Src.Name << " -> " << Dst.Name;
}

/// Creates a fresh directory under TMPDIR (or /tmp); "" on failure.
std::string makeTempDir(const char *Tag) {
  const char *Root = std::getenv("TMPDIR");
  if (!Root || !*Root)
    Root = "/tmp";
  std::string Tmpl = std::string(Root) + "/convgen-" + Tag + "-XXXXXX";
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data()))
    return "";
  return std::string(Buf.data());
}

/// Best-effort recursive-free removal of a flat cache directory.
void removeTempDir(const std::string &Dir) {
  if (Dir.empty())
    return;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name != "." && Name != "..")
        std::remove((Dir + "/" + Name).c_str());
    }
    closedir(D);
  }
  rmdir(Dir.c_str());
}

/// The cached shared objects currently installed in \p Dir.
std::vector<std::string> cachedObjectsIn(const std::string &Dir) {
  std::vector<std::string> Objects;
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 3 && Name.rfind(".so") == Name.size() - 3)
        Objects.push_back(Dir + "/" + Name);
    }
    closedir(D);
  }
  return Objects;
}

/// Resets the per-process fault and degradation books so a test's
/// reconciliation is exact regardless of what ran before it.
void resetBooks() {
  convert::PlanCache::instance().clearMemory();
  support::resetFaultCounters();
  DegradationLog::instance().reset();
}

} // namespace

//===------------------------------------------------------------------===//
// All-pairs matrix under 100% fault rates: zero aborts, bit-identical
// results, exact injection/degradation reconciliation.
//===------------------------------------------------------------------===//

TEST(FaultMatrix, CompileFaultsNeverAbortAndReconcile) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Fault("CONVGEN_FAULT", "compile:1");
  resetBooks();

  auto sweep = [](const std::vector<const char *> &Names,
                  const tensor::Triplets &T, int *Pairs) {
    std::vector<int64_t> Dims;
    for (int M = 0; M < T.order(); ++M)
      Dims.push_back(T.dim(M));
    for (const char *SrcName : Names) {
      for (const char *DstName : Names) {
        formats::Format Src = formats::standardFormatOrDie(SrcName);
        formats::Format Dst = formats::standardFormatOrDie(DstName);
        if (!codegen::conversionSupported(Src, Dst, Dims))
          continue;
        codegen::Options Opts =
            codegen::optionsForDims(Src, Dst, codegen::Options(), Dims);
        StatusOr<std::shared_ptr<jit::JitConversion>> H =
            convert::PlanCache::instance().tryJit(Src, Dst, Opts);
        ASSERT_TRUE(H.ok()) << H.status().toString();
        EXPECT_TRUE(H.value()->degraded())
            << SrcName << " -> " << DstName
            << " got a native object with compile:1";
        tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
        expectMatchesInterpreter(Src, Dst, T, H.value()->run(In));
        ++*Pairs;
      }
    }
  };

  int Pairs = 0;
  sweep({"coo", "csr", "csc", "dia", "ell", "bcsr", "sky"}, smallMatrix(),
        &Pairs);
  sweep({"coo3", "csf", "csf_102", "csf_021"}, smallTensor3(), &Pairs);
  EXPECT_GT(Pairs, 20);

  // Reconciliation: every injected compile fault produced exactly one
  // recorded compile failure, every degraded handle one interpreter
  // fallback, and nothing else went wrong.
  support::DegradationCounters Log = DegradationLog::instance().snapshot();
  EXPECT_EQ(Log[Degradation::JitCompileFailure],
            support::faultInjectionCount(FaultSite::Compile));
  if (jit::jitAvailable()) {
    EXPECT_GT(support::faultInjectionCount(FaultSite::Compile), 0u);
    EXPECT_EQ(Log[Degradation::InterpreterFallback],
              static_cast<uint64_t>(Pairs));
  }
  EXPECT_EQ(Log[Degradation::JitLoadFailure], 0u);
}

TEST(FaultMatrix, DlopenFaultsNeverAbortAndReconcile) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the dlopen site needs a real object";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  // One attempt per handle: each attempt pays a real external compile
  // before the injected dlopen failure.
  ScopedEnv Attempts("CONVGEN_JIT_ATTEMPTS", "1");
  ScopedEnv Fault("CONVGEN_FAULT", "dlopen:1");
  resetBooks();

  tensor::Triplets T = smallMatrix();
  std::vector<std::pair<const char *, const char *>> Pairs = {
      {"coo", "csr"}, {"csr", "csc"}};
  for (auto [SrcName, DstName] : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(SrcName);
    formats::Format Dst = formats::standardFormatOrDie(DstName);
    codegen::Options Opts =
        codegen::optionsForDims(Src, Dst, codegen::Options(), {6, 6});
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        convert::PlanCache::instance().tryJit(Src, Dst, Opts);
    ASSERT_TRUE(H.ok()) << H.status().toString();
    EXPECT_TRUE(H.value()->degraded());
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
    expectMatchesInterpreter(Src, Dst, T, H.value()->run(In));
  }

  support::DegradationCounters Log = DegradationLog::instance().snapshot();
  EXPECT_EQ(Log[Degradation::JitLoadFailure],
            support::faultInjectionCount(FaultSite::Dlopen) +
                support::faultInjectionCount(FaultSite::Dlsym));
  EXPECT_GT(support::faultInjectionCount(FaultSite::Dlopen), 0u);
  EXPECT_EQ(Log[Degradation::JitCompileFailure], 0u);
}

TEST(FaultMatrix, DlsymFaultsNeverAbortAndReconcile) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the dlsym site needs a real object";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Attempts("CONVGEN_JIT_ATTEMPTS", "1");
  ScopedEnv Fault("CONVGEN_FAULT", "dlsym:1");
  resetBooks();

  tensor::Triplets T = smallMatrix();
  formats::Format Src = formats::standardFormatOrDie("coo");
  formats::Format Dst = formats::standardFormatOrDie("csr");
  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      convert::PlanCache::instance().tryJit(Src, Dst);
  ASSERT_TRUE(H.ok()) << H.status().toString();
  EXPECT_TRUE(H.value()->degraded());
  EXPECT_NE(H.value()->degradationReason().find("dlsym"), std::string::npos);
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  expectMatchesInterpreter(Src, Dst, T, H.value()->run(In));

  support::DegradationCounters Log = DegradationLog::instance().snapshot();
  EXPECT_EQ(Log[Degradation::JitLoadFailure],
            support::faultInjectionCount(FaultSite::Dlsym));
  EXPECT_GT(support::faultInjectionCount(FaultSite::Dlsym), 0u);
}

TEST(FaultMatrix, CompileHangsAreKilledAndReconcile) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the compile path is never reached";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  // Every compile wedges; the watchdog must SIGKILL each child at ~250ms.
  // Hung compilers are not retried (a wedged toolchain would wedge again,
  // and the caller already paid the full bound), so injections reconcile
  // 1:1 with recorded timeouts.
  ScopedEnv Fault("CONVGEN_FAULT", "compile-hang:1");
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "250");
  resetBooks();

  tensor::Triplets T = smallMatrix();
  std::vector<std::pair<const char *, const char *>> Pairs = {
      {"coo", "csr"}, {"csr", "csc"}, {"coo", "ell"}};
  for (auto [SrcName, DstName] : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(SrcName);
    formats::Format Dst = formats::standardFormatOrDie(DstName);
    codegen::Options Opts =
        codegen::optionsForDims(Src, Dst, codegen::Options(), {6, 6});
    auto Begin = std::chrono::steady_clock::now();
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        convert::PlanCache::instance().tryJit(Src, Dst, Opts);
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Begin)
                      .count();
    ASSERT_TRUE(H.ok()) << H.status().toString();
    EXPECT_LT(Secs, 5.0) << SrcName << " -> " << DstName
                         << ": hung child outlived the watchdog";
    EXPECT_TRUE(H.value()->degraded());
    EXPECT_FALSE(H.value()->degradedByRequestDeadline())
        << "knob-bound kills are environment degradation, not deadline";
    EXPECT_NE(H.value()->degradationReason().find("killed"),
              std::string::npos)
        << H.value()->degradationReason();
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
    expectMatchesInterpreter(Src, Dst, T, H.value()->run(In));
  }

  support::DegradationCounters Log = DegradationLog::instance().snapshot();
  EXPECT_EQ(Log[Degradation::CompileTimeout],
            support::faultInjectionCount(FaultSite::CompileHang));
  EXPECT_EQ(support::faultInjectionCount(FaultSite::CompileHang),
            static_cast<uint64_t>(Pairs.size()));
  EXPECT_EQ(Log[Degradation::JitRetry], 0u);
  EXPECT_EQ(Log[Degradation::JitCompileFailure], 0u);
}

//===------------------------------------------------------------------===//
// Degradation paths that do not need an injected fault.
//===------------------------------------------------------------------===//

TEST(Degradation, NoCompilerFallsBackToInterpreter) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv NoFault("CONVGEN_FAULT", "");
  ScopedEnv Cc("CONVGEN_CC", "/nonexistent/convgen-cc");
  resetBooks();

  EXPECT_FALSE(jit::jitAvailable());
  formats::Format Src = formats::standardFormatOrDie("coo");
  formats::Format Dst = formats::standardFormatOrDie("csr");
  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      convert::PlanCache::instance().tryJit(Src, Dst);
  ASSERT_TRUE(H.ok()) << H.status().toString();
  EXPECT_TRUE(H.value()->degraded());
  EXPECT_NE(H.value()->degradationReason().find("compiler"),
            std::string::npos)
      << H.value()->degradationReason();

  tensor::Triplets T = smallMatrix();
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  expectMatchesInterpreter(Src, Dst, T, H.value()->run(In));
  EXPECT_GE(DegradationLog::instance()
                .snapshot()[Degradation::InterpreterFallback],
            1u);
  // The memoized handle is shared: a second acquisition must not probe or
  // retry again.
  support::DegradationCounters Before = DegradationLog::instance().snapshot();
  StatusOr<std::shared_ptr<jit::JitConversion>> Again =
      convert::PlanCache::instance().tryJit(Src, Dst);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again.value().get(), H.value().get());
  EXPECT_EQ(DegradationLog::instance().snapshot().total(), Before.total());
}

//===------------------------------------------------------------------===//
// Crash-safe disk cache: checksum eviction, read/write fault sites.
//===------------------------------------------------------------------===//

TEST(DiskCache, CorruptObjectIsDetectedEvictedAndRecompiled) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; needs a real cached object to corrupt";
  std::string Dir = makeTempDir("cachetest");
  ASSERT_FALSE(Dir.empty());
  ScopedEnv CacheDir("CONVGEN_CACHE_DIR", Dir);
  ScopedEnv EnableDisk("CONVGEN_DISABLE_DISK_CACHE", "0");
  ScopedEnv NoFault("CONVGEN_FAULT", "");
  resetBooks();

  formats::Format Src = formats::standardFormatOrDie("coo");
  formats::Format Dst = formats::standardFormatOrDie("csr");
  tensor::Triplets T = smallMatrix();
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);

  // First acquisition compiles and installs the object + manifest.
  {
    std::shared_ptr<jit::JitConversion> H =
        convert::PlanCache::instance().jit(Src, Dst);
    ASSERT_FALSE(H->degraded()) << H->degradationReason();
    expectMatchesInterpreter(Src, Dst, T, H->run(In));
  }
  std::vector<std::string> Objects = cachedObjectsIn(Dir);
  ASSERT_EQ(Objects.size(), 1u);

  // Corrupt the cached bytes in place; the stale manifest now mismatches
  // (the torn-write shape a crashed writer leaves behind).
  {
    std::FILE *File = std::fopen(Objects[0].c_str(), "r+b");
    ASSERT_NE(File, nullptr);
    const char Garbage[] = "convgen-corruption-canary";
    ASSERT_EQ(std::fwrite(Garbage, 1, sizeof(Garbage), File),
              sizeof(Garbage));
    ASSERT_EQ(std::fclose(File), 0);
  }

  // A fresh acquisition must detect the mismatch, evict, recompile, and
  // still produce correct results — never dlopen the torn object.
  convert::PlanCache::instance().clearMemory();
  DegradationLog::instance().reset();
  {
    std::shared_ptr<jit::JitConversion> H =
        convert::PlanCache::instance().jit(Src, Dst);
    EXPECT_FALSE(H->degraded()) << H->degradationReason();
    EXPECT_FALSE(H->loadedFromCache());
    expectMatchesInterpreter(Src, Dst, T, H->run(In));
  }
  support::DegradationCounters Log = DegradationLog::instance().snapshot();
  EXPECT_GE(Log[Degradation::CacheChecksumEviction], 1u);

  // The recompile reinstalled a good object: the next fresh acquisition
  // loads from disk without the external compiler.
  convert::PlanCache::instance().clearMemory();
  {
    std::shared_ptr<jit::JitConversion> H =
        convert::PlanCache::instance().jit(Src, Dst);
    EXPECT_FALSE(H->degraded());
    EXPECT_TRUE(H->loadedFromCache());
    expectMatchesInterpreter(Src, Dst, T, H->run(In));
  }
  removeTempDir(Dir);
}

TEST(DiskCache, ReadAndWriteFaultsDegradeWithoutLosingResults) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the cache sites need real objects";
  std::string Dir = makeTempDir("cachefault");
  ASSERT_FALSE(Dir.empty());
  ScopedEnv CacheDir("CONVGEN_CACHE_DIR", Dir);
  ScopedEnv EnableDisk("CONVGEN_DISABLE_DISK_CACHE", "0");

  formats::Format Src = formats::standardFormatOrDie("coo");
  formats::Format Dst = formats::standardFormatOrDie("csr");
  tensor::Triplets T = smallMatrix();
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);

  // cache-write faults: the install fails (recorded), the process keeps
  // serving from its locally compiled object, and nothing lands on disk.
  {
    ScopedEnv Fault("CONVGEN_FAULT", "cache-write:1");
    resetBooks();
    std::shared_ptr<jit::JitConversion> H =
        convert::PlanCache::instance().jit(Src, Dst);
    EXPECT_FALSE(H->degraded()) << H->degradationReason();
    expectMatchesInterpreter(Src, Dst, T, H->run(In));
    support::DegradationCounters Log = DegradationLog::instance().snapshot();
    EXPECT_EQ(Log[Degradation::CacheWriteFailure],
              support::faultInjectionCount(FaultSite::CacheWrite));
    EXPECT_GE(support::faultInjectionCount(FaultSite::CacheWrite), 1u);
    EXPECT_TRUE(cachedObjectsIn(Dir).empty());
  }

  // cache-read faults: the verified-read is treated as a miss (recorded)
  // and the object is recompiled rather than served.
  {
    ScopedEnv NoFault("CONVGEN_FAULT", "");
    resetBooks();
    convert::PlanCache::instance().jit(Src, Dst); // Prime the disk cache.
    ASSERT_EQ(cachedObjectsIn(Dir).size(), 1u);
  }
  {
    ScopedEnv Fault("CONVGEN_FAULT", "cache-read:1");
    resetBooks();
    std::shared_ptr<jit::JitConversion> H =
        convert::PlanCache::instance().jit(Src, Dst);
    EXPECT_FALSE(H->degraded()) << H->degradationReason();
    EXPECT_FALSE(H->loadedFromCache());
    expectMatchesInterpreter(Src, Dst, T, H->run(In));
    support::DegradationCounters Log = DegradationLog::instance().snapshot();
    EXPECT_EQ(Log[Degradation::CacheReadFailure],
              support::faultInjectionCount(FaultSite::CacheRead));
    EXPECT_GE(support::faultInjectionCount(FaultSite::CacheRead), 1u);
  }
  removeTempDir(Dir);
}

//===------------------------------------------------------------------===//
// Multi-process cache stress: N writers over one CONVGEN_CACHE_DIR.
//===------------------------------------------------------------------===//

namespace {

/// The conversions every stress child runs (two rounds: compile-or-read,
/// then a cleared-memory round that must hit the now-populated disk cache
/// while siblings are still installing).
int runStressChild(const char *CacheDir) {
  setenv("CONVGEN_CACHE_DIR", CacheDir, 1);
  setenv("CONVGEN_DISABLE_DISK_CACHE", "0", 1);
  unsetenv("CONVGEN_FAULT");
  std::vector<std::pair<const char *, const char *>> Pairs = {
      {"coo", "csr"}, {"csr", "csc"}, {"coo", "ell"}, {"coo3", "csf"}};
  for (int Round = 0; Round < 2; ++Round) {
    if (Round > 0)
      convert::PlanCache::instance().clearMemory();
    for (auto [SrcName, DstName] : Pairs) {
      formats::Format Src = formats::standardFormatOrDie(SrcName);
      formats::Format Dst = formats::standardFormatOrDie(DstName);
      tensor::Triplets T =
          Src.SrcOrder == 3 ? smallTensor3() : smallMatrix();
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      std::shared_ptr<jit::JitConversion> H =
          convert::PlanCache::instance().jit(Src, Dst);
      tensor::SparseTensor Out = H->run(In);
      convert::Converter Conv(Src, Dst);
      tensor::SparseTensor Want = Conv.run(In);
      if (!tensor::equal(tensor::toTriplets(Out), tensor::toTriplets(Want))) {
        std::fprintf(stderr,
                     "stress child: %s -> %s diverged (round %d)\n",
                     SrcName, DstName, Round);
        return 1;
      }
    }
  }
  return 0;
}

} // namespace

TEST(MultiProcess, EightWritersShareOneCacheSafely) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the stress children JIT for real";
  std::string Dir = makeTempDir("cachestress");
  ASSERT_FALSE(Dir.empty());

  constexpr int kChildren = 8;
  std::vector<pid_t> Children;
  for (int I = 0; I < kChildren; ++I) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0) << "fork failed: " << std::strerror(errno);
    if (Pid == 0) {
      // Child: re-exec this binary in stress-child mode. exec immediately
      // after fork — the parent's OpenMP/JIT state must not run here.
      execl("/proc/self/exe", "test_fault_injection", "--stress-child",
            Dir.c_str(), static_cast<char *>(nullptr));
      _exit(127);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int WStatus = 0;
    pid_t Got;
    do {
      Got = waitpid(Pid, &WStatus, 0);
    } while (Got < 0 && errno == EINTR);
    ASSERT_EQ(Got, Pid);
    ASSERT_TRUE(WIFEXITED(WStatus))
        << "stress child " << Pid << " died by signal "
        << (WIFSIGNALED(WStatus) ? WTERMSIG(WStatus) : 0);
    EXPECT_EQ(WEXITSTATUS(WStatus), 0) << "stress child " << Pid;
  }
  // Every pair was installed exactly once per (pair, flags) key.
  EXPECT_FALSE(cachedObjectsIn(Dir).empty());
  removeTempDir(Dir);
}

int main(int argc, char **argv) {
  if (argc >= 3 && std::string(argv[1]) == "--stress-child")
    return runStressChild(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
