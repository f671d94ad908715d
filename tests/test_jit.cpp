//===----------------------------------------------------------------------===//
// Tests for the JIT backend: the natively compiled conversion routine must
// agree bit-for-bit with the reference interpreter on every paper pair.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "jit/Runtime.h"
#include "support/Fault.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;
using convgen::testing::ScopedEnv;

// Most of this suite verifies *behavior* (bit-exactness with the
// interpreter), which holds even when CONVGEN_FAULT degrades handles to
// interpreter execution — the CI fault leg runs it unchanged. A few tests
// assert *native-path artifacts* (compile time measured, phase counters
// resolved, zero-copy adoption) that a degraded handle legitimately lacks;
// those skip when fault injection is configured.
#define SKIP_UNDER_FAULT_INJECTION()                                          \
  do {                                                                        \
    if (support::faultsConfigured())                                          \
      GTEST_SKIP() << "asserts native-path artifacts; CONVGEN_FAULT is set"; \
  } while (false)

// runRaw refuses a degraded handle (it aborts naming the reason; see
// JitDeathTest), so the raw-interface tests skip one. Under
// CONVGEN_FAULT=compile:0.5 one handle in eight degrades.
#define SKIP_IF_DEGRADED(Handle)                                              \
  do {                                                                        \
    if ((Handle).degraded())                                                  \
      GTEST_SKIP() << "degraded handle: " << (Handle).degradationReason();    \
  } while (false)

namespace {

struct JitCase {
  const char *Src, *Dst;
};

class JitMatchesInterpreter : public ::testing::TestWithParam<JitCase> {};

} // namespace

TEST_P(JitMatchesInterpreter, OnBandedRandom) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Src = formats::standardFormatOrDie(GetParam().Src);
  formats::Format Dst = formats::standardFormatOrDie(GetParam().Dst);
  tensor::Triplets T = tensor::genBandedRandom(60, 60, 5.0, 14, 11, 99);
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);

  convert::Converter Interp(Src, Dst);
  jit::JitConversion Native(Interp.conversion());
  tensor::SparseTensor FromInterp = Interp.run(In);
  tensor::SparseTensor FromJit = Native.run(In);
  FromJit.validate();

  // Bit-for-bit storage equality, not just logical equality: the native
  // code must execute the same algorithm.
  ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size());
  for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
    EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos) << K;
    EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd) << K;
    EXPECT_EQ(FromInterp.Levels[K].Perm, FromJit.Levels[K].Perm) << K;
    EXPECT_EQ(FromInterp.Levels[K].SizeParam, FromJit.Levels[K].SizeParam)
        << K;
  }
  EXPECT_EQ(FromInterp.Vals, FromJit.Vals);
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T));
}

INSTANTIATE_TEST_SUITE_P(
    PaperPairs, JitMatchesInterpreter,
    ::testing::Values(JitCase{"coo", "csr"}, JitCase{"coo", "dia"},
                      JitCase{"csr", "csc"}, JitCase{"csr", "dia"},
                      JitCase{"csr", "ell"}, JitCase{"csc", "dia"},
                      JitCase{"csc", "ell"}, JitCase{"csr", "bcsr"},
                      JitCase{"ell", "csr"}, JitCase{"dia", "csc"},
                      JitCase{"coo", "coo"}),
    [](const auto &Info) {
      return std::string(Info.param.Src) + "_to_" + Info.param.Dst;
    });

TEST(Jit3, Order3PairsMatchInterpreterBitExactly) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  const char *Names[] = {"coo3", "csf", "csf_102", "csf_021"};
  for (const char *S : Names)
    for (const char *D : Names) {
      formats::Format Src = formats::standardFormatOrDie(S);
      formats::Format Dst = formats::standardFormatOrDie(D);
      convert::Converter Interp(Src, Dst);
      jit::JitConversion Native(Interp.conversion());
      for (auto &[Name, T] : tensor::testTensors3()) {
        tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
        tensor::SparseTensor FromInterp = Interp.run(In);
        tensor::SparseTensor FromJit = Native.run(In);
        FromJit.validate();
        std::string Label = std::string(S) + " -> " + D + " on " + Name;
        ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size()) << Label;
        for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
          EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos)
              << Label << " level " << K;
          EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd)
              << Label << " level " << K;
        }
        EXPECT_EQ(FromInterp.Vals, FromJit.Vals) << Label;
        EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T)) << Label;
      }
    }
}

TEST(Jit, EmptyMatrix) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T;
  T.NumRows = 9;
  T.NumCols = 5;
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  tensor::SparseTensor Out = Native.run(In);
  Out.validate();
  EXPECT_EQ(Out.Levels[0].SizeParam, 0);
  EXPECT_TRUE(Out.Vals.empty());
}

TEST(Jit, CompileTimeIsMeasured) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  convert::Converter Conv(formats::makeCSR(), formats::makeELL());
  jit::JitConversion Native(Conv.conversion());
  EXPECT_GT(Native.compileSeconds(), 0.0);
  EXPECT_LT(Native.compileSeconds(), 60.0);
}

TEST(Jit, OutputIsAdoptedNotCopied) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  // collectOutput must take ownership of the routine's malloc'd arrays:
  // the SparseTensor's storage points at the very buffers the generated
  // code yielded, and the CTensor's pointers are nulled.
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 7, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeCSR());
  jit::JitConversion Native(Conv.conversion());
  SKIP_IF_DEGRADED(Native);
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  Native.runRaw(&A, &B);
  const int32_t *YieldedPos = B.pos[2];
  const double *YieldedVals = B.vals;
  tensor::SparseTensor Out =
      jit::collectOutput(Conv.conversion().Target, In.Dims, &B);
  EXPECT_EQ(Out.Levels[1].Pos.data(), YieldedPos);
  EXPECT_EQ(Out.Vals.data(), YieldedVals);
  EXPECT_EQ(B.pos[2], nullptr);
  EXPECT_EQ(B.vals, nullptr);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

TEST(Jit, InputIsBoundByPointer) {
  // marshalInput aliases the source tensor's storage — no input copies.
  tensor::Triplets T = tensor::genDiagonals(30, 30, {0}, 1.0, 2);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  jit::CTensor A;
  jit::marshalInput(In, &A);
  EXPECT_EQ(A.pos[2], In.Levels[1].Pos.data());
  EXPECT_EQ(A.crd[2], In.Levels[1].Crd.data());
  EXPECT_EQ(A.vals, In.Vals.data());
}

namespace {

/// Per-phase totals of \p H, copied out.
std::vector<double> phaseTotals(const jit::JitConversion &H) {
  const double *P = H.phaseSeconds();
  return {P, P + jit::kNumPhases};
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Runs \p H once through runRaw and adopts the output.
tensor::SparseTensor runRawOnce(const jit::JitConversion &H,
                                const tensor::SparseTensor &In) {
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  H.runRaw(&A, &B);
  return jit::collectOutput(H.conversion().Target, In.Dims, &B);
}

bool sameStorage(const tensor::SparseTensor &X, const tensor::SparseTensor &Y) {
  if (X.Levels.size() != Y.Levels.size() || X.Vals != Y.Vals)
    return false;
  for (size_t K = 0; K < X.Levels.size(); ++K)
    if (X.Levels[K].Pos != Y.Levels[K].Pos ||
        X.Levels[K].Crd != Y.Levels[K].Crd ||
        X.Levels[K].Perm != Y.Levels[K].Perm ||
        X.Levels[K].SizeParam != Y.Levels[K].SizeParam)
      return false;
  return true;
}

/// A mkdtemp'd directory, removed with its contents on exit.
struct ScratchDir {
  ScratchDir() {
    char Template[] = "/tmp/convgen-jit-test-XXXXXX";
    if (char *D = mkdtemp(Template))
      Path = D;
  }
  ~ScratchDir() {
    if (!Path.empty())
      std::filesystem::remove_all(Path);
  }
  std::string Path;
};

} // namespace

TEST(Jit, PhaseSecondsAccumulate) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  tensor::Triplets T = tensor::genBandedRandom(80, 80, 6.0, 15, 3, 17);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Native(Conv.conversion());
  SKIP_IF_DEGRADED(Native);
  ASSERT_NE(Native.phaseSeconds(), nullptr);
  EXPECT_EQ(sum(phaseTotals(Native)), 0.0);
  // runRaw adds its phases to the handle's totals.
  std::vector<double> Before = phaseTotals(Native);
  tensor::SparseTensor Out = runRawOnce(Native, In);
  Out.validate();
  std::vector<double> After = phaseTotals(Native);
  for (int P = 0; P < jit::kNumPhases; ++P)
    EXPECT_GE(After[static_cast<size_t>(P)], Before[static_cast<size_t>(P)])
        << P;
  EXPECT_GT(sum(After) - sum(Before), 0.0);
  // The request path passes no phase slots: the totals do not move.
  tensor::SparseTensor Again = Native.run(In);
  EXPECT_TRUE(sameStorage(Out, Again));
  EXPECT_EQ(phaseTotals(Native), After);
}

TEST(Jit, PhaseTotalsArePerHandle) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  ScratchDir Dir;
  ASSERT_FALSE(Dir.Path.empty());
  tensor::Triplets T = tensor::genBandedRandom(80, 80, 6.0, 15, 3, 23);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  // Compile into a disk slot, then load that one object twice: both
  // handles hold the same dlopen'd object.
  std::string SoPath = Dir.Path + "/conv.so";
  jit::JitConversion Compiled(Conv.conversion(), SoPath);
  ASSERT_FALSE(Compiled.degraded()) << Compiled.degradationReason();
  auto First = jit::JitConversion::loadCachedOnly(Conv.conversion(), SoPath);
  auto Second = jit::JitConversion::loadCachedOnly(Conv.conversion(), SoPath);
  ASSERT_NE(First, nullptr);
  ASSERT_NE(Second, nullptr);
  std::vector<double> SecondBefore = phaseTotals(*Second);
  for (int Rep = 0; Rep < 3; ++Rep)
    EXPECT_TRUE(sameStorage(runRawOnce(*First, In), Conv.run(In)));
  EXPECT_GT(sum(phaseTotals(*First)), 0.0);
  EXPECT_EQ(phaseTotals(*Second), SecondBefore);
  EXPECT_EQ(sum(phaseTotals(*Second)), 0.0);
  EXPECT_EQ(sum(phaseTotals(Compiled)), 0.0);
}

TEST(Jit, ConcurrentRawRunsAddToOneHandlesTotals) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  tensor::Triplets T = tensor::genBandedRandom(120, 120, 6.0, 15, 3, 29);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Shared(Conv.conversion());
  SKIP_IF_DEGRADED(Shared);
  const tensor::SparseTensor Reference = Conv.run(In);
  constexpr int Runs = 50;
  double Wall[2] = {};
  int Exact[2] = {};
  double Before = sum(phaseTotals(Shared));
  std::vector<std::thread> Threads;
  for (int W = 0; W < 2; ++W)
    Threads.emplace_back([&, W] {
      auto Begin = std::chrono::steady_clock::now();
      for (int Rep = 0; Rep < Runs; ++Rep)
        Exact[W] += sameStorage(runRawOnce(Shared, In), Reference) ? 1 : 0;
      Wall[W] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Exact[0], Runs);
  EXPECT_EQ(Exact[1], Runs);
  double Grew = sum(phaseTotals(Shared)) - Before;
  EXPECT_GT(Grew, 0.0);
  EXPECT_LE(Grew, Wall[0] + Wall[1]);
}

TEST(Jit, PhaseTotalsReadWhileRunRawIsInFlight) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T = tensor::genBandedRandom(120, 120, 6.0, 15, 3, 37);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Native(Conv.conversion());
  SKIP_IF_DEGRADED(Native);
  // One thread adds to the totals while this one reads them: each read is
  // a snapshot taken under the handle's lock, so the sums never go back.
  // The slots are read one by one, as timeJitWithPhases does; the thread
  // sanitizer checks element reads, not the bulk copy phaseTotals makes.
  std::atomic<bool> Done{false};
  std::thread Runner([&] {
    jit::CTensor A;
    jit::marshalInput(In, &A);
    for (int Rep = 0; Rep < 200; ++Rep) {
      jit::CTensor B;
      Native.runRaw(&A, &B);
      jit::freeOutput(&B);
    }
    Done = true;
  });
  double Last = 0;
  bool Monotone = true;
  do {
    const double *P = Native.phaseSeconds();
    double Now = 0;
    for (int K = 0; K < jit::kNumPhases; ++K)
      Now += P[K];
    Monotone = Monotone && Now >= Last;
    Last = Now;
  } while (!Done);
  Runner.join();
  EXPECT_TRUE(Monotone);
  EXPECT_GT(sum(phaseTotals(Native)), 0.0);
}

TEST(Jit, ScratchDirectoryIsGoneOnceTheObjectLoads) {
  // Each compile works in a scratch tree under TMPDIR. None may outlive
  // the load, whether the object went into a disk slot or not: a handle
  // the PlanCache keeps lives as long as the process.
  ScratchDir Tmp, CacheDir;
  ASSERT_FALSE(Tmp.Path.empty());
  ASSERT_FALSE(CacheDir.Path.empty());
  ScopedEnv Scratch("TMPDIR", Tmp.Path);
  tensor::Triplets T = tensor::genBandedRandom(70, 70, 5.0, 13, 5, 31);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeCSR());
  jit::JitConversion NoDisk(Conv.conversion());
  jit::JitConversion Installed(Conv.conversion(), CacheDir.Path + "/conv.so");
  EXPECT_TRUE(std::filesystem::is_empty(Tmp.Path));
  StatusOr<tensor::SparseTensor> Want = Conv.tryRun(In);
  ASSERT_TRUE(Want.ok()) << Want.status().toString();
  for (const jit::JitConversion *H : {&NoDisk, &Installed}) {
    StatusOr<tensor::SparseTensor> Got = H->tryRun(In);
    ASSERT_TRUE(Got.ok()) << Got.status().toString();
    EXPECT_TRUE(sameStorage(*Got, *Want));
  }
}

TEST(JitDeathTest, RawRunOnADegradedHandleAbortsNamingTheReason) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedEnv NoCompiler("CONVGEN_CC", "/nonexistent/convgen-cc");
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 7, 41);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Degraded(Conv.conversion());
  ASSERT_TRUE(Degraded.degraded());
  // Requests keep their interpreter path; the benchmark interface refuses.
  StatusOr<tensor::SparseTensor> Served = Degraded.tryRun(In);
  ASSERT_TRUE(Served.ok()) << Served.status().toString();
  EXPECT_TRUE(sameStorage(*Served, Conv.run(In)));
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  EXPECT_DEATH(Degraded.runRaw(&A, &B),
               "runRaw needs a native routine.*no working C compiler");
}

namespace {

/// Writes \p Body as an executable shell script at \p Path.
void writeScript(const std::string &Path, const std::string &Body) {
  std::ofstream(Path) << "#!/bin/sh\n" << Body;
  std::filesystem::permissions(Path, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// True once \p Pid has exited: no such process, or a zombie nobody has
/// reaped yet.
bool goneOrZombie(pid_t Pid) {
  if (kill(Pid, 0) != 0 && errno == ESRCH)
    return true;
  std::string Stat = readFile("/proc/" + std::to_string(Pid) + "/stat");
  size_t Close = Stat.rfind(')');
  return Close != std::string::npos && Close + 2 < Stat.size() &&
         Stat[Close + 2] == 'Z';
}

} // namespace

TEST(Jit, EffectiveFlagsNeverRunTheCompiler) {
  // The flags are a fact of the build. A compiler that fails every
  // invocation, at a path this process has never used, is not consulted
  // to decide them.
  ScratchDir Dir;
  ASSERT_FALSE(Dir.Path.empty());
  const std::string Log = Dir.Path + "/invocations.log";
  const std::string Stub = Dir.Path + "/cc";
  writeScript(Stub, "echo \"$@\" >> '" + Log + "'\nexit 1\n");
  ScopedEnv Cc("CONVGEN_CC", Stub);
  ScopedEnv NoExtra("CONVGEN_JIT_FLAGS", "");
  std::string Want = "-O3 -march=native -std=c11 -shared -fPIC";
#ifdef CONVGEN_HAVE_OPENMP
  Want += " -fopenmp";
  EXPECT_TRUE(jit::jitOpenMPAvailable());
#else
  EXPECT_FALSE(jit::jitOpenMPAvailable());
#endif
  EXPECT_EQ(jit::jitEffectiveFlags(), Want);
  EXPECT_FALSE(std::filesystem::exists(Log))
      << "the compiler ran: " << readFile(Log);
}

TEST(Jit, NoOpenMPFlagBuildsSerialBitExactObjects) {
  // CONVGEN_JIT_FLAGS=-fno-openmp is how an OpenMP build asks for serial
  // objects: the flag follows -fopenmp, so _OPENMP stays undefined and
  // the routine runs one partition however many threads are asked for.
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  const char *Extra = std::getenv("CONVGEN_JIT_FLAGS");
  ScopedEnv Serial("CONVGEN_JIT_FLAGS",
                   std::string(Extra ? Extra : "") + " -fno-openmp");
  ScopedEnv Threads("OMP_NUM_THREADS", "4");
#ifdef _OPENMP
  int SavedThreads = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  struct Case {
    const char *Src, *Dst;
    tensor::Triplets T;
  };
  const Case Cases[] = {
      {"coo", "csr", tensor::genBandedRandom(90, 80, 6.0, 17, 5, 7)},
      {"csr", "csc", tensor::genBandedRandom(80, 90, 5.0, 11, 9, 8)},
      {"coo3", "csf", tensor::genRandomTensor3(24, 20, 16, 600, 9)}};
  for (const Case &C : Cases) {
    std::string Label = std::string(C.Src) + " -> " + C.Dst;
    formats::Format Src = formats::standardFormatOrDie(C.Src);
    formats::Format Dst = formats::standardFormatOrDie(C.Dst);
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, C.T);
    convert::Converter Conv(Src, Dst);
    jit::JitConversion Native(Conv.conversion());
    ASSERT_FALSE(Native.degraded()) << Label << ": "
                                    << Native.degradationReason();
    EXPECT_GT(Native.compileSeconds(), 0.0) << Label;
    StatusOr<tensor::SparseTensor> Want = Conv.tryRun(In);
    StatusOr<tensor::SparseTensor> Got = Native.tryRun(In);
    ASSERT_TRUE(Want.ok()) << Want.status().toString();
    ASSERT_TRUE(Got.ok()) << Got.status().toString();
    EXPECT_TRUE(sameStorage(*Got, *Want)) << Label;
  }
#ifdef _OPENMP
  omp_set_num_threads(SavedThreads);
#endif
}

TEST(Jit, AKilledCompileTakesItsChildrenAndTemporariesWithIt) {
  // A compiler driver that starts a child, writes a temporary into
  // $TMPDIR and waits: the shape of cc driving cc1. When the watchdog
  // kills it, the child dies with it and the temporary goes with the
  // attempt's scratch directory, leaving the outer TMPDIR empty.
  SKIP_UNDER_FAULT_INJECTION();
  ScratchDir Tools, Outer;
  ASSERT_FALSE(Tools.Path.empty());
  ASSERT_FALSE(Outer.Path.empty());
  const std::string PidFile = Tools.Path + "/child.pid";
  const std::string Cc = Tools.Path + "/hung-cc";
  writeScript(Cc, "case \"$*\" in *--version*) exit 0;; esac\n"
                  "sleep 30 &\n"
                  "echo $! > '" +
                      PidFile +
                      "'\n"
                      "touch \"$TMPDIR/hung-cc-temporary\"\n"
                      "wait\n");
  ScopedEnv Compiler("CONVGEN_CC", Cc);
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "300");
  ScopedEnv Scratch("TMPDIR", Outer.Path);
  convert::Converter Conv(formats::makeCOO(), formats::makeCSR());
  jit::JitConversion Hung(Conv.conversion());
  ASSERT_TRUE(Hung.degraded());
  EXPECT_NE(Hung.degradationReason().find("was killed"), std::string::npos)
      << Hung.degradationReason();
  pid_t Child = static_cast<pid_t>(std::atol(readFile(PidFile).c_str()));
  ASSERT_GT(Child, 0) << "the compiler never started its child";
  // The orphaned child's SIGKILL and reaping happen asynchronously.
  bool Gone = goneOrZombie(Child);
  for (int Poll = 0; Poll < 200 && !Gone; ++Poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Gone = goneOrZombie(Child);
  }
  EXPECT_TRUE(Gone) << "the compiler's child " << Child << " outlived it";
  if (!Gone)
    kill(Child, SIGKILL);
  std::vector<std::string> Left;
  for (const auto &E : std::filesystem::directory_iterator(Outer.Path))
    Left.push_back(E.path().filename().string());
  EXPECT_TRUE(Left.empty()) << "left in TMPDIR: " << Left.front();
}

namespace {

/// Checks one emitted routine against the stateless ABI: no phase array,
/// no runtime binding, and the entry point is the only file-scope name
/// that is not static. Returns the number of violations (each reported).
int censusViolations(const codegen::Conversion &Conv,
                     const std::string &Label) {
  const std::string Code = Conv.cSource();
  int Bad = 0;
  for (const char *Banned :
       {"cvg_phase_secs", "cvg_phase_add", "_phase_seconds", "_bind_runtime",
        "static const cvg_runtime_t"})
    if (Code.find(Banned) != std::string::npos) {
      ADD_FAILURE() << Label << ": emits " << Banned;
      ++Bad;
    }
  // File-scope lines start in column 0; body lines and the continuation
  // lines of multi-line signatures are indented.
  const std::string Entry = "void " + Conv.Func.Name + "(";
  int Entries = 0;
  std::istringstream Lines(Code);
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.empty() || Line[0] == ' ' || Line[0] == '#' || Line[0] == '}' ||
        Line.rfind("//", 0) == 0 || Line.rfind("typedef ", 0) == 0 ||
        Line.rfind("static ", 0) == 0)
      continue;
    if (Line.rfind(Entry, 0) == 0) {
      ++Entries;
      continue;
    }
    ADD_FAILURE() << Label << ": non-static file-scope line: " << Line;
    ++Bad;
  }
  if (Entries != 1) {
    ADD_FAILURE() << Label << ": " << Entries << " entry points";
    ++Bad;
  }
  return Bad;
}

} // namespace

TEST(JitAbi, EveryEmittedRoutineIsStateless) {
  // The inspect_codegen --digest set: every supported standard pair of
  // order 2 and 3, under default options, routed at a hypersparse shape,
  // and routed at extents too wide to radix-pack (order 3).
  const int64_t Nnz = 40000;
  struct Shapes {
    std::vector<formats::Format> Formats;
    std::vector<int64_t> Routed, Wide;
  };
  const Shapes Sets[] = {
      {formats::allStandardFormats(), {1 << 20, 1 << 20}, {1 << 30, 1 << 30}},
      {formats::standardOrder3Formats(),
       {2048, 2048, 64},
       {1 << 30, 1 << 30, 1 << 20}}};
  int Routines = 0, Sorted = 0;
  for (const Shapes &Set : Sets)
    for (const formats::Format &From : Set.Formats)
      for (const formats::Format &To : Set.Formats) {
        if (!codegen::conversionSupported(From, To))
          continue;
        std::string Pair = From.Name + " -> " + To.Name;
        std::vector<std::pair<std::string, codegen::Options>> Variants = {
            {"default", codegen::Options()}};
        for (const auto &[Label, Dims] :
             {std::make_pair("routed", Set.Routed),
              std::make_pair("routed-wide", Set.Wide)})
          Variants.emplace_back(Label, codegen::optionsForDims(
                                           From, To, codegen::Options(),
                                           Dims, Nnz));
        for (const auto &[Label, Opts] : Variants) {
          if (!codegen::conversionSupported(From, To, Opts))
            continue;
          codegen::Conversion Conv =
              codegen::generateConversion(From, To, Opts);
          ++Routines;
          Sorted += Conv.Asm.anySorted() ? 1 : 0;
          ASSERT_EQ(censusViolations(Conv, Pair + " " + Label), 0);
        }
      }
  // The census covered routines that call the runtime and ones that do
  // not.
  EXPECT_GT(Sorted, 0);
  EXPECT_GT(Routines, Sorted);
}

TEST(Jit, RawInterfaceReusesBuffers) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T = tensor::genDiagonals(50, 50, {-1, 0, 1}, 1.0, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  SKIP_IF_DEGRADED(Native);
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  for (int Rep = 0; Rep < 3; ++Rep) {
    B = jit::CTensor();
    Native.runRaw(&A, &B);
    EXPECT_EQ(B.params[1], 3); // three diagonals
    jit::freeOutput(&B);
  }
}

//===----------------------------------------------------------------------===//
// The prebuilt sort/unique/scan runtime, entry by entry, against plain
// serial references. The partition count is passed explicitly, so the
// blocked multi-partition paths run whatever OMP_NUM_THREADS says.
//===----------------------------------------------------------------------===//

namespace {

const int64_t RuntimePartitions[] = {1, 2, 3, 8};

/// The lengths each partition count is checked at: empty, tiny, one short
/// of a block per partition, exactly one per partition, and large.
std::vector<int64_t> runtimeLengths(int64_t P) {
  return {0, 1, 2, P - 1, P, 10000};
}

/// \p N tuples of \p Arity components, component d drawn from
/// \p Pools[d] (small pools make duplicates and shared prefixes common).
std::vector<int32_t>
randomTuples(int64_t N, const std::vector<std::vector<int32_t>> &Pools,
             unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::vector<int32_t> Out;
  for (int64_t I = 0; I < N; ++I)
    for (const std::vector<int32_t> &Pool : Pools)
      Out.push_back(Pool[Rng() % Pool.size()]);
  return Out;
}

std::vector<int32_t> iota(int32_t Count) {
  std::vector<int32_t> Out(static_cast<size_t>(Count));
  for (int32_t I = 0; I < Count; ++I)
    Out[static_cast<size_t>(I)] = I;
  return Out;
}

using Tuple = std::vector<int32_t>;

std::vector<Tuple> split(const std::vector<int32_t> &Flat, int64_t Arity,
                         int64_t N) {
  std::vector<Tuple> Out;
  for (int64_t I = 0; I < N; ++I)
    Out.emplace_back(Flat.begin() + I * Arity, Flat.begin() + (I + 1) * Arity);
  return Out;
}

/// Serial reference of sort + dedup.
std::vector<Tuple> sortedUnique(std::vector<Tuple> Tuples) {
  std::sort(Tuples.begin(), Tuples.end());
  Tuples.erase(std::unique(Tuples.begin(), Tuples.end()), Tuples.end());
  return Tuples;
}

} // namespace

TEST(JitRuntime, ScansMatchTheSerialScan) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  for (int64_t P : RuntimePartitions)
    for (int64_t N : runtimeLengths(P)) {
      SCOPED_TRACE("p=" + std::to_string(P) + " n=" + std::to_string(N));
      std::vector<int32_t> In =
          randomTuples(N, {{-3, -1, 0, 0, 2, 5, 9}}, 7 + unsigned(N + P));
      std::vector<int32_t> Sum = In, Max = In;
      Rt.scan_sum(Sum.data(), N, P);
      Rt.scan_max(Max.data(), N, P);
      int32_t SumAcc = 0, MaxAcc = 0; // the max scan starts from 0
      for (int64_t K = 0; K < N; ++K) {
        SumAcc += In[static_cast<size_t>(K)];
        MaxAcc = std::max(MaxAcc, In[static_cast<size_t>(K)]);
        ASSERT_EQ(Sum[static_cast<size_t>(K)], SumAcc) << K;
        ASSERT_EQ(Max[static_cast<size_t>(K)], MaxAcc) << K;
      }
    }
}

TEST(JitRuntime, SortUniqueMatchesStdSortAndUnique) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  // Arities 1 and 3 run fixed-length instantiations, 4 the generic one.
  for (int64_t Arity : {1, 3, 4})
    for (int64_t P : RuntimePartitions)
      for (int64_t N : runtimeLengths(P)) {
        SCOPED_TRACE("arity=" + std::to_string(Arity) +
                     " p=" + std::to_string(P) + " n=" + std::to_string(N));
        std::vector<std::vector<int32_t>> Pools(
            static_cast<size_t>(Arity), {-7, 0, 3, 4, 50, INT32_MAX});
        std::vector<int32_t> Buf = randomTuples(N, Pools, 11 + unsigned(N));
        std::vector<Tuple> Expect = sortedUnique(split(Buf, Arity, N));
        int64_t U = Rt.sort_unique_tuples(Buf.data(), N, Arity, P);
        ASSERT_EQ(split(Buf, Arity, U), Expect);
      }
}

TEST(JitRuntime, UniquePrefixMatchesTheSerialCompaction) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  for (int64_t P : RuntimePartitions)
    for (int64_t N : runtimeLengths(P))
      for (int64_t DstArity : {1, 2, 3, 4}) {
        SCOPED_TRACE("dst_arity=" + std::to_string(DstArity) +
                     " p=" + std::to_string(P) + " n=" + std::to_string(N));
        std::vector<Tuple> Sorted = sortedUnique(
            split(randomTuples(N, {iota(4), iota(6), iota(3), iota(500)},
                               5 + unsigned(N)),
                  4, N));
        int64_t Count = static_cast<int64_t>(Sorted.size());
        std::vector<int32_t> Src;
        for (const Tuple &T : Sorted)
          Src.insert(Src.end(), T.begin(), T.end());
        std::vector<Tuple> Expect;
        for (const Tuple &T : Sorted) {
          Tuple Prefix(T.begin(), T.begin() + DstArity);
          if (Expect.empty() || Expect.back() != Prefix)
            Expect.push_back(Prefix);
        }
        std::vector<int32_t> Dst(Src.size() + 1, -1);
        int64_t U =
            Rt.unique_prefix(Src.data(), Count, 4, Dst.data(), DstArity, P);
        ASSERT_EQ(split(Dst, DstArity, U), Expect);
      }
}

TEST(JitRuntime, RadixSortMatchesSortUniqueAndBinarySearchRanks) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  struct WidthCase {
    std::vector<int64_t> Widths;
    std::vector<std::vector<int32_t>> Pools;
  };
  // Pools hold each width's extremes. The last three cases fill exactly
  // 64 bits, so the top digit pass reads the key's most significant bits;
  // the four-component one runs the generic-arity instantiation.
  const std::vector<WidthCase> Cases = {
      {{11, 11, 6}, {iota(40), {0, 1, 2047}, {0, 5, 63}}},
      {{0, 9}, {{0}, {0, 7, 100, 511}}},
      {{32, 32}, {{0, 1, 1 << 30, INT32_MAX}, {0, 12345, INT32_MAX}}},
      {{24, 20, 20},
       {{0, (1 << 24) - 1, 77}, {0, 3, (1 << 20) - 1}, iota(30)}},
      {{16, 16, 16, 16},
       {{0, 65535}, iota(5), {0, 9, 65535}, {1, 2, 65534, 65535}}},
  };
  for (const WidthCase &C : Cases)
    for (int64_t P : RuntimePartitions)
      for (int64_t N : runtimeLengths(P))
        for (bool WithRank : {false, true}) {
          int64_t Arity = static_cast<int64_t>(C.Widths.size());
          SCOPED_TRACE("arity=" + std::to_string(Arity) +
                       " p=" + std::to_string(P) + " n=" +
                       std::to_string(N) + (WithRank ? " rank" : ""));
          std::vector<int32_t> Buf = randomTuples(N, C.Pools, 3 + unsigned(N));
          std::vector<Tuple> In = split(Buf, Arity, N);
          std::vector<Tuple> Expect = sortedUnique(In);
          // The merge form of the same statement agrees.
          std::vector<int32_t> Merged = Buf;
          int64_t MergedU =
              Rt.sort_unique_tuples(Merged.data(), N, Arity, P);
          ASSERT_EQ(split(Merged, Arity, MergedU), Expect);
          std::vector<int32_t> Rank(static_cast<size_t>(N), -1);
          int64_t U = Rt.radix_sort_packed(Buf.data(), N, Arity,
                                           C.Widths.data(),
                                           WithRank ? Rank.data() : nullptr,
                                           P);
          ASSERT_EQ(split(Buf, Arity, U), Expect);
          for (int64_t I = 0; I < N; ++I) {
            int32_t Want =
                WithRank ? static_cast<int32_t>(
                               std::lower_bound(Expect.begin(), Expect.end(),
                                                In[static_cast<size_t>(I)]) -
                               Expect.begin())
                         : -1;
            ASSERT_EQ(Rank[static_cast<size_t>(I)], Want) << I;
          }
        }
}
