//===----------------------------------------------------------------------===//
// Concurrency suite for the serving layer: the sharded single-flight
// PlanCache under a concurrent-miss storm (exactly one compile per unique
// key, coalesced waiters counted as hits, stats monotone under concurrent
// readers), the hung-compiler watchdog (a deliberately wedged compiler
// child is SIGKILLed within CONVGEN_COMPILE_TIMEOUT_MS and the request
// completes degraded), request deadlines (fail-fast when expired, bounded
// waits on coalesced flights and the admission queue), and the
// ConversionService's overload shedding. Every concurrent result is
// bit-compared against the serial interpreter oracle.
//
// This suite is the core of the ThreadSanitizer CI leg: it drives every
// new synchronization path (shard locks, flight futures, admission
// condvar, atomic counters) from many threads at once.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "tensor/Generators.h"
#include "jit/Jit.h"
#include "service/ConversionService.h"
#include "support/Deadline.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace convgen;
using convert::ConversionRequest;
using convert::ConversionService;
using convert::PlanCache;
using convert::PlanCacheStats;
using convert::ServiceLimits;
using convgen::testing::ScopedEnv;
using support::Deadline;
using support::Degradation;
using support::DegradationLog;
using support::FaultSite;

namespace {

/// A small 6x6 lower-triangular matrix (valid for every 2-D format) with
/// exact integer values.
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

/// A hyper-sparse order-3 tensor with a 2^31 leading extent: forces the
/// size-driven sorted-ranking strategy, so the request mix exercises
/// dims-specialized plan routing through the shared cache.
tensor::Triplets hugeDimTensor3() {
  return tensor::genHyperSparse3(int64_t(1) << 31, int64_t(1) << 20,
                                 int64_t(1) << 20, 50, 5);
}

/// Exact storage equality, level by level.
void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &What) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << What;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << What << ", pos, level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << What << ", crd, level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << What << ", perm, level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << What << ", param, level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << What << ", vals";
}

/// One (pair, input) unit of concurrent work, with its serial oracle.
struct WorkItem {
  formats::Format Src;
  formats::Format Dst;
  tensor::SparseTensor In;
  tensor::SparseTensor Want; // Serial interpreter result.
  codegen::Options Opts;     // Routed (optionsForDims).
  std::string Label;
};

WorkItem makeItem(const char *SrcName, const char *DstName,
                  const tensor::Triplets &T) {
  WorkItem W;
  W.Src = formats::standardFormatOrDie(SrcName);
  W.Dst = formats::standardFormatOrDie(DstName);
  W.In = tensor::buildFromTriplets(W.Src, T);
  std::vector<int64_t> Dims;
  for (int M = 0; M < T.order(); ++M)
    Dims.push_back(T.dim(M));
  W.Opts = codegen::optionsForDims(W.Src, W.Dst, codegen::Options(), Dims,
                                   W.In.storedSize());
  convert::Converter Oracle(W.Src, W.Dst);
  W.Want = Oracle.run(W.In);
  W.Label = std::string(SrcName) + " -> " + DstName;
  return W;
}

void resetBooks() {
  PlanCache::instance().clearMemory();
  support::resetFaultCounters();
  DegradationLog::instance().reset();
}

/// A healthy but slow toolchain for the scope: CONVGEN_CC runs a wrapper
/// that sleeps \p Seconds before each compile of a `.c` file and then runs
/// the real compiler, so a compile outlasts a short request deadline every
/// time. The `--version` availability probe passes no `.c` file, skips the
/// sleep and is warmed here, outside any deadline. Tests prove a compile
/// was slow by its handle's compileSeconds() >= seconds().
class SlowCompiler {
public:
  explicit SlowCompiler(int Seconds)
      : Secs(Seconds), Script(writeScript(Seconds)),
        Cc("CONVGEN_CC", "sh " + Script) {
    jit::jitAvailable();
  }
  ~SlowCompiler() { std::remove(Script.c_str()); }

  double seconds() const { return Secs; }

private:
  static std::string writeScript(int Seconds) {
    const char *Tmp = std::getenv("TMPDIR");
    std::string Path =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/convgen-slowcc-XXXXXX";
    int Fd = mkstemp(Path.data());
    EXPECT_GE(Fd, 0) << "cannot create " << Path;
    if (std::FILE *F = fdopen(Fd, "w")) {
      std::fprintf(F,
                   "case \" $* \" in *'.c '*) sleep %d;; esac\n"
                   "exec %s \"$@\"\n",
                   Seconds, jit::compilerSpec().c_str());
      std::fclose(F);
    }
    return Path;
  }
  int Secs;
  std::string Script;
  ScopedEnv Cc;
};

/// Spin barrier: threads park until go() so a miss storm actually storms.
struct StartGate {
  std::atomic<bool> Go{false};
  void wait() const {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  void open() { Go.store(true, std::memory_order_release); }
};

} // namespace

//===------------------------------------------------------------------===//
// Sharded single-flight PlanCache under a concurrent-miss storm.
//===------------------------------------------------------------------===//

TEST(CacheHammer, ExactlyOneCompilePerKeyUnderMissStorm) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");

  // Oracles first (this warms the plan cache), then drop the in-memory
  // cache so the storm's misses cover plan generation too.
  std::vector<WorkItem> Items;
  Items.push_back(makeItem("coo", "csr", smallMatrix()));
  Items.push_back(makeItem("csr", "csc", smallMatrix()));
  Items.push_back(makeItem("coo3", "csf", smallTensor3()));
  resetBooks();

  const int Threads = 8;
  const int Reps = 4;
  const size_t Keys = Items.size();
  PlanCacheStats Before = PlanCache::instance().stats();

  // One handle slot per (thread, key): after the join, every thread must
  // have received the *same* handle per key — single-flight shares one
  // object, it does not hand out duplicates.
  std::vector<std::vector<std::shared_ptr<jit::JitConversion>>> Seen(
      Threads, std::vector<std::shared_ptr<jit::JitConversion>>(Keys));

  StartGate Gate;
  std::atomic<bool> StopReader{false};
  // A stats reader races the storm: every field must be monotone (the
  // TSan leg additionally proves the loads are race-free).
  std::thread Reader([&] {
    PlanCacheStats Prev = PlanCache::instance().stats();
    Gate.wait();
    while (!StopReader.load(std::memory_order_acquire)) {
      PlanCacheStats Now = PlanCache::instance().stats();
      EXPECT_GE(Now.PlanHits, Prev.PlanHits);
      EXPECT_GE(Now.PlanMisses, Prev.PlanMisses);
      EXPECT_GE(Now.JitHits, Prev.JitHits);
      EXPECT_GE(Now.JitMisses, Prev.JitMisses);
      EXPECT_GE(Now.JitCoalesced, Prev.JitCoalesced);
      Prev = Now;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      Gate.wait();
      for (int R = 0; R < Reps; ++R) {
        for (size_t K = 0; K < Keys; ++K) {
          const WorkItem &W = Items[K];
          StatusOr<std::shared_ptr<jit::JitConversion>> H =
              PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
          ASSERT_TRUE(H.ok()) << W.Label << ": " << H.status().toString();
          Seen[T][K] = H.value();
          StatusOr<tensor::SparseTensor> Out = H.value()->tryRun(W.In);
          ASSERT_TRUE(Out.ok()) << W.Label << ": "
                                << Out.status().toString();
          expectBitIdentical(W.Want, *Out, W.Label);
        }
      }
    });
  }
  Gate.open();
  for (std::thread &Th : Pool)
    Th.join();
  StopReader.store(true, std::memory_order_release);
  Reader.join();

  // Exactly one compile and one plan generation per unique key; every
  // other acquisition was a hit (coalesced waiters included — they are
  // hits, never misses).
  PlanCacheStats After = PlanCache::instance().stats();
  uint64_t Calls = uint64_t(Threads) * Reps * Keys;
  EXPECT_EQ(After.JitMisses - Before.JitMisses, Keys);
  EXPECT_EQ(After.PlanMisses - Before.PlanMisses, Keys);
  EXPECT_EQ(After.JitHits - Before.JitHits, Calls - Keys);
  EXPECT_LE(After.JitCoalesced - Before.JitCoalesced,
            After.JitHits - Before.JitHits);

  // Single-flight shares one live object per key.
  for (size_t K = 0; K < Keys; ++K)
    for (int T = 1; T < Threads; ++T)
      EXPECT_EQ(Seen[0][K].get(), Seen[T][K].get())
          << Items[K].Label << ": thread " << T << " got a different handle";
}

//===------------------------------------------------------------------===//
// Hung-compiler watchdog.
//===------------------------------------------------------------------===//

TEST(Watchdog, HungCompilerIsKilledWithinTheTimeoutAndRequestDegrades) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the compile path is never reached";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "300");
  resetBooks();

  WorkItem W = makeItem("coo", "csr", smallMatrix());
  auto Begin = std::chrono::steady_clock::now();
  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
  ASSERT_TRUE(H.ok()) << H.status().toString();

  // Killed within the timeout (plus watchdog poll slack), not blocked
  // forever; and no retry — a hung compiler would hang again, so exactly
  // one hang was injected and one timeout recorded.
  EXPECT_GE(Secs, 0.3);
  EXPECT_LT(Secs, 5.0) << "watchdog failed to kill the hung compiler";
  EXPECT_TRUE(H.value()->degraded());
  EXPECT_FALSE(H.value()->degradedByRequestDeadline());
  EXPECT_NE(H.value()->degradationReason().find("killed"), std::string::npos)
      << H.value()->degradationReason();
  auto Log = DegradationLog::instance().snapshot();
  EXPECT_EQ(Log[Degradation::CompileTimeout], 1u);
  EXPECT_EQ(support::faultInjectionCount(FaultSite::CompileHang), 1u);
  EXPECT_EQ(Log[Degradation::JitRetry], 0u);

  // The request still completes, bit-exact, through the interpreter.
  StatusOr<tensor::SparseTensor> Out = H.value()->tryRun(W.In);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  expectBitIdentical(W.Want, *Out, W.Label);

  // An environment-degraded handle (every caller would hit the same wedged
  // compiler) IS cached: the next request hits, no second hang.
  uint64_t HangsBefore = support::faultInjectionCount(FaultSite::CompileHang);
  StatusOr<std::shared_ptr<jit::JitConversion>> H2 =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  ASSERT_TRUE(H2.ok());
  EXPECT_EQ(H2.value().get(), H.value().get());
  EXPECT_EQ(support::faultInjectionCount(FaultSite::CompileHang),
            HangsBefore);
}

TEST(Watchdog, HangSiteIsNotDrawnWhenTheWatchdogIsDisabled) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the compile path is never reached";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
  ScopedEnv NoTimeout("CONVGEN_COMPILE_TIMEOUT_MS", "0");
  resetBooks();

  // With the watchdog disabled the hang site must not fire (it would hang
  // the harness forever); the compile runs for real and succeeds.
  WorkItem W = makeItem("coo", "csr", smallMatrix());
  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  ASSERT_TRUE(H.ok());
  EXPECT_FALSE(H.value()->degraded()) << H.value()->degradationReason();
  EXPECT_EQ(support::faultInjectionCount(FaultSite::CompileHang), 0u);
}

//===------------------------------------------------------------------===//
// Request deadlines.
//===------------------------------------------------------------------===//

TEST(Deadlines, ExpiredDeadlineFailsFastBeforeAnyWork) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();

  WorkItem W = makeItem("coo", "csr", smallMatrix());
  resetBooks(); // Drop what the oracle warmed; the calls below must miss.
  PlanCacheStats Before = PlanCache::instance().stats();
  Deadline Expired = Deadline::afterMillis(0);

  StatusOr<std::shared_ptr<jit::JitConversion>> H =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts, Expired);
  ASSERT_FALSE(H.ok());
  EXPECT_EQ(H.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_FALSE(H.status().isEnvironmentError())
      << "DeadlineExceeded must not trigger the environment retry ladder";

  auto P = PlanCache::instance().tryPlan(W.Src, W.Dst, W.Opts, Expired);
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.status().code(), ErrorCode::DeadlineExceeded);

  StatusOr<convert::Converter> C =
      convert::Converter::tryCreate(W.Src, W.Dst);
  ASSERT_TRUE(C.ok());
  StatusOr<tensor::SparseTensor> R = C->tryRun(W.In, Expired);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::DeadlineExceeded);

  // Nothing was generated or compiled on any of those paths (tryCreate's
  // plan acquisition is the one legitimate miss).
  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 0u);
  EXPECT_EQ(After.PlanMisses - Before.PlanMisses, 1u);
}

TEST(Deadlines, WaiterOnAnInFlightCompileTimesOutWithoutKillingTheFlight) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; there is no in-flight compile to join";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "1500");
  resetBooks();

  WorkItem W = makeItem("coo", "csr", smallMatrix());
  PlanCache::instance().clearMemory();

  // Leader: unbounded request, pays the full 1500ms watchdog bound.
  std::atomic<bool> LeaderEntered{false};
  std::shared_ptr<jit::JitConversion> LeaderHandle;
  std::thread Leader([&] {
    LeaderEntered.store(true, std::memory_order_release);
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
    ASSERT_TRUE(H.ok());
    LeaderHandle = H.value();
  });
  while (!LeaderEntered.load(std::memory_order_acquire))
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Waiter: coalesces onto the leader's flight, but only has 150ms of
  // patience — it must time out quickly, while the flight continues.
  auto Begin = std::chrono::steady_clock::now();
  StatusOr<std::shared_ptr<jit::JitConversion>> Impatient =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts,
                                   Deadline::afterMillis(150));
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
  ASSERT_FALSE(Impatient.ok());
  EXPECT_EQ(Impatient.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_LT(Secs, 1.0) << "waiter was not released at its deadline";

  Leader.join();
  ASSERT_TRUE(LeaderHandle != nullptr);
  EXPECT_TRUE(LeaderHandle->degraded());
  auto Log = DegradationLog::instance().snapshot();
  EXPECT_GE(Log[Degradation::SingleFlightCoalesce], 1u);
  EXPECT_GE(Log[Degradation::DeadlineExceeded], 1u);
  EXPECT_EQ(Log[Degradation::CompileTimeout], 1u);

  // The leader's (environment-degraded) handle still serves, bit-exact.
  StatusOr<tensor::SparseTensor> Out = LeaderHandle->tryRun(W.In);
  ASSERT_TRUE(Out.ok());
  expectBitIdentical(W.Want, *Out, W.Label);
}

TEST(Deadlines, DeadlineBoundDegradedHandleIsNotCached) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the compile path is never reached";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();
  WorkItem W = makeItem("coo", "csr", smallMatrix());
  PlanCache::instance().clearMemory();

  PlanCacheStats Before = PlanCache::instance().stats();
  {
    // A 50ms deadline against a wedged compiler: the *request's* deadline
    // binds (50 < 120000), the leader degrades deadline-bound, and the
    // handle must NOT enter the shared cache.
    ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts,
                                     Deadline::afterMillis(50));
    ASSERT_TRUE(H.ok()) << H.status().toString();
    EXPECT_TRUE(H.value()->degraded());
    EXPECT_TRUE(H.value()->degradedByRequestDeadline());
    // Degraded or not, it converts.
    StatusOr<tensor::SparseTensor> Out = H.value()->tryRun(W.In);
    ASSERT_TRUE(Out.ok());
    expectBitIdentical(W.Want, *Out, W.Label);
  }
  // Hang injection gone: a patient retry must compile for real — which it
  // can only do if the impatient handle was not cached.
  ScopedEnv NoFault("CONVGEN_FAULT", "");
  StatusOr<std::shared_ptr<jit::JitConversion>> H2 =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  ASSERT_TRUE(H2.ok());
  EXPECT_FALSE(H2.value()->degraded()) << H2.value()->degradationReason();
  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 2u)
      << "the deadline-bound handle was cached and shadowed the retry";
}

TEST(Deadlines, PatientWaiterCompilesRatherThanTakeAnImpatientLeadersHandle) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; there is no in-flight compile to join";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv NoFaults("CONVGEN_FAULT", "");
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "60000");
  SlowCompiler Slow(1);
  resetBooks();
  WorkItem W = makeItem("coo", "csc", smallMatrix());
  PlanCache::instance().clearMemory();
  PlanCacheStats Before = PlanCache::instance().stats();

  // Leader: 300ms of patience against a compile of over a second, so its
  // handle degrades by its own deadline.
  std::shared_ptr<jit::JitConversion> Impatient;
  std::thread Leader([&] {
    StatusOr<std::shared_ptr<jit::JitConversion>> H =
        PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts,
                                     Deadline::afterMillis(300));
    ASSERT_TRUE(H.ok()) << H.status().toString();
    Impatient = H.value();
  });
  // The leader generates the plan inside its flight: once that plan
  // lands, the flight is open and its compile has begun.
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (PlanCache::instance().stats().PlanMisses == Before.PlanMisses &&
         std::chrono::steady_clock::now() < GiveUp)
    std::this_thread::yield();

  // Waiter: unbounded, coalesces onto the leader's flight. The leader's
  // deadline-degraded handle is not its answer: it compiles for real.
  StatusOr<std::shared_ptr<jit::JitConversion>> Patient =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts,
                                   Deadline::never());
  Leader.join();
  ASSERT_TRUE(Impatient != nullptr);
  EXPECT_TRUE(Impatient->degradedByRequestDeadline());
  ASSERT_TRUE(Patient.ok()) << Patient.status().toString();
  EXPECT_FALSE(Patient.value()->degraded())
      << Patient.value()->degradationReason();
  EXPECT_GE(Patient.value()->compileSeconds(), Slow.seconds())
      << "the compile was not slow, so the leader's deadline proved nothing";
  EXPECT_GE(DegradationLog::instance().snapshot()
                [Degradation::SingleFlightCoalesce],
            1u)
      << "the waiter never joined the leader's flight";
  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 2u)
      << "exactly one more compile: the waiter's";

  // The waiter's native handle is the one the cache now serves.
  StatusOr<std::shared_ptr<jit::JitConversion>> Again =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again.value().get(), Patient.value().get());
  StatusOr<tensor::SparseTensor> Out = Patient.value()->tryRun(W.In);
  ASSERT_TRUE(Out.ok());
  expectBitIdentical(W.Want, *Out, W.Label);
}

//===------------------------------------------------------------------===//
// ConversionService: admission, shedding, queue deadlines, stats.
//===------------------------------------------------------------------===//

TEST(Service, OverloadShedsWithResourceExhaustedAndRecovers) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "needs a slow (hung) compile to hold the one slot";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();

  WorkItem Slow = makeItem("coo", "csr", smallMatrix());
  WorkItem Fast = makeItem("csr", "csc", smallMatrix());
  PlanCache::instance().clearMemory();

  ServiceLimits Limits;
  Limits.MaxInflight = 1;
  Limits.QueueDepth = 0;
  ConversionService Service(Limits);

  ConversionRequest R;
  R.Source = Fast.Src;
  R.Target = Fast.Dst;
  R.Input = &Fast.In;
  {
    // Occupy the single slot with a request whose compile hangs ~1500ms.
    // The hang fault is scoped to this block so the recovery request
    // below compiles for real.
    ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
    ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "1500");
    std::thread Occupant([&] {
      ConversionRequest Req;
      Req.Source = Slow.Src;
      Req.Target = Slow.Dst;
      Req.Input = &Slow.In;
      StatusOr<tensor::SparseTensor> Out = Service.convert(Req);
      ASSERT_TRUE(Out.ok()) << Out.status().toString();
      expectBitIdentical(Slow.Want, *Out, Slow.Label);
    });
    auto SlotTaken = std::chrono::steady_clock::now() +
                     std::chrono::seconds(10);
    while (Service.inflight() < 1 &&
           std::chrono::steady_clock::now() < SlotTaken)
      std::this_thread::yield();
    ASSERT_EQ(Service.inflight(), 1);

    // Saturated, queue depth 0: the next request is shed immediately.
    auto Begin = std::chrono::steady_clock::now();
    StatusOr<tensor::SparseTensor> Shed = Service.convert(R);
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Begin)
                      .count();
    ASSERT_FALSE(Shed.ok());
    EXPECT_EQ(Shed.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_LT(Secs, 0.5) << "shedding must fail fast, not wait";
    EXPECT_EQ(Service.stats().Shed, 1u);
    EXPECT_GE(DegradationLog::instance().snapshot()[Degradation::LoadShed],
              1u);

    Occupant.join();
  }

  // Capacity freed: the same request now completes.
  ScopedEnv NoFault("CONVGEN_FAULT", "");
  StatusOr<tensor::SparseTensor> Again = Service.convert(R);
  ASSERT_TRUE(Again.ok()) << Again.status().toString();
  expectBitIdentical(Fast.Want, *Again, Fast.Label);
  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, 3u);
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_EQ(S.DegradedRuns, 1u); // The occupant's watchdog-killed compile.
}

TEST(Service, QueuedRequestDeadlineExpiresWhileWaiting) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "needs a slow (hung) compile to hold the one slot";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
  ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "1500");
  resetBooks();

  WorkItem Slow = makeItem("coo", "csr", smallMatrix());
  WorkItem Fast = makeItem("csr", "csc", smallMatrix());
  PlanCache::instance().clearMemory();

  ServiceLimits Limits;
  Limits.MaxInflight = 1;
  Limits.QueueDepth = 4; // Room to queue — the deadline, not shedding.
  ConversionService Service(Limits);

  std::thread Occupant([&] {
    ConversionRequest R;
    R.Source = Slow.Src;
    R.Target = Slow.Dst;
    R.Input = &Slow.In;
    StatusOr<tensor::SparseTensor> Out = Service.convert(R);
    ASSERT_TRUE(Out.ok());
  });
  auto SlotTaken = std::chrono::steady_clock::now() +
                   std::chrono::seconds(10);
  while (Service.inflight() < 1 &&
         std::chrono::steady_clock::now() < SlotTaken)
    std::this_thread::yield();
  ASSERT_EQ(Service.inflight(), 1);

  ConversionRequest R;
  R.Source = Fast.Src;
  R.Target = Fast.Dst;
  R.Input = &Fast.In;
  R.DeadlineMs = 150;
  auto Begin = std::chrono::steady_clock::now();
  StatusOr<tensor::SparseTensor> Out = Service.convert(R);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_LT(Secs, 1.0) << "queued waiter was not released at its deadline";
  EXPECT_GE(Service.stats().DeadlineExpired, 1u);
  EXPECT_EQ(Service.stats().Shed, 0u);

  Occupant.join();
}

TEST(Service, RequestErrorsAreCountedNotFatal) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();
  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  ConversionService Service(Limits);

  // No input tensor.
  ConversionRequest Null;
  Null.Source = formats::standardFormatOrDie("coo");
  Null.Target = formats::standardFormatOrDie("csr");
  StatusOr<tensor::SparseTensor> R1 = Service.convert(Null);
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.status().code(), ErrorCode::InvalidArgument);

  // Input in the wrong format for the declared source.
  WorkItem W = makeItem("coo", "csr", smallMatrix());
  ConversionRequest Wrong;
  Wrong.Source = formats::standardFormatOrDie("csr");
  Wrong.Target = formats::standardFormatOrDie("csc");
  Wrong.Input = &W.In; // A coo tensor.
  StatusOr<tensor::SparseTensor> R2 = Service.convert(Wrong);
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.status().code(), ErrorCode::InvalidArgument);

  // Unsupported pair (order mismatch).
  ConversionRequest Unsup;
  Unsup.Source = formats::standardFormatOrDie("coo3");
  Unsup.Target = formats::standardFormatOrDie("csr");
  tensor::SparseTensor T3 =
      tensor::buildFromTriplets(Unsup.Source, smallTensor3());
  Unsup.Input = &T3;
  StatusOr<tensor::SparseTensor> R3 = Service.convert(Unsup);
  ASSERT_FALSE(R3.ok());
  EXPECT_EQ(R3.status().code(), ErrorCode::Unsupported);

  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, 3u);
  EXPECT_EQ(S.RequestErrors, 3u);
  EXPECT_EQ(S.Completed, 0u);
}

TEST(Service, ConcurrentMixedRequestsMatchTheSerialOracle) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();

  std::vector<WorkItem> Items;
  Items.push_back(makeItem("coo", "csr", smallMatrix()));
  Items.push_back(makeItem("csr", "csc", smallMatrix()));
  Items.push_back(makeItem("coo", "ell", smallMatrix()));
  Items.push_back(makeItem("coo3", "csf", smallTensor3()));
  Items.push_back(makeItem("coo3", "csf_102", smallTensor3()));
  Items.push_back(makeItem("coo3", "csf", hugeDimTensor3()));
  PlanCache::instance().clearMemory();

  // Oracle traffic runs on the same threads through one shared Converter
  // per pair, which routes itself through the same cache.
  std::vector<convert::Converter> Oracles;
  for (const WorkItem &W : Items)
    Oracles.emplace_back(W.Src, W.Dst);

  ServiceLimits Limits;
  Limits.MaxInflight = 4;
  Limits.QueueDepth = 64;
  ConversionService Service(Limits);

  const int Threads = 6;
  const int PerThread = 30;
  std::atomic<uint64_t> Served{0};
  StartGate Gate;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      Gate.wait();
      for (int I = 0; I < PerThread; ++I) {
        size_t Idx = (T + I) % Items.size();
        const WorkItem &W = Items[Idx];
        StatusOr<tensor::SparseTensor> Out = [&] {
          if ((T + I) % 5 == 0)
            return Oracles[Idx].tryRun(W.In);
          Served.fetch_add(1, std::memory_order_relaxed);
          ConversionRequest R;
          R.Source = W.Src;
          R.Target = W.Dst;
          R.Input = &W.In;
          return Service.convert(R);
        }();
        ASSERT_TRUE(Out.ok()) << W.Label << ": " << Out.status().toString();
        expectBitIdentical(W.Want, *Out, W.Label);
      }
    });
  }
  Gate.open();
  for (std::thread &Th : Pool)
    Th.join();

  convert::ServiceStats S = Service.stats();
  EXPECT_GT(Served.load(), 0u);
  EXPECT_LT(Served.load(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(S.Submitted, Served.load());
  EXPECT_EQ(S.Completed, Served.load());
  EXPECT_EQ(S.RequestErrors, 0u);
  EXPECT_EQ(S.Shed, 0u);
  EXPECT_EQ(S.DeadlineExpired, 0u);
}

TEST(Service, DefaultDeadlineFromLimitsApplies) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no C compiler; the compile path is never reached";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();
  WorkItem W = makeItem("coo", "csr", smallMatrix());
  PlanCache::instance().clearMemory();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  Limits.DefaultDeadlineMs = 50;
  ConversionService Service(Limits);
  {
    // The service default (50ms) binds against a wedged compiler: the
    // watchdog kills the child at the request deadline, the deadline has
    // expired, and the request reports DeadlineExceeded — not a hang, not
    // an abort.
    ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
    ConversionRequest R;
    R.Source = W.Src;
    R.Target = W.Dst;
    R.Input = &W.In;
    StatusOr<tensor::SparseTensor> Out = Service.convert(R);
    ASSERT_FALSE(Out.ok());
    EXPECT_EQ(Out.status().code(), ErrorCode::DeadlineExceeded);
    EXPECT_GE(Service.stats().DeadlineExpired, 1u);
  }
  // Injection gone: an explicitly unbounded request compiles for real —
  // which it can only do if the deadline-bound handle was not cached.
  ScopedEnv NoFault("CONVGEN_FAULT", "");
  ConversionRequest R;
  R.Source = W.Src;
  R.Target = W.Dst;
  R.Input = &W.In;
  R.DeadlineMs = 0;
  StatusOr<tensor::SparseTensor> Out = Service.convert(R);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  expectBitIdentical(W.Want, *Out, W.Label);
  EXPECT_EQ(Service.stats().DegradedRuns, 0u)
      << "the deadline-bound handle leaked into the shared cache";
}

TEST(Service, OutOfRangeLimitSettingsClampInsteadOfWrapping) {
  const int IntMax = std::numeric_limits<int>::max();
  {
    // 2^32 - 1 must not narrow to -1, which would clamp to 0 (shed at
    // saturation).
    ScopedEnv Depth("CONVGEN_QUEUE_DEPTH", "4294967295");
    EXPECT_EQ(ServiceLimits::fromEnv().QueueDepth, IntMax);
  }
  {
    // 2^31 must not narrow to INT_MIN, which would clamp to 1.
    ScopedEnv Inflight("CONVGEN_MAX_INFLIGHT", "2147483648");
    ServiceLimits L = ServiceLimits::fromEnv();
    EXPECT_EQ(L.MaxInflight, IntMax);
    EXPECT_EQ(L.QueueDepth, IntMax);
  }
  {
    // In range, but the default queue depth (2x) is not: it must clamp,
    // not overflow.
    ScopedEnv Inflight("CONVGEN_MAX_INFLIGHT", "1500000000");
    ServiceLimits L = ServiceLimits::fromEnv();
    EXPECT_EQ(L.MaxInflight, 1500000000);
    EXPECT_EQ(L.QueueDepth, IntMax);
  }
  {
    ScopedEnv Inflight("CONVGEN_MAX_INFLIGHT", "-5");
    ScopedEnv Depth("CONVGEN_QUEUE_DEPTH", "-5");
    ScopedEnv Deadline("CONVGEN_DEFAULT_DEADLINE_MS", "-5");
    ServiceLimits L = ServiceLimits::fromEnv();
    EXPECT_EQ(L.MaxInflight, 1);
    EXPECT_EQ(L.QueueDepth, 0);
    EXPECT_EQ(L.DefaultDeadlineMs, 0);
  }
}

//===------------------------------------------------------------------===//
// Routing: one plan key per routed request.
//===------------------------------------------------------------------===//

TEST(Service, RoutedSortedRequestCompilesOnceAndHitsAfter) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  // A hypersparse coo3 -> csf input: level 2's dense rank array (2048 *
  // 2048 entries) dwarfs its 40k nonzeros, so routing picks sorted
  // ranking.
  tensor::Triplets T = tensor::genRandomTensor3(2048, 2048, 64, 40000, 1004);
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
  codegen::Options Routed = codegen::optionsForDims(
      Coo3, Csf, codegen::Options(), In.Dims, In.storedSize());
  ASSERT_TRUE(Routed.ForceSortedRanking);
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  ConversionService Service(Limits);
  ConversionRequest R;
  R.Source = Coo3;
  R.Target = Csf;
  R.Input = &In;

  PlanCacheStats Before = PlanCache::instance().stats();
  StatusOr<tensor::SparseTensor> First = Service.convert(R);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  PlanCacheStats Mid = PlanCache::instance().stats();
  StatusOr<tensor::SparseTensor> Second = Service.convert(R);
  ASSERT_TRUE(Second.ok()) << Second.status().toString();
  PlanCacheStats After = PlanCache::instance().stats();

  // One miss, then a hit on the handle the first request compiled ...
  EXPECT_EQ(Mid.JitMisses - Before.JitMisses, 1u);
  EXPECT_EQ(After.JitMisses - Mid.JitMisses, 0u);
  EXPECT_EQ(After.JitHits - Mid.JitHits, 1u);
  // ... under the routed key.
  PlanCache::instance().jit(Coo3, Csf, Routed);
  EXPECT_EQ(PlanCache::instance().stats().JitMisses, After.JitMisses);

  tensor::SparseTensor Want = tensor::buildFromTriplets(Csf, T);
  expectBitIdentical(Want, *First, "first request");
  expectBitIdentical(Want, *Second, "second request");
}

TEST(Service, EmptyInputRunsTheDefaultPlanBitExact) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  // The same 2048 x 2048 rank space as above, but nothing to sort: the
  // request runs the pair's default plan.
  tensor::Triplets T;
  T.setDims({2048, 2048, 64});
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  ConversionService Service(Limits);
  ConversionRequest R;
  R.Source = Coo3;
  R.Target = Csf;
  R.Input = &In;
  PlanCacheStats Before = PlanCache::instance().stats();
  StatusOr<tensor::SparseTensor> Out = Service.convert(R);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  expectBitIdentical(tensor::buildFromTriplets(Csf, T), *Out, "oracle");

  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 1u);
  PlanCache::instance().jit(Coo3, Csf, codegen::Options());
  EXPECT_EQ(PlanCache::instance().stats().JitMisses, After.JitMisses)
      << "the empty input did not run under the default plan key";
}

//===------------------------------------------------------------------===//
// Stats monotonicity under concurrent requests.
//===------------------------------------------------------------------===//

TEST(Service, StatsStayMonotoneAndConservedUnderConcurrentRequests) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");

  std::vector<WorkItem> Items;
  Items.push_back(makeItem("coo", "csr", smallMatrix()));
  Items.push_back(makeItem("csr", "csc", smallMatrix()));
  Items.push_back(makeItem("coo3", "csf", smallTensor3()));
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 4;
  Limits.QueueDepth = 64;
  ConversionService Service(Limits);

  StartGate Gate;
  std::atomic<bool> StopReader{false};
  // The mid-flight contract under test: every ServiceStats field is
  // monotone, and Submitted never undercounts the outcomes (a request is
  // submitted before it resolves, so Submitted >= the outcome sum at
  // every instant).
  std::thread Reader([&] {
    convert::ServiceStats Prev = Service.stats();
    Gate.wait();
    while (!StopReader.load(std::memory_order_acquire)) {
      convert::ServiceStats Now = Service.stats();
      EXPECT_GE(Now.Submitted, Prev.Submitted);
      EXPECT_GE(Now.Completed, Prev.Completed);
      EXPECT_GE(Now.Shed, Prev.Shed);
      EXPECT_GE(Now.DeadlineExpired, Prev.DeadlineExpired);
      EXPECT_GE(Now.RequestErrors, Prev.RequestErrors);
      EXPECT_GE(Now.DegradedRuns, Prev.DegradedRuns);
      EXPECT_GE(Now.Submitted, Now.Completed + Now.Shed +
                                   Now.DeadlineExpired + Now.RequestErrors);
      Prev = Now;
      std::this_thread::yield();
    }
  });

  const int Threads = 4;
  const int PerThread = 42;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      Gate.wait();
      for (int I = 0; I < PerThread; ++I) {
        const WorkItem &W = Items[(T + I) % Items.size()];
        ConversionRequest R;
        R.Source = W.Src;
        R.Target = W.Dst;
        R.Input = &W.In;
        StatusOr<tensor::SparseTensor> Out = Service.convert(R);
        ASSERT_TRUE(Out.ok()) << W.Label << ": " << Out.status().toString();
        expectBitIdentical(W.Want, *Out, W.Label);
      }
    });
  }
  Gate.open();
  for (std::thread &Th : Pool)
    Th.join();
  StopReader.store(true, std::memory_order_release);
  Reader.join();

  convert::ServiceStats S = Service.stats();
  uint64_t Total = uint64_t(Threads) * PerThread;
  EXPECT_EQ(S.Submitted, Total);
  EXPECT_EQ(S.Completed, Total);
  EXPECT_EQ(S.Submitted,
            S.Completed + S.Shed + S.DeadlineExpired + S.RequestErrors);
}
