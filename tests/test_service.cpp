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
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts, "", Expired);
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
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts, "",
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
        PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts, "",
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
  StatusOr<std::shared_ptr<jit::JitConversion>> H2 =
      PlanCache::instance().tryJit(W.Src, W.Dst, W.Opts);
  ASSERT_TRUE(H2.ok());
  EXPECT_FALSE(H2.value()->degraded()) << H2.value()->degradationReason();
  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 2u)
      << "the deadline-bound handle was cached and shadowed the retry";
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

  ServiceLimits Limits;
  Limits.MaxInflight = 4;
  Limits.QueueDepth = 64;
  ConversionService Service(Limits);

  const int Threads = 6;
  const int PerThread = 30;
  StartGate Gate;
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
        // A slice of oracle traffic goes through the interpreter path.
        R.ForceInterpreter = (T + I) % 5 == 0;
        StatusOr<tensor::SparseTensor> Out = Service.convert(R);
        ASSERT_TRUE(Out.ok()) << W.Label << ": " << Out.status().toString();
        expectBitIdentical(W.Want, *Out, W.Label);
      }
    });
  }
  Gate.open();
  for (std::thread &Th : Pool)
    Th.join();

  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, uint64_t(Threads) * PerThread);
  EXPECT_EQ(S.Completed, uint64_t(Threads) * PerThread);
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

//===------------------------------------------------------------------===//
// submitBatch: plan-key grouping, per-member admission and deadlines.
//===------------------------------------------------------------------===//

TEST(Batch, GroupsByPlanKeyAndAcquiresOneHandlePerGroup) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");

  WorkItem A1 = makeItem("coo", "csr", smallMatrix());
  WorkItem A2 =
      makeItem("coo", "csr", tensor::genBandedRandom(20, 20, 3.0, 5, 2, 9));
  WorkItem B = makeItem("csr", "csc", smallMatrix());
  WorkItem C = makeItem("coo3", "csf", smallTensor3());
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 4;
  ConversionService Service(Limits);

  // Five members, three plan keys: both coo->csr tensors (and the repeat)
  // share one group and one handle acquisition.
  std::vector<const WorkItem *> Order = {&A1, &B, &A2, &C, &A1};
  std::vector<ConversionRequest> Requests;
  for (const WorkItem *W : Order) {
    ConversionRequest R;
    R.Source = W->Src;
    R.Target = W->Dst;
    R.Input = &W->In;
    Requests.push_back(R);
  }

  PlanCacheStats Before = PlanCache::instance().stats();
  convert::BatchStats BS;
  std::vector<StatusOr<tensor::SparseTensor>> Results =
      Service.submitBatch(Requests, &BS);

  ASSERT_EQ(Results.size(), Requests.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    ASSERT_TRUE(Results[I].ok())
        << Order[I]->Label << ": " << Results[I].status().toString();
    expectBitIdentical(Order[I]->Want, *Results[I], Order[I]->Label);
  }
  EXPECT_EQ(BS.Requests, Requests.size());
  EXPECT_EQ(BS.Groups, 3u);
  EXPECT_EQ(BS.HandleAcquisitions, 3u);
  EXPECT_EQ(BS.Completed, Requests.size());
  EXPECT_EQ(BS.Shed + BS.DeadlineExpired + BS.RequestErrors, 0u);

  // The grouping's whole point: one cache traversal per group, zero for
  // the other members (single-flight would at best have made them
  // coalesced hits; the batch skips the traversal entirely).
  PlanCacheStats After = PlanCache::instance().stats();
  EXPECT_EQ(After.JitMisses - Before.JitMisses, 3u);
  EXPECT_EQ(After.JitHits - Before.JitHits, 0u);

  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, Requests.size());
  EXPECT_EQ(S.Completed, Requests.size());
  EXPECT_EQ(S.Batches, 1u);
  EXPECT_EQ(S.BatchRequests, Requests.size());
  EXPECT_EQ(S.BatchGroups, 3u);
}

TEST(Batch, SingleAndBatchedRequestsRunTheSamePlan) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  // A hypersparse coo3 -> csf input: level 2's dense rank array (2048 *
  // 2048 entries) dwarfs its 40k nonzeros, so routing picks sorted
  // ranking. convert() and submitBatch() must both route it that way.
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
  StatusOr<tensor::SparseTensor> Single = Service.convert(R);
  ASSERT_TRUE(Single.ok()) << Single.status().toString();
  PlanCacheStats Mid = PlanCache::instance().stats();
  std::vector<StatusOr<tensor::SparseTensor>> Batched =
      Service.submitBatch({R});
  ASSERT_EQ(Batched.size(), 1u);
  ASSERT_TRUE(Batched[0].ok()) << Batched[0].status().toString();
  PlanCacheStats After = PlanCache::instance().stats();

  // One plan key: the batch's acquisition hits the handle convert()
  // compiled under the routed key.
  EXPECT_EQ(Mid.JitMisses - Before.JitMisses, 1u);
  EXPECT_EQ(After.JitMisses - Mid.JitMisses, 0u);
  EXPECT_EQ(After.JitHits - Mid.JitHits, 1u);
  // ... and that key is the routed one.
  PlanCache::instance().jit(Coo3, Csf, Routed);
  EXPECT_EQ(PlanCache::instance().stats().JitMisses, After.JitMisses);

  expectBitIdentical(*Single, *Batched[0], "convert vs submitBatch");
  expectBitIdentical(tensor::buildFromTriplets(Csf, T), *Single, "oracle");
}

TEST(Batch, ShedMembersFailAloneAndTheBatchContinues) {
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

  std::vector<ConversionRequest> Requests(2);
  for (ConversionRequest &R : Requests) {
    R.Source = Fast.Src;
    R.Target = Fast.Dst;
    R.Input = &Fast.In;
  }
  {
    // Occupy the single slot with a request whose compile hangs; every
    // batch member must then shed individually (ResourceExhausted in its
    // own result slot), and the batch call itself returns normally.
    ScopedEnv Hang("CONVGEN_FAULT", "compile-hang");
    ScopedEnv Timeout("CONVGEN_COMPILE_TIMEOUT_MS", "1500");
    std::thread Occupant([&] {
      ConversionRequest Req;
      Req.Source = Slow.Src;
      Req.Target = Slow.Dst;
      Req.Input = &Slow.In;
      StatusOr<tensor::SparseTensor> Out = Service.convert(Req);
      ASSERT_TRUE(Out.ok()) << Out.status().toString();
    });
    auto SlotTaken =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Service.inflight() < 1 &&
           std::chrono::steady_clock::now() < SlotTaken)
      std::this_thread::yield();
    ASSERT_EQ(Service.inflight(), 1);

    convert::BatchStats BS;
    std::vector<StatusOr<tensor::SparseTensor>> Results =
        Service.submitBatch(Requests, &BS);
    ASSERT_EQ(Results.size(), 2u);
    for (const auto &R : Results) {
      ASSERT_FALSE(R.ok());
      EXPECT_EQ(R.status().code(), ErrorCode::ResourceExhausted);
    }
    EXPECT_EQ(BS.Shed, 2u);
    EXPECT_EQ(BS.Completed, 0u);
    EXPECT_EQ(BS.HandleAcquisitions, 0u);
    Occupant.join();
  }

  // Capacity freed: the same batch now completes, and the service-wide
  // conservation identity holds across both calls.
  convert::BatchStats BS;
  std::vector<StatusOr<tensor::SparseTensor>> Results =
      Service.submitBatch(Requests, &BS);
  for (size_t I = 0; I < Results.size(); ++I) {
    ASSERT_TRUE(Results[I].ok()) << Results[I].status().toString();
    expectBitIdentical(Fast.Want, *Results[I], Fast.Label);
  }
  EXPECT_EQ(BS.Completed, 2u);
  EXPECT_EQ(BS.HandleAcquisitions, 1u);
  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted,
            S.Completed + S.Shed + S.DeadlineExpired + S.RequestErrors);
}

TEST(Batch, MemberDeadlineExpiresMidBatchWhileOthersComplete) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "needs a real compile to consume the member's budget";
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  resetBooks();

  WorkItem W = makeItem("coo", "csr", smallMatrix());
  PlanCache::instance().clearMemory();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  ConversionService Service(Limits);

  // Member 0 is unbounded and pays the group's compile; member 1 budgets
  // 1ms, resolved at batch entry — the compile ahead of it in FIFO order
  // exhausts that budget, so it must expire alone while member 0 (and the
  // group's handle) succeed.
  std::vector<ConversionRequest> Requests(2);
  for (ConversionRequest &R : Requests) {
    R.Source = W.Src;
    R.Target = W.Dst;
    R.Input = &W.In;
  }
  Requests[1].DeadlineMs = 1;

  convert::BatchStats BS;
  std::vector<StatusOr<tensor::SparseTensor>> Results =
      Service.submitBatch(Requests, &BS);
  ASSERT_TRUE(Results[0].ok()) << Results[0].status().toString();
  expectBitIdentical(W.Want, *Results[0], W.Label);
  ASSERT_FALSE(Results[1].ok());
  EXPECT_EQ(Results[1].status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(BS.Completed, 1u);
  EXPECT_EQ(BS.DeadlineExpired, 1u);
  EXPECT_EQ(BS.HandleAcquisitions, 1u);
}

TEST(Batch, ForceInterpreterAndInvalidRequestsRunUngrouped) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");
  WorkItem W = makeItem("coo", "csr", smallMatrix());
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  ConversionService Service(Limits);

  std::vector<ConversionRequest> Requests(3);
  Requests[0].Source = W.Src;
  Requests[0].Target = W.Dst;
  Requests[0].Input = &W.In;
  Requests[1] = Requests[0];
  Requests[1].ForceInterpreter = true;
  Requests[2].Source = W.Src;
  Requests[2].Target = W.Dst;
  Requests[2].Input = nullptr; // Malformed: no input tensor.

  convert::BatchStats BS;
  std::vector<StatusOr<tensor::SparseTensor>> Results =
      Service.submitBatch(Requests, &BS);
  ASSERT_TRUE(Results[0].ok()) << Results[0].status().toString();
  expectBitIdentical(W.Want, *Results[0], W.Label + " (native)");
  ASSERT_TRUE(Results[1].ok()) << Results[1].status().toString();
  expectBitIdentical(W.Want, *Results[1], W.Label + " (interpreter)");
  ASSERT_FALSE(Results[2].ok());
  EXPECT_EQ(Results[2].status().code(), ErrorCode::InvalidArgument);

  // The interpreter and malformed members are singleton groups — a native
  // handle must not be shared with (or acquired for) them.
  EXPECT_EQ(BS.Groups, 3u);
  EXPECT_EQ(BS.HandleAcquisitions, 1u);
  EXPECT_EQ(BS.Completed, 2u);
  EXPECT_EQ(BS.RequestErrors, 1u);
  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, 3u);
  EXPECT_EQ(S.Submitted,
            S.Completed + S.Shed + S.DeadlineExpired + S.RequestErrors);
}

//===------------------------------------------------------------------===//
// Async submit().
//===------------------------------------------------------------------===//

TEST(Async, SubmitResolvesFuturesBitExactThroughAdmission) {
  ScopedEnv NoDisk("CONVGEN_DISABLE_DISK_CACHE", "1");

  std::vector<WorkItem> Items;
  Items.push_back(makeItem("coo", "csr", smallMatrix()));
  Items.push_back(makeItem("csr", "csc", smallMatrix()));
  Items.push_back(makeItem("coo3", "csf", smallTensor3()));
  resetBooks();

  ServiceLimits Limits;
  Limits.MaxInflight = 2;
  Limits.QueueDepth = 64;
  ConversionService Service(Limits);

  const int Reps = 4;
  std::vector<std::future<StatusOr<tensor::SparseTensor>>> Futures;
  for (int R = 0; R < Reps; ++R) {
    for (const WorkItem &W : Items) {
      ConversionRequest Req;
      Req.Source = W.Src;
      Req.Target = W.Dst;
      Req.Input = &W.In;
      Futures.push_back(Service.submit(Req));
    }
  }
  for (size_t I = 0; I < Futures.size(); ++I) {
    const WorkItem &W = Items[I % Items.size()];
    StatusOr<tensor::SparseTensor> Out = Futures[I].get();
    ASSERT_TRUE(Out.ok()) << W.Label << ": " << Out.status().toString();
    expectBitIdentical(W.Want, *Out, W.Label);
  }
  convert::ServiceStats S = Service.stats();
  EXPECT_EQ(S.AsyncSubmitted, Futures.size());
  EXPECT_EQ(S.Submitted, Futures.size());
  EXPECT_EQ(S.Completed, Futures.size());
}

//===------------------------------------------------------------------===//
// Stats monotonicity under concurrent batch + async submission.
//===------------------------------------------------------------------===//

TEST(Batch, StatsStayMonotoneAndConservedUnderConcurrentBatches) {
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
      EXPECT_GE(Now.Batches, Prev.Batches);
      EXPECT_GE(Now.BatchRequests, Prev.BatchRequests);
      EXPECT_GE(Now.BatchGroups, Prev.BatchGroups);
      EXPECT_GE(Now.AsyncSubmitted, Prev.AsyncSubmitted);
      EXPECT_GE(Now.Submitted, Now.Completed + Now.Shed +
                                   Now.DeadlineExpired + Now.RequestErrors);
      Prev = Now;
      std::this_thread::yield();
    }
  });

  const int Threads = 4;
  const int BatchesPerThread = 6;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T) {
    Pool.emplace_back([&, T] {
      Gate.wait();
      for (int Rep = 0; Rep < BatchesPerThread; ++Rep) {
        std::vector<ConversionRequest> Requests;
        for (size_t I = 0; I < Items.size() * 2; ++I) {
          const WorkItem &W = Items[(T + I) % Items.size()];
          ConversionRequest R;
          R.Source = W.Src;
          R.Target = W.Dst;
          R.Input = &W.In;
          Requests.push_back(R);
        }
        std::vector<StatusOr<tensor::SparseTensor>> Results =
            Service.submitBatch(Requests);
        for (size_t I = 0; I < Results.size(); ++I) {
          const WorkItem &W = Items[(T + I) % Items.size()];
          ASSERT_TRUE(Results[I].ok())
              << W.Label << ": " << Results[I].status().toString();
          expectBitIdentical(W.Want, *Results[I], W.Label);
        }
        // Interleave an async request so the hammer covers both new
        // submission paths at once.
        ConversionRequest Async;
        const WorkItem &W = Items[Rep % Items.size()];
        Async.Source = W.Src;
        Async.Target = W.Dst;
        Async.Input = &W.In;
        StatusOr<tensor::SparseTensor> Out = Service.submit(Async).get();
        ASSERT_TRUE(Out.ok()) << Out.status().toString();
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
  uint64_t BatchTotal =
      uint64_t(Threads) * BatchesPerThread * Items.size() * 2;
  uint64_t AsyncTotal = uint64_t(Threads) * BatchesPerThread;
  EXPECT_EQ(S.Submitted, BatchTotal + AsyncTotal);
  EXPECT_EQ(S.Completed, BatchTotal + AsyncTotal);
  EXPECT_EQ(S.Batches, uint64_t(Threads) * BatchesPerThread);
  EXPECT_EQ(S.BatchRequests, BatchTotal);
  EXPECT_EQ(S.AsyncSubmitted, AsyncTotal);
  EXPECT_EQ(S.Submitted,
            S.Completed + S.Shed + S.DeadlineExpired + S.RequestErrors);
}
