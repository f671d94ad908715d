//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ConversionService.h"

#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

using namespace convgen;
using namespace convgen::convert;
using support::Deadline;
using support::Degradation;
using support::DegradationLog;

/// \p Name's integer value (or \p Default when unset or malformed),
/// clamped to [Lo, Hi] before any narrowing.
static int64_t envInt(const char *Name, int64_t Default, int64_t Lo,
                      int64_t Hi) {
  int64_t V = Default;
  if (const char *Env = std::getenv(Name)) {
    char *End = nullptr;
    long long Parsed = std::strtoll(Env, &End, 10);
    if (End != Env && *End == '\0')
      V = Parsed;
  }
  return std::clamp(V, Lo, Hi);
}

ServiceLimits ServiceLimits::fromEnv() {
  int Hw = static_cast<int>(std::thread::hardware_concurrency());
  if (Hw < 1)
    Hw = 1;
  ServiceLimits L;
  constexpr int64_t IntMax = std::numeric_limits<int>::max();
  // 2x the hardware threads: conversion is memory-bound enough that a
  // little oversubscription keeps cores busy across the marshal/compile
  // gaps without drowning the allocator.
  L.MaxInflight =
      static_cast<int>(envInt("CONVGEN_MAX_INFLIGHT", 2LL * Hw, 1, IntMax));
  L.QueueDepth = static_cast<int>(
      envInt("CONVGEN_QUEUE_DEPTH", 2LL * L.MaxInflight, 0, IntMax));
  L.DefaultDeadlineMs = envInt("CONVGEN_DEFAULT_DEADLINE_MS", 0, 0,
                               std::numeric_limits<int64_t>::max());
  return L;
}

ConversionService::ConversionService(ServiceLimits L) : Limits(L) {
  if (Limits.MaxInflight < 1)
    Limits.MaxInflight = 1;
  if (Limits.QueueDepth < 0)
    Limits.QueueDepth = 0;
  // Warm-start hook: under CONVGEN_PRELOAD=eager|background the shared
  // PlanCache revalidates and dlopens the manifest's entries now, so the
  // first requests hit warm. One-shot per process — a second service
  // instance does not re-preload.
  PlanCache::instance().maybePreloadFromEnv();
}

ConversionService::~ConversionService() {
  // Outstanding submit() workers hold `this`; leaving before they finish
  // would be a use-after-free. Futures already handed out stay valid
  // (shared state is owned by the future/promise pair, not the service).
  std::unique_lock<std::mutex> Lock(AsyncMu);
  AsyncDrained.wait(Lock, [this] { return AsyncOutstanding == 0; });
}

ConversionService &ConversionService::instance() {
  // Leaked like PlanCache::instance(): request threads may outlive static
  // destruction in exotic shutdown orders.
  static ConversionService *S = new ConversionService();
  return *S;
}

Status ConversionService::admit(const Deadline &D) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Inflight < Limits.MaxInflight) {
    ++Inflight;
    return Status();
  }
  if (Queued >= Limits.QueueDepth) {
    Counts.Shed.fetch_add(1, std::memory_order_relaxed);
    DegradationLog::instance().record(
        Degradation::LoadShed,
        strfmt("shed at capacity (%d in flight, %d queued)", Inflight,
               Queued));
    return Status::error(
        ErrorCode::ResourceExhausted,
        strfmt("service: at capacity (%d in flight, queue of %d full); "
               "retry later",
               Limits.MaxInflight, Limits.QueueDepth));
  }
  ++Queued;
  while (Inflight >= Limits.MaxInflight) {
    if (D.infinite()) {
      SlotFreed.wait(Lock);
      continue;
    }
    if (SlotFreed.wait_until(Lock, D.timePoint()) ==
            std::cv_status::timeout &&
        Inflight >= Limits.MaxInflight) {
      --Queued;
      Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      DegradationLog::instance().record(
          Degradation::DeadlineExceeded,
          "request deadline expired in the admission queue");
      return Status::error(ErrorCode::DeadlineExceeded,
                           "service: deadline expired while queued for "
                           "admission");
    }
  }
  --Queued;
  ++Inflight;
  return Status();
}

void ConversionService::release() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    --Inflight;
  }
  SlotFreed.notify_one();
}

StatusOr<tensor::SparseTensor>
ConversionService::convert(const ConversionRequest &Request) {
  Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
  if (!Request.Input) {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Status::error(ErrorCode::InvalidArgument,
                         "service: request carries no input tensor");
  }
  int64_t Ms = Request.DeadlineMs < 0 ? Limits.DefaultDeadlineMs
                                      : Request.DeadlineMs;
  Deadline D = Ms > 0 ? Deadline::afterMillis(Ms) : Deadline::never();

  Status Admitted = admit(D);
  if (!Admitted.ok())
    return Admitted; // Shed / queue-deadline counters recorded in admit().
  struct SlotReleaser {
    ConversionService *S;
    ~SlotReleaser() { S->release(); }
  } Releaser{this};

  auto deadlineExpired = [&](const char *Where) {
    Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    DegradationLog::instance().record(
        Degradation::DeadlineExceeded,
        strfmt("%s -> %s: %s", Request.Source.Name.c_str(),
               Request.Target.Name.c_str(), Where));
    return Status::error(
        ErrorCode::DeadlineExceeded,
        strfmt("service: request deadline expired %s", Where));
  };
  if (D.expired())
    return deadlineExpired("entering execution");

  if (Request.ForceInterpreter) {
    // Oracle traffic: the Converter routes dims-specialized plans itself
    // and checks the deadline at its own phase boundaries.
    StatusOr<Converter> C =
        Converter::tryCreate(Request.Source, Request.Target, Request.Opts);
    if (!C.ok()) {
      Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
      return C.status();
    }
    StatusOr<tensor::SparseTensor> Out = C->tryRun(*Request.Input, D);
    if (!Out.ok()) {
      if (Out.status().code() == ErrorCode::DeadlineExceeded)
        Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
      else
        Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
      return Out;
    }
    Counts.Completed.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }

  // Native path. Route to the plan this input's dims and nnz call for
  // (codegen::optionsForDims: the dense-budget flip and the sorted-ranking
  // rule) up front, since a JIT handle compiled with dense ranking rejects
  // huge-dims tensors (see Jit.h); the shared cache is then keyed the same
  // way the Converter and submitBatch key it.
  codegen::Options Opts = codegen::optionsForDims(
      Request.Source, Request.Target, Request.Opts, Request.Input->Dims,
      Request.Input->storedSize());
  StatusOr<std::shared_ptr<jit::JitConversion>> Handle =
      PlanCache::instance().tryJit(Request.Source, Request.Target, Opts, "",
                                   D);
  if (!Handle.ok()) {
    if (Handle.status().code() == ErrorCode::DeadlineExceeded)
      Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    else
      Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Handle.status();
  }
  if (D.expired())
    return deadlineExpired("after plan/JIT acquisition");
  StatusOr<tensor::SparseTensor> Out = (*Handle)->tryRun(*Request.Input);
  if (!Out.ok()) {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
    return Out;
  }
  if ((*Handle)->degraded())
    Counts.DegradedRuns.fetch_add(1, std::memory_order_relaxed);
  Counts.Completed.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

std::vector<StatusOr<tensor::SparseTensor>>
ConversionService::submitBatch(const std::vector<ConversionRequest> &Requests,
                               BatchStats *Stats) {
  Counts.Batches.fetch_add(1, std::memory_order_relaxed);
  Counts.BatchRequests.fetch_add(Requests.size(),
                                 std::memory_order_relaxed);
  BatchStats Local;
  BatchStats &B = Stats ? *Stats : Local;
  B = BatchStats();
  B.Requests = Requests.size();

  // Group member indices by plan key, first-appearance order. The key is
  // the routed one (optionsForDims), exactly as convert() would key
  // the cache — two tensors whose dims land on the same assembly strategy
  // share one group and one handle. ForceInterpreter and null-input
  // requests cannot share a native handle; each is its own singleton
  // group, executed through convert().
  std::vector<std::pair<std::string, std::vector<size_t>>> Groups;
  std::map<std::string, size_t> GroupIndex;
  for (size_t I = 0; I < Requests.size(); ++I) {
    const ConversionRequest &R = Requests[I];
    if (R.ForceInterpreter || !R.Input) {
      Groups.push_back({"", {I}});
      continue;
    }
    codegen::Options Opts = codegen::optionsForDims(
        R.Source, R.Target, R.Opts, R.Input->Dims, R.Input->storedSize());
    std::string Key = planKey(R.Source, R.Target, Opts);
    auto [It, New] = GroupIndex.emplace(Key, Groups.size());
    if (New)
      Groups.push_back({Key, {}});
    Groups[It->second].second.push_back(I);
  }
  B.Groups = Groups.size();
  Counts.BatchGroups.fetch_add(Groups.size(), std::memory_order_relaxed);

  // Deadlines resolve once, at batch entry: a member's budget covers its
  // whole stay in the batch, including the members ahead of it in FIFO
  // order (that wait is exactly what the deadline is for).
  std::vector<Deadline> Deadlines(Requests.size());
  for (size_t I = 0; I < Requests.size(); ++I) {
    int64_t Ms = Requests[I].DeadlineMs < 0 ? Limits.DefaultDeadlineMs
                                            : Requests[I].DeadlineMs;
    Deadlines[I] = Ms > 0 ? Deadline::afterMillis(Ms) : Deadline::never();
  }

  std::vector<std::optional<StatusOr<tensor::SparseTensor>>> Results(
      Requests.size());
  auto NoteFailure = [&B](const Status &S) {
    if (S.code() == ErrorCode::ResourceExhausted)
      B.Shed++;
    else if (S.code() == ErrorCode::DeadlineExceeded)
      B.DeadlineExpired++;
    else
      B.RequestErrors++;
  };

  for (const auto &[Key, Members] : Groups) {
    if (Key.empty()) {
      // Singleton: convert() does all the accounting; mirror the outcome
      // into the batch breakout.
      size_t Idx = Members.front();
      StatusOr<tensor::SparseTensor> Out = convert(Requests[Idx]);
      if (Out.ok())
        B.Completed++;
      else
        NoteFailure(Out.status());
      Results[Idx] = std::move(Out);
      continue;
    }

    // One handle acquisition serves the group, bounded by the most
    // patient member (the handle outlives any single member; an impatient
    // first member must not starve the rest of the group).
    bool AnyInfinite = false;
    Deadline::Clock::time_point Latest{};
    for (size_t Idx : Members) {
      if (Deadlines[Idx].infinite())
        AnyInfinite = true;
      else if (Deadlines[Idx].timePoint() > Latest)
        Latest = Deadlines[Idx].timePoint();
    }
    Deadline GroupD =
        AnyInfinite ? Deadline::never() : Deadline::at(Latest);

    std::shared_ptr<jit::JitConversion> Handle;
    for (size_t Idx : Members) {
      const ConversionRequest &R = Requests[Idx];
      Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
      const Deadline &D = Deadlines[Idx];
      Status Admitted = admit(D);
      if (!Admitted.ok()) {
        // Shed / queue-deadline service counters recorded in admit(); the
        // member fails alone, the batch continues.
        NoteFailure(Admitted);
        Results[Idx] = Admitted;
        continue;
      }
      struct SlotReleaser {
        ConversionService *S;
        ~SlotReleaser() { S->release(); }
      } Releaser{this};

      auto deadlineExpired = [&](const char *Where) {
        Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
        B.DeadlineExpired++;
        DegradationLog::instance().record(
            Degradation::DeadlineExceeded,
            strfmt("%s -> %s: %s (batch member)", R.Source.Name.c_str(),
                   R.Target.Name.c_str(), Where));
        return Status::error(
            ErrorCode::DeadlineExceeded,
            strfmt("service: request deadline expired %s", Where));
      };
      if (D.expired()) {
        Results[Idx] = deadlineExpired("entering execution");
        continue;
      }
      if (!Handle) {
        codegen::Options Opts = codegen::optionsForDims(
            R.Source, R.Target, R.Opts, R.Input->Dims, R.Input->storedSize());
        StatusOr<std::shared_ptr<jit::JitConversion>> H =
            PlanCache::instance().tryJit(R.Source, R.Target, Opts, "",
                                         GroupD);
        if (!H.ok()) {
          if (H.status().code() == ErrorCode::DeadlineExceeded)
            Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
          else
            Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
          NoteFailure(H.status());
          Results[Idx] = H.status();
          continue; // The next member retries the acquisition.
        }
        Handle = *H;
        B.HandleAcquisitions++;
      }
      if (D.expired()) {
        Results[Idx] = deadlineExpired("after plan/JIT acquisition");
        continue;
      }
      StatusOr<tensor::SparseTensor> Out = Handle->tryRun(*R.Input);
      if (!Out.ok()) {
        Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
        NoteFailure(Out.status());
        Results[Idx] = std::move(Out);
        continue;
      }
      if (Handle->degraded()) {
        Counts.DegradedRuns.fetch_add(1, std::memory_order_relaxed);
        B.DegradedRuns++;
      }
      Counts.Completed.fetch_add(1, std::memory_order_relaxed);
      B.Completed++;
      Results[Idx] = std::move(Out);
    }
  }

  std::vector<StatusOr<tensor::SparseTensor>> Out;
  Out.reserve(Requests.size());
  for (auto &R : Results) {
    CONVGEN_ASSERT(R.has_value(), "batch member left without an outcome");
    Out.push_back(std::move(*R));
  }
  return Out;
}

std::future<StatusOr<tensor::SparseTensor>>
ConversionService::submit(ConversionRequest Request) {
  Counts.AsyncSubmitted.fetch_add(1, std::memory_order_relaxed);
  // The packaged_task owns the promise; the caller's future stays valid
  // even if the service dies right after the worker finishes. The worker
  // thread holds `this` only until it decrements AsyncOutstanding, which
  // the destructor waits on.
  auto Task = std::make_shared<
      std::packaged_task<StatusOr<tensor::SparseTensor>()>>(
      [this, Request = std::move(Request)] { return convert(Request); });
  std::future<StatusOr<tensor::SparseTensor>> Fut = Task->get_future();
  {
    std::lock_guard<std::mutex> Lock(AsyncMu);
    ++AsyncOutstanding;
  }
  std::thread([this, Task] {
    (*Task)();
    {
      std::lock_guard<std::mutex> Lock(AsyncMu);
      --AsyncOutstanding;
    }
    AsyncDrained.notify_all();
  }).detach();
  return Fut;
}

ServiceStats ConversionService::stats() const {
  ServiceStats Out;
  Out.Submitted = Counts.Submitted.load(std::memory_order_relaxed);
  Out.Completed = Counts.Completed.load(std::memory_order_relaxed);
  Out.Shed = Counts.Shed.load(std::memory_order_relaxed);
  Out.DeadlineExpired =
      Counts.DeadlineExpired.load(std::memory_order_relaxed);
  Out.DegradedRuns = Counts.DegradedRuns.load(std::memory_order_relaxed);
  Out.RequestErrors =
      Counts.RequestErrors.load(std::memory_order_relaxed);
  Out.Batches = Counts.Batches.load(std::memory_order_relaxed);
  Out.BatchRequests =
      Counts.BatchRequests.load(std::memory_order_relaxed);
  Out.BatchGroups = Counts.BatchGroups.load(std::memory_order_relaxed);
  Out.AsyncSubmitted =
      Counts.AsyncSubmitted.load(std::memory_order_relaxed);
  return Out;
}

int ConversionService::inflight() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Inflight;
}
