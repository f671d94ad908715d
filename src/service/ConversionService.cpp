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
#include "support/Fault.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <system_error>
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
}

ConversionService::~ConversionService() {
  // Outstanding submit() workers hold `this`; leaving before they finish
  // would be a use-after-free. Futures already handed out stay valid
  // (shared state is owned by the future/promise pair, not the service).
  std::unique_lock<std::mutex> Lock(AsyncMu);
  AsyncDrained.wait(Lock, [this] { return AsyncOutstanding == 0; });
}

Status ConversionService::admit(const Deadline &D) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Inflight < Limits.MaxInflight) {
    ++Inflight;
    return Status();
  }
  if (Queued >= Limits.QueueDepth) {
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

Deadline ConversionService::resolveDeadline(int64_t DeadlineMs) const {
  int64_t Ms = DeadlineMs < 0 ? Limits.DefaultDeadlineMs : DeadlineMs;
  return Ms > 0 ? Deadline::afterMillis(Ms) : Deadline::never();
}

/// The options a native request is keyed and compiled under: its own,
/// routed to the plan its input's dims and nnz call for
/// (codegen::optionsForDims: the dense-budget flip and the sorted-ranking
/// rule), since a JIT handle compiled with dense ranking rejects huge-dims
/// tensors (see Jit.h). ForceInterpreter requests keep their own (the
/// Converter routes itself), as do malformed ones without input.
static codegen::Options routedOptions(const ConversionRequest &Request) {
  if (Request.ForceInterpreter || !Request.Input)
    return Request.Opts;
  return codegen::optionsForDims(Request.Source, Request.Target, Request.Opts,
                                 Request.Input->Dims,
                                 Request.Input->storedSize());
}

StatusOr<tensor::SparseTensor>
ConversionService::execute(const ConversionRequest &Request, const Deadline &D,
                           const codegen::Options &Opts, BatchGroup *Group) {
  Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
  bool Degraded = false;
  StatusOr<tensor::SparseTensor> Out = [&]() -> StatusOr<tensor::SparseTensor> {
    if (!Request.Input)
      return Status::error(ErrorCode::InvalidArgument,
                           "service: request carries no input tensor");
    Status Admitted = admit(D);
    if (!Admitted.ok())
      return Admitted;
    struct SlotReleaser {
      ConversionService *S;
      ~SlotReleaser() { S->release(); }
    } Releaser{this};

    auto deadlineExpired = [&](const char *Where) {
      DegradationLog::instance().record(
          Degradation::DeadlineExceeded,
          strfmt("%s -> %s: %s%s", Request.Source.Name.c_str(),
                 Request.Target.Name.c_str(), Where,
                 Group ? " (batch member)" : ""));
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
      if (!C.ok())
        return C.status();
      return C->tryRun(*Request.Input, D);
    }

    // A group member reuses the handle an earlier member acquired; a failed
    // acquisition is retried by the next member.
    std::shared_ptr<jit::JitConversion> Handle =
        Group ? Group->Handle : nullptr;
    if (!Handle) {
      StatusOr<std::shared_ptr<jit::JitConversion>> H =
          PlanCache::instance().tryJit(Request.Source, Request.Target, Opts,
                                       Group ? Group->AcquireBy : D);
      if (!H.ok())
        return H.status();
      Handle = H.take();
      if (Group) {
        Group->Handle = Handle;
        Group->Stats->HandleAcquisitions++;
      }
    }
    if (D.expired())
      return deadlineExpired("after plan/JIT acquisition");
    Degraded = Handle->degraded();
    return Handle->tryRun(*Request.Input);
  }();

  // The one outcome-to-counter mapping: each request lands in exactly one
  // of Completed / Shed / DeadlineExpired / RequestErrors, in the service
  // counters and, for a batch member, in its batch's breakout.
  auto Bump = [Group](std::atomic<uint64_t> &Counter,
                      uint64_t BatchStats::*Field) {
    Counter.fetch_add(1, std::memory_order_relaxed);
    if (Group)
      ++(Group->Stats->*Field);
  };
  ErrorCode Code = Out.status().code();
  if (Out.ok()) {
    if (Degraded)
      Bump(Counts.DegradedRuns, &BatchStats::DegradedRuns);
    Bump(Counts.Completed, &BatchStats::Completed);
  } else if (Code == ErrorCode::ResourceExhausted) {
    Bump(Counts.Shed, &BatchStats::Shed);
  } else if (Code == ErrorCode::DeadlineExceeded) {
    Bump(Counts.DeadlineExpired, &BatchStats::DeadlineExpired);
  } else {
    Bump(Counts.RequestErrors, &BatchStats::RequestErrors);
  }
  return Out;
}

StatusOr<tensor::SparseTensor>
ConversionService::convert(const ConversionRequest &Request) {
  return execute(Request, resolveDeadline(Request.DeadlineMs),
                 routedOptions(Request), nullptr);
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

  // Deadlines resolve once, at batch entry, for every member: a member's
  // budget covers its whole stay in the batch, including the members ahead
  // of it (that wait is exactly what the deadline is for). Members group
  // by the routed plan key in first-appearance order, exactly as convert()
  // keys the cache, so tensors whose dims land on the same assembly
  // strategy share one handle. ForceInterpreter and null-input requests
  // cannot share a native handle; each is its own singleton group.
  std::vector<Deadline> Deadlines;
  std::vector<codegen::Options> Opts;
  std::vector<std::vector<size_t>> Groups;
  std::map<std::string, size_t> GroupIndex;
  for (size_t I = 0; I < Requests.size(); ++I) {
    const ConversionRequest &R = Requests[I];
    Deadlines.push_back(resolveDeadline(R.DeadlineMs));
    Opts.push_back(routedOptions(R));
    if (R.ForceInterpreter || !R.Input) {
      Groups.push_back({I});
      continue;
    }
    auto [It, New] = GroupIndex.emplace(
        planKey(R.Source, R.Target, Opts.back()), Groups.size());
    if (New)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }
  B.Groups = Groups.size();
  Counts.BatchGroups.fetch_add(Groups.size(), std::memory_order_relaxed);

  std::vector<StatusOr<tensor::SparseTensor>> Results(
      Requests.size(),
      Status::error(ErrorCode::Internal, "batch member never executed"));
  for (const std::vector<size_t> &Members : Groups) {
    // The group's one acquisition is bounded by its most patient member.
    BatchGroup Group{Deadlines[Members.front()], nullptr, &B};
    for (size_t Idx : Members)
      if (!Group.AcquireBy.infinite() &&
          (Deadlines[Idx].infinite() ||
           Deadlines[Idx].timePoint() > Group.AcquireBy.timePoint()))
        Group.AcquireBy = Deadlines[Idx];
    for (size_t Idx : Members)
      Results[Idx] = execute(Requests[Idx], Deadlines[Idx], Opts[Idx], &Group);
  }
  return Results;
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
  auto Finished = [this] {
    // Notify under the lock: once the destructor sees zero it destroys the
    // condition variable, so the worker must be done with it by then.
    std::lock_guard<std::mutex> Lock(AsyncMu);
    --AsyncOutstanding;
    AsyncDrained.notify_all();
  };
  {
    std::lock_guard<std::mutex> Lock(AsyncMu);
    ++AsyncOutstanding;
  }
  try {
    if (support::faultInjected(support::FaultSite::ThreadSpawn))
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "injected thread-spawn fault");
    std::thread([Task, Finished] {
      (*Task)();
      Finished();
    }).detach();
  } catch (const std::system_error &E) {
    // No worker will ever run the task or drop the count: undo both here,
    // and shed the request instead of leaking the exception.
    Finished();
    Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
    Counts.Shed.fetch_add(1, std::memory_order_relaxed);
    DegradationLog::instance().record(
        Degradation::LoadShed,
        strfmt("submit: cannot start a worker thread (%s)", E.what()));
    std::promise<StatusOr<tensor::SparseTensor>> Shed;
    Shed.set_value(Status::error(
        ErrorCode::ResourceExhausted,
        strfmt("service: cannot start a worker thread (%s); retry later",
               E.what())));
    return Shed.get_future();
  }
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
