//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ConversionService.h"

#include "convert/PlanCache.h"
#include "jit/Jit.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>

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

StatusOr<tensor::SparseTensor>
ConversionService::convert(const ConversionRequest &Request) {
  Counts.Submitted.fetch_add(1, std::memory_order_relaxed);
  int64_t Ms =
      Request.DeadlineMs < 0 ? Limits.DefaultDeadlineMs : Request.DeadlineMs;
  const Deadline D = Ms > 0 ? Deadline::afterMillis(Ms) : Deadline::never();
  bool Degraded = false;
  StatusOr<tensor::SparseTensor> Out = [&]() -> StatusOr<tensor::SparseTensor> {
    if (!Request.Input)
      return Status::error(ErrorCode::InvalidArgument,
                           "service: request carries no input tensor");
    // The request is keyed and compiled under its own options routed to the
    // plan its input's dims and nnz call for (codegen::optionsForDims: the
    // dense-budget flip and the sorted-ranking rule), since a JIT handle
    // compiled with dense ranking rejects huge-dims tensors (see Jit.h).
    codegen::Options Opts = codegen::optionsForDims(
        Request.Source, Request.Target, Request.Opts, Request.Input->Dims,
        Request.Input->storedSize());
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
          strfmt("%s -> %s: %s", Request.Source.Name.c_str(),
                 Request.Target.Name.c_str(), Where));
      return Status::error(
          ErrorCode::DeadlineExceeded,
          strfmt("service: request deadline expired %s", Where));
    };
    if (D.expired())
      return deadlineExpired("entering execution");
    StatusOr<std::shared_ptr<jit::JitConversion>> Handle =
        PlanCache::instance().tryJit(Request.Source, Request.Target, Opts, D);
    if (!Handle.ok())
      return Handle.status();
    if (D.expired())
      return deadlineExpired("after plan/JIT acquisition");
    Degraded = (*Handle)->degraded();
    return (*Handle)->tryRun(*Request.Input);
  }();

  // The one outcome-to-counter mapping: each request lands in exactly one
  // of Completed / Shed / DeadlineExpired / RequestErrors.
  ErrorCode Code = Out.status().code();
  if (Out.ok()) {
    if (Degraded)
      Counts.DegradedRuns.fetch_add(1, std::memory_order_relaxed);
    Counts.Completed.fetch_add(1, std::memory_order_relaxed);
  } else if (Code == ErrorCode::ResourceExhausted) {
    Counts.Shed.fetch_add(1, std::memory_order_relaxed);
  } else if (Code == ErrorCode::DeadlineExceeded) {
    Counts.DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
  } else {
    Counts.RequestErrors.fetch_add(1, std::memory_order_relaxed);
  }
  return Out;
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
  return Out;
}

int ConversionService::inflight() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Inflight;
}
