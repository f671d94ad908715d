//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/DegradationLog.h"

#include "support/StringUtils.h"

#include <atomic>
#include <mutex>

using namespace convgen;
using namespace convgen::support;

const char *support::degradationName(Degradation Kind) {
  switch (Kind) {
  case Degradation::JitCompileFailure:
    return "jit-compile-failure";
  case Degradation::JitLoadFailure:
    return "jit-load-failure";
  case Degradation::JitRetry:
    return "jit-retry";
  case Degradation::InterpreterFallback:
    return "interpreter-fallback";
  case Degradation::CacheChecksumEviction:
    return "cache-checksum-eviction";
  case Degradation::CacheReadFailure:
    return "cache-read-failure";
  case Degradation::CacheWriteFailure:
    return "cache-write-failure";
  case Degradation::AllocProbeFailure:
    return "alloc-probe-failure";
  case Degradation::CompileTimeout:
    return "compile-timeout";
  case Degradation::DeadlineExceeded:
    return "deadline-exceeded";
  case Degradation::LoadShed:
    return "load-shed";
  case Degradation::SingleFlightCoalesce:
    return "single-flight-coalesce";
  case Degradation::PreloadEviction:
    return "preload-evict";
  case Degradation::PreloadHit:
    return "preload-hit";
  }
  return "unknown";
}

struct DegradationLog::Impl {
  std::atomic<uint64_t> Counts[kNumDegradations] = {};
  mutable std::mutex Mu;
  std::string Details[kNumDegradations];
};

DegradationLog::Impl &DegradationLog::impl() const {
  static Impl I;
  return I;
}

DegradationLog &DegradationLog::instance() {
  static DegradationLog Log;
  return Log;
}

void DegradationLog::record(Degradation Kind, const std::string &Detail) {
  Impl &I = impl();
  I.Counts[static_cast<int>(Kind)].fetch_add(1, std::memory_order_relaxed);
  if (!Detail.empty()) {
    std::lock_guard<std::mutex> Lock(I.Mu);
    I.Details[static_cast<int>(Kind)] = Detail;
  }
}

DegradationCounters DegradationLog::snapshot() const {
  Impl &I = impl();
  DegradationCounters Out;
  for (int K = 0; K < kNumDegradations; ++K)
    Out.Counts[K] = I.Counts[K].load(std::memory_order_relaxed);
  return Out;
}

std::string DegradationLog::lastDetail(Degradation Kind) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Details[static_cast<int>(Kind)];
}

std::string DegradationLog::summary() const {
  DegradationCounters C = snapshot();
  std::string Out;
  for (int K = 0; K < kNumDegradations; ++K) {
    if (C.Counts[K] == 0)
      continue;
    if (!Out.empty())
      Out += " ";
    Out += strfmt("%s=%llu", degradationName(static_cast<Degradation>(K)),
                  static_cast<unsigned long long>(C.Counts[K]));
  }
  return Out.empty() ? "none" : Out;
}

void DegradationLog::reset() {
  Impl &I = impl();
  for (auto &C : I.Counts)
    C.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (auto &D : I.Details)
    D.clear();
}
