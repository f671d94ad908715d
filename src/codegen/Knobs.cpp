//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/Knobs.h"

#include <atomic>
#include <cstdlib>

using namespace convgen;
using namespace convgen::codegen;

namespace {

/// A published snapshot and the one it superseded. Snapshots are never
/// freed: readers hold plain references with no lifetime token, so a
/// superseded snapshot must outlive any thread that loaded it. Chaining
/// each to its predecessor keeps them all reachable from Current, so leak
/// checkers see no orphan. reloadKnobsFromEnv() is a test-only hook; the
/// chain grows by one small struct per reload.
struct Snapshot {
  StrategyKnobs Knobs;
  const Snapshot *Previous = nullptr;
};

std::atomic<const Snapshot *> Current{nullptr};

int64_t parseInt(const char *Name, int64_t Default, bool RequirePositive) {
  const char *Env = std::getenv(Name);
  if (!Env)
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(Env, &End, 10);
  if (End == Env || *End != '\0')
    return Default;
  if (RequirePositive && V <= 0)
    return Default;
  return static_cast<int64_t>(V);
}

Snapshot *parseFromEnv() {
  auto *S = new Snapshot();
  S->Knobs.RankDenseMaxBytes = parseInt("CONVGEN_RANK_DENSE_MAX_BYTES",
                                        S->Knobs.RankDenseMaxBytes, true);
  return S;
}

} // namespace

const StrategyKnobs &codegen::knobs() {
  const Snapshot *S = Current.load(std::memory_order_acquire);
  if (S)
    return S->Knobs;
  // First use: parse and publish. A racing first use may parse too; one
  // snapshot wins the CAS, the loser's copy is freed (both parsed the same
  // environment, so either is correct).
  Snapshot *Fresh = parseFromEnv();
  const Snapshot *Expected = nullptr;
  if (Current.compare_exchange_strong(Expected, Fresh,
                                      std::memory_order_acq_rel))
    return Fresh->Knobs;
  delete Fresh;
  return Expected->Knobs;
}

void codegen::reloadKnobsFromEnv() {
  // The superseded snapshot stays alive, linked from the fresh one: a
  // concurrent reader that loaded it before the swap may still be
  // dereferencing it.
  Snapshot *Fresh = parseFromEnv();
  const Snapshot *Old = Current.load(std::memory_order_acquire);
  do
    Fresh->Previous = Old;
  while (!Current.compare_exchange_weak(Old, Fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire));
}
