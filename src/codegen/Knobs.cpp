//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/Knobs.h"

#include <atomic>
#include <cstdlib>
#include <string>

using namespace convgen;
using namespace convgen::codegen;

namespace {

/// The published snapshot. Never deleted: readers hold plain references
/// with no lifetime token, so a superseded snapshot must outlive any
/// thread that loaded it. reloadKnobsFromEnv() is a test-only hook — the
/// leak is a handful of ~64-byte structs per test binary, by design.
std::atomic<const StrategyKnobs *> Current{nullptr};

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

const StrategyKnobs *parseFromEnv() {
  auto *K = new StrategyKnobs();
  K->RankDenseMaxBytes = parseInt("CONVGEN_RANK_DENSE_MAX_BYTES",
                                  K->RankDenseMaxBytes, true);
  if (const char *Env = std::getenv("CONVGEN_PLANNER")) {
    std::string V = Env;
    K->PlannerOn = !(V == "off" || V == "0");
  }
  K->PlannerMinNnz =
      parseInt("CONVGEN_PLANNER_MIN_NNZ", K->PlannerMinNnz, false);
  K->PlannerTrustAfter =
      parseInt("CONVGEN_PLANNER_TRUST_AFTER", K->PlannerTrustAfter, true);
  if (const char *Env = std::getenv("CONVGEN_PLANNER_MARGIN")) {
    char *End = nullptr;
    double V = std::strtod(Env, &End);
    if (End != Env && *End == '\0' && V >= 0 && V < 1)
      K->PlannerMargin = V;
  }
  return K;
}

} // namespace

const StrategyKnobs &codegen::knobs() {
  const StrategyKnobs *K = Current.load(std::memory_order_acquire);
  if (K)
    return *K;
  // First use: parse and publish. A racing first use may parse too; one
  // snapshot wins the CAS, the loser's copy is freed (both parsed the same
  // environment, so either is correct).
  const StrategyKnobs *Fresh = parseFromEnv();
  const StrategyKnobs *Expected = nullptr;
  if (Current.compare_exchange_strong(Expected, Fresh,
                                      std::memory_order_acq_rel))
    return *Fresh;
  delete Fresh;
  return *Expected;
}

void codegen::reloadKnobsFromEnv() {
  // The superseded snapshot is leaked, never freed: a concurrent reader
  // that loaded it before the swap may still be dereferencing it.
  Current.store(parseFromEnv(), std::memory_order_release);
}
