//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Fault.h"

#include "support/StringUtils.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <set>

using namespace convgen;
using namespace convgen::support;

const char *support::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Compile:
    return "compile";
  case FaultSite::Dlopen:
    return "dlopen";
  case FaultSite::Dlsym:
    return "dlsym";
  case FaultSite::CacheRead:
    return "cache-read";
  case FaultSite::CacheWrite:
    return "cache-write";
  case FaultSite::CompileHang:
    return "compile-hang";
  }
  return "unknown";
}

namespace {

bool faultSiteFromName(const std::string &Name, FaultSite *Out) {
  for (int S = 0; S < kNumFaultSites; ++S) {
    FaultSite Site = static_cast<FaultSite>(S);
    if (Name == faultSiteName(Site)) {
      *Out = Site;
      return true;
    }
  }
  return false;
}

struct SiteConfig {
  bool Active = false;
  double Rate = 1.0;
  std::mt19937_64 Rng;
};

/// One clause of the spec, parsed. Returns a non-OK status (never aborts)
/// on grammar violations.
Status parseClause(const std::string &Clause, FaultSite *Site, double *Rate,
                   uint64_t *Seed, bool *HaveSeed) {
  std::vector<std::string> Parts = split(Clause, ':');
  if (Parts.empty() || trim(Parts[0]).empty())
    return Status::error(ErrorCode::InvalidArgument,
                         "empty fault clause in '" + Clause + "'");
  if (Parts.size() > 3)
    return Status::error(ErrorCode::InvalidArgument,
                         "fault clause has more than site:rate:seed fields: " +
                             Clause);
  if (!faultSiteFromName(trim(Parts[0]), Site))
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown fault site '" + trim(Parts[0]) +
                             "' (sites: compile, dlopen, dlsym, cache-read, "
                             "cache-write, compile-hang)");
  *Rate = 1.0;
  *HaveSeed = false;
  if (Parts.size() >= 2) {
    const std::string RateTok = trim(Parts[1]);
    char *End = nullptr;
    errno = 0;
    double R = std::strtod(RateTok.c_str(), &End);
    if (RateTok.empty() || *End != '\0' || errno == ERANGE || R < 0.0 ||
        R > 1.0)
      return Status::error(ErrorCode::InvalidArgument,
                           "fault rate must be in [0,1]: " + Clause);
    *Rate = R;
  }
  if (Parts.size() == 3) {
    const std::string SeedTok = trim(Parts[2]);
    char *End = nullptr;
    errno = 0;
    uint64_t S = std::strtoull(SeedTok.c_str(), &End, 0);
    if (SeedTok.empty() || *End != '\0' || errno == ERANGE)
      return Status::error(ErrorCode::InvalidArgument,
                           "fault seed must be an integer: " + Clause);
    *Seed = S;
    *HaveSeed = true;
  }
  return Status();
}

/// Process-wide injector. The env string is re-read per query; a changed
/// string reparses the configuration and reseeds the per-site streams
/// (counters persist across reconfiguration so tests can total them).
class Injector {
public:
  static Injector &instance() {
    static Injector I;
    return I;
  }

  bool injected(FaultSite Site) {
    const char *Env = std::getenv("CONVGEN_FAULT");
    if (!Env || !*Env)
      return false;
    std::lock_guard<std::mutex> Lock(Mu);
    refreshLocked(Env);
    SiteConfig &C = Sites[static_cast<int>(Site)];
    if (!C.Active)
      return false;
    // 53-bit uniform draw in [0,1); rate 1 always fires, rate 0 never.
    double U = static_cast<double>(C.Rng() >> 11) *
               (1.0 / 9007199254740992.0);
    if (U >= C.Rate)
      return false;
    Counts[static_cast<int>(Site)].fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  uint64_t count(FaultSite Site) const {
    return Counts[static_cast<int>(Site)].load(std::memory_order_relaxed);
  }

  void resetCounts() {
    for (auto &C : Counts)
      C.store(0, std::memory_order_relaxed);
  }

private:
  void refreshLocked(const char *Env) {
    if (Env == Cached)
      return;
    Cached = Env;
    for (SiteConfig &C : Sites)
      C = SiteConfig();
    for (const std::string &Clause : split(Cached, ',')) {
      if (trim(Clause).empty())
        continue;
      FaultSite Site;
      double Rate;
      uint64_t Seed = 0;
      bool HaveSeed;
      Status S = parseClause(trim(Clause), &Site, &Rate, &Seed, &HaveSeed);
      if (!S.ok()) {
        // Warn once per distinct bad clause; a fault harness must not be
        // a new way to die.
        if (Warned.insert(trim(Clause)).second)
          std::fprintf(stderr, "convgen: ignoring CONVGEN_FAULT clause: %s\n",
                       S.message().c_str());
        continue;
      }
      SiteConfig &C = Sites[static_cast<int>(Site)];
      C.Active = true;
      C.Rate = Rate;
      C.Rng.seed(HaveSeed ? Seed
                          : 0x5eedfa0175ull + static_cast<uint64_t>(Site));
    }
  }

  std::mutex Mu;
  std::string Cached;
  SiteConfig Sites[kNumFaultSites];
  std::atomic<uint64_t> Counts[kNumFaultSites] = {};
  std::set<std::string> Warned;
};

} // namespace

bool support::faultsConfigured() {
  const char *Env = std::getenv("CONVGEN_FAULT");
  return Env && *Env;
}

bool support::faultInjected(FaultSite Site) {
  return Injector::instance().injected(Site);
}

uint64_t support::faultInjectionCount(FaultSite Site) {
  return Injector::instance().count(Site);
}

uint64_t support::faultInjectionTotal() {
  uint64_t Total = 0;
  for (int S = 0; S < kNumFaultSites; ++S)
    Total += faultInjectionCount(static_cast<FaultSite>(S));
  return Total;
}

void support::resetFaultCounters() { Injector::instance().resetCounts(); }

Status support::parseFaultSpec(const std::string &Spec) {
  if (trim(Spec).empty())
    return Status::error(ErrorCode::InvalidArgument, "empty fault spec");
  for (const std::string &Clause : split(Spec, ',')) {
    FaultSite Site;
    double Rate;
    uint64_t Seed;
    bool HaveSeed;
    Status S = parseClause(trim(Clause), &Site, &Rate, &Seed, &HaveSeed);
    if (!S.ok())
      return S;
  }
  return Status();
}
