//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the conversion runtime, driven by the
/// CONVGEN_FAULT environment variable:
///
///   CONVGEN_FAULT=<site>[:<rate>[:<seed>]][,<site>[:<rate>[:<seed>]]...]
///
/// Sites: compile (the external JIT compile step), dlopen, dlsym (loading
/// a compiled object), cache-read (disk-cache lookup), cache-write
/// (disk-cache install), compile-hang (the compiler child hangs until the
/// watchdog kills it). Rate is a probability in [0,1], default 1 (always
/// fails); seed makes the per-site Bernoulli stream reproducible.
///
/// The variable is re-read on every query (the same convention as the
/// other CONVGEN_* knobs), so tests can scope injection with ScopedEnv.
/// Each successful injection is counted; the fault-injection test suite
/// reconciles these counts against the DegradationLog so every injected
/// fault is provably observed and survived by the runtime.
///
/// Malformed clauses are diagnosed once on stderr and ignored — a fault
/// harness must not introduce a new way to die.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_SUPPORT_FAULT_H
#define CONVGEN_SUPPORT_FAULT_H

#include "support/Status.h"

#include <cstdint>
#include <string>

namespace convgen {
namespace support {

enum class FaultSite {
  Compile = 0,
  Dlopen,
  Dlsym,
  CacheRead,
  CacheWrite,
  /// The external compiler child hangs instead of compiling; only drawn
  /// when a compile-wait bound is in force (CONVGEN_COMPILE_TIMEOUT_MS or
  /// a request deadline), so the watchdog's SIGKILL path — not an
  /// unbounded stall — is what the injection exercises.
  CompileHang,
};
constexpr int kNumFaultSites = 6;

/// The spelling used in CONVGEN_FAULT ("compile", "cache-read", ...).
const char *faultSiteName(FaultSite Site);

/// True when CONVGEN_FAULT is set and nonempty (used by tests that assert
/// strict native-execution behavior to skip under injection).
bool faultsConfigured();

/// Draws at \p Site: true when an injected failure should occur now.
/// Always false when CONVGEN_FAULT does not name the site.
bool faultInjected(FaultSite Site);

/// Number of injections delivered at \p Site since process start (or the
/// last resetFaultCounters).
uint64_t faultInjectionCount(FaultSite Site);

/// Sum of faultInjectionCount over all sites.
uint64_t faultInjectionTotal();

/// Zeroes the injection counters (tests).
void resetFaultCounters();

/// Strict parser for the CONVGEN_FAULT grammar, exposed for tests; the
/// runtime itself warns and skips malformed clauses instead of failing.
Status parseFaultSpec(const std::string &Spec);

} // namespace support
} // namespace convgen

#endif // CONVGEN_SUPPORT_FAULT_H
