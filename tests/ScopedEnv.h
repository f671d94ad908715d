//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared RAII environment override for the test suite: sets a variable
/// for the scope and restores the previous value (or unsets) on exit. The
/// planning knobs (CONVGEN_RANK_DENSE_MAX_BYTES, CONVGEN_PLANNER*) are
/// snapshotted once into a thread-safe config object rather than re-read
/// per call — getenv racing setenv is undefined behavior under threads —
/// so the constructor and destructor reload the snapshot explicitly.
/// Cache/JIT settings (CONVGEN_CACHE_DIR, CONVGEN_CC, ...) are still read
/// at their use sites and need no reload.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_TESTS_SCOPEDENV_H
#define CONVGEN_TESTS_SCOPEDENV_H

#include "codegen/Knobs.h"

#include <cstdlib>
#include <string>

namespace convgen {
namespace testing {

class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Had = true;
      Saved = Old;
    }
    setenv(Name, Value.c_str(), 1);
    codegen::reloadKnobsFromEnv();
  }
  ~ScopedEnv() {
    if (Had)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
    codegen::reloadKnobsFromEnv();
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::string Saved;
  bool Had = false; ///< Distinguishes set-but-empty from unset.
};

} // namespace testing
} // namespace convgen

#endif // CONVGEN_TESTS_SCOPEDENV_H
