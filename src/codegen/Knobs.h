//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread-safe snapshot of every CONVGEN_* strategy knob. The codegen
/// and JIT layers used to call getenv() per decision, which races against
/// setenv() from test fixtures when service threads plan concurrently
/// (getenv/setenv are not thread-safe as a pair). All strategy knobs are
/// now parsed once into an immutable StrategyKnobs snapshot that every
/// call site reads through knobs(); reloadKnobsFromEnv() swaps in a fresh
/// snapshot for tests that scope the environment (tests/ScopedEnv.h calls
/// it automatically).
///
/// Scope: only the knobs that feed planning decisions live here, and
/// today that is the dense-ranking byte budget alone. There is no
/// per-strategy override: which list-construction and sort lowering a
/// level uses follows from the formats, the input extents and nnz
/// (codegen::planAssembly and codegen::optionsForDims, whose
/// sorted-ranking ratio is a constant, not a knob). Operational settings
/// (cache directories, fault injection, deadlines, preload mode) keep
/// their per-use getenv reads — they are read from single-threaded setup
/// paths or are themselves snapshotted at construction.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_CODEGEN_KNOBS_H
#define CONVGEN_CODEGEN_KNOBS_H

#include <cstdint>

namespace convgen {
namespace codegen {

/// The planning-knob snapshot. Field defaults are the unset-environment
/// values; parsing rules per field are in the field docs below and in
/// README's knob table.
struct StrategyKnobs {
  /// CONVGEN_RANK_DENSE_MAX_BYTES: byte budget for dense per-level ranking
  /// structures; non-positive or unparsable values keep the default.
  int64_t RankDenseMaxBytes = int64_t(64) << 20;
};

/// The current snapshot. First use parses the environment once; after
/// that every call is a single atomic load. The reference stays valid for
/// the process lifetime even across reloadKnobsFromEnv() (superseded
/// snapshots are never freed, so concurrent readers never dangle).
const StrategyKnobs &knobs();

/// Re-parses every strategy knob from the environment and publishes the
/// fresh snapshot. Test-only reset hook: production processes configure
/// the environment before first use and never call this. Callers already
/// holding a `const StrategyKnobs &` keep their old (still valid)
/// snapshot; new knobs() calls see the new one.
void reloadKnobsFromEnv();

} // namespace codegen
} // namespace convgen

#endif // CONVGEN_CODEGEN_KNOBS_H
