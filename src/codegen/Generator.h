//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conversion code generator: combines a source format's iteration
/// level functions with a target format's coordinate remapping, attribute
/// queries, and assembly level functions to emit a complete conversion
/// routine (paper §3, §6.2). The emitted function has the three logical
/// phases of Figure 6 — analysis (fused attribute-query sweeps), per-level
/// initialization/edge insertion, and a single fused coordinate-insertion
/// pass over the source — plus finalizers and output yields.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_CODEGEN_GENERATOR_H
#define CONVGEN_CODEGEN_GENERATOR_H

#include "codegen/Knobs.h"
#include "formats/Format.h"
#include "ir/IR.h"
#include "query/Cin.h"

#include <cstdint>
#include <string>
#include <vector>

namespace convgen {
namespace codegen {

/// Generation options; the defaults reproduce the paper's technique, the
/// toggles drive the ablation studies.
struct Options {
  /// Apply the Table 1 attribute-query optimizations (§5.2).
  bool OptimizeQueries = true;
  /// Reuse a scalar for counters whose index variables are bound by the
  /// source's ordered outer loops (§4.2); otherwise counter arrays.
  bool CounterReuse = true;
  /// Use unsequenced edge insertion (scatter + prefix sum) even where the
  /// sequenced variant applies (§6.1); exercised by tests/ablations.
  bool ForceUnseqEdges = false;
  /// Materialize remapped coordinates in a separate pre-pass instead of
  /// fusing remapping into assembly (§3's discussion of complex orderings).
  bool MaterializeRemap = false;
  /// The input tensor's dimension sizes, when known at plan time. Drives
  /// the size-based assembly strategy selection: levels whose dense rank
  /// array / query buffers would exceed rankDenseMaxBytes() switch to the
  /// O(nnz)-memory sorted-ranking strategy (or the pair is rejected with a
  /// size-grounds diagnostic when that fallback does not apply). Leave
  /// empty for the extent-independent default plan; use optionsForDims()
  /// to populate it only when the dims actually change the plan, so small
  /// tensors keep sharing one cached plan per pair.
  std::vector<int64_t> DimsHint;

  /// Put every eligible compressed level on the O(nnz) sorted-ranking
  /// strategy even under the dense-footprint budget (the "direct+sorted"
  /// plan optionsForDims() picks when a dense rank array dwarfs nnz).
  /// planAssembly() reports Unsupported with a specific diagnostic when a
  /// level fails the strategy's preconditions instead of silently keeping
  /// dense ranking. Participates in plan keys and JIT compile flags, so a
  /// forced plan can never alias the default plan's cached object. Forced
  /// plans are excluded from the warm-start manifest (its compact option
  /// encoding carries only the paper-ablation bits).
  bool ForceSortedRanking = false;
};

/// Per-level assembly strategy decisions plus the support verdict for a
/// conversion pair, exactly as the generator will apply them. Exposed so
/// tests can pin which strategy planAssembly picks at/below/above the size
/// threshold and so runtimes can detect when a tensor's dims require a
/// dims-specific plan.
struct AssemblyPlan {
  std::vector<bool> Dedup;  ///< Compressed level needs dedup insertion.
  std::vector<bool> Ranked; ///< Dedup is the ranked (dense rank-array)
                            ///< variant; see levels::LevelFormat::create.
  /// Level uses the sorted-ranking strategy: O(nnz) tuple sort + binary
  /// search positions instead of dense rank arrays / query buffers, chosen
  /// when the dense footprint would exceed rankDenseMaxBytes().
  std::vector<bool> Sorted;
  /// Nonzero when two or more levels sort: this (1-based) level — the
  /// deepest, full-arity one — anchors a single shared collect+sort+unique
  /// that every other sorted level derives its list from by prefix
  /// compaction (validated formats store dimension K at level K, so the
  /// grouping tuples nest). 0 when at most one level sorts (it builds its
  /// own list).
  int SharedSortAnchor = 0;
  /// Sorted levels lower their tuple sorts through the packed-key radix
  /// sort: every destination extent is known, the full-order coordinate
  /// tuple packs into one uint64_t (sum of per-dim ceil(log2(extent))
  /// widths <= 64). Otherwise they merge-sort. The sorted output is the
  /// identical pure function of the input either way, so results never
  /// depend on the bit.
  bool PackedSort = false;
  /// PackedSort only: the per-destination-dim bit widths (dimension
  /// order); empty otherwise.
  std::vector<int64_t> PackWidths;
  /// Per level: entries of the dense rank array a ranked level allocates
  /// at the hinted dims (the product of its grouping extents, the figure
  /// its byte footprint is estimated from); -1 when the level does not
  /// rank densely or an extent is unknown.
  std::vector<int64_t> RankSpace;
  /// Leading source levels whose lexicographic order the sequenced dedup
  /// workspace trusts but the source format cannot guarantee structurally;
  /// the converter validates them at run time. 0 when no check is needed.
  int LexCheckLevels = 0;
  std::string Unsupported; ///< Nonempty: human-readable reason.

  bool anySorted() const {
    for (bool S : Sorted)
      if (S)
        return true;
    return false;
  }
};

/// Computes the assembly plan for a pair, optionally specialized to the
/// input tensor's dimension sizes (\p Dims empty or of the wrong arity
/// means "unknown extents": every dense-footprint check passes and the
/// extent-independent default plan results). A format that fails
/// formats::checkFormat comes back Unsupported with its diagnostic.
AssemblyPlan planAssembly(const formats::Format &Source,
                          const formats::Format &Target,
                          const std::vector<int64_t> &Dims = {});

/// Options-aware variant: reads the dims hint *and* the
/// ForceSortedRanking field from \p Opts. The three-argument overload is
/// equivalent to default options with DimsHint = Dims.
AssemblyPlan planAssembly(const formats::Format &Source,
                          const formats::Format &Target,
                          const Options &Opts);

/// Byte budget for dense per-level ranking structures (rank arrays,
/// presence bit sets, grouped query buffers): levels whose estimated
/// footprint exceeds it take the sorted-ranking fallback. Reads the
/// CONVGEN_RANK_DENSE_MAX_BYTES snapshot (knobs(); tests vary it through
/// ScopedEnv, which reloads the snapshot); defaults to 64 MiB.
int64_t rankDenseMaxBytes();

/// The sorted-ranking rule's ratio: a ranked level whose dense rank array
/// has more than kSortedRankRatio entries per stored input value runs
/// faster on the O(nnz) sorted-ranking strategy, since initializing and
/// scanning the array then costs more than sorting the nonzeros.
/// Calibrated on the JIT (see CHANGES.md).
constexpr int64_t kSortedRankRatio = 5;

/// The sorted-ranking rule's floor: inputs with fewer stored values keep
/// the default plan. The sorted routine is a second compiled object per
/// shape, about a second of compile, which conversions this small (about
/// a millisecond on either plan) do not win back.
constexpr int64_t kSortedRankMinNnz = 4096;

/// The one routing function every conversion runner calls per request.
/// Returns \p Opts specialized to an input with these \p Dims and \p Nnz
/// stored values (-1: unknown, which turns the sorted-ranking rule off):
///  * ForceSortedRanking is set when Nnz is at least kSortedRankMinNnz,
///    some ranked level's RankSpace exceeds kSortedRankRatio * Nnz, and
///    the sorted plan is supported;
///  * DimsHint is populated iff the resulting plan depends on the dims (a
///    sorted level or a size-grounds rejection), and cleared otherwise so
///    callers share the default cached plan.
/// \p Why (optional) receives the rule's verdict with its numbers.
Options optionsForDims(const formats::Format &Source,
                       const formats::Format &Target, const Options &Opts,
                       const std::vector<int64_t> &Dims, int64_t Nnz = -1,
                       std::string *Why = nullptr);

/// A generated conversion routine.
struct Conversion {
  formats::Format Source;
  formats::Format Target;
  Options Opts;
  /// The assembly plan this routine was generated from. Runtime guards
  /// compare against these recorded bits — not a re-derivation, which
  /// would drift from the compiled code whenever the environment's size
  /// budget changed between generation and execution.
  AssemblyPlan Asm;
  ir::Function Func;
  /// Optimized attribute queries, for inspection and golden tests.
  std::vector<std::pair<std::string, query::CinStmt>> Queries;
  /// Leading source levels whose lexicographic order the routine's
  /// sequenced dedup assembly trusts but the format cannot guarantee
  /// structurally (a coo tensor's crd arrays may legally be unsorted, e.g.
  /// csc -> coo output is column-major). The conversion runners validate
  /// these levels per input tensor and reject unsorted sources instead of
  /// assembling garbage; 0 means no check is needed.
  int LexCheckLevels = 0;

  /// Complete C99 translation unit (JIT input).
  std::string cSource() const;
  /// C-like body text (the "Figure 6 view").
  std::string pretty() const;
};

/// Generates the conversion routine from \p Source to \p Target. Aborts
/// with a diagnostic for unsupported combinations (documented in
/// DESIGN.md): multi-pass targets whose edge insertion needs coordinates
/// assembled by an earlier compressed level, or dedup targets fed by
/// sources without the required iteration order.
Conversion generateConversion(const formats::Format &Source,
                              const formats::Format &Target,
                              const Options &Opts = Options());

/// True when generateConversion supports the pair; otherwise false with a
/// human-readable reason in \p Why. Lets callers (and the all-pairs test
/// suite) distinguish documented limitations from bugs.
bool conversionSupported(const formats::Format &Source,
                         const formats::Format &Target,
                         std::string *Why = nullptr);

/// Dims-aware variant: additionally rejects (with a size-grounds
/// diagnostic) pairs whose dense ranking structures would exceed
/// rankDenseMaxBytes() at these dimension sizes and no sorted-ranking
/// fallback applies.
bool conversionSupported(const formats::Format &Source,
                         const formats::Format &Target,
                         const std::vector<int64_t> &Dims,
                         std::string *Why = nullptr);

/// Options-aware variant: honors the dims hint *and* ForceSortedRanking
/// (a forced strategy whose preconditions fail makes the pair unsupported
/// under those options, never a silent fallback).
bool conversionSupported(const formats::Format &Source,
                         const formats::Format &Target,
                         const Options &Opts, std::string *Why = nullptr);

} // namespace codegen
} // namespace convgen

#endif // CONVGEN_CODEGEN_GENERATOR_H
