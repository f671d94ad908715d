//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conversion path planner: the one decision layer above the direct
/// conversion's default plan.
///
/// Given a (source, target) pair and the input tensor's statistics (nnz,
/// dimension sizes), the planner enumerates candidate execution paths —
/// the direct conversion under its default plan ("direct"), the direct
/// conversion with sorted ranking forced below the dense budget
/// ("direct+sorted"), and the legal two-hop chain through COO
/// ("via-coo") — estimates the cost of each from a simple analytic model,
/// and picks the plan the conversion runners execute. Everything else
/// about a plan (shared sort, packed radix vs merge sort, the 64 MiB
/// dense-budget flip) is derived by codegen::planAssembly from the formats
/// and the input extents; there is no per-strategy override.
///
/// Auto-tuning: every planner-executed conversion records its measured
/// wall-clock into the PlanCache's outcome store, keyed by (pair,
/// log2-bucketed nnz and dims, strategy label). Once a candidate has
/// CONVGEN_PLANNER_TRUST_AFTER observations, decide() trusts measurements
/// over the analytic model: if both the analytic favourite and some other
/// candidate are measured and the other's mean beats the favourite's by
/// more than CONVGEN_PLANNER_MARGIN, the measurement wins. Cold candidates
/// keep competing on analytic cost, so the first few conversions of a new
/// shape explore and later ones exploit.
///
/// Correctness contract: every candidate computes the identical output
/// tensor bit-for-bit (strategies are pure implementation choices, and
/// chainLegal() rejects intermediates that would drop information the
/// target preserves — see the duplicate-tuple and order-requirement
/// predicates). The planner also preserves the direct path's acceptance
/// behaviour: a source tensor the default plan would reject (unsorted
/// where its dedup assembly requires order) is rejected no matter which
/// path the planner chose.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PLANNER_PLANNER_H
#define CONVGEN_PLANNER_PLANNER_H

#include "codegen/Generator.h"
#include "formats/Format.h"
#include "tensor/SparseTensor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace convgen {
namespace planner {

/// The input statistics the cost model consumes. Cheap to compute: nnz is
/// the stored size (an upper bound for padded formats, which is fine — the
/// model only ranks candidates) and the dims are copied.
struct InputStats {
  int64_t Nnz = 0;
  std::vector<int64_t> Dims;

  static InputStats fromTensor(const tensor::SparseTensor &In);
};

/// One conversion step of a candidate path, with the exact options the
/// runner must plan/compile it under (dims hint and planner-forced
/// strategy fields included).
struct Hop {
  formats::Format Src;
  formats::Format Dst;
  codegen::Options Opts;
};

/// A candidate execution path for the pair.
struct Candidate {
  enum class Path { Direct, TwoHop };
  Path Kind = Path::Direct;
  /// Stable strategy label, also the last component of OutcomeKey:
  /// "direct", "direct+sorted" or "via-coo".
  std::string Label;
  /// One hop for Direct, two for TwoHop (source -> mid, mid -> target).
  std::vector<Hop> Hops;
  /// Abstract element-operation estimate from the analytic model (not
  /// seconds; comparable only across candidates of one decide() call).
  double AnalyticCost = 0;
  /// True when the outcome store had >= trust-threshold observations.
  bool Measured = false;
  /// Mean measured seconds (valid when Measured).
  double MeasuredMean = 0;
  /// The outcome-store key this candidate records under.
  std::string OutcomeKey;
};

/// decide()'s verdict.
struct Decision {
  /// False: the planner stands aside (disabled, input below the nnz
  /// engagement floor, caller already forced strategies, or the direct
  /// pair is unsupported) and the runner takes its classic path. Why says
  /// which.
  bool Engaged = false;
  std::string Why;
  /// True when measured outcomes overrode the analytic favourite.
  bool MeasuredWin = false;
  Candidate Chosen;                ///< Valid when Engaged.
  std::vector<Candidate> Considered; ///< All enumerated candidates.
};

/// True when routing Src -> Mid -> Dst is semantically equivalent to the
/// direct conversion for every input tensor:
///  * all three formats store the same canonical order;
///  * Mid differs from both endpoints;
///  * Mid does not drop duplicate coordinate tuples both endpoints can
///    represent (csc -> coo -> bcsr-shaped chains deduplicate in the
///    middle — illegal when source duplicates would survive a direct
///    conversion);
///  * neither Src nor Mid carries padded values (explicit-zero filtering
///    in the middle would alter what the target stores);
///  * both hops are supported at these dims; and
///  * the second hop's plan needs no source-order validation
///    (LexCheckLevels == 0), since the first hop's output order is
///    data-dependent (csc -> coo legally yields column-major coo).
/// On failure \p Why (optional) names the violated predicate.
bool chainLegal(const formats::Format &Src, const formats::Format &Mid,
                const formats::Format &Dst, const std::vector<int64_t> &Dims,
                std::string *Why = nullptr);

/// The outcome-store key for (pair, stats, strategy label). Nnz and dims
/// are log2-bucketed so measurements generalize across inputs of similar
/// shape: "coo3->csf|n20|d11x11x6|direct".
std::string outcomeKey(const formats::Format &Src, const formats::Format &Dst,
                       const InputStats &Stats, const std::string &Label);

/// The analytic cost model: abstract element operations to execute \p Plan
/// on an input with \p Stats. Monotone non-decreasing in nnz for a fixed
/// plan shape (the property the unit tests pin). Infinity for unsupported
/// plans.
double analyticPlanCost(const codegen::AssemblyPlan &Plan,
                        const InputStats &Stats);

/// The decision layer: enumerate, cost, consult measured outcomes, pick.
/// \p BaseOpts are the caller's options (ablation toggles are inherited by
/// every candidate); a caller that already forced strategies disengages
/// the planner.
Decision decide(const formats::Format &Src, const formats::Format &Dst,
                const codegen::Options &BaseOpts, const InputStats &Stats);

} // namespace planner
} // namespace convgen

#endif // CONVGEN_PLANNER_PLANNER_H
