//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan explainer: reports which plan a conversion request will run
/// and why, without running it.
///
/// Strategy choice is not a search. codegen::optionsForDims() is the one
/// routing function every runner calls per request; it derives the plan
/// from the formats, the input's dims and its nnz (the dense-budget flip
/// and the sorted-ranking rule). decide() asks that same function, so the
/// options it reports are exactly the ones the runners execute, and its
/// Why carries the rule's verdict with its numbers.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_PLAN_EXPLAINER_H
#define CONVGEN_PLAN_EXPLAINER_H

#include "codegen/Generator.h"
#include "formats/Format.h"
#include "tensor/SparseTensor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace convgen {
namespace planner {

/// The input statistics routing reads: the stored size (what the runners
/// pass optionsForDims as nnz) and the dims.
struct InputStats {
  int64_t Nnz = 0;
  std::vector<int64_t> Dims;

  static InputStats fromTensor(const tensor::SparseTensor &In);
};

/// One conversion step, with the exact options the runner plans and
/// compiles it under.
struct Hop {
  formats::Format Src;
  formats::Format Dst;
  codegen::Options Opts;
};

/// The plan a request runs: always the direct conversion, one hop.
struct Candidate {
  enum class Path { Direct };
  Path Kind = Path::Direct;
  /// "direct", or "direct+sorted" when the options force sorted ranking.
  std::string Label;
  std::vector<Hop> Hops;
};

/// decide()'s report.
struct Decision {
  /// False only when the pair is unsupported at these dims; Why says why.
  bool Engaged = false;
  std::string Why;
  /// Always false: no measured outcome ever overrides the rule.
  bool MeasuredWin = false;
  Candidate Chosen; ///< Valid when Engaged.
};

/// Explains the plan a runner executes for (\p Src, \p Dst, \p BaseOpts)
/// on an input with \p Stats.
Decision decide(const formats::Format &Src, const formats::Format &Dst,
                const codegen::Options &BaseOpts, const InputStats &Stats);

} // namespace planner
} // namespace convgen

#endif // CONVGEN_PLAN_EXPLAINER_H
