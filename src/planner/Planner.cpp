//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "planner/Planner.h"

#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace convgen;
using namespace convgen::planner;
using formats::LevelKind;

InputStats InputStats::fromTensor(const tensor::SparseTensor &In) {
  InputStats S;
  S.Nnz = In.storedSize();
  S.Dims = In.Dims;
  return S;
}

namespace {

/// Floor of log2, clamped at 0 — the bucketing that makes outcome keys
/// generalize across inputs of similar magnitude.
int log2Bucket(int64_t V) {
  int B = 0;
  while (V > 1) {
    V >>= 1;
    ++B;
  }
  return B;
}

/// True if \p F can represent the same coordinate tuple stored more than
/// once (COO's non-unique root level). A format that cannot necessarily
/// deduplicates on assembly.
bool holdsDuplicateTuples(const formats::Format &F) {
  for (const formats::LevelSpec &L : F.Levels)
    if ((L.Kind == LevelKind::Compressed || L.Kind == LevelKind::Singleton) &&
        !L.Unique)
      return true;
  return false;
}

} // namespace

std::string planner::outcomeKey(const formats::Format &Src,
                                const formats::Format &Dst,
                                const InputStats &Stats,
                                const std::string &Label) {
  std::string Key =
      Src.Name + "->" + Dst.Name + "|n" + std::to_string(log2Bucket(Stats.Nnz));
  Key += "|d";
  for (size_t I = 0; I < Stats.Dims.size(); ++I) {
    if (I)
      Key += 'x';
    Key += std::to_string(log2Bucket(Stats.Dims[I]));
  }
  return Key + "|" + Label;
}

double planner::analyticPlanCost(const codegen::AssemblyPlan &Plan,
                                 const InputStats &Stats) {
  if (!Plan.Unsupported.empty())
    return std::numeric_limits<double>::infinity();
  double N = static_cast<double>(std::max<int64_t>(Stats.Nnz, 1));
  double LogN = std::log2(N + 1);
  // The dense coordinate space, saturated well below overflow; the proxy
  // for dense ranking structures a level may have to initialize and scan.
  double DenseExt = 1;
  for (int64_t D : Stats.Dims)
    DenseExt = std::min(DenseExt * static_cast<double>(std::max<int64_t>(D, 1)),
                        1e15);
  size_t Order = Plan.Dedup.size();
  // Streaming baseline: read every nonzero, write it into each level.
  double Cost = (2.0 + static_cast<double>(Order)) * N;
  bool SharedCharged = false;
  for (size_t K = 0; K < Order; ++K) {
    if (K < Plan.Sorted.size() && Plan.Sorted[K]) {
      // Under a shared full-arity sort only the anchor level pays for the
      // sort; the others compact prefixes off the shared sorted list.
      bool ChargeSort = Plan.SharedSortAnchor == 0 || !SharedCharged;
      if (ChargeSort) {
        if (Plan.PackedSort) {
          double Bits = 0;
          for (int64_t W : Plan.PackWidths)
            Bits += static_cast<double>(W);
          Cost += std::max(1.0, std::ceil(Bits / 11.0)) * N;
        } else {
          Cost += 1.5 * N * LogN; // comparison merge sort
        }
        SharedCharged = Plan.SharedSortAnchor != 0;
      } else {
        Cost += N; // prefix compaction from the shared sorted list
      }
      Cost += 0.5 * N * LogN; // binary-search rank lookups at insertion
    } else if (K < Plan.Ranked.size() && Plan.Ranked[K]) {
      // Dense rank arrays: one streaming pass plus initialize-and-scan of
      // a structure proportional to the dense space. The full-dims product
      // overstates a level's grouping space, but errs against dense
      // ranking exactly where it hurts (huge extents) and the measured
      // outcomes correct the rest.
      Cost += N + 0.125 * DenseExt;
    } else if (K < Plan.Dedup.size() && Plan.Dedup[K]) {
      Cost += N; // sequenced dedup sweep over an ordered source
    }
  }
  // Runtime source-order validation the runner must perform per input.
  Cost += 0.2 * static_cast<double>(Plan.LexCheckLevels) * N;
  return Cost;
}

bool planner::chainLegal(const formats::Format &Src, const formats::Format &Mid,
                         const formats::Format &Dst,
                         const std::vector<int64_t> &Dims, std::string *Why) {
  auto fail = [&](std::string M) {
    if (Why)
      *Why = std::move(M);
    return false;
  };
  if (Src.SrcOrder != Mid.SrcOrder || Mid.SrcOrder != Dst.SrcOrder)
    return fail("canonical orders differ across the chain");
  if (Mid.Name == Src.Name || Mid.Name == Dst.Name)
    return fail("intermediate equals an endpoint");
  // The information-preservation predicate: when both endpoints can store
  // the same coordinate tuple more than once, a direct conversion carries
  // the duplicates through — an intermediate that deduplicates would merge
  // them and the chain diverges from the direct result.
  if (holdsDuplicateTuples(Src) && holdsDuplicateTuples(Dst) &&
      !holdsDuplicateTuples(Mid))
    return fail("intermediate deduplicates coordinate tuples both endpoints "
                "preserve");
  if (Src.PaddedVals)
    return fail("padded-values source: the first hop filters explicit zeros "
                "the direct conversion would carry into the target's padding");
  if (Mid.PaddedVals)
    return fail("padded-values intermediate inserts explicit zeros");
  std::string HopWhy;
  if (!codegen::conversionSupported(Src, Mid, Dims, &HopWhy))
    return fail("first hop unsupported: " + HopWhy);
  if (!codegen::conversionSupported(Mid, Dst, Dims, &HopWhy))
    return fail("second hop unsupported: " + HopWhy);
  // The first hop's output ordering is data-dependent (csc -> coo legally
  // yields column-major coo), so the second hop must not require a
  // lexicographically sorted source. This is what keeps csc -> coo -> bcsr
  // out: bcsr's sequenced dedup trusts a sorted coo source.
  codegen::AssemblyPlan Second = codegen::planAssembly(Mid, Dst, Dims);
  if (Second.LexCheckLevels != 0)
    return fail(strfmt("second hop %s -> %s requires a lexicographically "
                       "sorted source, which the first hop does not guarantee",
                       Mid.Name.c_str(), Dst.Name.c_str()));
  return true;
}

Decision planner::decide(const formats::Format &Src, const formats::Format &Dst,
                         const codegen::Options &BaseOpts,
                         const InputStats &Stats) {
  Decision D;
  const codegen::StrategyKnobs &K = codegen::knobs();
  if (!K.PlannerOn) {
    D.Why = "planner disabled (CONVGEN_PLANNER=off)";
    return D;
  }
  if (Stats.Nnz < K.PlannerMinNnz) {
    D.Why = strfmt("input below the engagement floor (nnz %lld < "
                   "CONVGEN_PLANNER_MIN_NNZ %lld)",
                   static_cast<long long>(Stats.Nnz),
                   static_cast<long long>(K.PlannerMinNnz));
    return D;
  }
  if (BaseOpts.ForceSortedRanking) {
    D.Why = "caller already forced strategy assignments";
    return D;
  }
  codegen::Options DirectOpts =
      codegen::optionsForDims(Src, Dst, BaseOpts, Stats.Dims);
  codegen::AssemblyPlan Default = codegen::planAssembly(Src, Dst, DirectOpts);
  if (!Default.Unsupported.empty()) {
    D.Why = "direct conversion unsupported: " + Default.Unsupported;
    return D;
  }
  D.Engaged = true;

  Candidate Def;
  Def.Kind = Candidate::Path::Direct;
  Def.Label = "direct";
  Def.Hops.push_back(Hop{Src, Dst, DirectOpts});
  Def.AnalyticCost = analyticPlanCost(Default, Stats);
  D.Considered.push_back(std::move(Def));

  // The sort-first direct variant: every eligible compressed level on the
  // O(nnz) sorted-ranking strategy even under the dense budget. Starts
  // from the caller's options (ablation toggles inherited) and survives
  // only when the forced plan is supported AND sorts a different set of
  // levels than the default (the rest of a plan follows from that set and
  // the extents) — where every level is already sorted it collapses into
  // the default, and enumerating it twice would waste a compile and split
  // its outcome history.
  {
    codegen::Options Forced = BaseOpts;
    Forced.ForceSortedRanking = true;
    Forced = codegen::optionsForDims(Src, Dst, Forced, Stats.Dims);
    codegen::AssemblyPlan P = codegen::planAssembly(Src, Dst, Forced);
    if (codegen::conversionSupported(Src, Dst, Forced) &&
        P.Sorted != Default.Sorted) {
      Candidate C;
      C.Kind = Candidate::Path::Direct;
      C.Label = "direct+sorted";
      C.Hops.push_back(Hop{Src, Dst, Forced});
      C.AnalyticCost = analyticPlanCost(P, Stats);
      D.Considered.push_back(std::move(C));
    }
  }

  // The two-hop path through COO: worth considering when the direct
  // routine's assembly is expensive (dense ranking over huge extents)
  // while both hops are cheap streaming passes. Only when provably
  // equivalent to the direct conversion for every input.
  if (Src.SrcOrder >= 2) {
    formats::Format Mid = formats::makeCOO(Src.SrcOrder);
    std::string Why;
    if (chainLegal(Src, Mid, Dst, Stats.Dims, &Why)) {
      codegen::Options H1Base = BaseOpts;
      H1Base.DimsHint.clear();
      codegen::Options H1 =
          codegen::optionsForDims(Src, Mid, H1Base, Stats.Dims);
      codegen::Options H2 =
          codegen::optionsForDims(Mid, Dst, H1Base, Stats.Dims);
      codegen::AssemblyPlan P1 = codegen::planAssembly(Src, Mid, H1);
      codegen::AssemblyPlan P2 = codegen::planAssembly(Mid, Dst, H2);
      Candidate C;
      C.Kind = Candidate::Path::TwoHop;
      C.Label = "via-coo";
      C.Hops.push_back(Hop{Src, Mid, H1});
      C.Hops.push_back(Hop{Mid, Dst, H2});
      // Materializing the intermediate costs one coordinate tuple + value
      // write and read per nonzero.
      C.AnalyticCost = analyticPlanCost(P1, Stats) +
                       analyticPlanCost(P2, Stats) +
                       static_cast<double>(Src.SrcOrder + 1) *
                           static_cast<double>(std::max<int64_t>(Stats.Nnz, 1));
      D.Considered.push_back(std::move(C));
    }
  }

  // Attach measured outcomes: a candidate with enough observations
  // competes on its measured mean.
  for (Candidate &C : D.Considered) {
    C.OutcomeKey = outcomeKey(Src, Dst, Stats, C.Label);
    convert::OutcomeRecord Rec;
    if (convert::PlanCache::instance().outcomeFor(C.OutcomeKey, &Rec) &&
        Rec.Count >= static_cast<uint64_t>(K.PlannerTrustAfter)) {
      C.Measured = true;
      C.MeasuredMean = Rec.meanSeconds();
    }
  }

  // Choose: analytic favourite first; measured outcomes override it only
  // when the comparison is apples-to-apples (the favourite itself is
  // measured) and the winner clears the margin — analytic element-ops and
  // measured seconds live in different units and are never compared
  // directly.
  size_t Best = 0;
  for (size_t I = 1; I < D.Considered.size(); ++I)
    if (D.Considered[I].AnalyticCost < D.Considered[Best].AnalyticCost)
      Best = I;
  D.Why = "analytic model";
  if (D.Considered[Best].Measured) {
    size_t BestMeasured = Best;
    for (size_t I = 0; I < D.Considered.size(); ++I)
      if (D.Considered[I].Measured &&
          D.Considered[I].MeasuredMean <
              D.Considered[BestMeasured].MeasuredMean)
        BestMeasured = I;
    if (BestMeasured != Best &&
        D.Considered[BestMeasured].MeasuredMean <
            D.Considered[Best].MeasuredMean * (1.0 - K.PlannerMargin)) {
      Best = BestMeasured;
      D.Why = "measured outcomes override the analytic model";
      D.MeasuredWin = true;
    }
  }
  D.Chosen = D.Considered[Best];
  return D;
}
