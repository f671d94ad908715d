//===----------------------------------------------------------------------===//
// Unit tests for the conversion path planner (src/planner/): analytic
// cost-model monotonicity, engagement rules and the candidate set, the
// measured-outcome auto-tuning flip, chain legality (the
// information-preservation and order-requirement predicates), and a
// randomized bit-compare of every enumerated candidate against the
// forced-direct default.
//===----------------------------------------------------------------------===//

#include "planner/Planner.h"

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "support/StringUtils.h"
#include "tensor/Oracle.h"
#include "tensor/Triplets.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

using namespace convgen;
using convgen::testing::ScopedEnv;

namespace {

planner::InputStats statsFor(int64_t Nnz, std::vector<int64_t> Dims) {
  planner::InputStats S;
  S.Nnz = Nnz;
  S.Dims = std::move(Dims);
  return S;
}

/// A fixed-seed random tensor in \p Src with ~\p MaxNnz distinct entries.
tensor::SparseTensor randomTensor(const formats::Format &Src,
                                  const std::vector<int64_t> &Dims,
                                  int MaxNnz, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  tensor::Triplets T;
  T.setDims(Dims);
  std::set<std::vector<int64_t>> Seen;
  for (int E = 0; E < MaxNnz; ++E) {
    std::vector<int64_t> Coord;
    for (int64_t D : Dims)
      Coord.push_back(static_cast<int64_t>(Rng() % static_cast<uint64_t>(D)));
    if (!Seen.insert(Coord).second)
      continue;
    T.Entries.push_back(tensor::Entry(
        Coord, static_cast<double>(1 + Rng() % 97)));
  }
  return tensor::buildFromTriplets(Src, T);
}

void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &What) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << What;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << What << ": pos, level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << What << ": crd, level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << What << ": perm, level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << What << ": param, level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << What << ": vals";
}

/// Executes one candidate path hop by hop through interpreter-backed
/// Converters with the planner disengaged, so exactly the candidate's
/// forced options run (the planner would otherwise re-decide).
StatusOr<tensor::SparseTensor> runCandidate(const planner::Candidate &C,
                                            const tensor::SparseTensor &In) {
  ScopedEnv Off("CONVGEN_PLANNER", "off");
  tensor::SparseTensor Staged;
  const tensor::SparseTensor *Cur = &In;
  for (const planner::Hop &H : C.Hops) {
    StatusOr<convert::Converter> Conv =
        convert::Converter::tryCreate(H.Src, H.Dst, H.Opts);
    if (!Conv.ok())
      return Conv.status();
    StatusOr<tensor::SparseTensor> Out = Conv->tryRun(*Cur);
    if (!Out.ok())
      return Out;
    Staged = Out.take();
    Cur = &Staged;
  }
  return std::move(Staged);
}

} // namespace

//===--------------------------------------------------------------------===//
// Analytic cost model
//===--------------------------------------------------------------------===//

TEST(PlannerCostModel, MonotoneInNnzForEveryPlanShape) {
  formats::Format Coo3 = formats::makeCOO(3);
  formats::Format Csf = formats::makeCSF(3);
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  std::vector<int64_t> Dims3 = {3000, 3000, 64};
  std::vector<int64_t> Dims2 = {2000, 2000};

  // One plan per strategy family: dense-ranked default, forced
  // sorted-ranking (packed radix at these extents), and sorted ranking
  // with a merge sort (71-bit tuples never pack).
  std::vector<std::pair<std::string, codegen::AssemblyPlan>> Plans;
  Plans.push_back({"coo3->csf default",
                   codegen::planAssembly(Coo3, Csf, Dims3)});
  {
    codegen::Options O;
    O.DimsHint = Dims3;
    O.ForceSortedRanking = true;
    Plans.push_back({"coo3->csf forced-sorted",
                     codegen::planAssembly(Coo3, Csf, O)});
  }
  Plans.push_back(
      {"coo3->csf huge-extent merge",
       codegen::planAssembly(Coo3, Csf,
                             std::vector<int64_t>{int64_t(1) << 31,
                                                  int64_t(1) << 20,
                                                  int64_t(1) << 20})});
  Plans.push_back({"csr->csc default",
                   codegen::planAssembly(Csr, Csc, Dims2)});

  for (const auto &[Label, Plan] : Plans) {
    ASSERT_TRUE(Plan.Unsupported.empty()) << Label << ": " << Plan.Unsupported;
    double Prev = 0;
    for (int64_t Nnz = 1024; Nnz <= (int64_t(1) << 24); Nnz *= 2) {
      const std::vector<int64_t> &Dims =
          Plan.Dedup.size() == 3 ? Dims3 : Dims2;
      double Cost = planner::analyticPlanCost(Plan, statsFor(Nnz, Dims));
      EXPECT_GE(Cost, Prev) << Label << " regressed at nnz " << Nnz;
      EXPECT_TRUE(std::isfinite(Cost)) << Label << " at nnz " << Nnz;
      Prev = Cost;
    }
  }
}

TEST(PlannerCostModel, UnsupportedPlanCostsInfinity) {
  codegen::AssemblyPlan P;
  P.Unsupported = "nope";
  EXPECT_TRUE(std::isinf(planner::analyticPlanCost(P, statsFor(1000, {10}))));
}

//===--------------------------------------------------------------------===//
// Engagement rules and the candidate set
//===--------------------------------------------------------------------===//

TEST(PlannerEngagement, DisabledByKnob) {
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  ScopedEnv Off("CONVGEN_PLANNER", "off");
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      codegen::Options(), statsFor(100000, {100, 100}));
  EXPECT_FALSE(D.Engaged);
  EXPECT_NE(D.Why.find("disabled"), std::string::npos) << D.Why;
}

TEST(PlannerEngagement, NnzFloorIsAKnob) {
  // Pinned on so the test holds under the CI ablation leg's ambient
  // CONVGEN_PLANNER=off (likewise below wherever engagement is expected).
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "500");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  EXPECT_FALSE(
      planner::decide(Csr, Csc, codegen::Options(), statsFor(499, {100, 100}))
          .Engaged);
  EXPECT_TRUE(
      planner::decide(Csr, Csc, codegen::Options(), statsFor(500, {100, 100}))
          .Engaged);
}

TEST(PlannerEngagement, CallerForcedStrategiesDisengage) {
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  codegen::Options Forced;
  Forced.ForceSortedRanking = true;
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      Forced, statsFor(100000, {100, 100}));
  EXPECT_FALSE(D.Engaged);
}

TEST(PlannerEngagement, DecideEnumeratesOnlyTheThreeStrategyPaths) {
  // Strategy is derived from the formats and the extents; the planner's
  // only choices are the default direct plan, the direct plan with sorted
  // ranking forced below the dense budget, and the chain through COO.
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  struct Case {
    const char *Src;
    const char *Dst;
    std::vector<int64_t> Dims;
  };
  const Case Cases[] = {
      {"csr", "csc", {100, 100}},
      {"coo", "csr", {int64_t(1) << 31, int64_t(1) << 31}},
      {"csc", "csr", {4096, 4096}},
      {"coo3", "csf", {3000, 3000, 64}},
      {"coo3", "csf", {int64_t(1) << 31, int64_t(1) << 20, int64_t(1) << 20}},
      {"csf_102", "csf", {64, 64, 64}},
  };
  const std::set<std::string> Allowed = {"direct", "direct+sorted",
                                         "via-coo"};
  std::set<std::string> Seen;
  for (const Case &C : Cases) {
    planner::Decision D = planner::decide(
        formats::standardFormatOrDie(C.Src),
        formats::standardFormatOrDie(C.Dst), codegen::Options(),
        statsFor(100000, C.Dims));
    ASSERT_TRUE(D.Engaged) << C.Src << " -> " << C.Dst << ": " << D.Why;
    std::set<std::string> Labels;
    for (const planner::Candidate &Cand : D.Considered) {
      EXPECT_EQ(Allowed.count(Cand.Label), 1u)
          << C.Src << " -> " << C.Dst << " enumerated " << Cand.Label;
      EXPECT_TRUE(Labels.insert(Cand.Label).second)
          << C.Src << " -> " << C.Dst << " enumerated " << Cand.Label
          << " twice";
    }
    Seen.insert(Labels.begin(), Labels.end());
  }
  EXPECT_EQ(Seen, Allowed);
}

TEST(PlannerEngagement, DefaultCandidateAlwaysEnumerated) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      codegen::Options(), statsFor(10000, {100, 100}));
  ASSERT_TRUE(D.Engaged) << D.Why;
  ASSERT_FALSE(D.Considered.empty());
  EXPECT_EQ(D.Considered[0].Label, "direct");
  EXPECT_FALSE(D.Considered[0].OutcomeKey.empty());
  // At benign extents the analytic model keeps the dense-ranked direct
  // plan; the pinning below is what the ablation leg relies on.
  EXPECT_EQ(D.Chosen.Label, "direct");
}

//===--------------------------------------------------------------------===//
// Measured-outcome auto-tuning
//===--------------------------------------------------------------------===//

namespace {

/// Fixture state shared by the flip tests: memory-only outcome store,
/// engagement floor at 1, store reset around each test.
struct OutcomeGuard {
  ScopedEnv On{"CONVGEN_PLANNER", "on"};
  ScopedEnv Outcomes{"CONVGEN_OUTCOMES", ""};
  ScopedEnv MinNnz{"CONVGEN_PLANNER_MIN_NNZ", "1"};
  OutcomeGuard() { convert::PlanCache::instance().resetOutcomes(); }
  ~OutcomeGuard() { convert::PlanCache::instance().resetOutcomes(); }
};

} // namespace

TEST(PlannerAutoTuning, MeasuredOutcomesFlipTheChoiceAfterK) {
  OutcomeGuard Guard;
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});

  planner::Decision Cold = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Cold.Engaged) << Cold.Why;
  ASSERT_GE(Cold.Considered.size(), 2u)
      << "need at least one variant to flip to";
  EXPECT_EQ(Cold.Chosen.Label, "direct");
  EXPECT_FALSE(Cold.MeasuredWin);

  // Find a non-default candidate to teach the planner about.
  const planner::Candidate *Variant = nullptr;
  for (const planner::Candidate &C : Cold.Considered)
    if (C.Label != "direct")
      Variant = &C;
  ASSERT_NE(Variant, nullptr);

  convert::PlanCache &Cache = convert::PlanCache::instance();
  int64_t K = codegen::knobs().PlannerTrustAfter;
  ASSERT_GE(K, 1);

  // K-1 observations: not yet trusted, no flip.
  for (int64_t I = 0; I < K - 1; ++I) {
    Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
    Cache.recordOutcome(Variant->OutcomeKey, 0.01);
  }
  planner::Decision Warmup = planner::decide(Csr, Csc, codegen::Options(), S);
  EXPECT_EQ(Warmup.Chosen.Label, "direct")
      << "flipped before CONVGEN_PLANNER_TRUST_AFTER observations";

  // The K-th observation crosses the trust threshold; the variant's mean
  // beats the favourite's by far more than the margin.
  Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
  Cache.recordOutcome(Variant->OutcomeKey, 0.01);
  planner::Decision Hot = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Hot.Engaged);
  EXPECT_EQ(Hot.Chosen.Label, Variant->Label);
  EXPECT_TRUE(Hot.MeasuredWin);
  EXPECT_TRUE(Hot.Chosen.Measured);
}

TEST(PlannerAutoTuning, InsideTheMarginTheAnalyticChoiceStands) {
  OutcomeGuard Guard;
  ScopedEnv Margin("CONVGEN_PLANNER_MARGIN", "0.15");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  planner::InputStats S = statsFor(10000, {100, 100});

  planner::Decision Cold = planner::decide(Csr, Csc, codegen::Options(), S);
  ASSERT_TRUE(Cold.Engaged);
  ASSERT_GE(Cold.Considered.size(), 2u);
  const planner::Candidate *Variant = nullptr;
  for (const planner::Candidate &C : Cold.Considered)
    if (C.Label != "direct")
      Variant = &C;
  ASSERT_NE(Variant, nullptr);

  convert::PlanCache &Cache = convert::PlanCache::instance();
  for (int64_t I = 0; I < codegen::knobs().PlannerTrustAfter; ++I) {
    Cache.recordOutcome(Cold.Chosen.OutcomeKey, 1.0);
    Cache.recordOutcome(Variant->OutcomeKey, 0.9); // Better, but < 15% better.
  }
  planner::Decision D = planner::decide(Csr, Csc, codegen::Options(), S);
  EXPECT_EQ(D.Chosen.Label, "direct");
  EXPECT_FALSE(D.MeasuredWin);
}

TEST(PlannerAutoTuning, OutcomeRecordsAccumulateAndReset) {
  OutcomeGuard Guard;
  convert::PlanCache &Cache = convert::PlanCache::instance();
  Cache.recordOutcome("test|key", 2.0);
  Cache.recordOutcome("test|key", 4.0);
  Cache.recordOutcome("test|key", -1.0); // Ignored: broken clock.
  convert::OutcomeRecord Rec;
  ASSERT_TRUE(Cache.outcomeFor("test|key", &Rec));
  EXPECT_EQ(Rec.Count, 2u);
  EXPECT_DOUBLE_EQ(Rec.TotalSeconds, 6.0);
  EXPECT_DOUBLE_EQ(Rec.MinSeconds, 2.0);
  EXPECT_DOUBLE_EQ(Rec.meanSeconds(), 3.0);
  Cache.resetOutcomes();
  EXPECT_FALSE(Cache.outcomeFor("test|key", &Rec));
}

//===--------------------------------------------------------------------===//
// Chain legality (the satellite bugfix: no lossy intermediates)
//===--------------------------------------------------------------------===//

TEST(PlannerChainLegality, OrderRequiringSecondHopIsIllegal) {
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Coo = formats::makeCOO();
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  std::string Why;
  // csc -> coo yields column-major coo; coo -> bcsr's sequenced dedup
  // trusts a lexicographically sorted coo source. Chaining them would
  // reject (or garble) inputs the direct conversion handles.
  EXPECT_FALSE(planner::chainLegal(Csc, Coo, Bcsr, {8, 8}, &Why));
  EXPECT_NE(Why.find("sorted"), std::string::npos) << Why;
}

TEST(PlannerChainLegality, DedupingIntermediateIsIllegal) {
  formats::Format Coo3 = formats::makeCOO(3);
  formats::Format Csf = formats::makeCSF(3);
  std::string Why;
  // Both endpoints store duplicate tuples; csf deduplicates. The chain
  // would silently merge duplicates the direct conversion preserves.
  EXPECT_FALSE(
      planner::chainLegal(Coo3, Csf, Coo3, {10, 10, 10}, &Why));
  EXPECT_NE(Why.find("duplicate"), std::string::npos) << Why;
}

TEST(PlannerChainLegality, EndpointIntermediateIsIllegal) {
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Coo = formats::makeCOO();
  EXPECT_FALSE(planner::chainLegal(Coo, Coo, Csr, {8, 8}));
  EXPECT_FALSE(planner::chainLegal(Csr, Coo, Coo, {8, 8}));
}

TEST(PlannerChainLegality, BenignChainIsLegal) {
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Coo = formats::makeCOO();
  std::string Why;
  EXPECT_TRUE(planner::chainLegal(Csc, Coo, Csr, {8, 8}, &Why)) << Why;
}

TEST(PlannerChainLegality, DecideNeverProposesAnIllegalChain) {
  ScopedEnv On("CONVGEN_PLANNER", "on");
  ScopedEnv MinNnz("CONVGEN_PLANNER_MIN_NNZ", "1");
  formats::Format Csc = formats::standardFormatOrDie("csc");
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  planner::Decision D = planner::decide(Csc, Bcsr, codegen::Options(),
                                        statsFor(10000, {8, 8}));
  if (!D.Engaged)
    GTEST_SKIP() << "csc -> bcsr direct unsupported here: " << D.Why;
  for (const planner::Candidate &C : D.Considered)
    EXPECT_NE(C.Label, "via-coo")
        << "csc -> coo -> bcsr must be rejected by chainLegal";
}

//===--------------------------------------------------------------------===//
// Randomized bit-compare: every candidate vs the forced-direct default
//===--------------------------------------------------------------------===//

TEST(PlannerFuzz, EveryCandidateBitIdenticalToForcedDirect) {
  OutcomeGuard Guard;
  struct Pair {
    const char *Src;
    const char *Dst;
    std::vector<int64_t> Dims;
  };
  const Pair Pairs[] = {
      {"coo", "csr", {12, 12}},       {"csr", "csc", {12, 12}},
      {"csc", "coo", {12, 12}},       {"coo3", "csf", {6, 6, 6}},
      {"csf", "coo3", {6, 6, 6}},     {"csf_102", "csf", {6, 6, 6}},
      {"coo3", "csf_021", {6, 6, 6}},
  };
  for (const Pair &P : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(P.Src);
    formats::Format Dst = formats::standardFormatOrDie(P.Dst);
    for (uint64_t Seed : {0x5eed01ull, 0x5eed02ull, 0x5eed03ull}) {
      SCOPED_TRACE(strfmt("%s -> %s, seed 0x%llx", P.Src, P.Dst,
                          static_cast<unsigned long long>(Seed)));
      tensor::SparseTensor In = randomTensor(Src, P.Dims, 150, Seed);

      // Reference: the forced-direct default (planner off).
      tensor::SparseTensor Want;
      {
        ScopedEnv Off("CONVGEN_PLANNER", "off");
        convert::Converter Conv(Src, Dst);
        StatusOr<tensor::SparseTensor> R = Conv.tryRun(In);
        ASSERT_TRUE(R.ok()) << R.status().message();
        Want = R.take();
      }
      Want.validate();

      // Every candidate the planner would consider, executed explicitly.
      planner::Decision D = planner::decide(
          Src, Dst, codegen::Options(), planner::InputStats::fromTensor(In));
      ASSERT_TRUE(D.Engaged) << D.Why;
      for (const planner::Candidate &C : D.Considered) {
        StatusOr<tensor::SparseTensor> Got = runCandidate(C, In);
        ASSERT_TRUE(Got.ok())
            << C.Label << " failed: " << Got.status().message();
        Got->validate();
        expectBitIdentical(Want, *Got, C.Label);
      }

      // End to end: the engaged Converter (whichever path it picks) must
      // match the planner-off reference bit for bit.
      convert::Converter Conv(Src, Dst);
      StatusOr<tensor::SparseTensor> OnR = Conv.tryRun(In);
      ASSERT_TRUE(OnR.ok()) << OnR.status().message();
      expectBitIdentical(Want, *OnR, "planner-on end-to-end");
    }
  }
}
