//===----------------------------------------------------------------------===//
// Scale-robustness tests for the sorted-ranking assembly strategy: the
// planner's size-driven strategy selection (at/below/above the
// CONVGEN_RANK_DENSE_MAX_BYTES budget), the O(nnz) workspace guarantee of
// the generated code, all-pairs correctness on huge-dimension hyper-sparse
// tensors (a 2^31-extent mode with a few hundred nonzeros) against the
// oracle, JIT thread-count invariance on the sorted path, and the
// size-grounds diagnostics for pairs where no fallback applies.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "remap/RemapParser.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <cstdlib>
#include <random>
#include <set>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;
using convgen::testing::ScopedEnv;

namespace {

std::vector<int64_t> hugeDims() {
  return {int64_t(1) << 31, int64_t(1) << 20, int64_t(1) << 20};
}

/// Dims whose coordinate tuple packs into exactly 64 bits (24 + 20 + 20)
/// while level 1's dense rank structures (5 * 2^24 bytes) still exceed the
/// default budget: the sorted strategy engages AND the packed radix sort
/// applies. hugeDims() is the complement — sorted but unpackable (71 bits).
std::vector<int64_t> packedDims() {
  return {int64_t(1) << 24, int64_t(1) << 20, int64_t(1) << 20};
}

} // namespace

//===----------------------------------------------------------------------===//
// Strategy selection
//===----------------------------------------------------------------------===//

TEST(SortedRankingPlan, BudgetBoundaryPinsTheStrategy) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  // coo3 -> csf makes level 1 ranked by default; its dense footprint is
  // the rank array plus the presence bit set: 5 bytes * dim0. With
  // dims {64, 2, 2} that is exactly 320 bytes — at a budget of 320 the
  // dense structures fit (<=) and ranked stays, one byte less flips the
  // level to sorted.
  {
    ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "320");
    codegen::AssemblyPlan At = codegen::planAssembly(Coo3, Csf, std::vector<int64_t>{64, 2, 2});
    EXPECT_TRUE(At.Unsupported.empty()) << At.Unsupported;
    EXPECT_TRUE(At.Ranked[0]);
    EXPECT_FALSE(At.Sorted[0]);
  }
  {
    ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "319");
    codegen::AssemblyPlan Above =
        codegen::planAssembly(Coo3, Csf, std::vector<int64_t>{64, 2, 2});
    EXPECT_TRUE(Above.Unsupported.empty()) << Above.Unsupported;
    EXPECT_TRUE(Above.Sorted[0]);
    EXPECT_FALSE(Above.Ranked[0]);
  }
  {
    // Well below the budget nothing changes.
    ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1000000");
    codegen::AssemblyPlan Below =
        codegen::planAssembly(Coo3, Csf, std::vector<int64_t>{64, 2, 2});
    EXPECT_FALSE(Below.anySorted());
    EXPECT_TRUE(Below.Ranked[0]);
    EXPECT_TRUE(Below.Ranked[1]);
  }
}

TEST(SortedRankingPlan, HugeDimsSwitchEveryCsfLevelAtTheDefaultBudget) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::AssemblyPlan Plan = codegen::planAssembly(Coo3, Csf, hugeDims());
  ASSERT_TRUE(Plan.Unsupported.empty()) << Plan.Unsupported;
  // Level 1's rank array would be 5 * 2^31 bytes, level 2's the product
  // with dim1, level 3's count-query buffer 4 * 2^31 * 2^20: all three
  // take the sorted strategy.
  EXPECT_TRUE(Plan.Sorted[0]);
  EXPECT_TRUE(Plan.Sorted[1]);
  EXPECT_TRUE(Plan.Sorted[2]);
  EXPECT_FALSE(Plan.Ranked[0]);
  EXPECT_FALSE(Plan.Ranked[1]);
  // The three grouping tuples nest (i) < (i,j) < (i,j,k): one shared sort,
  // anchored at the deepest (full-arity) level.
  EXPECT_EQ(Plan.SharedSortAnchor, 3);
}

//===----------------------------------------------------------------------===//
// Shared sort vs non-nested per-level sorts
//===----------------------------------------------------------------------===//

TEST(SortedRankingPlan, SharedSortEmitsExactlyOneSortCall) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  Opts.DimsHint = hugeDims();
  codegen::Conversion Conv = codegen::generateConversion(Coo3, Csf, Opts);
  std::string Code = Conv.cSource();
  // Counted textually at the runtime call sites: one shared full-arity
  // sort; the two ancestor levels derive their lists by prefix compaction
  // instead of re-sorting.
  auto count = [&](const char *Needle) {
    size_t Hits = 0;
    for (size_t At = Code.find(Needle); At != std::string::npos;
         At = Code.find(Needle, At + 1))
      ++Hits;
    return Hits;
  };
  EXPECT_EQ(count("cvg_rt->sort_unique_tuples(B"), 1u) << Code;
  EXPECT_EQ(count("cvg_rt->unique_prefix(B"), 2u) << Code;
  // The pos construction's gap fill is the runtime's blocked parallel max
  // scan, not the old serial forward loop (whose stores indexed pos by the
  // fill variable f<k>).
  EXPECT_NE(Code.find("cvg_rt->scan_max(B"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("_pos[f"), std::string::npos) << Code;
}

TEST(SortedRankingPlan, UnvalidatedLevelOrderIsUnsupported) {
  // A target whose level 1 stores dimension 1 breaks the invariant the
  // shared-sort decision rests on (level K's grouping tuple is dims 0..K).
  // planAssembly rejects it with checkFormat's diagnostic instead of
  // planning around it.
  formats::Format Weird;
  Weird.Name = "nonnested";
  Weird.SrcOrder = 2;
  Weird.Remap = remap::parseRemapOrDie("(i,j) -> (i,j)");
  Weird.Inverse = remap::parseRemapOrDie("(d0,d1) -> (d0,d1)");
  Weird.Levels = {
      formats::LevelSpec{formats::LevelKind::Compressed, 1, true, false,
                         {-1, -1}},
      formats::LevelSpec{formats::LevelKind::Compressed, 0, true, false,
                         {-1, -1}},
  };
  formats::Format Coo = formats::standardFormatOrDie("coo");
  ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1");
  codegen::AssemblyPlan Plan =
      codegen::planAssembly(Coo, Weird, std::vector<int64_t>{1000, 1000});
  EXPECT_NE(Plan.Unsupported.find("level 0 must store dimension 0"),
            std::string::npos)
      << Plan.Unsupported;
  EXPECT_FALSE(codegen::conversionSupported(Weird, Coo));
}

TEST(SortedRankingPlan, SingleSortedLevelAnchorsItsOwnSort) {
  // coo -> csr at a tiny budget: only the column level is compressed, so
  // there is exactly one sorted level; it anchors the one list build, and
  // no other level derives a prefix list from it.
  ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1");
  formats::Format Coo = formats::standardFormatOrDie("coo");
  formats::Format Csr = formats::standardFormatOrDie("csr");
  codegen::AssemblyPlan Plan = codegen::planAssembly(Coo, Csr, std::vector<int64_t>{100, 100});
  ASSERT_TRUE(Plan.Unsupported.empty()) << Plan.Unsupported;
  EXPECT_TRUE(Plan.Sorted[1]);
  EXPECT_EQ(Plan.SharedSortAnchor, 2);
  codegen::Options Opts;
  Opts.DimsHint = {100, 100};
  codegen::Conversion Conv = codegen::generateConversion(Coo, Csr, Opts);
  // At {100,100} the coordinate tuple packs into 14 bits, so auto lowers
  // the level's sort to the packed radix variant.
  EXPECT_NE(Conv.cSource().find("cvg_rt->radix_sort_packed(B2_srt"),
            std::string::npos);
  // No prefix derivation anywhere.
  EXPECT_EQ(Conv.cSource().find("cvg_rt->unique_prefix("), std::string::npos);
}

TEST(SortedRankingPlan, NoDimsHintKeepsTheDenseDefaultPlan) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::AssemblyPlan Plan = codegen::planAssembly(Coo3, Csf);
  EXPECT_TRUE(Plan.Unsupported.empty()) << Plan.Unsupported;
  EXPECT_FALSE(Plan.anySorted());
  EXPECT_TRUE(Plan.Ranked[0]);
  EXPECT_TRUE(Plan.Ranked[1]);
}

TEST(SortedRankingPlan, OptionsForDimsSetsTheHintOnlyWhenThePlanChanges) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Small =
      codegen::optionsForDims(Coo3, Csf, {}, {16, 16, 16});
  EXPECT_TRUE(Small.DimsHint.empty());
  codegen::Options Huge = codegen::optionsForDims(Coo3, Csf, {}, hugeDims());
  EXPECT_EQ(Huge.DimsHint, hugeDims());
}

//===----------------------------------------------------------------------===//
// The sorted-ranking rule (optionsForDims' nnz argument)
//===----------------------------------------------------------------------===//

namespace {

/// The options the explicitly forced "direct+sorted" plan runs under.
codegen::Options forcedSorted(const formats::Format &Src,
                              const formats::Format &Dst,
                              const std::vector<int64_t> &Dims) {
  codegen::Options Forced;
  Forced.ForceSortedRanking = true;
  return codegen::optionsForDims(Src, Dst, Forced, Dims);
}

} // namespace

TEST(SortedRankRule, PlannerShapesRouteToSortedAt40kNnz) {
  // The two order-3 shapes whose dense rank arrays dwarf their nonzeros:
  // hypersparse coo3 -> csf (level 2 ranks 2048 * 2048 slices) and the
  // csf_102 -> csf permutation (512 * 512).
  struct Case {
    const char *Src;
    const char *Dst;
    std::vector<int64_t> Dims;
  };
  const Case Cases[] = {{"coo3", "csf", {2048, 2048, 64}},
                        {"csf_102", "csf", {512, 512, 64}}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.Src) + " -> " + C.Dst);
    formats::Format Src = formats::standardFormatOrDie(C.Src);
    formats::Format Dst = formats::standardFormatOrDie(C.Dst);
    std::string Why;
    codegen::Options Opts =
        codegen::optionsForDims(Src, Dst, {}, C.Dims, 40000, &Why);
    EXPECT_TRUE(Opts.ForceSortedRanking) << Why;
    EXPECT_EQ(Opts.DimsHint, C.Dims);
    EXPECT_TRUE(codegen::planAssembly(Src, Dst, Opts).anySorted());
    // The same plan key the explicitly forced plan has always had.
    EXPECT_EQ(convert::planKey(Src, Dst, Opts),
              convert::planKey(Src, Dst, forcedSorted(Src, Dst, C.Dims)));
  }
}

TEST(SortedRankRule, DenseEnoughInputsKeepTheDefaultPlanAndKey) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  formats::Format Csf102 = formats::standardFormatOrDie("csf_102");
  struct Case {
    const formats::Format *Src;
    std::vector<int64_t> Dims;
    int64_t Space; ///< Largest ranked level's dense rank space.
  };
  const Case Cases[] = {{&Coo3, {2048, 2048, 64}, 2048 * 2048},
                        {&Csf102, {512, 512, 64}, 512 * 512}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Src->Name);
    // From ceil(space / ratio) nonzeros on, the space no longer exceeds
    // ratio * nnz.
    int64_t Tipping =
        (C.Space + codegen::kSortedRankRatio - 1) / codegen::kSortedRankRatio;
    for (int64_t Nnz : {Tipping, C.Space, 4 * C.Space}) {
      codegen::Options Opts =
          codegen::optionsForDims(*C.Src, Csf, {}, C.Dims, Nnz);
      EXPECT_FALSE(Opts.ForceSortedRanking) << Nnz;
      EXPECT_TRUE(Opts.DimsHint.empty()) << Nnz;
      EXPECT_EQ(convert::planKey(*C.Src, Csf, Opts),
                convert::planKey(*C.Src, Csf, codegen::Options()));
    }
    // One nonzero fewer tips it.
    EXPECT_TRUE(codegen::optionsForDims(*C.Src, Csf, {}, C.Dims, Tipping - 1)
                    .ForceSortedRanking);
  }
  // Unknown nnz (the default argument) turns the rule off and keeps the
  // default plan and key, however large the dense rank space.
  std::string Why;
  codegen::Options Unknown =
      codegen::optionsForDims(Coo3, Csf, {}, {2048, 2048, 64}, -1, &Why);
  EXPECT_FALSE(Unknown.ForceSortedRanking);
  EXPECT_TRUE(Unknown.DimsHint.empty());
  EXPECT_EQ(convert::planKey(Coo3, Csf, Unknown),
            convert::planKey(Coo3, Csf, codegen::Options()));
  EXPECT_EQ(Why, "default plan: nnz unknown");
  // The ratio alone decides: there is no nnz floor, so even a single
  // nonzero over a 2048 x 2048 rank space routes sorted, onto the plan
  // key every shape that packs shares.
  for (int64_t Nnz : {int64_t(1), int64_t(64)}) {
    codegen::Options Tiny =
        codegen::optionsForDims(Coo3, Csf, {}, {2048, 2048, 64}, Nnz, &Why);
    EXPECT_TRUE(Tiny.ForceSortedRanking) << Nnz << ": " << Why;
    EXPECT_EQ(Tiny.DimsHint, (std::vector<int64_t>{2048, 2048, 64}));
    EXPECT_EQ(convert::planKey(Coo3, Csf, Tiny),
              convert::planKey(Coo3, Csf,
                               forcedSorted(Coo3, Csf, {2048, 2048, 64})));
  }
}

TEST(SortedRankRule, EmptyInputKeepsTheDefaultPlanAndKey) {
  // An empty input has nothing to sort: any rank space exceeds 5 x 0, but
  // the ratio rule needs at least one nonzero.
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  const std::vector<int64_t> DimsSet[] = {{2, 1, 1}, {2048, 2048, 64}};
  for (const std::vector<int64_t> &Dims : DimsSet) {
    SCOPED_TRACE(std::to_string(Dims[0]) + " x " + std::to_string(Dims[1]) +
                 " x " + std::to_string(Dims[2]));
    std::string Why;
    codegen::Options Empty =
        codegen::optionsForDims(Coo3, Csf, {}, Dims, 0, &Why);
    EXPECT_FALSE(Empty.ForceSortedRanking) << Why;
    EXPECT_TRUE(Empty.DimsHint.empty());
    EXPECT_EQ(convert::planKey(Coo3, Csf, Empty),
              convert::planKey(Coo3, Csf, codegen::Options()));
    EXPECT_EQ(Why, "default plan: empty input");
  }
  // The budget rule is not the ratio rule: over the dense-footprint budget
  // an empty input still takes the sorted plan the dims require.
  codegen::Options Huge = codegen::optionsForDims(Coo3, Csf, {}, hugeDims(), 0);
  EXPECT_FALSE(Huge.ForceSortedRanking);
  EXPECT_EQ(Huge.DimsHint, hugeDims());
  EXPECT_TRUE(codegen::planAssembly(Coo3, Csf, Huge).anySorted());
}

TEST(SortedRankRule, NoTable3PairEverFlips) {
  // The paper's seven matrix pairs assemble without dense rank arrays, so
  // the rule never touches them, however sparse the input.
  const std::pair<const char *, const char *> Pairs[] = {
      {"coo", "csr"}, {"coo", "dia"}, {"csr", "csc"}, {"csr", "dia"},
      {"csr", "ell"}, {"csc", "dia"}, {"csc", "ell"}};
  const std::vector<int64_t> DimsSet[] = {
      {1000, 1000}, {40000, 40000}, {5, 100000}, {100000, 5}};
  for (const auto &[S, D] : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(S);
    formats::Format Dst = formats::standardFormatOrDie(D);
    for (const std::vector<int64_t> &Dims : DimsSet) {
      SCOPED_TRACE(std::string(S) + " -> " + D);
      codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Dst, Dims);
      ASSERT_TRUE(Plan.Unsupported.empty()) << Plan.Unsupported;
      for (size_t K = 0; K < Plan.Ranked.size(); ++K) {
        EXPECT_FALSE(Plan.Ranked[K]) << "level " << K + 1;
        EXPECT_EQ(Plan.RankSpace[K], -1) << "level " << K + 1;
      }
      for (int64_t Nnz : {int64_t(1), int64_t(64), int64_t(5000)}) {
        codegen::Options Opts =
            codegen::optionsForDims(Src, Dst, {}, Dims, Nnz);
        codegen::Options Unknown = codegen::optionsForDims(Src, Dst, {}, Dims);
        EXPECT_FALSE(Opts.ForceSortedRanking);
        EXPECT_EQ(convert::planKey(Src, Dst, Opts),
                  convert::planKey(Src, Dst, Unknown));
      }
    }
  }
}

TEST(SortedRankRule, IneligibleSortedChainKeepsDenseRankingAndStaysSupported) {
  // csc -> bcsr ranks its block-column level densely, but its dims are
  // computed block coordinates, which sorted ranking cannot take; ell ->
  // bcsr additionally pads its values.
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  for (const char *S : {"csc", "ell"}) {
    SCOPED_TRACE(S);
    formats::Format Src = formats::standardFormatOrDie(S);
    // 2000 x 2000 blocks of dense rank space: well under the byte budget,
    // far over the rule's ratio at 4096 nonzeros.
    std::vector<int64_t> Dims = {8000, 8000};
    int64_t Nnz = 4096;
    codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Bcsr, Dims);
    ASSERT_TRUE(Plan.Unsupported.empty()) << Plan.Unsupported;
    ASSERT_GT(*std::max_element(Plan.RankSpace.begin(), Plan.RankSpace.end()),
              codegen::kSortedRankRatio * Nnz);
    std::string Why;
    codegen::Options Opts =
        codegen::optionsForDims(Src, Bcsr, {}, Dims, Nnz, &Why);
    EXPECT_FALSE(Opts.ForceSortedRanking);
    EXPECT_TRUE(Opts.DimsHint.empty());
    EXPECT_NE(Why.find("does not apply"), std::string::npos) << Why;
    EXPECT_TRUE(codegen::conversionSupported(Src, Bcsr, Opts));
  }
}

namespace {

/// Runs exactly the plan for \p Opts through the interpreter (no
/// per-request routing), the way a compiled routine would.
tensor::SparseTensor runPlan(const formats::Format &Src,
                             const formats::Format &Dst,
                             const codegen::Options &Opts,
                             const tensor::SparseTensor &In) {
  return convert::interpretPlan(
      *convert::PlanCache::instance().plan(Src, Dst, Opts), In);
}

void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &What) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << What;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos) << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd) << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << What << ", level " << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << What << ", level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << What;
}

} // namespace

TEST(SortedRankRule, ForcedSortedIsBitIdenticalToTheDefaultPlan) {
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
    const std::vector<int64_t> &Dims = P.Dims;
    for (uint64_t Seed : {0x5eed01ull, 0x5eed02ull, 0x5eed03ull}) {
      SCOPED_TRACE(std::string(P.Src) + " -> " + P.Dst + ", seed " +
                   std::to_string(Seed));
      tensor::Triplets T;
      T.setDims(Dims);
      std::mt19937_64 Rng(Seed);
      std::set<std::vector<int64_t>> Seen;
      for (int E = 0; E < 150; ++E) {
        std::vector<int64_t> Coord;
        for (int64_t D : Dims)
          Coord.push_back(
              static_cast<int64_t>(Rng() % static_cast<uint64_t>(D)));
        if (Seen.insert(Coord).second)
          T.Entries.push_back(
              tensor::Entry(Coord, static_cast<double>(1 + Rng() % 97)));
      }
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      tensor::SparseTensor Want = runPlan(Src, Dst, codegen::Options(), In);
      Want.validate();
      EXPECT_TRUE(tensor::equal(tensor::toTriplets(Want), T));
      codegen::Options Forced = forcedSorted(Src, Dst, Dims);
      if (codegen::conversionSupported(Src, Dst, Forced))
        expectBitIdentical(Want, runPlan(Src, Dst, Forced, In),
                           "direct+sorted");
      // End to end, through the per-request routing.
      StatusOr<tensor::SparseTensor> Routed =
          convert::Converter(Src, Dst).tryRun(In);
      ASSERT_TRUE(Routed.ok()) << Routed.status().message();
      expectBitIdentical(Want, *Routed, "routed");
    }
  }
}

//===----------------------------------------------------------------------===//
// Packed-key radix sort: plan bits, plan key, generated-code census
//===----------------------------------------------------------------------===//

TEST(PackedSortPlan, PackedBitTracksKeyWidth) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  // 24 + 20 + 20 = 64 bits: fits exactly.
  codegen::AssemblyPlan Fits = codegen::planAssembly(Coo3, Csf, packedDims());
  ASSERT_TRUE(Fits.Unsupported.empty()) << Fits.Unsupported;
  EXPECT_TRUE(Fits.anySorted());
  EXPECT_EQ(Fits.PackWidths, (std::vector<int64_t>{24, 20, 20}));
  // 31 + 20 + 20 = 71 bits: the tuple cannot pack, so the sort merges.
  codegen::AssemblyPlan Wide = codegen::planAssembly(Coo3, Csf, hugeDims());
  EXPECT_TRUE(Wide.anySorted());
  EXPECT_TRUE(Wide.PackWidths.empty());
  // No dims hint: extents unknown, nothing to pack.
  EXPECT_TRUE(codegen::planAssembly(Coo3, Csf).PackWidths.empty());
}

TEST(PackedSortPlan, PlanKeyCarriesThePackedBitNotTheWidths) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  Opts.DimsHint = packedDims();
  std::string Packed = convert::planKey(Coo3, Csf, Opts);
  EXPECT_NE(Packed.find(":p]"), std::string::npos) << Packed;
  // Dims with different widths (25 + 19 + 20 bits) share the entry and
  // its routine (the routine computes its widths from the extents at run
  // time), and unpackable dims carry no packed bit.
  Opts.DimsHint = {int64_t(1) << 25, int64_t(1) << 19, int64_t(1) << 20};
  EXPECT_EQ(convert::planKey(Coo3, Csf, Opts), Packed);
  codegen::Options AtPackedDims;
  AtPackedDims.DimsHint = packedDims();
  EXPECT_TRUE(codegen::generateConversion(Coo3, Csf, Opts).cSource() ==
              codegen::generateConversion(Coo3, Csf, AtPackedDims).cSource());
  Opts.DimsHint = hugeDims();
  std::string Wide = convert::planKey(Coo3, Csf, Opts);
  EXPECT_EQ(Wide.find(":p"), std::string::npos) << Wide;
}

TEST(PackedSortCodegen, SharedSortLowersToOnePackedRadixCall) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  Opts.DimsHint = packedDims();
  codegen::Conversion Conv = codegen::generateConversion(Coo3, Csf, Opts);
  std::string Code = Conv.cSource();
  auto count = [&](const char *Needle) {
    size_t Hits = 0;
    for (size_t At = Code.find(Needle); At != std::string::npos;
         At = Code.find(Needle, At + 1))
      ++Hits;
    return Hits;
  };
  // One shared full-arity sort, lowered to the packed radix variant; the
  // comparison merge sort is not called anywhere.
  EXPECT_EQ(count("cvg_rt->radix_sort_packed(B3_srt"), 1u) << Code;
  EXPECT_EQ(count("cvg_rt->sort_unique_tuples("), 0u) << Code;
  // The readable view names the (fused) lowering and the per-dim widths,
  // computed from the extents at run time.
  EXPECT_NE(Conv.pretty().find("sort_unique_tuples_packed"),
            std::string::npos);
  EXPECT_NE(Conv.pretty().find("bits=[cvg_bit_width(dim0),cvg_bit_width("
                               "dim1),cvg_bit_width(dim2)]"),
            std::string::npos)
      << Conv.pretty();
}

TEST(PackedSortCodegen, SortedChainPosBuildEmitsZeroSearches) {
  // The acceptance pin for the search-free construction: in the csf chain
  // every level's parent is the sorted level one dim narrower, so parent
  // positions come from prefix-change flags + an additive scan. On the
  // unpacked plan the ONLY surviving binary search is the insertion-time
  // deepest rank over B3_srt, once per nonzero; the packed plan
  // precomputes even that via the sort's rank payload, leaving ZERO
  // searches anywhere in the routine.
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  for (const std::vector<int64_t> &Dims : {packedDims(), hugeDims()}) {
    bool Packed = Dims == packedDims();
    codegen::Options Opts;
    Opts.DimsHint = Dims;
    codegen::Conversion Conv = codegen::generateConversion(Coo3, Csf, Opts);
    std::string Code = Conv.cSource();
    auto count = [&](const char *Needle) {
      size_t Hits = 0;
      for (size_t At = Code.find(Needle); At != std::string::npos;
           At = Code.find(Needle, At + 1))
        ++Hits;
      return Hits;
    };
    EXPECT_EQ(count("cvg_lower_bound(B1_srt"), 0u) << Code;
    EXPECT_EQ(count("cvg_lower_bound(B2_srt"), 0u) << Code;
    EXPECT_EQ(count("cvg_lower_bound_packed(B1_srt"), 0u) << Code;
    EXPECT_EQ(count("cvg_lower_bound_packed(B2_srt"), 0u) << Code;
    // The unpacked huge-dims plan keeps one tuple-compare search for the
    // insertion-time deepest rank; the packed plan reads the rank array
    // the fused sort scattered and searches nowhere at all.
    EXPECT_EQ(count("cvg_lower_bound_packed(B3_srt"), 0u) << Code;
    EXPECT_EQ(count("cvg_lower_bound(B3_srt"), Packed ? 0u : 1u) << Code;
    EXPECT_EQ(count("B3_rank[pA1]"), Packed ? 1u : 0u) << Code;
    // The flag + scan machinery is present for both derived levels.
    EXPECT_EQ(count("cvg_rt->scan_sum(B2_pfx, "), 1u) << Code;
    EXPECT_EQ(count("cvg_rt->scan_sum(B3_pfx, "), 1u) << Code;
  }
}

TEST(PackedSortJit, RadixPathBitIdenticalAtOneAndFourThreads) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  std::vector<int64_t> Dims = packedDims();
  tensor::Triplets T =
      tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], 20000, 177);
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);

  convert::Converter Interp(Coo3, Csf);
  tensor::SparseTensor Reference = Interp.run(In);

  codegen::Options Opts = codegen::optionsForDims(Coo3, Csf, {}, Dims);
  ASSERT_EQ(Opts.DimsHint, Dims);
  auto Native = convert::PlanCache::instance().jit(Coo3, Csf, Opts);
  ASSERT_NE(Native->conversion().cSource().find("cvg_rt->radix_sort_packed("),
            std::string::npos);
  for (int Threads : {1, 4}) {
    setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
    omp_set_num_threads(Threads);
#endif
    tensor::SparseTensor FromJit = Native->run(In);
    ASSERT_EQ(Reference.Levels.size(), FromJit.Levels.size());
    for (size_t K = 0; K < Reference.Levels.size(); ++K) {
      EXPECT_EQ(Reference.Levels[K].Pos, FromJit.Levels[K].Pos)
          << "level " << K << " with " << Threads << " threads";
      EXPECT_EQ(Reference.Levels[K].Crd, FromJit.Levels[K].Crd)
          << "level " << K << " with " << Threads << " threads";
    }
    EXPECT_EQ(Reference.Vals, FromJit.Vals) << Threads << " threads";
  }
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

TEST(PackedSortJit, OneHandleServesEveryShapeThatPacksAndRefusesTheRest) {
  // A handle compiled for 2048 x 2048 x 64 (11 + 11 + 6 bits) computes its
  // key widths from each input's extents: 8192 x 8192 x 64 (13 + 13 + 6)
  // and 2048 x 2048 x 4096 (11 + 11 + 12) convert bit-exactly through it.
  // Extents that need more than 64 bits are refused with a Status, never
  // sorted into aliased keys.
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts =
      codegen::optionsForDims(Coo3, Csf, {}, {2048, 2048, 64}, 40000);
  ASSERT_TRUE(Opts.ForceSortedRanking);
  auto Native = convert::PlanCache::instance().jit(Coo3, Csf, Opts);
  ASSERT_FALSE(Native->conversion().Asm.PackWidths.empty());
  const std::vector<int64_t> Packing[] = {
      {2048, 2048, 64}, {8192, 8192, 64}, {2048, 2048, 4096}};
  for (const std::vector<int64_t> &Dims : Packing) {
    tensor::Triplets T =
        tensor::genRandomTensor3(Dims[0], Dims[1], Dims[2], 40000, 31);
    StatusOr<tensor::SparseTensor> Got =
        Native->tryRun(tensor::buildFromTriplets(Coo3, T));
    ASSERT_TRUE(Got.ok()) << Got.status().message();
    expectBitIdentical(tensor::buildFromTriplets(Csf, T), *Got,
                       std::to_string(Dims[0]) + " x " +
                           std::to_string(Dims[1]) + " x " +
                           std::to_string(Dims[2]));
  }
  // 31 + 20 + 20 = 71 bits.
  std::vector<int64_t> Wide = hugeDims();
  tensor::Triplets T = tensor::genHyperSparse3(Wide[0], Wide[1], Wide[2], 200, 5);
  StatusOr<tensor::SparseTensor> Refused =
      Native->tryRun(tensor::buildFromTriplets(Coo3, T));
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Refused.status().message().find("do not pack into 64 bits"),
            std::string::npos)
      << Refused.status().message();
}

TEST(PackedSortJit, EverySortedPairIsOneObjectAcrossPackingShapes) {
  // Every standard pair the rule routes to a packed sorted plan, at shapes
  // that pack (order 3 up to exactly 64 bits; int32 coordinates cap an
  // order-2 tuple at 62). Per shape the routed plan may land on another
  // key (a shape over the dense budget sorts by budget, not by the rule),
  // but an equal plan key always means a byte-identical routine, and the
  // one object compiled at the first shape converts every shape
  // bit-exactly against the oracle.
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  struct Order {
    std::vector<formats::Format> Formats;
    std::vector<std::vector<int64_t>> Shapes;
  };
  const Order Orders[] = {
      {formats::allStandardFormats(),
       {{1 << 20, 1 << 20}, {1 << 12, 1 << 24}, {int64_t(1) << 31, 1 << 30}}},
      {formats::standardOrder3Formats(),
       {{2048, 2048, 64},
        {1024, 4096, 1 << 20},
        {2048, 2048, 4096},
        {1 << 22, 1 << 21, 1 << 21}}}};
  const int64_t Nnz = 2000;
  convert::PlanCache &Cache = convert::PlanCache::instance();
  Cache.clearMemory();
  int Routed = 0;
  for (const Order &O : Orders) {
    for (const formats::Format &Src : O.Formats) {
      for (const formats::Format &Dst : O.Formats) {
        if (!codegen::conversionSupported(Src, Dst))
          continue;
        codegen::Options First =
            codegen::optionsForDims(Src, Dst, {}, O.Shapes[0], Nnz);
        if (!First.ForceSortedRanking ||
            codegen::planAssembly(Src, Dst, First).PackWidths.empty())
          continue;
        SCOPED_TRACE(Src.Name + " -> " + Dst.Name);
        ++Routed;
        uint64_t MissesBefore = Cache.stats().JitMisses;
        auto Native = Cache.jit(Src, Dst, First);
        std::map<std::string, std::string> CodeByKey;
        int SharedFirstKey = 0;
        for (size_t I = 0; I < O.Shapes.size(); ++I) {
          const std::vector<int64_t> &Dims = O.Shapes[I];
          tensor::Triplets T;
          T.setDims(Dims);
          std::mt19937_64 Rng(1000 + I);
          std::set<std::vector<int64_t>> Seen;
          while (static_cast<int64_t>(Seen.size()) < Nnz) {
            std::vector<int64_t> C;
            for (int64_t D : Dims)
              C.push_back(static_cast<int64_t>(Rng() % static_cast<uint64_t>(D)));
            // The last coordinate of every dimension too, so each width is
            // used up to its top bit.
            if (Seen.empty())
              for (size_t D = 0; D < Dims.size(); ++D)
                C[D] = Dims[D] - 1;
            if (Seen.insert(C).second)
              T.Entries.push_back(
                  tensor::Entry(C, static_cast<double>(Seen.size())));
          }
          tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
          codegen::Options Opts =
              codegen::optionsForDims(Src, Dst, {}, Dims, In.storedSize());
          codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Dst, Opts);
          ASSERT_TRUE(Plan.anySorted()) << "shape " << I;
          ASSERT_FALSE(Plan.PackWidths.empty()) << "shape " << I;
          std::string Key = convert::planKey(Src, Dst, Opts);
          std::string Code = codegen::generateConversion(Src, Dst, Opts).cSource();
          auto [It, New] = CodeByKey.emplace(Key, Code);
          EXPECT_TRUE(New || It->second == Code) << "shape " << I;
          SharedFirstKey += Key == convert::planKey(Src, Dst, First);
          StatusOr<tensor::SparseTensor> Got = Native->tryRun(In);
          ASSERT_TRUE(Got.ok()) << Got.status().message();
          expectBitIdentical(tensor::buildFromTriplets(Dst, T), *Got,
                             "shape " + std::to_string(I));
        }
        EXPECT_GE(SharedFirstKey, 2);
        EXPECT_EQ(Cache.stats().JitMisses - MissesBefore, 1u);
      }
    }
  }
  EXPECT_GE(Routed, 12);
}

TEST(PackedSortConversions, PackedDimsMatchTheOracleAllPairs) {
  // packedDims tensors take the packed radix sort on every pair whose plan
  // sorts; the interpreter result must equal the oracle. The merge sort is
  // pinned the same way by HugeCorpusMatchesTheOracleAllPairs (71-bit
  // tuples never pack).
  const char *Names[] = {"coo3", "csf", "csf_102", "csf_021"};
  std::vector<int64_t> Dims = packedDims();
  tensor::Triplets T =
      tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], 5000, 23);
  for (const char *SrcName : Names) {
    for (const char *DstName : Names) {
      formats::Format Src = formats::standardFormatOrDie(SrcName);
      formats::Format Dst = formats::standardFormatOrDie(DstName);
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      convert::Converter Conv(Src, Dst);
      tensor::SparseTensor Out = Conv.run(In);
      Out.validate();
      tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
      EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out),
                                tensor::toTriplets(Want)))
          << SrcName << " -> " << DstName;
    }
  }
}

//===----------------------------------------------------------------------===//
// Generated-code structure: every workspace is nnz-proportional
//===----------------------------------------------------------------------===//

TEST(SortedRankingCodegen, AllAllocationsAreNnzSizedNotExtentSized) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts;
  Opts.DimsHint = hugeDims();
  codegen::Conversion Conv = codegen::generateConversion(Coo3, Csf, Opts);
  std::string Code = Conv.cSource();
  // The sorted machinery is present; the dense ranking machinery is not.
  EXPECT_NE(Code.find("cvg_rt->sort_unique_tuples("), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("cvg_lower_bound"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("_rnk"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("present"), std::string::npos) << Code;
  // The acceptance property: no allocation in the routine is sized by a
  // dimension extent. Every malloc/calloc derives from A1_pos[1] (= nnz)
  // or from fiber counts bounded by it — peak rank-workspace memory is
  // O(nnz).
  std::istringstream Lines(Code);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.find("malloc") == std::string::npos &&
        Line.find("calloc") == std::string::npos)
      continue;
    EXPECT_EQ(Line.find("dim"), std::string::npos)
        << "extent-sized allocation in sorted-ranking routine: " << Line;
  }
  // The readable view shows the strategy too.
  EXPECT_NE(Conv.pretty().find("sorted ranking"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// All-pairs correctness on the huge-dimension corpus (interpreter path;
// Converter::run routes to the dims-specialized plan automatically)
//===----------------------------------------------------------------------===//

TEST(SortedRankingConversions, HugeCorpusMatchesTheOracleAllPairs) {
  const char *Names[] = {"coo3", "csf", "csf_102", "csf_021"};
  auto Corpus = tensor::testTensorsHuge3();
  for (const char *SrcName : Names) {
    for (const char *DstName : Names) {
      formats::Format Src = formats::standardFormatOrDie(SrcName);
      formats::Format Dst = formats::standardFormatOrDie(DstName);
      convert::Converter Conv(Src, Dst);
      for (auto &[TName, T] : Corpus) {
        tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
        tensor::SparseTensor Out = Conv.run(In);
        Out.validate();
        tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
        EXPECT_TRUE(
            tensor::equal(tensor::toTriplets(Out), tensor::toTriplets(Want)))
            << SrcName << " -> " << DstName << " on " << TName;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// JIT: 1-vs-4-thread bit-identity on the sorted path (acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(SortedRankingJit, Coo3ToCsfBitIdenticalAtOneAndFourThreads) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  std::vector<int64_t> Dims = hugeDims();
  tensor::Triplets T =
      tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], 20000, 91);
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);

  convert::Converter Interp(Coo3, Csf);
  tensor::SparseTensor Reference = Interp.run(In);

  codegen::Options Opts = codegen::optionsForDims(Coo3, Csf, {}, Dims);
  ASSERT_EQ(Opts.DimsHint, Dims);
  auto Native = convert::PlanCache::instance().jit(Coo3, Csf, Opts);
  EXPECT_TRUE(Native->conversion().cSource().find(
                  "cvg_rt->sort_unique_tuples(") != std::string::npos);
  for (int Threads : {1, 4}) {
    setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
    omp_set_num_threads(Threads);
#endif
    tensor::SparseTensor FromJit = Native->run(In);
    ASSERT_EQ(Reference.Levels.size(), FromJit.Levels.size());
    for (size_t K = 0; K < Reference.Levels.size(); ++K) {
      EXPECT_EQ(Reference.Levels[K].Pos, FromJit.Levels[K].Pos)
          << "level " << K << " with " << Threads << " threads";
      EXPECT_EQ(Reference.Levels[K].Crd, FromJit.Levels[K].Crd)
          << "level " << K << " with " << Threads << " threads";
    }
    EXPECT_EQ(Reference.Vals, FromJit.Vals) << Threads << " threads";
  }
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

//===----------------------------------------------------------------------===//
// Size-grounds diagnostics where no fallback applies
//===----------------------------------------------------------------------===//

TEST(SortedRankingDiagnostics, SkylineTargetIsRejectedOnSizeGrounds) {
  formats::Format Csr = formats::standardFormatOrDie("csr");
  formats::Format Sky = formats::standardFormatOrDie("sky");
  // Supported at ordinary sizes...
  EXPECT_TRUE(codegen::conversionSupported(Csr, Sky));
  // ...but the skyline min-query buffer is 4 bytes * rows, with no sorted
  // fallback: a 2^28-row tensor must be rejected with a diagnostic that
  // names the budget knob instead of allocating a gigabyte.
  std::string Why;
  std::vector<int64_t> Dims = {int64_t(1) << 28, int64_t(1) << 28};
  EXPECT_FALSE(codegen::conversionSupported(Csr, Sky, Dims, &Why));
  EXPECT_NE(Why.find("size grounds"), std::string::npos) << Why;
  EXPECT_NE(Why.find("CONVGEN_RANK_DENSE_MAX_BYTES"), std::string::npos)
      << Why;
}

TEST(SortedRankingDiagnostics, ComputedDimensionsCannotTakeTheFallback) {
  formats::Format Coo = formats::standardFormatOrDie("coo");
  formats::Format Bcsr = formats::standardFormatOrDie("bcsr");
  EXPECT_TRUE(codegen::conversionSupported(Coo, Bcsr));
  // BCSR's stored dimensions are computed (block indices), which the
  // tuple-collection sweep cannot read as plain coordinates.
  std::string Why;
  std::vector<int64_t> Dims = {int64_t(1) << 26, int64_t(1) << 26};
  EXPECT_FALSE(codegen::conversionSupported(Coo, Bcsr, Dims, &Why));
  EXPECT_NE(Why.find("size grounds"), std::string::npos) << Why;
}

TEST(SortedRankingDiagnostics, ConverterReturnsTheSizeReason) {
  formats::Format Coo = formats::standardFormatOrDie("coo");
  formats::Format Sky = formats::standardFormatOrDie("sky");
  tensor::Triplets T;
  T.NumRows = int64_t(1) << 28;
  T.NumCols = int64_t(1) << 28;
  T.Entries = {tensor::Entry{5, 2, 1.0}, tensor::Entry{9, 9, 2.0}};
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo, T);
  convert::Converter Conv(Coo, Sky);
  // Formerly a death test; the checked API returns the planner's
  // size-grounds diagnostic as a recoverable error (run() still aborts
  // with the same message for unchecked callers).
  StatusOr<tensor::SparseTensor> R = Conv.tryRun(In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::Unsupported);
  EXPECT_NE(R.status().message().find("size grounds"), std::string::npos)
      << R.status().message();
}

TEST(SortedRankingDiagnostics, JitWithoutTheSortedPlanIsRejected) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  std::vector<int64_t> Dims = hugeDims();
  tensor::Triplets T = tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], 50, 5);
  tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
  // A JIT object compiled from the default (dense-ranking) plan must
  // refuse huge-dims inputs instead of allocating by extent products.
  // This is a request error, not an environment error — tryRun returns it
  // as a Status and never falls back to the interpreter (which would
  // misbehave identically under this plan).
  auto Native = convert::PlanCache::instance().jit(Coo3, Csf);
  StatusOr<tensor::SparseTensor> R = Native->tryRun(In);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(R.status().message().find("sorted-ranking"), std::string::npos)
      << R.status().message();
}
