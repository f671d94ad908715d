//===----------------------------------------------------------------------===//
// Unit tests for the plan explainer (src/planner/): decide() reports
// exactly the options codegen::optionsForDims routes a request to, labels
// them "direct" or "direct+sorted", names the sorted-ranking rule with its
// numbers, never claims a measured win, and disengages only for
// unsupported pairs. The rule itself is pinned in test_hypersparse.
//===----------------------------------------------------------------------===//

#include "planner/Planner.h"

#include "codegen/Generator.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace convgen;

namespace {

planner::InputStats statsFor(int64_t Nnz, std::vector<int64_t> Dims) {
  planner::InputStats S;
  S.Nnz = Nnz;
  S.Dims = std::move(Dims);
  return S;
}

} // namespace

TEST(PlanExplainer, ReportsExactlyTheRoutedOptions) {
  struct Case {
    const char *Src;
    const char *Dst;
    std::vector<int64_t> Dims;
    int64_t Nnz;
    const char *Label;
  };
  const Case Cases[] = {
      {"csr", "csc", {100, 100}, 10000, "direct"},
      {"coo", "csr", {int64_t(1) << 31, int64_t(1) << 31}, 100000, "direct"},
      {"coo3", "csf", {2048, 2048, 64}, 40000, "direct+sorted"},
      {"coo3", "csf", {2048, 2048, 64}, 4000000, "direct"},
      {"csf_102", "csf", {512, 512, 64}, 40000, "direct+sorted"},
      {"coo3", "csf", {64, 64, 64}, 10000, "direct"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.Src) + " -> " + C.Dst + ", nnz " +
                 std::to_string(C.Nnz));
    formats::Format Src = formats::standardFormatOrDie(C.Src);
    formats::Format Dst = formats::standardFormatOrDie(C.Dst);
    planner::Decision D = planner::decide(Src, Dst, codegen::Options(),
                                          statsFor(C.Nnz, C.Dims));
    ASSERT_TRUE(D.Engaged) << D.Why;
    EXPECT_FALSE(D.MeasuredWin);
    EXPECT_EQ(D.Chosen.Kind, planner::Candidate::Path::Direct);
    EXPECT_EQ(D.Chosen.Label, C.Label) << D.Why;
    ASSERT_EQ(D.Chosen.Hops.size(), 1u);
    codegen::Options Routed =
        codegen::optionsForDims(Src, Dst, codegen::Options(), C.Dims, C.Nnz);
    const codegen::Options &Got = D.Chosen.Hops[0].Opts;
    EXPECT_EQ(Got.DimsHint, Routed.DimsHint);
    EXPECT_EQ(Got.ForceSortedRanking, Routed.ForceSortedRanking);
    EXPECT_EQ(convert::planKey(Src, Dst, Got),
              convert::planKey(Src, Dst, Routed));
  }
}

TEST(PlanExplainer, WhyNamesTheRuleWithItsNumbers) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  planner::Decision Sorted = planner::decide(
      Coo3, Csf, codegen::Options(), statsFor(40000, {2048, 2048, 64}));
  // Level 2 groups (i, j): 2048 * 2048 dense rank entries.
  EXPECT_NE(Sorted.Why.find("sorted ranking"), std::string::npos)
      << Sorted.Why;
  EXPECT_NE(Sorted.Why.find("4194304"), std::string::npos) << Sorted.Why;
  EXPECT_NE(Sorted.Why.find("40000"), std::string::npos) << Sorted.Why;
  planner::Decision Dense = planner::decide(
      Coo3, Csf, codegen::Options(), statsFor(4000000, {2048, 2048, 64}));
  EXPECT_NE(Dense.Why.find("default plan"), std::string::npos) << Dense.Why;
  EXPECT_NE(Dense.Why.find("4000000"), std::string::npos) << Dense.Why;
}

TEST(PlanExplainer, DisengagesOnlyForUnsupportedPairs) {
  // Different canonical orders: no plan exists.
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csf"),
      codegen::Options(), statsFor(100, {10, 10}));
  EXPECT_FALSE(D.Engaged);
  EXPECT_NE(D.Why.find("unsupported"), std::string::npos) << D.Why;
  // Tiny inputs engage too: there is no nnz floor.
  planner::Decision Tiny = planner::decide(
      formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("csc"),
      codegen::Options(), statsFor(1, {10, 10}));
  EXPECT_TRUE(Tiny.Engaged) << Tiny.Why;
  EXPECT_EQ(Tiny.Chosen.Label, "direct");
}

TEST(PlanExplainer, CallerForcedSortedRankingIsReportedAsIs) {
  codegen::Options Forced;
  Forced.ForceSortedRanking = true;
  planner::Decision D = planner::decide(
      formats::standardFormatOrDie("coo"), formats::standardFormatOrDie("csr"),
      Forced, statsFor(100000, {100, 100}));
  ASSERT_TRUE(D.Engaged) << D.Why;
  EXPECT_EQ(D.Chosen.Label, "direct+sorted");
  EXPECT_TRUE(D.Chosen.Hops[0].Opts.ForceSortedRanking);
}
