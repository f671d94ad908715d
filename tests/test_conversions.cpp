//===----------------------------------------------------------------------===//
// End-to-end tests for generated conversion routines: every supported
// (source, target) format pair, on every test matrix, validated against the
// independent oracle builders. This is the main correctness property of the
// system: convert(build(src, T)) == build(dst, T).
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "service/ConversionService.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <gtest/gtest.h>

#include <cstdlib>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;

namespace {

std::vector<std::string> formatNames() {
  return {"coo", "csr", "csc", "dia", "ell", "bcsr", "sky"};
}

bool needsLowerTriangular(const std::string &Name) { return Name == "sky"; }

bool matrixIsLowerTriangular(const tensor::Triplets &T) {
  for (const tensor::Entry &E : T.Entries)
    if (E.Col > E.Row)
      return false;
  return true;
}

tensor::Triplets matrixByName(const std::string &Name) {
  for (auto &[N, T] : tensor::testMatrices())
    if (N == Name)
      return T;
  ADD_FAILURE() << "unknown matrix " << Name;
  return {};
}

} // namespace

//===----------------------------------------------------------------------===//
// Support matrix
//===----------------------------------------------------------------------===//

TEST(ConversionSupport, ExpectedPairs) {
  // Every standard pair is supported. BCSR targets need deduplicating
  // assembly; sources that cannot provide the row-major iteration order
  // the sequenced workspace wants (csc/dia/ell/bcsr) fall back to ranked
  // dedup insertion, which assumes nothing about the source's order.
  for (const std::string &Src : formatNames())
    for (const std::string &Dst : formatNames()) {
      std::string Why;
      bool Supported =
          codegen::conversionSupported(formats::standardFormatOrDie(Src),
                                       formats::standardFormatOrDie(Dst),
                                       &Why);
      EXPECT_TRUE(Supported) << Src << " -> " << Dst << ": " << Why;
    }
}

//===----------------------------------------------------------------------===//
// All-pairs correctness
//===----------------------------------------------------------------------===//

struct ConvCase {
  std::string Src, Dst, Matrix;
};

class ConversionCorrect : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConversionCorrect, MatchesOracle) {
  const ConvCase &C = GetParam();
  formats::Format Src = formats::standardFormatOrDie(C.Src);
  formats::Format Dst = formats::standardFormatOrDie(C.Dst);
  if (!codegen::conversionSupported(Src, Dst))
    GTEST_SKIP() << "documented unsupported pair";
  tensor::Triplets T = matrixByName(C.Matrix);
  if ((needsLowerTriangular(C.Src) || needsLowerTriangular(C.Dst)) &&
      !matrixIsLowerTriangular(T))
    GTEST_SKIP() << "skyline requires lower-triangular input";

  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  convert::Converter Conv(Src, Dst);
  tensor::SparseTensor Out = Conv.run(In);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T))
      << C.Src << " -> " << C.Dst << " on " << C.Matrix << "\n"
      << Conv.conversion().pretty();
}

namespace {

std::vector<ConvCase> allCases() {
  std::vector<ConvCase> Cases;
  for (const std::string &Src : formatNames())
    for (const std::string &Dst : formatNames())
      for (auto &[Name, T] : tensor::testMatrices())
        Cases.push_back({Src, Dst, Name});
  return Cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPairs, ConversionCorrect,
                         ::testing::ValuesIn(allCases()),
                         [](const auto &Info) {
                           return Info.param.Src + "_to_" + Info.param.Dst +
                                  "_" + Info.param.Matrix;
                         });

//===----------------------------------------------------------------------===//
// All-pairs correctness, order 3: coo3/csf/csf-permuted on every test
// tensor, against the oracle builders. CSF targets exercise edge insertion
// below compressed ancestors (ranked dedup); the permuted pairs exercise
// nontrivial 3-D coordinate remappings.
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> format3Names() {
  return {"coo3", "csf", "csf_102", "csf_021"};
}

tensor::Triplets tensor3ByName(const std::string &Name) {
  for (auto &[N, T] : tensor::testTensors3())
    if (N == Name)
      return T;
  ADD_FAILURE() << "unknown tensor " << Name;
  return {};
}

} // namespace

TEST(ConversionSupport, AllOrder3PairsSupported) {
  for (const std::string &Src : format3Names())
    for (const std::string &Dst : format3Names()) {
      std::string Why;
      EXPECT_TRUE(
          codegen::conversionSupported(formats::standardFormatOrDie(Src),
                                       formats::standardFormatOrDie(Dst),
                                       &Why))
          << Src << " -> " << Dst << ": " << Why;
    }
}

class Conversion3Correct : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conversion3Correct, MatchesOracle) {
  const ConvCase &C = GetParam();
  formats::Format Src = formats::standardFormatOrDie(C.Src);
  formats::Format Dst = formats::standardFormatOrDie(C.Dst);
  tensor::Triplets T = tensor3ByName(C.Matrix);
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  convert::Converter Conv(Src, Dst);
  tensor::SparseTensor Out = Conv.run(In);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T))
      << C.Src << " -> " << C.Dst << " on " << C.Matrix << "\n"
      << Conv.conversion().pretty();
}

namespace {

std::vector<ConvCase> allCases3() {
  std::vector<ConvCase> Cases;
  for (const std::string &Src : format3Names())
    for (const std::string &Dst : format3Names())
      for (auto &[Name, T] : tensor::testTensors3())
        Cases.push_back({Src, Dst, Name});
  return Cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPairs3, Conversion3Correct,
                         ::testing::ValuesIn(allCases3()),
                         [](const auto &Info) {
                           return Info.param.Src + "_to_" + Info.param.Dst +
                                  "_" + Info.param.Matrix;
                         });

TEST(Conversion3, CsfRoundTripSortsUnorderedCoo) {
  // coo3 -> csf -> coo3 is the canonical sort pipeline: CSF's ranked
  // assembly accepts coordinates in any order and its stored order is
  // lexicographic, so reading it back yields sorted coo3.
  tensor::Triplets T = tensor3ByName("random3");
  tensor::SparseTensor Coo =
      tensor::buildFromTriplets(formats::makeCOO(3), T);
  convert::Converter ToCsf(formats::makeCOO(3), formats::makeCSF(3));
  convert::Converter Back(formats::makeCSF(3), formats::makeCOO(3));
  tensor::SparseTensor Sorted = Back.run(ToCsf.run(Coo));
  Sorted.validate();
  // Bit-identical to the oracle's sorted coo3 build.
  tensor::SparseTensor Want =
      tensor::buildFromTriplets(formats::makeCOO(3), T);
  EXPECT_EQ(Sorted.Levels[0].Crd, Want.Levels[0].Crd);
  EXPECT_EQ(Sorted.Levels[1].Crd, Want.Levels[1].Crd);
  EXPECT_EQ(Sorted.Levels[2].Crd, Want.Levels[2].Crd);
  EXPECT_EQ(Sorted.Vals, Want.Vals);
}

//===----------------------------------------------------------------------===//
// Source-order validation at the conversion boundary: plans whose dedup
// assembly trusts the source's iteration order reject unsorted inputs.
//===----------------------------------------------------------------------===//

TEST(SourceOrder, ChainedCscCooBcsrErrorsOutOnColumnMajorCoo) {
  // csc -> coo legally yields *column-major* coo (a valid tensor whose
  // row crd array is unsorted). Feeding it into coo -> bcsr used to
  // assemble garbage silently, because bcsr's sequenced dedup assembly
  // assumes the grouping coordinates arrive as an ordered prefix (the
  // ROADMAP's open sortedness item). The boundary check now rejects it.
  tensor::Triplets T = matrixByName("banded_random");
  tensor::SparseTensor Csc =
      tensor::buildFromTriplets(formats::makeCSC(), T);
  convert::Converter ToCoo(formats::makeCSC(), formats::makeCOO());
  tensor::SparseTensor ColMajorCoo = ToCoo.run(Csc);
  ColMajorCoo.validate(); // a perfectly valid (unsorted) coo tensor
  EXPECT_FALSE(ColMajorCoo.lexOrderedUpTo(1));

  convert::Converter ToBcsr(formats::makeCOO(), formats::makeBCSR(4, 4));
  // Formerly a death test; the boundary check is now a recoverable error
  // (run() still aborts with the same message for unchecked callers).
  StatusOr<tensor::SparseTensor> Rejected = ToBcsr.tryRun(ColMajorCoo);
  ASSERT_FALSE(Rejected.ok());
  EXPECT_EQ(Rejected.status().code(), ErrorCode::InvalidArgument);
  EXPECT_NE(Rejected.status().message().find("lexicographically sorted"),
            std::string::npos)
      << Rejected.status().message();

  // The same matrix through a sorted coo converts fine and matches the
  // oracle (the check rejects unsorted *inputs*, not the pair).
  tensor::SparseTensor SortedCoo =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  tensor::SparseTensor Out = ToBcsr.run(SortedCoo);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

TEST(SourceOrder, CsfTargetsAcceptUnsortedSourcesViaRankedAssembly) {
  // Ranked dedup assembly assumes nothing about source order, so CSF
  // targets carry no lex requirement at all: converting column-major coo3
  // (built by permuting a sorted tensor through csf_102) works and agrees
  // with the oracle.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(3), formats::makeCSF(3));
  EXPECT_EQ(Conv.Asm.LexCheckLevels, 0);
  codegen::Conversion ToBcsr = codegen::generateConversion(
      formats::makeCOO(), formats::makeBCSR(4, 4));
  EXPECT_EQ(ToBcsr.Asm.LexCheckLevels, 1);
}

//===----------------------------------------------------------------------===//
// Option variants exercise the ablation paths on the seven paper pairs.
//===----------------------------------------------------------------------===//

struct OptionCase {
  const char *Name;
  codegen::Options Opts;
};

class ConversionOptions : public ::testing::TestWithParam<OptionCase> {};

TEST_P(ConversionOptions, Table3PairsStillCorrect) {
  const codegen::Options &Opts = GetParam().Opts;
  const std::pair<const char *, const char *> Pairs[] = {
      {"coo", "csr"}, {"coo", "dia"}, {"csr", "csc"}, {"csr", "dia"},
      {"csr", "ell"}, {"csc", "dia"}, {"csc", "ell"}};
  tensor::Triplets T = matrixByName("banded_random");
  for (auto [S, D] : Pairs) {
    formats::Format Src = formats::standardFormatOrDie(S);
    formats::Format Dst = formats::standardFormatOrDie(D);
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
    convert::Converter Conv(Src, Dst, Opts);
    tensor::SparseTensor Out = Conv.run(In);
    Out.validate();
    EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T))
        << S << " -> " << D << " with options " << GetParam().Name;
  }
}

namespace {

codegen::Options makeOpts(bool OptQ, bool CntReuse, bool Mat) {
  codegen::Options O;
  O.OptimizeQueries = OptQ;
  O.CounterReuse = CntReuse;
  O.MaterializeRemap = Mat;
  return O;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Ablations, ConversionOptions,
    ::testing::Values(
        OptionCase{"default", makeOpts(true, true, false)},
        OptionCase{"no_query_opt", makeOpts(false, true, false)},
        OptionCase{"no_counter_reuse", makeOpts(true, false, false)},
        OptionCase{"materialized_remap", makeOpts(true, true, true)},
        OptionCase{"all_off", makeOpts(false, false, true)}),
    [](const auto &Info) { return std::string(Info.param.Name); });

//===----------------------------------------------------------------------===//
// Generated-code structure: the Figure 6 golden properties.
//===----------------------------------------------------------------------===//

TEST(GeneratedCode, CsrToEllUsesScalarCounterAndPosWidths) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeELL());
  std::string Code = Conv.pretty();
  // K comes from pos-array widths (Figure 6b lines 1-5), not a histogram.
  EXPECT_NE(Code.find("A2_pos[i + 1] - A2_pos[i]"), std::string::npos)
      << Code;
  // The counter is a reused scalar, not an array (§4.2).
  EXPECT_EQ(Code.find("cnt0 = (int32_t*)calloc"), std::string::npos) << Code;
  EXPECT_NE(Code.find("cnt0 = 0"), std::string::npos) << Code;
}

TEST(GeneratedCode, CscToEllUsesCounterArray) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSC(), formats::makeELL());
  std::string Code = Conv.pretty();
  EXPECT_NE(Code.find("cnt0 = (int32_t*)calloc"), std::string::npos) << Code;
}

TEST(GeneratedCode, CooToCsrHasHistogramPrefixSumAndShift) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(), formats::makeCSR());
  std::string Code = Conv.pretty();
  // Histogram count per row (analysis), sequenced edge insertion
  // (pos[i+1] = pos[i] + count), and the finalize shift of Figure 6c.
  EXPECT_NE(Code.find("q2_nir"), std::string::npos) << Code;
  EXPECT_NE(Code.find("B2_pos[e1 + 1] = B2_pos[e1] + q2_nir[e1]"),
            std::string::npos)
      << Code;
  EXPECT_NE(Code.find("B2_pos[0] = 0"), std::string::npos) << Code;
}

TEST(GeneratedCode, CsrToDiaBuildsPermAndRperm) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeDIA());
  std::string Code = Conv.pretty();
  EXPECT_NE(Code.find("q1_nz"), std::string::npos) << Code;      // id bit set
  EXPECT_NE(Code.find("B1_perm"), std::string::npos) << Code;    // perm build
  EXPECT_NE(Code.find("B1_rperm"), std::string::npos) << Code;   // inverse
  EXPECT_NE(Code.find("j - i"), std::string::npos) << Code;      // remap
}

TEST(GeneratedCode, QueriesExposedForInspection) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeELL());
  ASSERT_EQ(Conv.Queries.size(), 1u);
  EXPECT_EQ(Conv.Queries[0].first, "q1_max_crd");
  // Optimized to a single prefix sweep over the pos array.
  EXPECT_EQ(query::printCin(Conv.Queries[0].second),
            "forall(src:1) q1_max_crd[] max= nnz(B, level 2)\n");
}

//===----------------------------------------------------------------------===//
// Tall extents through the JIT service at the default 8 MB thread stack
//===----------------------------------------------------------------------===//

TEST(ConversionJit, TallExtentsConvertAtTheDefaultStack) {
  // At 2^22 rows or columns a per-row histogram (int32) is 16 MB and DIA's
  // diagonal-presence set (uint8, rows + cols - 1 entries) is 8 MB. OpenMP
  // array-section reductions would place one private copy per thread on
  // the thread's stack and crash the process, even at one thread; the
  // generated routines must keep those copies on the heap. A thousand
  // nonzeros keep the planner disengaged, so the direct routine runs.
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  const int64_t Big = int64_t(1) << 22;
  struct Case {
    const char *Src;
    const char *Dst;
    int64_t Rows, Cols;
    bool OneDiagonal;
  };
  const Case Cases[] = {
      {"coo", "csr", Big, 64, false},
      {"csr", "csc", 64, Big, false},
      {"csc", "csr", Big, 64, false},
      {"csr", "dia", Big, Big, true},
  };
  convert::ConversionService Service;
  for (int Threads : {1, 4}) {
    setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
    omp_set_num_threads(Threads);
#endif
    for (const Case &C : Cases) {
      SCOPED_TRACE(std::string(C.Src) + " -> " + C.Dst + " at " +
                   std::to_string(Threads) + " threads");
      tensor::Triplets T;
      T.NumRows = C.Rows;
      T.NumCols = C.Cols;
      for (int64_t E = 0; E < 1000; ++E) {
        // Rows spread over the whole extent; one diagonal for DIA.
        int64_t Row = (E * 4099) % C.Rows;
        int64_t Col = C.OneDiagonal ? Row : (E * 7919) % C.Cols;
        T.Entries.push_back(
            tensor::Entry(Row, Col, static_cast<double>(E + 1)));
      }
      formats::Format Src = formats::standardFormatOrDie(C.Src);
      formats::Format Dst = formats::standardFormatOrDie(C.Dst);
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      convert::ConversionRequest Req;
      Req.Source = Src;
      Req.Target = Dst;
      Req.Input = &In;
      StatusOr<tensor::SparseTensor> Out = Service.convert(Req);
      ASSERT_TRUE(Out.ok()) << Out.status().toString();
      tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
      ASSERT_EQ(Want.Levels.size(), Out->Levels.size());
      for (size_t K = 0; K < Want.Levels.size(); ++K) {
        EXPECT_EQ(Want.Levels[K].Pos, Out->Levels[K].Pos) << "level " << K;
        EXPECT_EQ(Want.Levels[K].Crd, Out->Levels[K].Crd) << "level " << K;
        EXPECT_EQ(Want.Levels[K].Perm, Out->Levels[K].Perm) << "level " << K;
        EXPECT_EQ(Want.Levels[K].SizeParam, Out->Levels[K].SizeParam)
            << "level " << K;
      }
      EXPECT_EQ(Want.Vals, Out->Vals);
    }
  }
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}
