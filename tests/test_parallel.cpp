//===----------------------------------------------------------------------===//
// Tests for the parallelism annotation: which generated loops carry it,
// and — the load-bearing property — that JIT execution is bit-identical to
// the serial reference interpreter regardless of the OpenMP thread count,
// across every supported conversion pair and every test matrix. All
// annotated loops are deterministic by construction (exact integer
// reductions, privatized scalar counters, disjoint stores), so this holds
// with any scheduler.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "ir/Interpreter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;

namespace {

/// Parallel loops in emitted C: each opens exactly one parallel region,
/// either "#pragma omp parallel for" or — for reduction sweeps — a
/// "#pragma omp parallel" region around a worksharing loop.
size_t countPragmas(const std::string &Code) {
  size_t Count = 0;
  for (size_t At = Code.find("#pragma omp parallel");
       At != std::string::npos;
       At = Code.find("#pragma omp parallel", At + 1))
    ++Count;
  return Count;
}

/// The analysis section of an emitted routine: the attribute-query
/// sweeps, up to edge insertion.
std::string analysisSection(const std::string &Code) {
  size_t Begin = Code.find("// analysis: compute attribute queries");
  size_t End = Code.find("// assembly: edge insertion", Begin);
  return Begin == std::string::npos ? "" : Code.substr(Begin, End - Begin);
}

/// Conditions (the text between the two semicolons) of every `for (` in
/// \p Code.
std::vector<std::string> forConditions(const std::string &Code) {
  std::vector<std::string> Out;
  for (size_t At = Code.find("for ("); At != std::string::npos;
       At = Code.find("for (", At + 1)) {
    size_t First = Code.find(';', At);
    size_t Second = Code.find(';', First + 1);
    Out.push_back(Code.substr(First + 1, Second - First - 1));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Annotation placement
//===----------------------------------------------------------------------===//

TEST(ParallelAnnotation, CooToCsrCountingSweepUsesAHistogramReduction) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(), formats::makeCSR());
  std::string Code = Conv.cSource();
  // The counting sweep reduces into per-thread histograms (the readable
  // view's notation)...
  EXPECT_NE(Conv.pretty().find(
                "#pragma omp parallel for reduction(+:q2_nir[0:dim0])"),
            std::string::npos)
      << Conv.pretty();
  // ...lowered without OpenMP array-section reductions, whose private
  // copies live on the thread stack and overflow it at a few million
  // rows: each thread accumulates into a zeroed heap copy, merged into
  // the shared histogram after the loop.
  EXPECT_EQ(Code.find("reduction("), std::string::npos) << Code;
  EXPECT_NE(Code.find("int32_t *cvg_sh_q2_nir = q2_nir;"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("q2_nir = (int32_t *)calloc(dim0, sizeof(int32_t));"),
            std::string::npos)
      << Code;
  EXPECT_NE(Code.find("cvg_sh_q2_nir[cvg_r] += q2_nir[cvg_r];"),
            std::string::npos)
      << Code;
  // A coo source gives no structural ordering guarantee (its crd arrays
  // may legally be unsorted, e.g. csc -> coo output), so insertion takes
  // the Blocked cursor strategy: per-partition counting, the offsets
  // conversion, and the blocked insertion pass all parallelize — four
  // annotated loops in total.
  EXPECT_NE(Code.find("blocked coordinate insertion"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("B2_cur"), std::string::npos) << Code;
  EXPECT_EQ(countPragmas(Code), 4u) << Code;
}

TEST(ParallelAnnotation, CooToCsrInsertionLoopIsParallel) {
  // The acceptance property of the per-row-cursor work: the insertion
  // loop itself carries the Parallel annotation.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(), formats::makeCSR());
  std::string Code = Conv.cSource();
  size_t At = Code.find("blocked coordinate insertion");
  ASSERT_NE(At, std::string::npos) << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for", At), std::string::npos)
      << Code;
}

TEST(ParallelAnnotation, CsrToCscInsertionUsesBlockedCursors) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeCSC());
  std::string Code = Conv.cSource();
  // The transpose: per-partition cursor rows seeded from the pos array
  // turn the serial column-cursor insertion into the classic parallel
  // CSR->CSC algorithm. Counting sweep + count pass + offsets + insertion
  // all carry the annotation.
  EXPECT_NE(Code.find("B2_cur"), std::string::npos) << Code;
  size_t At = Code.find("blocked coordinate insertion");
  ASSERT_NE(At, std::string::npos) << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for", At), std::string::npos)
      << Code;
  EXPECT_EQ(countPragmas(Code), 4u) << Code;
}

TEST(ParallelAnnotation, CsrToCooInsertionIsMonotoneAndCursorFree) {
  // A root compressed target consumes source positions directly: no
  // cursor array, no finalize shift, and the single fused insertion pass
  // parallelizes like a pure-level target.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeCOO());
  std::string Code = Conv.cSource();
  EXPECT_EQ(Code.find("B1_cur"), std::string::npos) << Code;
  size_t At = Code.find("coordinate insertion");
  ASSERT_NE(At, std::string::npos) << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for", At), std::string::npos)
      << Code;
  EXPECT_EQ(countPragmas(Code), 2u) << Code;
}

TEST(ParallelAnnotation, CsrToCsrInsertionIsMonotone) {
  // Dense-loop sources whose outer loops match the target's parent
  // coordinates take the Monotone strategy: position == source position.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeCSR());
  std::string Code = Conv.pretty();
  EXPECT_EQ(Code.find("B2_cur"), std::string::npos) << Code;
  // No cursor consumption and no shift-back: B2_pos is written only by
  // edge insertion.
  EXPECT_EQ(Code.find("B2_pos[i] = pB2 + 1"), std::string::npos) << Code;
}

TEST(ParallelAnnotation, SortedChainPosBuildLowersThroughScans) {
  // The routed sorted coo3 -> csf plan builds each chained level's parent
  // ranks with an additive ir::Scan over its prefix-change flags and
  // closes empty parents' gaps with a max scan; both lower to calls of the
  // prebuilt runtime's blocked parallel scan, handed the routine's
  // partition count.
  formats::Format Coo3 = formats::makeCOO(3), Csf = formats::makeCSF(3);
  codegen::Options Opts = codegen::optionsForDims(
      Coo3, Csf, codegen::Options(), {2048, 2048, 64}, 40000);
  ASSERT_TRUE(Opts.ForceSortedRanking);
  codegen::Conversion Conv = codegen::generateConversion(Coo3, Csf, Opts);
  std::string Pretty = Conv.pretty();
  EXPECT_NE(Pretty.find("inclusive_scan(B2_pfx, uB2);"), std::string::npos)
      << Pretty;
  EXPECT_NE(Pretty.find("inclusive_max_scan(B2_pos, szB1 + 1);"),
            std::string::npos)
      << Pretty;
  std::string Code = Conv.cSource();
  for (const char *Call :
       {"cvg_rt->scan_sum(B2_pfx, uB2, cvg_nparts());",
        "cvg_rt->scan_sum(B3_pfx, uB3, cvg_nparts());",
        "cvg_rt->scan_max(B1_pos, 2, cvg_nparts());",
        "cvg_rt->scan_max(B2_pos, szB1 + 1, cvg_nparts());",
        "cvg_rt->scan_max(B3_pos, szB2 + 1, cvg_nparts());"})
    EXPECT_NE(Code.find(Call), std::string::npos) << Call << "\n" << Code;
  // The parallel-loop census of the sorted routine: the scans, the sort
  // and the prefix compactions open their parallel regions inside the
  // runtime, so the routine's own pragmas are its annotated loops alone —
  // the tuple collect sweep, three block-end marks, two prefix-flag fills,
  // three crd writes and coordinate insertion.
  EXPECT_EQ(countPragmas(Code), 10u) << Code;
}

TEST(ParallelAnnotation, CsrToEllInsertionPrivatizesTheScalarCounter) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeELL());
  std::string Code = Conv.cSource();
  // Analysis sweep: max-reduction over the pos-array widths. Insertion:
  // per-row loop with the reused scalar counter privatized.
  EXPECT_NE(Conv.pretty().find("reduction(max:q1_max_crd[0:1])"),
            std::string::npos)
      << Conv.pretty();
  // Each thread starts its private maximum at the identity.
  EXPECT_NE(Code.find("q1_max_crd[cvg_r] = INT32_MIN;"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for private(cnt0)"),
            std::string::npos)
      << Code;
  EXPECT_EQ(countPragmas(Code), 2u) << Code;
}

TEST(ParallelAnnotation, CooToDiaParallelizesBothSweepAndInsertion) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(), formats::makeDIA());
  std::string Code = Conv.cSource();
  // The id-query sweep reduces bit sets; insertion touches only pure
  // (squeezed/dense/offset) levels, so the flat nonzero loop parallelizes.
  EXPECT_NE(Conv.pretty().find("reduction(|:q1_nz[0:"), std::string::npos)
      << Conv.pretty();
  EXPECT_EQ(countPragmas(Code), 2u) << Code;
}

TEST(ParallelAnnotation, QuadraticWorkspaceReductionsStaySerial) {
  // Canonical (unoptimized) count queries materialize an O(rows * cols)
  // dedup workspace. A per-thread private copy of it would cost every
  // thread rows * cols bytes, so the sweep over a multi-extent workspace
  // must not be annotated. The one-dimensional result histogram keeps its
  // reduction.
  codegen::Options NoOpt;
  NoOpt.OptimizeQueries = false;
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSR(), formats::makeCSC(), NoOpt);
  std::string View = Conv.pretty();
  EXPECT_NE(View.find("q2_nir_w"), std::string::npos) << View;
  EXPECT_EQ(View.find("reduction(|:q2_nir_w"), std::string::npos) << View;
  EXPECT_NE(View.find("reduction(+:q2_nir[0:dim1])"), std::string::npos)
      << View;
  EXPECT_EQ(Conv.cSource().find("cvg_sh_q2_nir_w"), std::string::npos);
}

TEST(ParallelAnnotation, CscToEllKeepsTheCounterArrayLoopSerial) {
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSC(), formats::makeELL());
  std::string Code = Conv.cSource();
  // ELL's per-row counter is indexed by i while CSC iterates columns:
  // cells are shared across outer iterations, so insertion stays serial.
  std::string Insertion = Code.substr(Code.find("coordinate insertion"));
  EXPECT_EQ(countPragmas(Insertion), 0u) << Code;
}

//===----------------------------------------------------------------------===//
// Codegen shape of the blocked passes and the analysis sweep
//===----------------------------------------------------------------------===//

namespace {

/// Pairs whose insertion takes the Blocked cursor strategy.
const std::vector<std::pair<const char *, const char *>> BlockedPairs = {
    {"coo", "csr"},  {"csr", "csc"},  {"csc", "csr"},
    {"dia", "csr"},  {"ell", "csc"},  {"coo3", "csf"},
    {"csf", "csf_102"}};

std::string cSourceOf(const char *Src, const char *Dst) {
  return codegen::generateConversion(formats::standardFormatOrDie(Src),
                                     formats::standardFormatOrDie(Dst))
      .cSource();
}

} // namespace

TEST(BlockedShape, CountingPassSkipsTheLastPartition) {
  // The offsets scan never reads the last partition's tallies, so the
  // counting pass stops one short; at one partition it runs no iterations.
  for (auto [Src, Dst] : BlockedPairs) {
    std::string Code = cSourceOf(Src, Dst);
    size_t At = Code.find("// per-partition cursor counts");
    ASSERT_NE(At, std::string::npos) << Src << "->" << Dst << "\n" << Code;
    EXPECT_NE(Code.find("for (int64_t cb = 0; cb < cvg_P - 1; cb++)", At),
              std::string::npos)
        << Src << "->" << Dst << "\n" << Code;
    size_t Ins = Code.find("// blocked coordinate insertion");
    EXPECT_NE(Code.find("for (int64_t cb = 0; cb < cvg_P; cb++)", Ins),
              std::string::npos)
        << Src << "->" << Dst << "\n" << Code;
  }
}

TEST(BlockedShape, PartitionBoundsAreLocalsNotLoopConditions) {
  // Each partition's [lo, hi) is evaluated once before its loop; no loop
  // condition redoes the divide per iteration.
  for (auto [Src, Dst] : BlockedPairs) {
    std::string Code = cSourceOf(Src, Dst);
    EXPECT_NE(Code.find("int64_t cb_lo = "), std::string::npos)
        << Src << "->" << Dst << "\n" << Code;
    for (const std::string &Cond : forConditions(Code))
      EXPECT_EQ(Cond.find("/ cvg_P"), std::string::npos)
          << Src << "->" << Dst << ": for condition '" << Cond << "'";
  }
}

TEST(AnalysisShape, TransposeSweepsAreOneFlatPositionLoop) {
  // The column counts of csr -> csc (and the row counts of csc -> ell)
  // read only the innermost coordinate: one loop over all stored
  // positions replaces the row nest. The flat sweep stays one parallel
  // region, so the routine's pragma count is unchanged.
  struct Case {
    const char *Src, *Dst, *Flat, *RowLoop;
    size_t Pragmas;
  };
  for (const Case &C :
       {Case{"csr", "csc",
             "for (int64_t pA2 = A2_pos[0]; pA2 < A2_pos[dim0]; pA2++)",
             "for (int64_t i = 0; i < dim0; i++)", 4},
        Case{"csc", "csr",
             "for (int64_t pA2 = A2_pos[0]; pA2 < A2_pos[dim1]; pA2++)",
             "for (int64_t j = 0; j < dim1; j++)", 4},
        Case{"csc", "ell",
             "for (int64_t pA2 = A2_pos[0]; pA2 < A2_pos[dim1]; pA2++)",
             "for (int64_t j = 0; j < dim1; j++)", 2}}) {
    std::string Code = cSourceOf(C.Src, C.Dst);
    std::string Analysis = analysisSection(Code);
    size_t At = Analysis.find(C.Flat);
    ASSERT_NE(At, std::string::npos) << C.Src << "->" << C.Dst << "\n"
                                     << Analysis;
    EXPECT_EQ(Analysis.find(C.Flat, At + 1), std::string::npos) << Analysis;
    EXPECT_EQ(Analysis.find(C.RowLoop), std::string::npos) << Analysis;
    EXPECT_EQ(countPragmas(Code), C.Pragmas) << Code;
  }
}

TEST(AnalysisShape, PaddedAndParentReadingSweepsStayNested) {
  // Padded sources need their per-slot zero guard, and sweeps whose
  // bodies read the row coordinate (diagonal ids j - i, per-row widths)
  // need the row loop: neither flattens.
  std::regex FlatLoop(R"(for \(int64_t \w+ = A\d_pos\[0\];)");
  struct Case {
    const char *Src, *Dst, *OuterLoop;
  };
  for (const Case &C :
       {Case{"ell", "csr", "for (int64_t c0 = 0; c0 < A1_param; c0++)"},
        Case{"dia", "csr", "for (int64_t sA1 = 0; sA1 < A1_param; sA1++)"},
        Case{"csr", "dia", "for (int64_t i = 0; i < dim0; i++)"},
        Case{"csr", "ell", "for (int64_t i = 0; i < dim0; i++)"}}) {
    std::string Analysis = analysisSection(cSourceOf(C.Src, C.Dst));
    EXPECT_FALSE(std::regex_search(Analysis, FlatLoop))
        << C.Src << "->" << C.Dst << "\n" << Analysis;
    EXPECT_NE(Analysis.find(C.OuterLoop), std::string::npos)
        << C.Src << "->" << C.Dst << "\n" << Analysis;
  }
}

TEST(ParallelAnnotation, InterpreterIgnoresTheFlag) {
  // A parallel-annotated loop interprets exactly like a serial one.
  ir::Stmt Loop = ir::forRange(
      "i", ir::intImm(0), ir::intImm(10),
      ir::store("out", ir::var("i"), ir::var("i"), ir::ReduceOp::Add));
  ir::Stmt Marked = ir::markLoopParallel(
      Loop, {}, {{"out", ir::ReduceOp::Add, ir::intImm(10)}});
  ir::Function F;
  F.Name = "f";
  F.Body = ir::block({ir::alloc("out", ir::ScalarKind::Int, ir::intImm(10),
                                true),
                      Marked,
                      ir::yieldBuffer("B1_crd", "out", ir::intImm(10))});
  ir::Interpreter Interp;
  ir::RunResult R = Interp.run(F);
  ASSERT_EQ(R.Buffers.count("B1_crd"), 1u);
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.Buffers["B1_crd"].Ints[static_cast<size_t>(I)], I);
}

TEST(ParallelAnnotation, Coo3ToCsfParallelizesAtDepthThree) {
  // The depth-3 safety argument the higher-order pipeline rests on: CSF's
  // grouping levels use *ranked* dedup insertion (positions are a pure
  // function of the coordinate tuple, proven order-independent), so the
  // only stateful level is the leaf cursor — which takes the Blocked
  // strategy exactly as in the 2-D coo -> csr case. Count pass, offsets
  // conversion, blocked insertion, and one rank-build loop all carry the
  // annotation; nothing falls back to serial.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(3), formats::makeCSF(3));
  std::string Code = Conv.cSource();
  EXPECT_NE(Code.find("B1_rnk"), std::string::npos) << Code;
  EXPECT_NE(Code.find("B2_rnk"), std::string::npos) << Code;
  EXPECT_NE(Code.find("B3_cur"), std::string::npos) << Code;
  size_t At = Code.find("blocked coordinate insertion");
  ASSERT_NE(At, std::string::npos) << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for", At), std::string::npos)
      << Code;
  // Two query temp-reduction sweeps + rank build (level 2) + count pass +
  // offsets conversion + blocked insertion.
  EXPECT_EQ(countPragmas(Code), 6u) << Code;
}

TEST(ParallelAnnotation, CsfToCooIsMonotoneAndFullyParallel) {
  // A csf source iterates nonzeros in stored order; a coo3 target's root
  // consumes source positions directly (Monotone), singletons are pure.
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCSF(3), formats::makeCOO(3));
  std::string Code = Conv.cSource();
  EXPECT_EQ(Code.find("B1_cur"), std::string::npos) << Code;
  size_t At = Code.find("coordinate insertion");
  ASSERT_NE(At, std::string::npos) << Code;
  EXPECT_NE(Code.find("#pragma omp parallel for", At), std::string::npos)
      << Code;
}

//===----------------------------------------------------------------------===//
// Thread-count invariance: JIT output is bit-identical to the interpreter
// with 1 and 4 OpenMP threads, across the full conversion test matrix.
//===----------------------------------------------------------------------===//

namespace {

struct PairCase {
  std::string Src, Dst;
};

class ThreadInvariance : public ::testing::TestWithParam<PairCase> {};

bool lowerTriangular(const tensor::Triplets &T) {
  for (const tensor::Entry &E : T.Entries)
    if (E.Col > E.Row)
      return false;
  return true;
}

void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got,
                        const std::string &Label) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size()) << Label;
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos) << Label << " level "
                                                     << K;
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd) << Label << " level "
                                                     << K;
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm) << Label << " level "
                                                       << K;
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << Label << " level " << K;
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << Label;
}

} // namespace

TEST_P(ThreadInvariance, JitMatchesInterpreterAtOneAndFourThreads) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Src = formats::standardFormatOrDie(GetParam().Src);
  formats::Format Dst = formats::standardFormatOrDie(GetParam().Dst);
  if (!codegen::conversionSupported(Src, Dst))
    GTEST_SKIP() << "documented unsupported pair";

  convert::Converter Interp(Src, Dst);
  auto Native = convert::PlanCache::instance().jit(Src, Dst);

  bool NeedsLower = GetParam().Src == "sky" || GetParam().Dst == "sky";
  for (auto &[Name, T] : tensor::testMatrices()) {
    if (NeedsLower && !lowerTriangular(T))
      continue;
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
    tensor::SparseTensor Reference = Interp.run(In);
    for (int Threads : {1, 4}) {
      // Belt and braces: omp_set_num_threads reaches the dlopen'd routine
      // when it shares this binary's OpenMP runtime (the common case —
      // both gcc/libgomp); the env var covers a foreign runtime that
      // initializes its ICVs at its first parallel region.
      setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
      omp_set_num_threads(Threads);
#endif
      tensor::SparseTensor FromJit = Native->run(In);
      expectBitIdentical(Reference, FromJit,
                         GetParam().Src + "->" + GetParam().Dst + " on " +
                             Name + " with " + std::to_string(Threads) +
                             " threads");
    }
    unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
    omp_set_num_threads(omp_get_num_procs());
#endif
  }
}

namespace {

std::vector<PairCase> allPairs() {
  std::vector<PairCase> Out;
  for (const char *Src : {"coo", "csr", "csc", "dia", "ell", "bcsr", "sky"})
    for (const char *Dst : {"coo", "csr", "csc", "dia", "ell", "bcsr", "sky"})
      Out.push_back({Src, Dst});
  return Out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPairs, ThreadInvariance,
                         ::testing::ValuesIn(allPairs()),
                         [](const auto &Info) {
                           return Info.param.Src + "_to_" + Info.param.Dst;
                         });

//===----------------------------------------------------------------------===//
// Order-3 thread-count invariance: the acceptance property of the
// higher-order pipeline — coo3/csf/permuted-csf pairs are bit-identical to
// the interpreter at 1 and 4 threads on every order-3 test tensor.
//===----------------------------------------------------------------------===//

class ThreadInvariance3 : public ::testing::TestWithParam<PairCase> {};

TEST_P(ThreadInvariance3, JitMatchesInterpreterAtOneAndFourThreads) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Src = formats::standardFormatOrDie(GetParam().Src);
  formats::Format Dst = formats::standardFormatOrDie(GetParam().Dst);

  convert::Converter Interp(Src, Dst);
  auto Native = convert::PlanCache::instance().jit(Src, Dst);

  for (auto &[Name, T] : tensor::testTensors3()) {
    tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
    tensor::SparseTensor Reference = Interp.run(In);
    for (int Threads : {1, 4}) {
      setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
      omp_set_num_threads(Threads);
#endif
      tensor::SparseTensor FromJit = Native->run(In);
      expectBitIdentical(Reference, FromJit,
                         GetParam().Src + "->" + GetParam().Dst + " on " +
                             Name + " with " + std::to_string(Threads) +
                             " threads");
    }
    unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
    omp_set_num_threads(omp_get_num_procs());
#endif
  }
}

namespace {

std::vector<PairCase> allPairs3() {
  std::vector<PairCase> Out;
  for (const char *Src : {"coo3", "csf", "csf_102", "csf_021"})
    for (const char *Dst : {"coo3", "csf", "csf_102", "csf_021"})
      Out.push_back({Src, Dst});
  return Out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllPairs3, ThreadInvariance3,
                         ::testing::ValuesIn(allPairs3()),
                         [](const auto &Info) {
                           return Info.param.Src + "_to_" + Info.param.Dst;
                         });

//===----------------------------------------------------------------------===//
// Partition-count invariance of blocked insertion
//===----------------------------------------------------------------------===//

namespace {

/// Inputs where partitions outnumber outer iterations or where one
/// partition holds every nonzero: 0, 1 and 2 outer slices, and all
/// nonzeros in the last row (csr-like sources) or column (csc-like).
std::vector<std::pair<std::string, tensor::Triplets>> edgeMatrices() {
  auto make = [](int64_t Rows, int64_t Cols,
                 std::vector<tensor::Entry> Entries) {
    tensor::Triplets T;
    T.NumRows = Rows;
    T.NumCols = Cols;
    T.Entries = std::move(Entries);
    return T;
  };
  std::vector<std::pair<std::string, tensor::Triplets>> Out;
  Out.push_back({"zero_rows", make(0, 5, {})});
  Out.push_back({"one_row", make(1, 6, {{0, 1, 1.5}, {0, 4, -2.0}})});
  Out.push_back({"two_rows",
                 make(2, 3, {{0, 2, 1.0}, {1, 0, 2.0}, {1, 2, 3.0}})});
  Out.push_back({"last_row_only",
                 make(9, 9, {{8, 0, 1.0}, {8, 3, 2.0}, {8, 8, 3.0}})});
  Out.push_back({"last_col_only",
                 make(9, 9, {{0, 8, 1.0}, {4, 8, 2.0}, {8, 8, 3.0}})});
  Out.push_back({"one_nonzero", make(7, 7, {{3, 5, 4.0}})});
  return Out;
}

std::vector<std::pair<std::string, tensor::Triplets>> edgeTensors3() {
  auto make = [](std::vector<int64_t> Dims,
                 std::vector<std::vector<int64_t>> Coords) {
    tensor::Triplets T;
    T.setDims(Dims);
    double V = 1.0;
    for (const std::vector<int64_t> &C : Coords)
      T.Entries.emplace_back(C, V++);
    return T;
  };
  std::vector<std::pair<std::string, tensor::Triplets>> Out;
  Out.push_back({"zero_slices", make({0, 3, 3}, {})});
  Out.push_back({"one_slice", make({1, 3, 4}, {{0, 0, 1}, {0, 2, 3}})});
  Out.push_back(
      {"two_slices", make({2, 3, 3}, {{0, 1, 1}, {1, 0, 2}, {1, 2, 0}})});
  Out.push_back({"last_slice_only",
                 make({6, 4, 4}, {{5, 0, 0}, {5, 1, 3}, {5, 3, 2}})});
  return Out;
}

} // namespace

TEST(BlockedPartitions, BitIdenticalToTheInterpreterAtAnyPartitionCount) {
  // The interpreter runs the blocked passes at partition counts 1, 2, 3,
  // 4 and 7 (serially, no OpenMP needed); the JIT runs them at the same
  // OpenMP thread counts when it has OpenMP. Every run must reproduce the
  // one-partition reference bit for bit, including the inputs where the
  // uncounted last partition holds every nonzero.
  const std::vector<int> Counts = {1, 2, 3, 4, 7};
  for (auto [SrcName, DstName] : BlockedPairs) {
    formats::Format Src = formats::standardFormatOrDie(SrcName);
    formats::Format Dst = formats::standardFormatOrDie(DstName);
    convert::Converter Reference(Src, Dst);
    const codegen::Conversion &Conv = Reference.conversion();
    ASSERT_NE(Conv.cSource().find("blocked coordinate insertion"),
              std::string::npos)
        << SrcName << "->" << DstName;
    std::shared_ptr<jit::JitConversion> Native;
    if (jit::jitAvailable())
      Native = convert::PlanCache::instance().jit(Src, Dst);

    std::vector<std::pair<std::string, tensor::Triplets>> Inputs;
    if (Src.SrcOrder == 2) {
      Inputs = edgeMatrices();
      for (auto &M : tensor::testMatrices())
        Inputs.push_back(M);
    } else {
      Inputs = edgeTensors3();
      for (auto &T : tensor::testTensors3())
        Inputs.push_back(T);
    }
    for (auto &[Name, T] : Inputs) {
      tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
      tensor::SparseTensor Want = Reference.run(In);
      for (int P : Counts) {
        std::string Label = std::string(SrcName) + "->" + DstName + " on " +
                            Name + " at " + std::to_string(P) +
                            " partitions";
        ir::Interpreter Interp;
        Interp.setNumParts(P);
        convert::bindSourceTensor(Interp, In);
        ir::RunResult R = Interp.run(Conv.Func);
        expectBitIdentical(Want,
                           convert::collectTargetTensor(Dst, In.Dims, R),
                           "interpreter " + Label);
        if (!Native)
          continue;
        setenv("OMP_NUM_THREADS", std::to_string(P).c_str(), 1);
#ifdef _OPENMP
        omp_set_num_threads(P);
#endif
        expectBitIdentical(Want, Native->run(In), "jit " + Label);
      }
    }
  }
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}
