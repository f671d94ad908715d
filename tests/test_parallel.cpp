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
#include "convert/PlanCache.h"
#include "formats/Standard.h"
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

TEST(ParallelAnnotation, UnseqEdgeInsertionLowersThroughScan) {
  // With unsequenced edge insertion the pos accumulation is an ir::Scan:
  // the C lowering is the two-pass blocked parallel scan, and the old
  // serial in-place prefix loop is gone.
  codegen::Options Opts;
  Opts.ForceUnseqEdges = true;
  codegen::Conversion Conv = codegen::generateConversion(
      formats::makeCOO(), formats::makeCSR(), Opts);
  EXPECT_NE(Conv.pretty().find("inclusive_scan(B2_pos, szB1 + 1);"),
            std::string::npos)
      << Conv.pretty();
  std::string Code = Conv.cSource();
  EXPECT_NE(Code.find("// inclusive scan of B2_pos[0:szB1 + 1]"),
            std::string::npos)
      << Code;
  EXPECT_EQ(Code.find("B2_pos[s2 + 1] = B2_pos[s2] + B2_pos[s2 + 1]"),
            std::string::npos)
      << Code;
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
