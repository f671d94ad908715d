//===----------------------------------------------------------------------===//
// Tests for the JIT backend: the natively compiled conversion routine must
// agree bit-for-bit with the reference interpreter on every paper pair.
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "jit/Runtime.h"
#include "support/Fault.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>

using namespace convgen;

// Most of this suite verifies *behavior* (bit-exactness with the
// interpreter), which holds even when CONVGEN_FAULT degrades handles to
// interpreter execution — the CI fault leg runs it unchanged. A few tests
// assert *native-path artifacts* (compile time measured, phase counters
// resolved, zero-copy adoption) that a degraded handle legitimately lacks;
// those skip when fault injection is configured.
#define SKIP_UNDER_FAULT_INJECTION()                                          \
  do {                                                                        \
    if (support::faultsConfigured())                                          \
      GTEST_SKIP() << "asserts native-path artifacts; CONVGEN_FAULT is set"; \
  } while (false)

namespace {

struct JitCase {
  const char *Src, *Dst;
};

class JitMatchesInterpreter : public ::testing::TestWithParam<JitCase> {};

} // namespace

TEST_P(JitMatchesInterpreter, OnBandedRandom) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  formats::Format Src = formats::standardFormatOrDie(GetParam().Src);
  formats::Format Dst = formats::standardFormatOrDie(GetParam().Dst);
  tensor::Triplets T = tensor::genBandedRandom(60, 60, 5.0, 14, 11, 99);
  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);

  convert::Converter Interp(Src, Dst);
  jit::JitConversion Native(Interp.conversion());
  tensor::SparseTensor FromInterp = Interp.run(In);
  tensor::SparseTensor FromJit = Native.run(In);
  FromJit.validate();

  // Bit-for-bit storage equality, not just logical equality: the native
  // code must execute the same algorithm.
  ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size());
  for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
    EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos) << K;
    EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd) << K;
    EXPECT_EQ(FromInterp.Levels[K].Perm, FromJit.Levels[K].Perm) << K;
    EXPECT_EQ(FromInterp.Levels[K].SizeParam, FromJit.Levels[K].SizeParam)
        << K;
  }
  EXPECT_EQ(FromInterp.Vals, FromJit.Vals);
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T));
}

INSTANTIATE_TEST_SUITE_P(
    PaperPairs, JitMatchesInterpreter,
    ::testing::Values(JitCase{"coo", "csr"}, JitCase{"coo", "dia"},
                      JitCase{"csr", "csc"}, JitCase{"csr", "dia"},
                      JitCase{"csr", "ell"}, JitCase{"csc", "dia"},
                      JitCase{"csc", "ell"}, JitCase{"csr", "bcsr"},
                      JitCase{"ell", "csr"}, JitCase{"dia", "csc"},
                      JitCase{"coo", "coo"}),
    [](const auto &Info) {
      return std::string(Info.param.Src) + "_to_" + Info.param.Dst;
    });

TEST(Jit3, Order3PairsMatchInterpreterBitExactly) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  const char *Names[] = {"coo3", "csf", "csf_102", "csf_021"};
  for (const char *S : Names)
    for (const char *D : Names) {
      formats::Format Src = formats::standardFormatOrDie(S);
      formats::Format Dst = formats::standardFormatOrDie(D);
      convert::Converter Interp(Src, Dst);
      jit::JitConversion Native(Interp.conversion());
      for (auto &[Name, T] : tensor::testTensors3()) {
        tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
        tensor::SparseTensor FromInterp = Interp.run(In);
        tensor::SparseTensor FromJit = Native.run(In);
        FromJit.validate();
        std::string Label = std::string(S) + " -> " + D + " on " + Name;
        ASSERT_EQ(FromInterp.Levels.size(), FromJit.Levels.size()) << Label;
        for (size_t K = 0; K < FromInterp.Levels.size(); ++K) {
          EXPECT_EQ(FromInterp.Levels[K].Pos, FromJit.Levels[K].Pos)
              << Label << " level " << K;
          EXPECT_EQ(FromInterp.Levels[K].Crd, FromJit.Levels[K].Crd)
              << Label << " level " << K;
        }
        EXPECT_EQ(FromInterp.Vals, FromJit.Vals) << Label;
        EXPECT_TRUE(tensor::equal(tensor::toTriplets(FromJit), T)) << Label;
      }
    }
}

TEST(Jit, EmptyMatrix) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T;
  T.NumRows = 9;
  T.NumCols = 5;
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  tensor::SparseTensor Out = Native.run(In);
  Out.validate();
  EXPECT_EQ(Out.Levels[0].SizeParam, 0);
  EXPECT_TRUE(Out.Vals.empty());
}

TEST(Jit, CompileTimeIsMeasured) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  convert::Converter Conv(formats::makeCSR(), formats::makeELL());
  jit::JitConversion Native(Conv.conversion());
  EXPECT_GT(Native.compileSeconds(), 0.0);
  EXPECT_LT(Native.compileSeconds(), 60.0);
}

TEST(Jit, OutputIsAdoptedNotCopied) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  // collectOutput must take ownership of the routine's malloc'd arrays:
  // the SparseTensor's storage points at the very buffers the generated
  // code yielded, and the CTensor's pointers are nulled.
  tensor::Triplets T = tensor::genBandedRandom(40, 40, 4.0, 9, 7, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCOO(), T);
  convert::Converter Conv(formats::makeCOO(), formats::makeCSR());
  jit::JitConversion Native(Conv.conversion());
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  Native.runRaw(&A, &B);
  const int32_t *YieldedPos = B.pos[2];
  const double *YieldedVals = B.vals;
  tensor::SparseTensor Out =
      jit::collectOutput(Conv.conversion().Target, In.Dims, &B);
  EXPECT_EQ(Out.Levels[1].Pos.data(), YieldedPos);
  EXPECT_EQ(Out.Vals.data(), YieldedVals);
  EXPECT_EQ(B.pos[2], nullptr);
  EXPECT_EQ(B.vals, nullptr);
  Out.validate();
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), T));
}

TEST(Jit, InputIsBoundByPointer) {
  // marshalInput aliases the source tensor's storage — no input copies.
  tensor::Triplets T = tensor::genDiagonals(30, 30, {0}, 1.0, 2);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  jit::CTensor A;
  jit::marshalInput(In, &A);
  EXPECT_EQ(A.pos[2], In.Levels[1].Pos.data());
  EXPECT_EQ(A.crd[2], In.Levels[1].Crd.data());
  EXPECT_EQ(A.vals, In.Vals.data());
}

TEST(Jit, PhaseSecondsAccumulate) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  SKIP_UNDER_FAULT_INJECTION();
  tensor::Triplets T = tensor::genBandedRandom(80, 80, 6.0, 15, 3, 17);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeCSC());
  jit::JitConversion Native(Conv.conversion());
  ASSERT_NE(Native.phaseSeconds(), nullptr);
  std::vector<double> Before(Native.phaseSeconds(),
                             Native.phaseSeconds() + jit::kNumPhases);
  tensor::SparseTensor Out = Native.run(In);
  Out.validate();
  double Delta = 0;
  for (int P = 0; P < jit::kNumPhases; ++P) {
    EXPECT_GE(Native.phaseSeconds()[P], Before[static_cast<size_t>(P)]) << P;
    Delta += Native.phaseSeconds()[P] - Before[static_cast<size_t>(P)];
  }
  EXPECT_GT(Delta, 0.0);
}

TEST(Jit, RawInterfaceReusesBuffers) {
  if (!jit::jitAvailable())
    GTEST_SKIP() << "no system C compiler";
  tensor::Triplets T = tensor::genDiagonals(50, 50, {-1, 0, 1}, 1.0, 5);
  tensor::SparseTensor In =
      tensor::buildFromTriplets(formats::makeCSR(), T);
  convert::Converter Conv(formats::makeCSR(), formats::makeDIA());
  jit::JitConversion Native(Conv.conversion());
  jit::CTensor A, B;
  jit::marshalInput(In, &A);
  for (int Rep = 0; Rep < 3; ++Rep) {
    B = jit::CTensor();
    Native.runRaw(&A, &B);
    EXPECT_EQ(B.params[1], 3); // three diagonals
    jit::freeOutput(&B);
  }
}

//===----------------------------------------------------------------------===//
// The prebuilt sort/unique/scan runtime, entry by entry, against plain
// serial references. The partition count is passed explicitly, so the
// blocked multi-partition paths run whatever OMP_NUM_THREADS says.
//===----------------------------------------------------------------------===//

namespace {

const int64_t RuntimePartitions[] = {1, 2, 3, 8};

/// The lengths each partition count is checked at: empty, tiny, one short
/// of a block per partition, exactly one per partition, and large.
std::vector<int64_t> runtimeLengths(int64_t P) {
  return {0, 1, 2, P - 1, P, 10000};
}

/// \p N tuples of \p Arity components, component d drawn from
/// \p Pools[d] (small pools make duplicates and shared prefixes common).
std::vector<int32_t>
randomTuples(int64_t N, const std::vector<std::vector<int32_t>> &Pools,
             unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::vector<int32_t> Out;
  for (int64_t I = 0; I < N; ++I)
    for (const std::vector<int32_t> &Pool : Pools)
      Out.push_back(Pool[Rng() % Pool.size()]);
  return Out;
}

std::vector<int32_t> iota(int32_t Count) {
  std::vector<int32_t> Out(static_cast<size_t>(Count));
  for (int32_t I = 0; I < Count; ++I)
    Out[static_cast<size_t>(I)] = I;
  return Out;
}

using Tuple = std::vector<int32_t>;

std::vector<Tuple> split(const std::vector<int32_t> &Flat, int64_t Arity,
                         int64_t N) {
  std::vector<Tuple> Out;
  for (int64_t I = 0; I < N; ++I)
    Out.emplace_back(Flat.begin() + I * Arity, Flat.begin() + (I + 1) * Arity);
  return Out;
}

/// Serial reference of sort + dedup.
std::vector<Tuple> sortedUnique(std::vector<Tuple> Tuples) {
  std::sort(Tuples.begin(), Tuples.end());
  Tuples.erase(std::unique(Tuples.begin(), Tuples.end()), Tuples.end());
  return Tuples;
}

} // namespace

TEST(JitRuntime, ScansMatchTheSerialScan) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  for (int64_t P : RuntimePartitions)
    for (int64_t N : runtimeLengths(P)) {
      SCOPED_TRACE("p=" + std::to_string(P) + " n=" + std::to_string(N));
      std::vector<int32_t> In =
          randomTuples(N, {{-3, -1, 0, 0, 2, 5, 9}}, 7 + unsigned(N + P));
      std::vector<int32_t> Sum = In, Max = In;
      Rt.scan_sum(Sum.data(), N, P);
      Rt.scan_max(Max.data(), N, P);
      int32_t SumAcc = 0, MaxAcc = 0; // the max scan starts from 0
      for (int64_t K = 0; K < N; ++K) {
        SumAcc += In[static_cast<size_t>(K)];
        MaxAcc = std::max(MaxAcc, In[static_cast<size_t>(K)]);
        ASSERT_EQ(Sum[static_cast<size_t>(K)], SumAcc) << K;
        ASSERT_EQ(Max[static_cast<size_t>(K)], MaxAcc) << K;
      }
    }
}

TEST(JitRuntime, MergeSortAndUniqueMatchStdSortAndUnique) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  // Arities 1 and 3 run fixed-length instantiations, 4 the generic one.
  for (int64_t Arity : {1, 3, 4})
    for (int64_t P : RuntimePartitions)
      for (int64_t N : runtimeLengths(P)) {
        SCOPED_TRACE("arity=" + std::to_string(Arity) +
                     " p=" + std::to_string(P) + " n=" + std::to_string(N));
        std::vector<std::vector<int32_t>> Pools(
            static_cast<size_t>(Arity), {-7, 0, 3, 4, 50, INT32_MAX});
        std::vector<int32_t> Buf = randomTuples(N, Pools, 11 + unsigned(N));
        std::vector<Tuple> Expect = split(Buf, Arity, N);
        std::sort(Expect.begin(), Expect.end());
        Rt.sort_tuples(Buf.data(), N, Arity, P);
        ASSERT_EQ(split(Buf, Arity, N), Expect);
        Expect = sortedUnique(Expect);
        int64_t U = Rt.unique_tuples(Buf.data(), N, Arity);
        ASSERT_EQ(split(Buf, Arity, U), Expect);
      }
}

TEST(JitRuntime, UniquePrefixMatchesTheSerialCompaction) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  for (int64_t P : RuntimePartitions)
    for (int64_t N : runtimeLengths(P))
      for (int64_t DstArity : {1, 2, 3, 4}) {
        SCOPED_TRACE("dst_arity=" + std::to_string(DstArity) +
                     " p=" + std::to_string(P) + " n=" + std::to_string(N));
        std::vector<Tuple> Sorted = sortedUnique(
            split(randomTuples(N, {iota(4), iota(6), iota(3), iota(500)},
                               5 + unsigned(N)),
                  4, N));
        int64_t Count = static_cast<int64_t>(Sorted.size());
        std::vector<int32_t> Src;
        for (const Tuple &T : Sorted)
          Src.insert(Src.end(), T.begin(), T.end());
        std::vector<Tuple> Expect;
        for (const Tuple &T : Sorted) {
          Tuple Prefix(T.begin(), T.begin() + DstArity);
          if (Expect.empty() || Expect.back() != Prefix)
            Expect.push_back(Prefix);
        }
        std::vector<int32_t> Dst(Src.size() + 1, -1);
        int64_t U =
            Rt.unique_prefix(Src.data(), Count, 4, Dst.data(), DstArity, P);
        ASSERT_EQ(split(Dst, DstArity, U), Expect);
      }
}

TEST(JitRuntime, RadixSortMatchesSortUniqueAndBinarySearchRanks) {
  const jit::RuntimeTable &Rt = jit::runtimeTable();
  struct WidthCase {
    std::vector<int64_t> Widths;
    std::vector<std::vector<int32_t>> Pools;
  };
  // Pools hold each width's extremes. The last three cases fill exactly
  // 64 bits, so the top digit pass reads the key's most significant bits;
  // the four-component one runs the generic-arity instantiation.
  const std::vector<WidthCase> Cases = {
      {{11, 11, 6}, {iota(40), {0, 1, 2047}, {0, 5, 63}}},
      {{0, 9}, {{0}, {0, 7, 100, 511}}},
      {{32, 32}, {{0, 1, 1 << 30, INT32_MAX}, {0, 12345, INT32_MAX}}},
      {{24, 20, 20},
       {{0, (1 << 24) - 1, 77}, {0, 3, (1 << 20) - 1}, iota(30)}},
      {{16, 16, 16, 16},
       {{0, 65535}, iota(5), {0, 9, 65535}, {1, 2, 65534, 65535}}},
  };
  for (const WidthCase &C : Cases)
    for (int64_t P : RuntimePartitions)
      for (int64_t N : runtimeLengths(P))
        for (bool WithRank : {false, true}) {
          int64_t Arity = static_cast<int64_t>(C.Widths.size());
          SCOPED_TRACE("arity=" + std::to_string(Arity) +
                       " p=" + std::to_string(P) + " n=" +
                       std::to_string(N) + (WithRank ? " rank" : ""));
          std::vector<int32_t> Buf = randomTuples(N, C.Pools, 3 + unsigned(N));
          std::vector<Tuple> In = split(Buf, Arity, N);
          std::vector<Tuple> Expect = sortedUnique(In);
          std::vector<int32_t> Rank(static_cast<size_t>(N), -1);
          int64_t U = Rt.radix_sort_packed(Buf.data(), N, Arity,
                                           C.Widths.data(),
                                           WithRank ? Rank.data() : nullptr,
                                           P);
          ASSERT_EQ(split(Buf, Arity, U), Expect);
          for (int64_t I = 0; I < N; ++I) {
            int32_t Want =
                WithRank ? static_cast<int32_t>(
                               std::lower_bound(Expect.begin(), Expect.end(),
                                                In[static_cast<size_t>(I)]) -
                               Expect.begin())
                         : -1;
            ASSERT_EQ(Rank[static_cast<size_t>(I)], Want) << I;
          }
        }
}
