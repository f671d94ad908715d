//===----------------------------------------------------------------------===//
// Tests for src/tensor: triplets, oracle round trips for every format,
// validators, generators, the Table 2 corpus, and Matrix Market I/O.
//===----------------------------------------------------------------------===//

#include "formats/Standard.h"
#include "remap/RemapParser.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/MatrixMarket.h"
#include "tensor/Oracle.h"
#include "tensor/Tns.h"

#include <gtest/gtest.h>

using namespace convgen;
using namespace convgen::tensor;

//===----------------------------------------------------------------------===//
// Triplets
//===----------------------------------------------------------------------===//

TEST(Triplets, SortAndDuplicates) {
  Triplets T;
  T.NumRows = T.NumCols = 4;
  T.Entries = {{2, 1, 1.0}, {0, 3, 2.0}, {2, 0, 3.0}};
  T.sortRowMajor();
  EXPECT_EQ(T.Entries[0].Row, 0);
  EXPECT_EQ(T.Entries[1].Col, 0);
  EXPECT_FALSE(T.hasDuplicates());
  T.Entries.push_back({0, 3, 9.0});
  EXPECT_TRUE(T.hasDuplicates());
}

TEST(Triplets, CanonicalDropsZeros) {
  Triplets T;
  T.NumRows = T.NumCols = 2;
  T.Entries = {{0, 0, 1.0}, {1, 1, 0.0}};
  EXPECT_EQ(T.canonicalized().nnz(), 1);
}

TEST(Triplets, EqualityIgnoresOrderAndZeros) {
  Triplets A, B;
  A.NumRows = B.NumRows = 3;
  A.NumCols = B.NumCols = 3;
  A.Entries = {{0, 1, 2.0}, {2, 2, 3.0}};
  B.Entries = {{2, 2, 3.0}, {0, 1, 2.0}, {1, 1, 0.0}};
  EXPECT_TRUE(equal(A, B));
  B.Entries[0].Val = 3.5;
  EXPECT_FALSE(equal(A, B));
}

TEST(Triplets, Statistics) {
  Triplets T;
  T.NumRows = 4;
  T.NumCols = 6;
  T.Entries = {{0, 0, 5}, {0, 1, 1}, {1, 1, 7}, {1, 2, 3}, {2, 0, 8},
               {2, 2, 2}, {2, 3, 4}, {3, 1, 9}, {3, 4, 6}};
  EXPECT_EQ(T.maxRowCount(), 3);
  // Figure 1 diagonals: offsets 0,1 (x2 each), -2, 1, 0, -2, 1 -> {-2,0,1}.
  EXPECT_EQ(T.countDiagonals(), 3);
}

//===----------------------------------------------------------------------===//
// Oracle round trips: triplets -> format -> triplets is the identity on
// canonical forms, for every format and every test matrix.
//===----------------------------------------------------------------------===//

class OracleRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(OracleRoundTrip, PreservesComponents) {
  const auto &[FormatName, MatrixName] = GetParam();
  formats::Format F = formats::standardFormatOrDie(FormatName);
  Triplets T;
  for (auto &[Name, M] : testMatrices())
    if (Name == MatrixName)
      T = M;
  if (FormatName == "sky" && MatrixName != "lower_banded")
    GTEST_SKIP() << "skyline requires lower-triangular input";
  SparseTensor S = buildFromTriplets(F, T);
  S.validate();
  EXPECT_TRUE(equal(toTriplets(S), T))
      << "format " << FormatName << " on " << MatrixName;
}

namespace {

std::vector<std::string> allMatrixNames() {
  std::vector<std::string> Names;
  for (auto &[Name, M] : testMatrices())
    Names.push_back(Name);
  return Names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAllMatrices, OracleRoundTrip,
    ::testing::Combine(::testing::Values("coo", "csr", "csc", "dia", "ell",
                                         "bcsr", "sky"),
                       ::testing::ValuesIn(allMatrixNames())),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_" + std::get<1>(Info.param);
    });

TEST(Oracle, Figure2LayoutsMatchPaper) {
  // The paper's running example (Figures 1 and 2) pins down the exact
  // storage arrays for COO, CSR, DIA, and ELL.
  Triplets T;
  T.NumRows = 4;
  T.NumCols = 6;
  T.Entries = {{0, 0, 5}, {0, 1, 1}, {1, 1, 7}, {1, 2, 3}, {2, 0, 8},
               {2, 2, 2}, {2, 3, 4}, {3, 1, 9}, {3, 4, 6}};

  SparseTensor Coo = buildFromTriplets(formats::makeCOO(), T);
  EXPECT_EQ(Coo.Levels[0].Pos, (std::vector<int32_t>{0, 9}));
  EXPECT_EQ(Coo.Levels[0].Crd,
            (std::vector<int32_t>{0, 0, 1, 1, 2, 2, 2, 3, 3}));
  EXPECT_EQ(Coo.Levels[1].Crd,
            (std::vector<int32_t>{0, 1, 1, 2, 0, 2, 3, 1, 4}));
  EXPECT_EQ(Coo.Vals, (std::vector<double>{5, 1, 7, 3, 8, 2, 4, 9, 6}));

  SparseTensor Csr = buildFromTriplets(formats::makeCSR(), T);
  EXPECT_EQ(Csr.Levels[1].Pos, (std::vector<int32_t>{0, 2, 4, 7, 9}));
  EXPECT_EQ(Csr.Levels[1].Crd,
            (std::vector<int32_t>{0, 1, 1, 2, 0, 2, 3, 1, 4}));

  SparseTensor Dia = buildFromTriplets(formats::makeDIA(), T);
  EXPECT_EQ(Dia.Levels[0].SizeParam, 3);
  EXPECT_EQ(Dia.Levels[0].Perm, (std::vector<int32_t>{-2, 0, 1}));
  // Figure 2c vals (K=3 slices x 4 rows): offset -2 -> {0,0,8,9},
  // offset 0 -> {5,7,2,0}, offset 1 -> {1,3,4,6}.
  EXPECT_EQ(Dia.Vals, (std::vector<double>{0, 0, 8, 9, 5, 7, 2, 0, 1, 3, 4,
                                           6}));

  SparseTensor Ell = buildFromTriplets(formats::makeELL(), T);
  EXPECT_EQ(Ell.Levels[0].SizeParam, 3);
  // Figure 2d: crd slices {0,1,0,1},{1,2,2,4},{0,0,3,0};
  // vals {5,7,8,9},{1,3,2,6},{0,0,4,0}.
  EXPECT_EQ(Ell.Levels[2].Crd,
            (std::vector<int32_t>{0, 1, 0, 1, 1, 2, 2, 4, 0, 0, 3, 0}));
  EXPECT_EQ(Ell.Vals,
            (std::vector<double>{5, 7, 8, 9, 1, 3, 2, 6, 0, 0, 4, 0}));
}

TEST(OracleDeath, RejectsDuplicates) {
  Triplets T;
  T.NumRows = T.NumCols = 2;
  T.Entries = {{0, 0, 1.0}, {0, 0, 2.0}};
  EXPECT_DEATH(buildFromTriplets(formats::makeCSR(), T), "duplicate");
}

TEST(OracleDeath, RejectsOutOfBounds) {
  Triplets T;
  T.NumRows = T.NumCols = 2;
  T.Entries = {{0, 5, 1.0}};
  EXPECT_DEATH(buildFromTriplets(formats::makeCSR(), T), "out of bounds");
}

TEST(OracleDeath, SkylineRejectsUpperTriangle) {
  Triplets T;
  T.NumRows = T.NumCols = 3;
  T.Entries = {{0, 2, 1.0}};
  EXPECT_DEATH(buildFromTriplets(formats::makeSKY(), T), "lower-triangular");
}

TEST(ValidateDeath, CatchesCorruptPos) {
  Triplets T = genDiagonals(10, 10, {0}, 1.0, 1);
  SparseTensor S = buildFromTriplets(formats::makeCSR(), T);
  S.Levels[1].Pos[3] = 99; // non-monotonic and over nnz
  EXPECT_DEATH(S.validate(), "monotonic");
}

TEST(ValidateDeath, CatchesBadCoordinate) {
  Triplets T = genDiagonals(10, 10, {0}, 1.0, 1);
  SparseTensor S = buildFromTriplets(formats::makeCSR(), T);
  S.Levels[1].Crd[0] = 42;
  EXPECT_DEATH(S.validate(), "out of range");
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(Generators, DiagonalsExactStructure) {
  Triplets T = genDiagonals(100, 100, {-10, -1, 0, 1, 10}, 1.0, 7);
  EXPECT_EQ(T.countDiagonals(), 5);
  EXPECT_EQ(T.maxRowCount(), 5);
  // Interior rows have all 5 entries; borders fewer.
  EXPECT_EQ(T.nnz(), 5 * 100 - 2 * 10 - 2 * 1);
  EXPECT_FALSE(T.hasDuplicates());
}

TEST(Generators, Deterministic) {
  Triplets A = genBandedRandom(50, 50, 4.0, 10, 8, 42);
  Triplets B = genBandedRandom(50, 50, 4.0, 10, 8, 42);
  EXPECT_TRUE(equal(A, B));
  Triplets C = genBandedRandom(50, 50, 4.0, 10, 8, 43);
  EXPECT_FALSE(equal(A, C));
}

TEST(Generators, BandedRespectsBandAndCap) {
  Triplets T = genBandedRandom(200, 200, 6.0, 9, 15, 3);
  EXPECT_LE(T.maxRowCount(), 9);
  for (const Entry &E : T.Entries)
    EXPECT_LE(std::abs(E.Col - E.Row), 15);
  EXPECT_FALSE(T.hasDuplicates());
}

TEST(Generators, PowerLawHitsTotal) {
  Triplets T = genPowerLawRows(1000, 1000, 5000, 400, 5);
  EXPECT_GT(T.nnz(), 2500);
  EXPECT_LT(T.nnz(), 10000);
  EXPECT_LE(T.maxRowCount(), 400);
}

TEST(Generators, SymmetrizedIsSymmetric) {
  Triplets T = symmetrized(genRandomUniform(40, 40, 3.0, 10, 9));
  std::set<std::pair<int64_t, int64_t>> Coords;
  for (const Entry &E : T.Entries)
    Coords.insert({E.Row, E.Col});
  for (const Entry &E : T.Entries)
    EXPECT_TRUE(Coords.count({E.Col, E.Row}));
}

TEST(Generators, LowerBandedIsLower) {
  Triplets T = genLowerBanded(60, 4.0, 10, 21);
  for (const Entry &E : T.Entries)
    EXPECT_LE(E.Col, E.Row);
  // Diagonal present in every row.
  std::vector<bool> HasDiag(60, false);
  for (const Entry &E : T.Entries)
    if (E.Row == E.Col)
      HasDiag[static_cast<size_t>(E.Row)] = true;
  for (bool H : HasDiag)
    EXPECT_TRUE(H);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

TEST(Corpus, Has21Table2Entries) {
  EXPECT_EQ(table2Corpus().size(), 21u);
  EXPECT_EQ(table2Corpus().front().Name, "pdb1HYS");
  EXPECT_EQ(table2Corpus().back().Name, "atmosmodd");
}

TEST(Corpus, NonSymmetricSetMatchesTable2) {
  std::set<std::string> NonSym;
  for (const CorpusEntry &E : table2Corpus())
    if (!E.Symmetric)
      NonSym.insert(E.Name);
  EXPECT_EQ(NonSym, (std::set<std::string>{
                        "chem_master1", "rma10", "shyy161", "Baumann",
                        "majorbasis", "scircuit", "mac_econ_fwd500",
                        "webbase-1M", "atmosmodd"}));
}

TEST(Corpus, ScaledGenerationApproximatesTargets) {
  // Small scale keeps this test fast; statistics should be in the right
  // ballpark (structure matters more than exact counts).
  const CorpusEntry &E = corpusEntry("jnlbrng1");
  Triplets T = E.Generate(0.02);
  EXPECT_NEAR(static_cast<double>(T.NumRows), 800.0, 1.0);
  EXPECT_EQ(T.countDiagonals(), 5);
  EXPECT_EQ(T.maxRowCount(), 5);
}

TEST(Corpus, StencilEntriesHaveExactDiagonalCounts) {
  for (const char *Name : {"Lin", "Baumann", "atmosmodd"}) {
    Triplets T = corpusEntry(Name).Generate(0.01);
    EXPECT_EQ(T.countDiagonals(), 7) << Name;
  }
}

TEST(Corpus, TestMatricesAreDuplicateFreeAndInBounds) {
  for (auto &[Name, T] : testMatrices()) {
    EXPECT_FALSE(T.hasDuplicates()) << Name;
    for (const Entry &E : T.Entries) {
      EXPECT_GE(E.Row, 0);
      EXPECT_LT(E.Row, T.NumRows);
      EXPECT_GE(E.Col, 0);
      EXPECT_LT(E.Col, T.NumCols);
      EXPECT_NE(E.Val, 0.0) << Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Matrix Market
//===----------------------------------------------------------------------===//

TEST(MatrixMarket, RoundTrip) {
  Triplets T = genRandomUniform(20, 30, 3.0, 8, 33);
  Triplets Back;
  std::string Error;
  ASSERT_TRUE(readMatrixMarket(writeMatrixMarket(T), &Back, &Error)) << Error;
  EXPECT_TRUE(equal(T, Back));
}

TEST(MatrixMarket, SymmetricExpansion) {
  std::string Text = "%%MatrixMarket matrix coordinate real symmetric\n"
                     "% comment line\n"
                     "3 3 2\n"
                     "2 1 5.0\n"
                     "3 3 7.0\n";
  Triplets T;
  std::string Error;
  ASSERT_TRUE(readMatrixMarket(Text, &T, &Error)) << Error;
  EXPECT_EQ(T.nnz(), 3); // (1,0), (0,1), (2,2)
}

TEST(MatrixMarket, PatternDefaultsToOne) {
  std::string Text = "%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 1\n"
                     "1 2\n";
  Triplets T;
  std::string Error;
  ASSERT_TRUE(readMatrixMarket(Text, &T, &Error)) << Error;
  ASSERT_EQ(T.nnz(), 1);
  EXPECT_EQ(T.Entries[0].Val, 1.0);
}

TEST(MatrixMarket, RejectsMalformed) {
  Triplets T;
  std::string Error;
  EXPECT_FALSE(readMatrixMarket("garbage", &T, &Error));
  EXPECT_FALSE(readMatrixMarket(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", &T,
      &Error));
  EXPECT_NE(Error.find("out of bounds"), std::string::npos);
}

TEST(MatrixMarket, RejectsHostileInputs) {
  // Every case here used to be reachable by feeding a file to the CLI;
  // each must produce an error return, never an abort or a giant
  // allocation.
  const char *Head = "%%MatrixMarket matrix coordinate real general\n";
  Triplets T;
  std::string Error;
  // Truncated body: fewer entries than the size line claims.
  EXPECT_FALSE(
      readMatrixMarket(std::string(Head) + "3 3 2\n1 1 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("expected 2 entries"), std::string::npos) << Error;
  // Garbage where an entry should be.
  EXPECT_FALSE(readMatrixMarket(
      std::string(Head) + "3 3 1\nnot an entry\n", &T, &Error));
  EXPECT_NE(Error.find("malformed entry"), std::string::npos) << Error;
  // Negative dimensions and negative entry counts.
  EXPECT_FALSE(
      readMatrixMarket(std::string(Head) + "-3 3 1\n1 1 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("negative"), std::string::npos) << Error;
  EXPECT_FALSE(
      readMatrixMarket(std::string(Head) + "3 3 -1\n", &T, &Error));
  // Entries declared for a zero-extent matrix.
  EXPECT_FALSE(
      readMatrixMarket(std::string(Head) + "0 3 1\n1 1 1.0\n", &T, &Error));
  // Negative coordinates are out of bounds, not array indices.
  EXPECT_FALSE(
      readMatrixMarket(std::string(Head) + "3 3 1\n-1 2 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("out of bounds"), std::string::npos) << Error;
  // A header claiming astronomically many entries must fail fast on the
  // missing body instead of reserving by the claim (this returns in
  // milliseconds or the clamp is broken).
  EXPECT_FALSE(readMatrixMarket(
      std::string(Head) + "3 3 1000000000000000000\n1 1 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("expected"), std::string::npos) << Error;
  // Unsupported field/symmetry keywords fail up front.
  EXPECT_FALSE(readMatrixMarket(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n", &T,
      &Error));
  EXPECT_FALSE(readMatrixMarket(
      "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", &T,
      &Error));
}

//===----------------------------------------------------------------------===//
// Higher-order tensors: the N-vector coordinate model, the order-3 oracle
// builders, and FROSTT-style .tns I/O.
//===----------------------------------------------------------------------===//

TEST(Triplets3, SortAndDuplicates) {
  Triplets T;
  T.setDims({4, 4, 4});
  T.Entries = {Entry{{2, 1, 0}, 1.0}, Entry{{0, 3, 2}, 2.0},
               Entry{{0, 3, 1}, 3.0}, Entry{{2, 0, 3}, 4.0}};
  T.sortRowMajor();
  EXPECT_EQ(T.Entries[0].coord(2), 1);
  EXPECT_EQ(T.Entries[1].coord(2), 2);
  EXPECT_EQ(T.Entries[2].Row, 2);
  EXPECT_FALSE(T.hasDuplicates());
  T.Entries.push_back(Entry{{0, 3, 2}, 9.0});
  EXPECT_TRUE(T.hasDuplicates());

  // Mode-order sort: outermost mode 1.
  T.Entries.pop_back();
  T.sortByModeOrder({1, 0, 2});
  EXPECT_EQ(T.Entries[0].Col, 0);
  EXPECT_EQ(T.Entries.back().Col, 3);
}

TEST(Triplets3, EqualityComparesAllModesAndDims) {
  Triplets A, B;
  A.setDims({3, 3, 3});
  B.setDims({3, 3, 3});
  A.Entries = {Entry{{0, 1, 2}, 2.0}};
  B.Entries = {Entry{{0, 1, 2}, 2.0}};
  EXPECT_TRUE(equal(A, B));
  B.Entries[0].setCoord(2, 1);
  EXPECT_FALSE(equal(A, B));
  B.Entries[0].setCoord(2, 2);
  B.HigherDims = {4};
  EXPECT_FALSE(equal(A, B));
}

TEST(Generators3, DeterministicAndInBounds) {
  Triplets A = genRandomTensor3(10, 11, 12, 100, 7);
  Triplets B = genRandomTensor3(10, 11, 12, 100, 7);
  EXPECT_TRUE(equal(A, B));
  EXPECT_EQ(A.nnz(), 100);
  EXPECT_FALSE(A.hasDuplicates());
  for (const Entry &E : A.Entries)
    for (int D = 0; D < 3; ++D) {
      EXPECT_GE(E.coord(D), 0);
      EXPECT_LT(E.coord(D), A.dim(D));
    }
}

TEST(Generators3, HyperSparseReturnsTheRequestedNnz) {
  // No cap below the request: the caller picks how sparse the tensor is.
  Triplets H = genHyperSparse3(2048, 2048, 64, 5000, 13);
  EXPECT_EQ(H.nnz(), 5000);
  EXPECT_FALSE(H.hasDuplicates());
  EXPECT_EQ(genHyperSparse3(40, 30, 25, 1000, 9).nnz(), 1000);
}

class OracleRoundTrip3
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(OracleRoundTrip3, PreservesComponents) {
  const auto &[FormatName, TensorName] = GetParam();
  formats::Format F = formats::standardFormatOrDie(FormatName);
  Triplets T;
  for (auto &[Name, M] : testTensors3())
    if (Name == TensorName)
      T = M;
  SparseTensor S = buildFromTriplets(F, T);
  S.validate();
  EXPECT_TRUE(equal(toTriplets(S), T))
      << "format " << FormatName << " on " << TensorName;
}

namespace {

std::vector<std::string> allTensor3Names() {
  std::vector<std::string> Names;
  for (auto &[Name, M] : testTensors3())
    Names.push_back(Name);
  return Names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAllTensors, OracleRoundTrip3,
    ::testing::Combine(::testing::Values("coo3", "csf", "csf_102", "csf_021"),
                       ::testing::ValuesIn(allTensor3Names())),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_" + std::get<1>(Info.param);
    });

TEST(Oracle3, CsfLayoutOnHandExample) {
  // hand3 from testTensors3: slices {0,1,2}, fibers per slice {2,1,2},
  // leaf counts 2+1+4+1+1.
  Triplets T;
  for (auto &[Name, M] : testTensors3())
    if (Name == "hand3")
      T = M;
  SparseTensor S = buildFromTriplets(formats::makeCSF(3), T);
  EXPECT_EQ(S.Levels[0].Pos, (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(S.Levels[0].Crd, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(S.Levels[1].Pos, (std::vector<int32_t>{0, 2, 3, 5}));
  EXPECT_EQ(S.Levels[1].Crd, (std::vector<int32_t>{0, 2, 1, 0, 2}));
  EXPECT_EQ(S.Levels[2].Pos, (std::vector<int32_t>{0, 2, 3, 7, 8, 9}));
  EXPECT_EQ(S.Levels[2].Crd,
            (std::vector<int32_t>{0, 2, 1, 0, 1, 2, 3, 3, 0}));
  EXPECT_EQ(S.Vals, (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Oracle3, PermutedCsfStoresModeOrder) {
  // csf_102 stores mode 1 at the root: the root coordinates are the j
  // values, and the leaf remains mode 2.
  Triplets T;
  T.setDims({2, 3, 2});
  T.Entries = {Entry{{0, 2, 1}, 1.0}, Entry{{1, 0, 0}, 2.0}};
  SparseTensor S = buildFromTriplets(formats::makeCSFPermuted({1, 0, 2}), T);
  S.validate();
  EXPECT_EQ(S.Levels[0].Crd, (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(S.Levels[1].Crd, (std::vector<int32_t>{1, 0}));
  EXPECT_EQ(S.Levels[2].Crd, (std::vector<int32_t>{0, 1}));
  EXPECT_TRUE(equal(toTriplets(S), T));
}

TEST(Oracle3, ColumnMajorCooHonorsTheRemap) {
  // A user-defined column-major COO ((i,j) -> (j,i)) must store j at the
  // root level; the oracle honors the remap's mode order rather than
  // assuming identity.
  formats::Format F;
  F.Name = "coo_cm";
  F.Remap = remap::parseRemapOrDie("(i,j) -> (j,i)");
  F.Inverse = remap::parseRemapOrDie("(d0,d1) -> (d1,d0)");
  F.Levels = {formats::LevelSpec{formats::LevelKind::Compressed, 0,
                                 /*Unique=*/false, false, {-1, -1}},
              formats::LevelSpec{formats::LevelKind::Singleton, 1, true,
                                 false, {-1, -1}}};
  formats::validateFormat(F);
  Triplets T;
  T.NumRows = 3;
  T.NumCols = 4;
  T.Entries = {{0, 3, 1.0}, {2, 0, 2.0}, {1, 3, 3.0}};
  SparseTensor S = buildFromTriplets(F, T);
  S.validate();
  EXPECT_EQ(S.Levels[0].Crd, (std::vector<int32_t>{0, 3, 3})); // j-major
  EXPECT_EQ(S.Levels[1].Crd, (std::vector<int32_t>{2, 0, 1}));
  EXPECT_TRUE(equal(toTriplets(S), T));
}

TEST(Tns, RoundTrip) {
  for (auto &[Name, T] : testTensors3()) {
    // Empty tensors round-trip too: the "# dims:" header carries them.
    Triplets Back;
    std::string Error;
    ASSERT_TRUE(readTns(writeTns(T), &Back, &Error)) << Name << ": " << Error;
    EXPECT_TRUE(equal(T, Back)) << Name;
  }
  // Matrices round-trip too (.tns is order-general).
  Triplets M = genRandomUniform(20, 30, 3.0, 8, 33);
  Triplets Back;
  std::string Error;
  ASSERT_TRUE(readTns(writeTns(M), &Back, &Error)) << Error;
  EXPECT_TRUE(equal(M, Back));
}

TEST(Tns, InfersDimsFromCoordinates) {
  std::string Text = "# FROSTT-style comment\n"
                     "1 2 3 1.5\n"
                     "4\t1  2 -2.0\n"; // mixed tab/space separators
  Triplets T;
  std::string Error;
  ASSERT_TRUE(readTns(Text, &T, &Error)) << Error;
  EXPECT_EQ(T.dims(), (std::vector<int64_t>{4, 2, 3}));
  ASSERT_EQ(T.nnz(), 2);
  EXPECT_EQ(T.Entries[0].coord(2), 2); // sorted: (0,1,2) first
}

TEST(Tns, RejectsMalformed) {
  Triplets T;
  std::string Error;
  EXPECT_FALSE(readTns("", &T, &Error));
  EXPECT_FALSE(readTns("1 2\n", &T, &Error)); // too few fields
  EXPECT_FALSE(readTns("1 2 3 1.0\n1 2 0.5\n", &T, &Error));
  EXPECT_NE(Error.find("arity"), std::string::npos);
  EXPECT_FALSE(readTns("0 2 3 1.0\n", &T, &Error)); // 1-based
  EXPECT_FALSE(readTns("# dims: 2 2\n1 2 3 1.0\n", &T, &Error));
}

TEST(Tns, RejectsHostileInputs) {
  Triplets T;
  std::string Error;
  // Negative coordinates.
  EXPECT_FALSE(readTns("-1 2 3 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("malformed coordinate"), std::string::npos) << Error;
  // Coordinate overflowing int64 (strtoll saturates with ERANGE).
  EXPECT_FALSE(readTns("99999999999999999999999 2 3 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("malformed coordinate"), std::string::npos) << Error;
  // Dims header with overflow or zero/negative extents.
  EXPECT_FALSE(
      readTns("# dims: 99999999999999999999999 2 2\n", &T, &Error));
  EXPECT_FALSE(readTns("# dims: 2 0 2\n", &T, &Error));
  EXPECT_FALSE(readTns("# dims: 2 -2 2\n", &T, &Error));
  // Coordinate exceeding a declared dimension.
  EXPECT_FALSE(readTns("# dims: 2 2 2\n3 1 1 1.0\n", &T, &Error));
  EXPECT_NE(Error.find("exceeds declared dimension"), std::string::npos)
      << Error;
  // Value overflowing double.
  EXPECT_FALSE(readTns("1 1 1 1e999\n", &T, &Error));
  EXPECT_NE(Error.find("malformed value"), std::string::npos) << Error;
  // Garbage value / garbage trailing characters on a coordinate.
  EXPECT_FALSE(readTns("1 1 1 abc\n", &T, &Error));
  EXPECT_FALSE(readTns("1x 1 1 1.0\n", &T, &Error));
}

TEST(Tensor, DumpMentionsEveryLevel) {
  Triplets T = genDiagonals(8, 8, {-1, 0, 1}, 1.0, 2);
  SparseTensor S = buildFromTriplets(formats::makeDIA(), T);
  std::string Dump = S.dump();
  EXPECT_NE(Dump.find("squeezed"), std::string::npos);
  EXPECT_NE(Dump.find("perm"), std::string::npos);
  EXPECT_NE(Dump.find("K=3"), std::string::npos);
}
