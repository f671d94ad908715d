//===----------------------------------------------------------------------===//
// Tests for src/levels: the assembly level-function emitters (queries
// declared, edge insertion variants, get_pos/yield_pos shapes) and the
// source iterator (loop nests, iteration-order properties, prefix
// availability, stored-size expressions).
//===----------------------------------------------------------------------===//

#include "formats/Standard.h"
#include "ir/Interpreter.h"
#include "levels/Levels.h"
#include "levels/SourceIterator.h"
#include "tensor/Corpus.h"
#include "tensor/Oracle.h"

#include <gtest/gtest.h>

using namespace convgen;
using namespace convgen::levels;

//===----------------------------------------------------------------------===//
// Level format structure
//===----------------------------------------------------------------------===//

TEST(Levels, DeclaredQueriesMatchFigures7And11) {
  formats::Format Csr = formats::makeCSR();
  auto Compressed = LevelFormat::create(Csr.Levels[1], 2, false, false, false, 2);
  auto Queries = Compressed->queries();
  ASSERT_EQ(Queries.size(), 1u);
  EXPECT_EQ(query::printQuery(Queries[0]),
            "select [d0] -> count(d1) as nir");

  formats::Format Dia = formats::makeDIA();
  auto Squeezed = LevelFormat::create(Dia.Levels[0], 1, false, false, false, 3);
  EXPECT_EQ(query::printQuery(Squeezed->queries()[0]),
            "select [d0] -> id() as nz");

  formats::Format Ell = formats::makeELL();
  auto Sliced = LevelFormat::create(Ell.Levels[0], 1, false, false, false, 3);
  EXPECT_EQ(query::printQuery(Sliced->queries()[0]),
            "select [] -> max(d0) as max_crd");

  formats::Format Sky = formats::makeSKY();
  auto Skyline = LevelFormat::create(Sky.Levels[1], 2, false, false, false, 2);
  EXPECT_EQ(query::printQuery(Skyline->queries()[0]),
            "select [d0] -> min(d1) as w");

  formats::Format Coo = formats::makeCOO();
  auto Root = LevelFormat::create(Coo.Levels[0], 1, false, false, false, 2);
  EXPECT_EQ(query::printQuery(Root->queries()[0]),
            "select [] -> count(d0,d1) as nir");
}

TEST(Levels, EdgeInsertionFlags) {
  formats::Format Csr = formats::makeCSR();
  EXPECT_FALSE(
      LevelFormat::create(Csr.Levels[0], 1, false, false, false, 2)->needsEdgeInsertion());
  EXPECT_TRUE(
      LevelFormat::create(Csr.Levels[1], 2, false, false, false, 2)->needsEdgeInsertion());
  formats::Format Sky = formats::makeSKY();
  EXPECT_TRUE(
      LevelFormat::create(Sky.Levels[1], 2, false, false, false, 2)->needsEdgeInsertion());
  formats::Format Dia = formats::makeDIA();
  for (int K = 0; K < 3; ++K)
    EXPECT_FALSE(LevelFormat::create(Dia.Levels[static_cast<size_t>(K)],
                                     K + 1, false, false, false, 3)
                     ->needsEdgeInsertion())
        << K;
}

TEST(Levels, QueryResultDecoding) {
  QueryResultRef Ref;
  Ref.Buffer = "q";
  Ref.GroupDims = {0};
  Ref.GroupLo = {ir::intImm(-3)};
  Ref.GroupExtent = {ir::intImm(9)};
  // Raw read: linearized with the lower bound subtracted.
  EXPECT_EQ(ir::printExpr(readQueryRaw(Ref, {ir::var("k")})), "q[k + 3]");
  // Decoded min: actual = -raw + shift.
  Ref.Sign = -1;
  Ref.Shift = ir::intImm(6);
  EXPECT_EQ(ir::printExpr(readQueryValue(Ref, {ir::var("k")})),
            "(-q[k + 3]) + 6");
}

//===----------------------------------------------------------------------===//
// Source iterator
//===----------------------------------------------------------------------===//

namespace {

/// Sums coordinates and values over a full iteration of a tensor; checks
/// the nest visits exactly the stored nonzeros with correct canonical
/// coordinates.
struct SweepResult {
  int64_t RowSum = 0, ColSum = 0, Count = 0;
  double ValSum = 0;
};

SweepResult sweep(const formats::Format &F, const tensor::Triplets &T) {
  SourceIterator Iter(F);
  ir::BlockBuilder B;
  B.add(ir::alloc("acc", ir::ScalarKind::Int, ir::intImm(3), true));
  B.add(ir::alloc("vacc", ir::ScalarKind::Float, ir::intImm(1), true));
  B.add(Iter.build([&](const IterEnv &Env) -> ir::Stmt {
    ir::BlockBuilder Body;
    Body.add(ir::store("acc", ir::intImm(0), Env.Canonical.at("i"),
                       ir::ReduceOp::Add));
    Body.add(ir::store("acc", ir::intImm(1), Env.Canonical.at("j"),
                       ir::ReduceOp::Add));
    Body.add(ir::store("acc", ir::intImm(2), ir::intImm(1),
                       ir::ReduceOp::Add));
    Body.add(ir::store("vacc", ir::intImm(0),
                       ir::load("A_vals", Env.LastPos, ir::ScalarKind::Float),
                       ir::ReduceOp::Add));
    return Body.build();
  }));
  B.add(ir::yieldBuffer("B1_crd", "acc", ir::intImm(3)));
  B.add(ir::yieldBuffer("B_vals", "vacc", ir::intImm(1)));
  ir::Function Fn{"sweep", Iter.params(), B.build()};

  ir::Interpreter Interp;
  tensor::SparseTensor In = tensor::buildFromTriplets(F, T);
  for (size_t D = 0; D < In.Dims.size(); ++D)
    Interp.bindScalar("dim" + std::to_string(D), In.Dims[D]);
  for (size_t K = 0; K < In.Levels.size(); ++K) {
    std::string Base = "A" + std::to_string(K + 1);
    if (!In.Levels[K].Pos.empty())
      Interp.bindIntBuffer(Base + "_pos", In.Levels[K].Pos);
    if (!In.Levels[K].Crd.empty())
      Interp.bindIntBuffer(Base + "_crd", In.Levels[K].Crd);
    if (!In.Levels[K].Perm.empty())
      Interp.bindIntBuffer(Base + "_perm", In.Levels[K].Perm);
    if (In.Levels[K].SizeParam >= 0)
      Interp.bindScalar(Base + "_param", In.Levels[K].SizeParam);
  }
  Interp.bindFloatBuffer("A_vals", In.Vals);
  ir::RunResult R = Interp.run(Fn);
  SweepResult Out;
  Out.RowSum = R.Buffers["B1_crd"].Ints[0];
  Out.ColSum = R.Buffers["B1_crd"].Ints[1];
  Out.Count = R.Buffers["B1_crd"].Ints[2];
  Out.ValSum = R.Buffers["B_vals"].Floats[0];
  return Out;
}

} // namespace

class IteratorSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(IteratorSweep, VisitsExactlyTheNonzeros) {
  tensor::Triplets T;
  for (auto &[Name, M] : tensor::testMatrices())
    if (Name == "banded_random")
      T = M;
  if (GetParam() == "sky")
    for (auto &[Name, M] : tensor::testMatrices())
      if (Name == "lower_banded")
        T = M;
  SweepResult Got = sweep(formats::standardFormatOrDie(GetParam()), T);
  int64_t RowSum = 0, ColSum = 0;
  double ValSum = 0;
  for (const tensor::Entry &E : T.Entries) {
    RowSum += E.Row;
    ColSum += E.Col;
    ValSum += E.Val;
  }
  EXPECT_EQ(Got.Count, T.nnz());
  EXPECT_EQ(Got.RowSum, RowSum);
  EXPECT_EQ(Got.ColSum, ColSum);
  EXPECT_NEAR(Got.ValSum, ValSum, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, IteratorSweep,
                         ::testing::Values("coo", "csr", "csc", "dia", "ell",
                                           "bcsr", "sky"),
                         [](const auto &Info) { return Info.param; });

TEST(Iterator, OrderProperties) {
  EXPECT_EQ(SourceIterator(formats::makeCSR()).orderedLoopIVars(),
            (std::vector<std::string>{"i"}));
  EXPECT_EQ(SourceIterator(formats::makeCSC()).orderedLoopIVars(),
            (std::vector<std::string>{"j"}));
  EXPECT_TRUE(SourceIterator(formats::makeCOO()).orderedLoopIVars().empty());
  EXPECT_TRUE(SourceIterator(formats::makeDIA()).orderedLoopIVars().empty());

  EXPECT_EQ(SourceIterator(formats::makeCOO()).lexOrderedIVars(),
            (std::vector<std::string>{"i", "j"}));
  EXPECT_EQ(SourceIterator(formats::makeCSC()).lexOrderedIVars(),
            (std::vector<std::string>{"j", "i"}));
  EXPECT_TRUE(SourceIterator(formats::makeELL()).lexOrderedIVars().empty());
}

TEST(Iterator, PrefixAvailability) {
  SourceIterator Csc(formats::makeCSC());
  EXPECT_TRUE(Csc.ivarsAvailableAtPrefix(0).empty());
  EXPECT_EQ(Csc.ivarsAvailableAtPrefix(1), (std::vector<std::string>{"j"}));
  EXPECT_EQ(Csc.ivarsAvailableAtPrefix(2),
            (std::vector<std::string>{"i", "j"}));

  SourceIterator Bcsr(formats::makeBCSR(2, 2));
  // Canonical i = d0*2 + d2 needs levels 1 and 3.
  EXPECT_TRUE(Bcsr.ivarsAvailableAtPrefix(2).empty());
  EXPECT_EQ(Bcsr.ivarsAvailableAtPrefix(3), (std::vector<std::string>{"i"}));
}

TEST(Iterator, StoredSizeExpressions) {
  EXPECT_EQ(ir::printExpr(SourceIterator(formats::makeCSR()).storedSizeExpr()),
            "A2_pos[dim0]");
  EXPECT_EQ(ir::printExpr(SourceIterator(formats::makeCOO()).storedSizeExpr()),
            "A1_pos[1]");
  EXPECT_EQ(ir::printExpr(SourceIterator(formats::makeELL()).storedSizeExpr()),
            "A1_param * dim0");
}

TEST(Iterator, PaddedSourcesGuardZeros) {
  SourceIterator Dia(formats::makeDIA());
  ir::Stmt Nest = Dia.build([&](const IterEnv &) {
    return ir::comment("body");
  });
  EXPECT_NE(ir::printStmt(Nest).find("A_vals["), std::string::npos);
  EXPECT_NE(ir::printStmt(Nest).find("!= 0"), std::string::npos);

  SourceIterator Csr(formats::makeCSR());
  ir::Stmt Nest2 = Csr.build([&](const IterEnv &) {
    return ir::comment("body");
  });
  EXPECT_EQ(ir::printStmt(Nest2).find("!= 0"), std::string::npos);
}
