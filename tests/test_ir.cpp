//===----------------------------------------------------------------------===//
// Tests for src/ir: expression factories (constant folding), printer,
// interpreter semantics, and the C emitter.
//===----------------------------------------------------------------------===//

#include "ir/CEmitter.h"
#include "ir/IR.h"
#include "ir/Interpreter.h"

#include <gtest/gtest.h>

using namespace convgen;
using namespace convgen::ir;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

TEST(IrFold, IntegerArithmetic) {
  int64_t V = 0;
  EXPECT_TRUE(isIntConst(add(intImm(2), intImm(3)), &V));
  EXPECT_EQ(V, 5);
  EXPECT_TRUE(isIntConst(mul(intImm(4), intImm(-3)), &V));
  EXPECT_EQ(V, -12);
  EXPECT_TRUE(isIntConst(div(intImm(7), intImm(2)), &V));
  EXPECT_EQ(V, 3);
  EXPECT_TRUE(isIntConst(rem(intImm(-7), intImm(2)), &V));
  EXPECT_EQ(V, -1); // C semantics: sign follows dividend.
}

TEST(IrFold, Identities) {
  Expr X = var("x");
  EXPECT_EQ(add(X, intImm(0)), X);
  EXPECT_EQ(add(intImm(0), X), X);
  EXPECT_EQ(sub(X, intImm(0)), X);
  EXPECT_EQ(mul(X, intImm(1)), X);
  EXPECT_EQ(mul(intImm(1), X), X);
  int64_t V = 1;
  EXPECT_TRUE(isIntConst(mul(X, intImm(0)), &V));
  EXPECT_EQ(V, 0);
}

TEST(IrFold, DivisionByZeroNotFolded) {
  Expr E = div(intImm(4), intImm(0));
  EXPECT_FALSE(isIntConst(E));
  EXPECT_EQ(E->Kind, ExprKind::Binary);
}

TEST(IrFold, ComparisonsFoldToBool) {
  Expr E = lt(intImm(1), intImm(2));
  int64_t V = 0;
  EXPECT_TRUE(isIntConst(E, &V));
  EXPECT_EQ(V, 1);
  EXPECT_EQ(E->Type, ScalarKind::Bool);
}

TEST(IrFold, SelectOnConstantCondition) {
  Expr T = var("t"), F = var("f");
  EXPECT_EQ(select(boolImm(true), T, F), T);
  EXPECT_EQ(select(boolImm(false), T, F), F);
}

TEST(IrFold, MinMax) {
  int64_t V = 0;
  EXPECT_TRUE(isIntConst(min(intImm(3), intImm(-2)), &V));
  EXPECT_EQ(V, -2);
  EXPECT_TRUE(isIntConst(max(intImm(3), intImm(-2)), &V));
  EXPECT_EQ(V, 3);
}

TEST(IrFold, BitwiseOps) {
  int64_t V = 0;
  EXPECT_TRUE(isIntConst(binop(BinOp::BitAnd, intImm(6), intImm(3)), &V));
  EXPECT_EQ(V, 2);
  EXPECT_TRUE(isIntConst(binop(BinOp::Shl, intImm(1), intImm(4)), &V));
  EXPECT_EQ(V, 16);
  EXPECT_TRUE(isIntConst(binop(BinOp::BitXor, intImm(5), intImm(3)), &V));
  EXPECT_EQ(V, 6);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

TEST(IrPrint, Expressions) {
  Expr E = sub(load("A2_crd", var("p")), var("i"));
  EXPECT_EQ(printExpr(E), "A2_crd[p] - i");
  EXPECT_EQ(printExpr(add(mul(var("k"), var("N")), var("i"))),
            "(k * N) + i");
  EXPECT_EQ(printExpr(max(var("a"), var("b"))), "cvg_max(a, b)");
}

TEST(IrPrint, ForLoopAndStore) {
  Stmt S = forRange("i", intImm(0), var("N"),
                    store("out", var("i"), var("i"), ReduceOp::Add));
  std::string Text = printStmt(S);
  EXPECT_NE(Text.find("for (int64_t i = 0; i < N; i++) {"), std::string::npos);
  EXPECT_NE(Text.find("out[i] += i;"), std::string::npos);
}

TEST(IrPrint, AllocCallocMallloc) {
  EXPECT_NE(printStmt(alloc("buf", ScalarKind::Int, var("n"), true))
                .find("calloc"),
            std::string::npos);
  EXPECT_NE(printStmt(alloc("buf", ScalarKind::Float, var("n"), false))
                .find("malloc"),
            std::string::npos);
}

TEST(IrPrint, YieldTranslatesToAbiStores) {
  std::string Text =
      printStmt(yieldBuffer("B2_crd", "crdbuf", var("nnz")));
  EXPECT_NE(Text.find("B->crd[2] = crdbuf;"), std::string::npos);
  EXPECT_NE(Text.find("B->crd_len[2] = nnz;"), std::string::npos);
  Text = printStmt(yieldScalar("B1_param", var("K")));
  EXPECT_NE(Text.find("B->params[1] = K;"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Slot name parsing
//===----------------------------------------------------------------------===//

TEST(IrSlots, ParseConventionalNames) {
  SlotRef R = parseSlotName("A1_pos");
  EXPECT_EQ(R.Role, SlotRef::RoleKind::Pos);
  EXPECT_EQ(R.Tensor, 'A');
  EXPECT_EQ(R.Level, 1);

  R = parseSlotName("B12_perm");
  EXPECT_EQ(R.Role, SlotRef::RoleKind::Perm);
  EXPECT_EQ(R.Level, 12);

  R = parseSlotName("B_vals");
  EXPECT_EQ(R.Role, SlotRef::RoleKind::Vals);
  EXPECT_EQ(R.Tensor, 'B');

  R = parseSlotName("dim1");
  EXPECT_EQ(R.Role, SlotRef::RoleKind::Dim);
  EXPECT_EQ(R.Level, 1);

  R = parseSlotName("A2_param");
  EXPECT_EQ(R.Role, SlotRef::RoleKind::Param);
  EXPECT_EQ(R.Level, 2);
}

TEST(IrSlots, RejectsNonconforming) {
  EXPECT_EQ(parseSlotName("tmp_ws").Role, SlotRef::RoleKind::Unknown);
  EXPECT_EQ(parseSlotName("Ax_pos").Role, SlotRef::RoleKind::Unknown);
  EXPECT_EQ(parseSlotName("C1_pos").Role, SlotRef::RoleKind::Unknown);
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Runs a body that sums 0..N-1 into out[0].
RunResult runSumLoop(int64_t N) {
  BlockBuilder B;
  B.add(alloc("acc", ScalarKind::Int, intImm(1), true));
  B.add(forRange("i", intImm(0), var("N"),
                 store("acc", intImm(0), var("i"), ReduceOp::Add)));
  B.add(yieldBuffer("B1_pos", "acc", intImm(1)));
  Function F{"sum", {{"N", ScalarKind::Int, false}}, B.build()};
  Interpreter Interp;
  Interp.bindScalar("N", N);
  return Interp.run(F);
}

} // namespace

TEST(IrInterp, SumLoop) {
  RunResult R = runSumLoop(10);
  ASSERT_TRUE(R.Buffers.count("B1_pos"));
  ASSERT_EQ(R.Buffers["B1_pos"].Ints.size(), 1u);
  EXPECT_EQ(R.Buffers["B1_pos"].Ints[0], 45);
}

TEST(IrInterp, EmptyLoopBounds) {
  RunResult R = runSumLoop(0);
  EXPECT_EQ(R.Buffers["B1_pos"].Ints[0], 0);
}

TEST(IrInterp, AssignInsideALoop) {
  BlockBuilder B;
  B.add(decl("x", intImm(1)));
  B.add(forRange("i", intImm(0), intImm(7),
                 assign("x", mul(var("x"), intImm(2)))));
  B.add(yieldScalar("out", var("x")));
  Function F{"pow2", {}, B.build()};
  Interpreter Interp;
  RunResult R = Interp.run(F);
  EXPECT_EQ(R.Scalars["out"], 128);
}

TEST(IrInterp, IfElse) {
  BlockBuilder B;
  B.add(decl("r", intImm(0)));
  B.add(ifThen(gt(var("x"), intImm(5)), assign("r", intImm(1)),
               assign("r", intImm(2))));
  B.add(yieldScalar("out", var("r")));
  Function F{"sel", {{"x", ScalarKind::Int, false}}, B.build()};
  Interpreter I1;
  I1.bindScalar("x", 9);
  EXPECT_EQ(I1.run(F).Scalars["out"], 1);
  Interpreter I2;
  I2.bindScalar("x", 3);
  EXPECT_EQ(I2.run(F).Scalars["out"], 2);
}

TEST(IrInterp, LoadFromBoundBuffer) {
  BlockBuilder B;
  B.add(alloc("out", ScalarKind::Int, intImm(1), true));
  B.add(forRange(
      "p", load("pos", intImm(0)), load("pos", intImm(1)),
      store("out", intImm(0), load("crd", var("p")), ReduceOp::Add)));
  B.add(yieldBuffer("B1_crd", "out", intImm(1)));
  Function F{"sumcrd",
             {{"pos", ScalarKind::Int, true}, {"crd", ScalarKind::Int, true}},
             B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("pos", {1, 4});
  Interp.bindIntBuffer("crd", {100, 7, 8, 9, 200});
  RunResult R = Interp.run(F);
  EXPECT_EQ(R.Buffers["B1_crd"].Ints[0], 24);
}

TEST(IrInterp, FloatBuffers) {
  BlockBuilder B;
  B.add(alloc("acc", ScalarKind::Float, intImm(1), true));
  B.add(forRange("i", intImm(0), intImm(4),
                 store("acc", intImm(0), load("v", var("i"), ScalarKind::Float),
                       ReduceOp::Add)));
  B.add(yieldBuffer("B_vals", "acc", intImm(1)));
  Function F{"sumv", {{"v", ScalarKind::Float, true}}, B.build()};
  Interpreter Interp;
  Interp.bindFloatBuffer("v", {0.5, 1.5, 2.0, -1.0});
  RunResult R = Interp.run(F);
  EXPECT_DOUBLE_EQ(R.Buffers["B_vals"].Floats[0], 3.0);
}

TEST(IrInterp, MaxReduceOnIntBuffer) {
  BlockBuilder B;
  B.add(alloc("m", ScalarKind::Int, intImm(1), true));
  B.add(forRange("i", intImm(0), intImm(5),
                 store("m", intImm(0), load("v", var("i")), ReduceOp::Max)));
  B.add(yieldBuffer("B1_pos", "m", intImm(1)));
  Function F{"maxv", {{"v", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("v", {3, 9, 2, 9, 1});
  EXPECT_EQ(Interp.run(F).Buffers["B1_pos"].Ints[0], 9);
}

TEST(IrInterp, BoolBufferOrReduce) {
  BlockBuilder B;
  B.add(alloc("seen", ScalarKind::Bool, intImm(4), true));
  B.add(forRange("i", intImm(0), intImm(3),
                 store("seen", load("v", var("i")), boolImm(true),
                       ReduceOp::Or)));
  B.add(yieldBuffer("B1_crd", "seen", intImm(4)));
  Function F{"mark", {{"v", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("v", {0, 2, 2});
  RunResult R = Interp.run(F);
  const RuntimeBuffer &Seen = R.Buffers["B1_crd"];
  EXPECT_EQ(Seen.Bools[0], 1);
  EXPECT_EQ(Seen.Bools[1], 0);
  EXPECT_EQ(Seen.Bools[2], 1);
  EXPECT_EQ(Seen.Bools[3], 0);
}

namespace {

/// Runs a Scan over the given contents and returns the transformed buffer.
std::vector<int32_t> runScan(std::vector<int32_t> Data) {
  int64_t N = static_cast<int64_t>(Data.size());
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(N), true));
  B.add(forRange("i", intImm(0), intImm(N),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(scan("buf", intImm(N)));
  B.add(yieldBuffer("B1_pos", "buf", intImm(N)));
  Function F{"doscan", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", std::move(Data));
  return Interp.run(F).Buffers["B1_pos"].Ints;
}

} // namespace

TEST(IrScan, InterpreterInclusive) {
  EXPECT_EQ(runScan({3, 0, 2, 5}), (std::vector<int32_t>{3, 3, 5, 10}));
}

TEST(IrScan, EmptyAndSingleElementBuffers) {
  EXPECT_EQ(runScan({}), (std::vector<int32_t>{}));
  EXPECT_EQ(runScan({7}), (std::vector<int32_t>{7}));
}

TEST(IrScan, PrettyPrintsAsPseudoOp) {
  Stmt S = scan("B2_pos", add(var("n"), intImm(1)));
  EXPECT_EQ(printStmt(S), "inclusive_scan(B2_pos, n + 1);\n");
  EXPECT_EQ(printStmt(scan("B1_pos", intImm(4), ReduceOp::Max)),
            "inclusive_max_scan(B1_pos, 4);\n");
}

namespace {

/// Runs an inclusive max scan over the given contents.
std::vector<int32_t> runMaxScan(std::vector<int32_t> Data) {
  int64_t N = static_cast<int64_t>(Data.size());
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(N), true));
  B.add(forRange("i", intImm(0), intImm(N),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(scan("buf", intImm(N), ReduceOp::Max));
  B.add(yieldBuffer("B1_pos", "buf", intImm(N)));
  Function F{"domaxscan", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", std::move(Data));
  return Interp.run(F).Buffers["B1_pos"].Ints;
}

} // namespace

TEST(IrScan, InterpreterInclusiveMax) {
  // The sorted-ranking pos fill: zeros between block-end markers inherit
  // the previous end.
  EXPECT_EQ(runMaxScan({0, 3, 0, 0, 7, 0}),
            (std::vector<int32_t>{0, 3, 3, 3, 7, 7}));
  EXPECT_EQ(runMaxScan({}), (std::vector<int32_t>{}));
  EXPECT_EQ(runMaxScan({5}), (std::vector<int32_t>{5}));
}

TEST(IrScan, MaxCLoweringCallsTheRuntimeMaxScan) {
  // The blocked two-pass scan is prebuilt runtime code (its semantics are
  // pinned by test_jit's runtime tests); the routine makes one call with
  // its partition count and opens no parallel region of its own.
  std::string C = printStmtAsC(scan("B2_pos", var("n"), ReduceOp::Max));
  EXPECT_EQ(C, "cvg_rt->scan_max(B2_pos, n, cvg_nparts());\n");
}

TEST(IrScan, CLoweringCallsTheRuntimeSumScan) {
  std::string C = printStmtAsC(scan("B2_pos", add(var("n"), intImm(1))));
  EXPECT_EQ(C, "cvg_rt->scan_sum(B2_pos, n + 1, cvg_nparts());\n");
}

TEST(IrInterp, NumPartsIsOneInTheOracle) {
  BlockBuilder B;
  B.add(yieldScalar("out", numParts()));
  Function F{"np", {}, B.build()};
  Interpreter Interp;
  EXPECT_EQ(Interp.run(F).Scalars["out"], 1);
}

TEST(IrInterp, PhaseMarkIsANoOp) {
  BlockBuilder B;
  B.add(phaseMark(-1, "start"));
  B.add(decl("x", intImm(4)));
  B.add(phaseMark(0, "analysis"));
  B.add(yieldScalar("out", var("x")));
  Stmt Body = B.build();
  Function F{"pm", {}, Body};
  Interpreter Interp;
  EXPECT_EQ(Interp.run(F).Scalars["out"], 4);
  EXPECT_NE(printStmt(Body).find("// [phase] analysis"), std::string::npos);
}

TEST(IrInterpDeath, ScanLengthOutOfRangeAborts) {
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(2), true));
  B.add(scan("buf", intImm(3)));
  Function F{"badscan", {}, B.build()};
  Interpreter Interp;
  EXPECT_DEATH(Interp.run(F), "scan length");
}

TEST(IrInterp, LoopVarShadowingRestored) {
  BlockBuilder B;
  B.add(decl("i", intImm(42)));
  B.add(forRange("i", intImm(0), intImm(3), comment("body")));
  B.add(yieldScalar("out", var("i")));
  Function F{"shadow", {}, B.build()};
  Interpreter Interp;
  EXPECT_EQ(Interp.run(F).Scalars["out"], 42);
}

TEST(IrInterpDeath, OutOfBoundsLoadAborts) {
  BlockBuilder B;
  B.add(decl("x", load("v", intImm(5))));
  B.add(yieldScalar("out", var("x")));
  Function F{"oob", {{"v", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("v", {1, 2});
  EXPECT_DEATH(Interp.run(F), "out of bounds");
}

TEST(IrInterpDeath, UndefinedVariableAborts) {
  BlockBuilder B;
  B.add(yieldScalar("out", var("nope")));
  Function F{"undef", {}, B.build()};
  Interpreter Interp;
  EXPECT_DEATH(Interp.run(F), "undefined variable");
}

//===----------------------------------------------------------------------===//
// C emitter
//===----------------------------------------------------------------------===//

TEST(IrCEmit, EmitsCompleteTranslationUnit) {
  BlockBuilder B;
  B.add(alloc("out_pos", ScalarKind::Int, add(var("dim0"), intImm(1)), true));
  B.add(forRange("i", intImm(0), var("dim0"),
                 store("out_pos", var("i"), load("A1_pos", var("i")))));
  B.add(yieldBuffer("B1_pos", "out_pos", add(var("dim0"), intImm(1))));
  Function F{"copy_pos",
             {{"dim0", ScalarKind::Int, false}, {"A1_pos", ScalarKind::Int, true}},
             B.build()};
  std::string C = emitC(F);
  EXPECT_NE(C.find("void copy_pos(const cvg_runtime_t *cvg_rt, "
                   "const cvg_tensor_t *restrict A,"),
            std::string::npos)
      << C;
  EXPECT_NE(C.find("cvg_tensor_t *restrict B, double *cvg_phase) {"),
            std::string::npos)
      << C;
  EXPECT_NE(C.find("int64_t dim0 = A->dims[0];"), std::string::npos);
  EXPECT_NE(C.find("const int32_t *restrict A1_pos = A->pos[1];"),
            std::string::npos);
  EXPECT_NE(C.find("B->pos[1] = out_pos;"), std::string::npos);
  EXPECT_NE(C.find("cvg_tensor_t"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sorted-ranking constructs: sortUniqueTuples / lowerBound
//===----------------------------------------------------------------------===//

namespace {

/// Runs sort + unique over the tuples and returns (kept tuples, count).
std::pair<std::vector<int32_t>, int64_t>
runSortUnique(std::vector<int32_t> Data, int64_t N, int64_t Arity) {
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(N * Arity), false));
  B.add(forRange("i", intImm(0), intImm(N * Arity),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(sortUniqueTuples("buf", intImm(N), Arity, "u"));
  B.add(yieldBuffer("B1_crd", "buf", mul(var("u"), intImm(Arity))));
  B.add(yieldScalar("B1_param", var("u")));
  Function F{"dosort", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", std::move(Data));
  RunResult R = Interp.run(F);
  return {R.Buffers["B1_crd"].Ints, R.Scalars["B1_param"]};
}

} // namespace

TEST(IrSortedRanking, SortUniqueInterpreterSemantics) {
  // Pairs with duplicates, given unsorted: (2,1) (0,5) (2,1) (0,3) (2,0).
  auto [Kept, U] = runSortUnique({2, 1, 0, 5, 2, 1, 0, 3, 2, 0}, 5, 2);
  EXPECT_EQ(U, 4);
  EXPECT_EQ(Kept, (std::vector<int32_t>{0, 3, 0, 5, 2, 0, 2, 1}));
}

TEST(IrSortedRanking, SortUniqueEmptyAndSingleton) {
  auto [KeptEmpty, UEmpty] = runSortUnique({}, 0, 3);
  EXPECT_EQ(UEmpty, 0);
  EXPECT_TRUE(KeptEmpty.empty());
  auto [KeptOne, UOne] = runSortUnique({7, 8, 9}, 1, 3);
  EXPECT_EQ(UOne, 1);
  EXPECT_EQ(KeptOne, (std::vector<int32_t>{7, 8, 9}));
}

TEST(IrSortedRanking, LowerBoundRanksSortedTuples) {
  // Sorted unique pairs: (0,3) (0,5) (2,0) (2,1).
  BlockBuilder B;
  B.add(alloc("out", ScalarKind::Int, intImm(4), false));
  auto Rank = [&](int Slot, int64_t K0, int64_t K1) {
    B.add(store("out", intImm(Slot),
                lowerBound("buf", intImm(4), {intImm(K0), intImm(K1)})));
  };
  Rank(0, 0, 3);  // exact hit at 0
  Rank(1, 2, 1);  // exact hit at 3
  Rank(2, 1, 0);  // between (0,5) and (2,0) -> 2
  Rank(3, 9, 9);  // past the end -> 4
  B.add(yieldBuffer("B1_crd", "out", intImm(4)));
  Function F{"dolb", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("buf", {0, 3, 0, 5, 2, 0, 2, 1});
  RunResult R = Interp.run(F);
  EXPECT_EQ(R.Buffers["B1_crd"].Ints, (std::vector<int32_t>{0, 3, 2, 4}));
}

TEST(IrSortedRanking, PrintingInBothViews) {
  Stmt Sort = sortUniqueTuples("B2_srt", var("n"), 2, "uB2");
  EXPECT_EQ(printStmt(Sort),
            "int64_t uB2 = sort_unique_tuples(B2_srt, n, 2);\n");
  EXPECT_EQ(printStmtAsC(Sort),
            "int64_t uB2 = cvg_rt->sort_unique_tuples(B2_srt, n, 2, "
            "cvg_nparts());\n");
  Expr Lb = lowerBound("B2_srt", var("uB2"), {var("i"), var("j")});
  EXPECT_EQ(printExpr(Lb),
            "cvg_lower_bound(B2_srt, uB2, 2, (const int64_t[]){i, j})");
}

TEST(IrSortedRanking, PreludeHelpersAreEmittedOnlyWhenUsed) {
  // A routine that sorts calls the runtime table it is handed, but
  // carries no sort code: that is prebuilt in libconvgen.
  BlockBuilder With;
  With.add(alloc("b", ScalarKind::Int, intImm(4), false));
  With.add(sortUniqueTuples("b", intImm(2), 2, "u"));
  Function FWith{"f", {{"dim0", ScalarKind::Int, false}}, With.build()};
  std::string C = emitC(FWith);
  EXPECT_NE(C.find("cvg_rt->sort_unique_tuples(b, 2, 2, cvg_nparts())"),
            std::string::npos)
      << C;
  EXPECT_EQ(C.find("#pragma omp"), std::string::npos) << C;
  EXPECT_EQ(C.find("cvg_merge"), std::string::npos) << C;
  // Every routine takes the table as an argument and declares its type;
  // one that neither scans, sorts nor dedups never calls through it.
  BlockBuilder Without;
  Without.add(alloc("b", ScalarKind::Int, intImm(4), false));
  Function FWithout{"f", {{"dim0", ScalarKind::Int, false}}, Without.build()};
  std::string CWithout = emitC(FWithout);
  for (const std::string &Code : {C, CWithout}) {
    EXPECT_NE(Code.find(cRuntimeTableDecl()), std::string::npos) << Code;
    EXPECT_NE(Code.find("void f(const cvg_runtime_t *cvg_rt, "),
              std::string::npos)
        << Code;
  }
  EXPECT_EQ(CWithout.find("cvg_rt->"), std::string::npos) << CWithout;
}

TEST(IrInterpDeath, SortUniqueTuplesRangeOutOfBoundsAborts) {
  BlockBuilder B;
  B.add(alloc("b", ScalarKind::Int, intImm(4), true));
  B.add(sortUniqueTuples("b", intImm(3), 2, "u")); // 3 pairs need 6 slots.
  Function F{"f", {}, B.build()};
  Interpreter Interp;
  EXPECT_DEATH(Interp.run(F), "sort_unique_tuples range");
}

//===----------------------------------------------------------------------===//
// Packed-key radix sort: sortUniqueTuples with pack widths
//===----------------------------------------------------------------------===//

namespace {

/// Immediate packed-key widths (routines pass ir::bitWidth expressions).
std::vector<Expr> imms(const std::vector<int64_t> &Widths) {
  std::vector<Expr> Out;
  for (int64_t W : Widths)
    Out.push_back(intImm(W));
  return Out;
}

/// Sorts and deduplicates \p Data as \p N tuples through the packed
/// lowering and returns the unique tuples. The interpreter executes packed
/// sorts through the same lexicographic index sort as the unpacked form —
/// identical semantics by construction — so this exercises the factory +
/// the oracle the emitted radix code is pinned against elsewhere.
std::vector<int32_t> runPackedSort(std::vector<int32_t> Data, int64_t N,
                                   int64_t Arity,
                                   std::vector<int64_t> Widths) {
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(N * Arity), false));
  B.add(forRange("i", intImm(0), intImm(N * Arity),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(sortUniqueTuples("buf", intImm(N), Arity, "u", imms(Widths)));
  B.add(yieldBuffer("B1_crd", "buf", mul(var("u"), intImm(Arity))));
  Function F{"dopacked", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", std::move(Data));
  return Interp.run(F).Buffers["B1_crd"].Ints;
}

} // namespace

TEST(IrPackedSort, InterpreterSortsLexicographically) {
  EXPECT_EQ(runPackedSort({2, 1, 0, 5, 2, 1, 0, 3, 2, 0}, 5, 2, {2, 3}),
            (std::vector<int32_t>{0, 3, 0, 5, 2, 0, 2, 1}));
}

TEST(IrPackedSort, EmptyAndSingletonAreNoOps) {
  EXPECT_TRUE(runPackedSort({}, 0, 3, {10, 10, 10}).empty());
  EXPECT_EQ(runPackedSort({7, 8, 9}, 1, 3, {4, 4, 4}),
            (std::vector<int32_t>{7, 8, 9}));
}

TEST(IrPackedSort, MaxWidthKeysRoundTrip) {
  // Two 32-bit components fill the key exactly; INT32_MAX coordinates
  // must survive the pack/sort/unpack round trip.
  const int32_t M = 2147483647;
  EXPECT_EQ(runPackedSort({M, 0, 0, M, M, M, 0, 0}, 4, 2, {32, 32}),
            (std::vector<int32_t>{0, 0, 0, M, M, 0, M, M}));
}

TEST(IrPackedSort, DuplicateHeavyInputMatchesTheUnpackedSort) {
  // 64 tuples drawn from a 16-value space: heavy duplication. The packed
  // form must agree with the merge form.
  std::vector<int32_t> Data;
  uint32_t S = 12345;
  for (int I = 0; I < 128; ++I) {
    S = S * 1664525u + 1013904223u;
    Data.push_back(static_cast<int32_t>((S >> 16) & 3));
  }
  std::vector<int32_t> FromPacked = runPackedSort(Data, 64, 2, {2, 2});
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(128), false));
  B.add(forRange("i", intImm(0), intImm(128),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(sortUniqueTuples("buf", intImm(64), 2, "u"));
  B.add(yieldBuffer("B1_crd", "buf", mul(var("u"), intImm(2))));
  Function F{"doplain", {{"in", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", Data);
  EXPECT_EQ(FromPacked, Interp.run(F).Buffers["B1_crd"].Ints);
}

TEST(IrPackedSort, PackedFormMatchesMergeForm) {
  // The packed form with a rank buffer == the merge form: same compacted
  // prefix, same unique count.
  std::vector<int32_t> Data;
  uint32_t S = 999;
  for (int I = 0; I < 96; ++I) {
    S = S * 1664525u + 1013904223u;
    Data.push_back(static_cast<int32_t>((S >> 16) & 3));
  }
  auto run = [&](bool Packed) {
    BlockBuilder B;
    B.add(alloc("buf", ScalarKind::Int, intImm(96), false));
    B.add(forRange("i", intImm(0), intImm(96),
                   store("buf", var("i"), load("in", var("i")))));
    if (Packed) {
      B.add(alloc("rnk", ScalarKind::Int, intImm(48), false));
      B.add(sortUniqueTuples("buf", intImm(48), 2, "u", imms({2, 2}), "rnk"));
      B.add(yieldBuffer("B2_crd", "rnk", intImm(48)));
    } else {
      B.add(sortUniqueTuples("buf", intImm(48), 2, "u"));
    }
    B.add(yieldScalar("unique", var("u")));
    B.add(yieldBuffer("B1_crd", "buf", mul(var("u"), intImm(2))));
    Function F{"dofused", {{"in", ScalarKind::Int, true}}, B.build()};
    Interpreter Interp;
    Interp.bindIntBuffer("in", Data);
    return Interp.run(F);
  };
  RunResult Packed = run(true), Merge = run(false);
  EXPECT_EQ(Packed.Scalars["unique"], Merge.Scalars["unique"]);
  EXPECT_EQ(Packed.Buffers["B1_crd"].Ints, Merge.Buffers["B1_crd"].Ints);
  // Every slot's scattered rank is what a binary search for its tuple in
  // the deduped list returns.
  const std::vector<int32_t> &Uniq = Merge.Buffers["B1_crd"].Ints;
  const std::vector<int32_t> &Rank = Packed.Buffers["B2_crd"].Ints;
  ASSERT_EQ(Rank.size(), 48u);
  for (size_t I = 0; I < 48; ++I) {
    int32_t A = Data[I * 2], B2 = Data[I * 2 + 1];
    int64_t Lo = 0;
    while (Lo * 2 < static_cast<int64_t>(Uniq.size()) &&
           (Uniq[Lo * 2] < A || (Uniq[Lo * 2] == A && Uniq[Lo * 2 + 1] < B2)))
      ++Lo;
    EXPECT_EQ(Rank[I], Lo) << "slot " << I;
  }
}

TEST(IrPackedSort, PrintingInBothViews) {
  // The packed form names its widths in both views.
  Stmt Fused = sortUniqueTuples("B3_srt", var("n"), 3, "u3",
                                imms({24, 20, 20}));
  EXPECT_EQ(printStmt(Fused),
            "int64_t u3 = sort_unique_tuples_packed(B3_srt, n, 3, "
            "bits=[24,20,20]);\n");
  EXPECT_EQ(printStmtAsC(Fused),
            "int64_t u3 = cvg_rt->radix_sort_packed(B3_srt, n, 3, "
            "(const int64_t[]){24,20,20}, NULL, cvg_nparts());\n");
  // With a rank buffer the payload variant is named in both views.
  Stmt Ranked = sortUniqueTuples("B3_srt", var("n"), 3, "u3",
                                 imms({24, 20, 20}), "B3_rank");
  EXPECT_EQ(printStmt(Ranked),
            "int64_t u3 = sort_unique_tuples_packed(B3_srt, n, 3, "
            "bits=[24,20,20], rank=B3_rank);\n");
  EXPECT_EQ(printStmtAsC(Ranked),
            "int64_t u3 = cvg_rt->radix_sort_packed(B3_srt, n, 3, "
            "(const int64_t[]){24,20,20}, B3_rank, cvg_nparts());\n");
}

TEST(IrPackedSort, PreludeHelperIsEmittedOnlyWhenUsed) {
  BlockBuilder With;
  With.add(alloc("b", ScalarKind::Int, intImm(4), false));
  With.add(sortUniqueTuples("b", intImm(2), 2, "u", imms({8, 8})));
  Function FWith{"f", {{"dim0", ScalarKind::Int, false}}, With.build()};
  EXPECT_NE(emitC(FWith).find("cvg_rt->radix_sort_packed(b, "),
            std::string::npos);
  // The radix sort itself is runtime code, not routine code.
  EXPECT_EQ(emitC(FWith).find("CVG_RADIX"), std::string::npos);
  BlockBuilder Without;
  Without.add(alloc("b", ScalarKind::Int, intImm(4), false));
  Without.add(sortUniqueTuples("b", intImm(2), 2, "u"));
  Function FWithout{"f", {{"dim0", ScalarKind::Int, false}},
                    Without.build()};
  EXPECT_EQ(emitC(FWithout).find("cvg_rt->radix_sort_packed("),
            std::string::npos);
}

TEST(IrPackedSortDeath, MismatchedWidthsAbort) {
  EXPECT_DEATH(sortUniqueTuples("b", intImm(2), 3, "u", imms({8, 8})),
               "one bit width per component");
  EXPECT_DEATH(sortUniqueTuples("b", intImm(2), 2, "u", imms({40, 40})),
               "int32 coordinate widths");
  EXPECT_DEATH(sortUniqueTuples("b", intImm(2), 3, "u", imms({32, 32, 32})),
               "fit 64 bits");
  // Ranks ride the radix payload: the merge form has none.
  EXPECT_DEATH(sortUniqueTuples("b", intImm(2), 2, "u", {}, "r"),
               "packed form only");
}

TEST(IrPackedSort, RunTimeWidthsFollowTheOneRule) {
  // ceil(log2(extent)), 0 up to extent 1: every coordinate below the
  // extent fits.
  const std::pair<int64_t, int64_t> Table[] = {
      {0, 0},     {1, 0},     {2, 1},           {3, 2},
      {64, 6},    {2048, 11}, {2049, 12},       {int64_t(1) << 32, 32},
      {(int64_t(1) << 32) + 1, 33}};
  for (const auto &[Extent, Width] : Table) {
    EXPECT_EQ(bitWidthOf(Extent), Width) << Extent;
    int64_t Folded = -1;
    EXPECT_TRUE(isIntConst(bitWidth(intImm(Extent)), &Folded));
    EXPECT_EQ(Folded, Width) << Extent;
  }
  // Over a run-time extent the width is an expression both views print
  // as the prelude helper's call, emitted only when a routine uses it.
  std::vector<Expr> Widths = {bitWidth(var("dim0")), bitWidth(var("dim1"))};
  Stmt Sort = sortUniqueTuples("b", intImm(2), 2, "u", Widths);
  EXPECT_EQ(printStmtAsC(Sort),
            "int64_t u = cvg_rt->radix_sort_packed(b, 2, 2, (const "
            "int64_t[]){cvg_bit_width(dim0),cvg_bit_width(dim1)}, NULL, "
            "cvg_nparts());\n");
  EXPECT_EQ(printStmt(Sort),
            "int64_t u = sort_unique_tuples_packed(b, 2, 2, "
            "bits=[cvg_bit_width(dim0),cvg_bit_width(dim1)]);\n");
  BlockBuilder B;
  B.add(alloc("b", ScalarKind::Int, intImm(4), false));
  B.add(Sort);
  Function F{"f",
             {{"dim0", ScalarKind::Int, false},
              {"dim1", ScalarKind::Int, false}},
             B.build()};
  EXPECT_NE(emitC(F).find("static int64_t cvg_bit_width(int64_t extent)"),
            std::string::npos);
  BlockBuilder Imm;
  Imm.add(alloc("b", ScalarKind::Int, intImm(4), false));
  Imm.add(sortUniqueTuples("b", intImm(2), 2, "u", imms({8, 8})));
  Function FImm{"f", {{"dim0", ScalarKind::Int, false}}, Imm.build()};
  EXPECT_EQ(emitC(FImm).find("cvg_bit_width"), std::string::npos);
}

namespace {

/// Sorts \p Data as \p N pairs with widths computed from the run-time
/// extents dim0 and dim1, as generated routines do.
std::vector<int32_t> runExtentSort(std::vector<int32_t> Data, int64_t N,
                                   int64_t Dim0, int64_t Dim1) {
  BlockBuilder B;
  B.add(alloc("buf", ScalarKind::Int, intImm(N * 2), false));
  B.add(forRange("i", intImm(0), intImm(N * 2),
                 store("buf", var("i"), load("in", var("i")))));
  B.add(sortUniqueTuples("buf", intImm(N), 2, "u",
                         {bitWidth(var("dim0")), bitWidth(var("dim1"))}));
  B.add(yieldBuffer("B1_crd", "buf", mul(var("u"), intImm(2))));
  Function F{"doextent",
             {{"in", ScalarKind::Int, true},
              {"dim0", ScalarKind::Int, false},
              {"dim1", ScalarKind::Int, false}},
             B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("in", std::move(Data));
  Interp.bindScalar("dim0", Dim0);
  Interp.bindScalar("dim1", Dim1);
  return Interp.run(F).Buffers["B1_crd"].Ints;
}

} // namespace

TEST(IrPackedSort, InterpreterChecksRunTimeWidths) {
  // One routine, several shapes: the widths follow the extents.
  EXPECT_EQ(runExtentSort({5, 1, 0, 3, 5, 1}, 3, 6, 4),
            (std::vector<int32_t>{0, 3, 5, 1}));
  EXPECT_EQ(runExtentSort({5000, 1, 0, 3}, 2, 8192, 4),
            (std::vector<int32_t>{0, 3, 5000, 1}));
  // Exactly 64 bits packs.
  EXPECT_EQ(runExtentSort({7, 9}, 1, int64_t(1) << 32, int64_t(1) << 32),
            (std::vector<int32_t>{7, 9}));
}

TEST(IrPackedSortDeath, RunTimeWidthsOutsideTheContractFail) {
  // 33 bits for an int32 component, and a coordinate past its extent.
  EXPECT_DEATH(runExtentSort({7, 9}, 1, (int64_t(1) << 32) + 1, 4),
               "not an int32 coordinate width");
  EXPECT_DEATH(runExtentSort({7, 9}, 1, 4, 4), "does not fit");
}

namespace {

/// Evaluates one lowerBound (packed when \p Widths is non-empty) against a
/// bound sorted tuple buffer and returns the rank.
int64_t runSearch(std::vector<int32_t> Srt, int64_t N,
                  const std::vector<int64_t> &Key,
                  std::vector<int64_t> Widths) {
  std::vector<Expr> Keys;
  for (int64_t K : Key)
    Keys.push_back(intImm(K));
  Expr Rank = Widths.empty()
                  ? lowerBound("srt", intImm(N), std::move(Keys))
                  : lowerBoundPacked("srt", intImm(N), std::move(Keys),
                                     imms(Widths));
  BlockBuilder B;
  B.add(decl("r", Rank));
  B.add(yieldScalar("B1_param", var("r")));
  Function F{"dosearch", {{"srt", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("srt", std::move(Srt));
  return Interp.run(F).Scalars["B1_param"];
}

} // namespace

TEST(IrPackedSearch, InterpreterMatchesTheUnpackedSearch) {
  // The packed form is a pure lowering choice: the interpreter evaluates
  // both with the same tuple-wise binary search, so every probe — hit,
  // gap, before-front, past-end — ranks identically.
  const std::vector<int32_t> Srt = {0, 1, 0, 5, 2, 0, 2, 3};
  const std::vector<std::vector<int64_t>> Probes = {
      {0, 0}, {0, 1}, {0, 5}, {1, 0}, {2, 0}, {2, 3}, {3, 7}};
  const std::vector<int64_t> Expected = {0, 0, 1, 2, 2, 3, 4};
  for (size_t I = 0; I < Probes.size(); ++I) {
    EXPECT_EQ(runSearch(Srt, 4, Probes[I], {2, 3}), Expected[I]) << I;
    EXPECT_EQ(runSearch(Srt, 4, Probes[I], {}), Expected[I]) << I;
  }
}

TEST(IrPackedSearch, PrintingNamesThePackedHelper) {
  Stmt S = decl("r", lowerBoundPacked("B3_srt", var("u3"),
                                      {var("i"), var("j"), var("k")},
                                      imms({24, 20, 20})));
  EXPECT_NE(printStmtAsC(S).find(
                "cvg_lower_bound_packed(B3_srt, u3, 3, "
                "(const int64_t[]){24,20,20}, (const int64_t[]){i, j, k})"),
            std::string::npos)
      << printStmtAsC(S);
}

TEST(IrPackedSearch, PreludeHelperIsEmittedOnlyWhenUsed) {
  auto bodyWith = [](std::vector<int64_t> Widths) {
    BlockBuilder B;
    std::vector<Expr> Keys = {intImm(1), intImm(2)};
    Expr Rank = Widths.empty()
                    ? lowerBound("b", intImm(0), std::move(Keys))
                    : lowerBoundPacked("b", intImm(0), std::move(Keys),
                                       imms(Widths));
    B.add(alloc("b", ScalarKind::Int, intImm(4), false));
    B.add(decl("r", Rank));
    return B.build();
  };
  Function FPacked{"f", {{"dim0", ScalarKind::Int, false}}, bodyWith({8, 8})};
  EXPECT_NE(emitC(FPacked).find("static int64_t cvg_lower_bound_packed"),
            std::string::npos);
  // Searches run once per nonzero, so they stay inline: each variant is
  // emitted only where used, and neither calls the runtime.
  EXPECT_EQ(emitC(FPacked).find("cvg_lower_bound("), std::string::npos);
  EXPECT_EQ(emitC(FPacked).find("cvg_rt->"), std::string::npos);
  Function FPlain{"f", {{"dim0", ScalarKind::Int, false}}, bodyWith({})};
  EXPECT_EQ(emitC(FPlain).find("cvg_lower_bound_packed"), std::string::npos);
  EXPECT_NE(emitC(FPlain).find("static int64_t cvg_lower_bound("),
            std::string::npos);
}

TEST(IrPackedSearchDeath, MismatchedWidthsAbort) {
  std::vector<Expr> Keys = {intImm(0), intImm(0)};
  EXPECT_DEATH(lowerBoundPacked("b", intImm(0), Keys, imms({8})),
               "one bit width per key component");
  EXPECT_DEATH(lowerBoundPacked("b", intImm(0), Keys, imms({40, 8})),
               "int32 coordinate widths");
  std::vector<Expr> Keys3 = {intImm(0), intImm(0), intImm(0)};
  EXPECT_DEATH(lowerBoundPacked("b", intImm(0), Keys3, imms({32, 32, 32})),
               "fit 64 bits");
}

//===----------------------------------------------------------------------===//
// Shared-sort construct: uniquePrefix
//===----------------------------------------------------------------------===//

namespace {

/// Runs uniquePrefix from a bound source buffer into a fresh destination
/// and returns (kept prefixes, count).
std::pair<std::vector<int32_t>, int64_t>
runUniquePrefix(std::vector<int32_t> Src, int64_t N, int64_t SrcArity,
                int64_t DstArity) {
  BlockBuilder B;
  B.add(alloc("dst", ScalarKind::Int, intImm(N * DstArity), false));
  B.add(uniquePrefix("src", intImm(N), SrcArity, "dst", DstArity, "u"));
  B.add(yieldBuffer("B1_crd", "dst", mul(var("u"), intImm(DstArity))));
  B.add(yieldScalar("B1_param", var("u")));
  Function F{"doprefix", {{"src", ScalarKind::Int, true}}, B.build()};
  Interpreter Interp;
  Interp.bindIntBuffer("src", std::move(Src));
  RunResult R = Interp.run(F);
  return {R.Buffers["B1_crd"].Ints, R.Scalars["B1_param"]};
}

} // namespace

TEST(IrSharedSort, UniquePrefixCompactsSortedTriplesToPairs) {
  // Sorted unique triples: (0,1,2) (0,1,5) (0,2,0) (3,1,1) (3,1,4).
  auto [Kept, U] = runUniquePrefix(
      {0, 1, 2, 0, 1, 5, 0, 2, 0, 3, 1, 1, 3, 1, 4}, 5, 3, 2);
  EXPECT_EQ(U, 3);
  EXPECT_EQ(Kept, (std::vector<int32_t>{0, 1, 0, 2, 3, 1}));
}

TEST(IrSharedSort, UniquePrefixSingleComponentAndFullArity) {
  // Prefix length 1 over the same triples: distinct leading coordinates.
  auto [Roots, URoots] = runUniquePrefix(
      {0, 1, 2, 0, 1, 5, 0, 2, 0, 3, 1, 1, 3, 1, 4}, 5, 3, 1);
  EXPECT_EQ(URoots, 2);
  EXPECT_EQ(Roots, (std::vector<int32_t>{0, 3}));
  // DstArity == SrcArity degenerates to a copy of the (unique) input.
  auto [Full, UFull] = runUniquePrefix({1, 2, 3, 4}, 2, 2, 2);
  EXPECT_EQ(UFull, 2);
  EXPECT_EQ(Full, (std::vector<int32_t>{1, 2, 3, 4}));
  auto [None, UNone] = runUniquePrefix({}, 0, 3, 1);
  EXPECT_EQ(UNone, 0);
  EXPECT_TRUE(None.empty());
}

TEST(IrSharedSort, PrintingInBothViews) {
  Stmt P = uniquePrefix("B3_srt", var("uB3"), 3, "B1_srt", 1, "uB1");
  EXPECT_EQ(printStmt(P),
            "int64_t uB1 = unique_prefix(B3_srt, uB3, 3, B1_srt, 1);\n");
  EXPECT_EQ(printStmtAsC(P),
            "int64_t uB1 = cvg_rt->unique_prefix(B3_srt, uB3, 3, B1_srt, 1, "
            "cvg_nparts());\n");
}

TEST(IrSharedSort, PreludeHelpersAreEmittedOnlyWhenUsed) {
  BlockBuilder With;
  With.add(alloc("a", ScalarKind::Int, intImm(4), false));
  With.add(alloc("b", ScalarKind::Int, intImm(4), false));
  With.add(uniquePrefix("a", intImm(2), 2, "b", 1, "u"));
  Function FWith{"f", {{"dim0", ScalarKind::Int, false}}, With.build()};
  std::string C = emitC(FWith);
  EXPECT_NE(C.find("cvg_rt->unique_prefix(a, "), std::string::npos);
  EXPECT_EQ(C.find("cvg_tuple_cmp"), std::string::npos);
  BlockBuilder Without;
  Without.add(alloc("b", ScalarKind::Int, intImm(4), false));
  Function FWithout{"f", {{"dim0", ScalarKind::Int, false}}, Without.build()};
  EXPECT_EQ(emitC(FWithout).find("cvg_rt->"), std::string::npos);
}

TEST(IrInterpDeath, UniquePrefixRangeOutOfBoundsAborts) {
  BlockBuilder B;
  B.add(alloc("a", ScalarKind::Int, intImm(4), true));
  B.add(alloc("b", ScalarKind::Int, intImm(4), true));
  B.add(uniquePrefix("a", intImm(3), 2, "b", 1, "u")); // 3 pairs > 4 slots.
  Function F{"f", {}, B.build()};
  Interpreter Interp;
  EXPECT_DEATH(Interp.run(F), "unique_prefix range");
}
