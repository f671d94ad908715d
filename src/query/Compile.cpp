//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "query/Compile.h"

#include "query/Transforms.h"
#include "remap/Lower.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <set>

using namespace convgen;
using namespace convgen::query;

namespace {

ir::ReduceOp toReduceOp(AssignOp Op) {
  switch (Op) {
  case AssignOp::Assign:
    return ir::ReduceOp::None;
  case AssignOp::Or:
    return ir::ReduceOp::Or;
  case AssignOp::Add:
    return ir::ReduceOp::Add;
  case AssignOp::Max:
    return ir::ReduceOp::Max;
  }
  convgen_unreachable("unknown assign op");
}

/// Compilation context shared by all statements of one query batch.
struct Compiler {
  const TargetShape &Target;
  const levels::SourceIterator &Src;

  /// Buffer layouts: name -> (dims, lo exprs, extent exprs, elem).
  struct Layout {
    std::vector<int> Dims;
    std::vector<ir::Expr> Lo, Extent;
    ir::ScalarKind Elem;
  };
  std::map<std::string, Layout> Layouts;

  void registerBuffer(const BufferInfo &B) {
    Layout L;
    L.Dims = B.Dims;
    L.Elem = B.Elem;
    for (int D : B.Dims) {
      const remap::DimBounds &Bd =
          Target.Bounds[static_cast<size_t>(D)];
      if (!Bd.Known)
        fatalError("query buffer over a dimension without static bounds");
      L.Lo.push_back(Bd.Lo);
      L.Extent.push_back(Bd.extent());
    }
    Layouts[B.Name] = L;
  }

  ir::Expr bufferSize(const std::string &Name) const {
    const Layout &L = Layouts.at(Name);
    ir::Expr Size = ir::intImm(1);
    for (const ir::Expr &E : L.Extent)
      Size = ir::mul(Size, E);
    return Size;
  }

  /// Linearizes absolute coordinates into the buffer's row-major layout.
  ir::Expr linearize(const std::string &Name,
                     const std::vector<ir::Expr> &Coords) const {
    const Layout &L = Layouts.at(Name);
    CONVGEN_ASSERT(Coords.size() == L.Dims.size(),
                   "buffer index arity mismatch");
    ir::Expr Index = ir::intImm(0);
    for (size_t D = 0; D < Coords.size(); ++D)
      Index = ir::add(ir::mul(Index, L.Extent[D]),
                      ir::sub(Coords[D], L.Lo[D]));
    return Index;
  }

  /// The store one source-space statement makes for the nonzero (or, for
  /// a prefix sweep, the slice) \p Env describes.
  ir::Stmt emitSourceStore(const Forall &F, const levels::IterEnv &Env) const;

  /// Emits one prefix-sweep or temp-reduction statement of a query.
  ir::Stmt emitForall(const Forall &F) const;

  /// Emits all SourceAll statements as one pass over the source's
  /// nonzeros; their bodies concatenate.
  ir::Stmt emitFusedSweep(const std::vector<const Forall *> &Fused) const;

  /// Annotates an analysis sweep as parallel when every fused statement is
  /// an exact integer reduction: each thread then accumulates into private
  /// copies of the result buffers (per-thread histograms) that the OpenMP
  /// runtime merges, which commutes bit-exactly with serial execution.
  /// Assign statements are order-dependent, so any of them keeps the sweep
  /// serial; ditto float-typed results (float addition does not commute).
  ir::Stmt parallelizeSweep(ir::Stmt Loop,
                            const std::vector<const Forall *> &Stmts) const;
};

/// True when a buffer-size expression is a product of two data-dependent
/// extents — an O(rows * cols)-style workspace. OpenMP array-section
/// reductions give every thread a private copy of the section, which
/// libgomp places on the thread stack; privatizing a quadratic workspace
/// (canonical count queries' dedup temporaries) overflows it and crashes,
/// so such sweeps must stay serial. One-dimensional histograms stay cheap
/// to privatize and keep the reduction.
static bool sizeIsMultiExtent(const ir::Expr &Size) {
  return Size && Size->Kind == ir::ExprKind::Binary &&
         Size->BOp == ir::BinOp::Mul && !ir::isIntConst(Size->A) &&
         !ir::isIntConst(Size->B);
}

ir::Stmt
Compiler::parallelizeSweep(ir::Stmt Loop,
                           const std::vector<const Forall *> &Stmts) const {
  if (!Loop || Loop->Kind != ir::StmtKind::For)
    return Loop;
  std::map<std::string, ir::ReduceOp> Ops;
  for (const Forall *F : Stmts) {
    ir::ReduceOp Op = toReduceOp(F->Op);
    if (Op == ir::ReduceOp::None)
      return Loop;
    if (Layouts.at(F->Lhs.Tensor).Elem == ir::ScalarKind::Float)
      return Loop;
    if (sizeIsMultiExtent(bufferSize(F->Lhs.Tensor)))
      return Loop;
    auto It = Ops.find(F->Lhs.Tensor);
    if (It != Ops.end() && It->second != Op)
      return Loop;
    Ops[F->Lhs.Tensor] = Op;
  }
  std::vector<ir::ParReduction> Reductions;
  for (const auto &[Name, Op] : Ops)
    Reductions.push_back({Name, Op, bufferSize(Name), Layouts.at(Name).Elem});
  return ir::markLoopParallel(Loop, {}, std::move(Reductions));
}

ir::Stmt Compiler::emitSourceStore(const Forall &F,
                                   const levels::IterEnv &Env) const {
  remap::LowerEnv LEnv;
  LEnv.IVars = Env.Canonical;
  std::vector<ir::Expr> Coords;
  for (const remap::Expr &E : F.Lhs.Idx)
    Coords.push_back(remap::lowerExpr(E, LEnv));
  ir::Expr Value;
  if (F.Rhs.Kind == RhsExpr::RhsKind::MapSource) {
    ir::Expr Base = F.Rhs.Value ? remap::lowerExpr(F.Rhs.Value, LEnv) : nullptr;
    if (Base && F.Rhs.ValueSign < 0)
      Base = ir::neg(Base);
    Value = Base ? (F.Rhs.ValueShift ? ir::add(Base, F.Rhs.ValueShift) : Base)
                 : (F.Rhs.ValueShift ? F.Rhs.ValueShift : ir::intImm(0));
  } else if (F.Rhs.Kind == RhsExpr::RhsKind::RowNnz) {
    Value = Src.rowNnz(F.Rhs.RowNnzLevel, Env);
  } else {
    fatalError("unsupported rhs in a source-space forall");
  }
  if (F.Rhs.Scale != 1)
    Value = ir::mul(Value, ir::intImm(F.Rhs.Scale));
  return ir::store(F.Lhs.Tensor, linearize(F.Lhs.Tensor, Coords), Value,
                   toReduceOp(F.Op));
}

ir::Stmt
Compiler::emitFusedSweep(const std::vector<const Forall *> &Fused) const {
  auto Body = [&](const levels::IterEnv &Env) -> ir::Stmt {
    ir::BlockBuilder B;
    for (const Forall *F : Fused)
      B.add(emitSourceStore(*F, Env));
    return B.build();
  };
  // Bodies that read only the innermost level's ivars need no loop per
  // parent: one flat loop over the innermost positions replaces a nest
  // whose short inner loops mispredict (csr -> csc counts columns over
  // [A2_pos[0], A2_pos[dim0])).
  std::set<std::string> Used;
  for (const Forall *F : Fused) {
    for (const remap::Expr &E : F->Lhs.Idx)
      remap::collectIVars(E, Used);
    remap::collectIVars(F->Rhs.Value, Used);
  }
  ir::Stmt Sweep = Src.buildFlat(Used, Body);
  return parallelizeSweep(Sweep ? Sweep : Src.build(Body), Fused);
}

ir::Stmt Compiler::emitForall(const Forall &F) const {
  switch (F.Space) {
  case Forall::IterSpace::SourceAll:
    convgen_unreachable("SourceAll statements are emitted by the fused sweep");
  case Forall::IterSpace::SourcePrefix:
    return parallelizeSweep(
        Src.buildPrefix(F.PrefixLevels,
                        [&](const levels::IterEnv &Env) {
                          return emitSourceStore(F, Env);
                        }),
        {&F});
  case Forall::IterSpace::TempDense: {
    // Nested loops over the temp's (relative) coordinates t0..tn-1; the
    // lhs takes the leading loop variables.
    const Layout &L = Layouts.at(F.TempIterated);
    CONVGEN_ASSERT(F.Rhs.Kind == RhsExpr::RhsKind::ReadTemp,
                   "dense foralls read their temp");
    std::vector<ir::Expr> TempIdx, LhsIdx;
    for (size_t D = 0; D < L.Dims.size(); ++D) {
      ir::Expr T = ir::var("t" + std::to_string(D));
      // linearize() subtracts lo, so feed absolute coords back in.
      TempIdx.push_back(ir::add(T, L.Lo[D]));
      if (D < F.Lhs.Idx.size())
        LhsIdx.push_back(ir::add(T, Layouts.at(F.Lhs.Tensor).Lo[D]));
    }
    ir::Expr Value = ir::load(F.TempIterated,
                              linearize(F.TempIterated, TempIdx),
                              L.Elem);
    if (F.Rhs.Scale != 1)
      Value = ir::mul(Value, ir::intImm(F.Rhs.Scale));
    ir::Stmt Body = ir::store(F.Lhs.Tensor,
                              linearize(F.Lhs.Tensor, LhsIdx), Value,
                              toReduceOp(F.Op));
    for (size_t D = L.Dims.size(); D-- > 0;)
      Body = ir::forRange("t" + std::to_string(D), ir::intImm(0),
                          L.Extent[D], Body);
    return parallelizeSweep(Body, {&F});
  }
  }
  convgen_unreachable("unknown forall space");
}

} // namespace

CompiledQueries
query::compileQueries(const std::vector<std::pair<int, Query>> &LevelQueries,
                      const TargetShape &Target,
                      const levels::SourceIterator &Src, bool Optimize) {
  CompiledQueries Out;
  Compiler C{Target, Src, {}};

  // Lower and optimize every aggregation.
  for (const auto &[Level, Q] : LevelQueries) {
    for (const Agg &A : Q.Aggs) {
      std::string Name = strfmt("q%d_%s", Level, A.Label.c_str());
      CinStmt Stmt = lowerToCanonical(Q, A, Target, Name);
      if (Optimize) {
        optimize(Stmt, Src, Target);
      } else {
        // counter-to-histogram is a lowering necessity, not merely an
        // optimization: canonical counter payloads cannot be evaluated
        // inside an analysis sweep (Table 1 gives it no preconditions).
        while (counterToHistogram(Stmt, Src, Target)) {
        }
      }
      Out.Stmts.push_back({Name, Stmt});
    }
  }

  ir::BlockBuilder Code;
  Code.add(ir::comment("analysis: compute attribute queries"));

  // Allocate result and temp buffers (always zero-initialized: raw zero
  // encodes "empty" across all aggregations).
  for (auto &[Name, Stmt] : Out.Stmts) {
    C.registerBuffer(Stmt.Result);
    Code.add(ir::alloc(Stmt.Result.Name, Stmt.Result.Elem,
                       C.bufferSize(Stmt.Result.Name), true));
    for (const BufferInfo &W : Stmt.Temps) {
      C.registerBuffer(W);
      Code.add(ir::alloc(W.Name, W.Elem, C.bufferSize(W.Name), true));
    }
  }

  // Fuse all SourceAll sweeps into one pass over the source's nonzeros.
  std::vector<const Forall *> Fused;
  for (auto &[Name, Stmt] : Out.Stmts)
    for (const Forall &F : Stmt.Stmts)
      if (F.Space == Forall::IterSpace::SourceAll)
        Fused.push_back(&F);
  if (!Fused.empty())
    Code.add(C.emitFusedSweep(Fused));

  // Emit the remaining statements (prefix sweeps, temp reductions) in
  // order; producers precede consumers within each query by construction.
  for (auto &[Name, Stmt] : Out.Stmts)
    for (const Forall &F : Stmt.Stmts)
      if (F.Space != Forall::IterSpace::SourceAll)
        Code.add(C.emitForall(F));

  // Free temporaries and publish the result references.
  for (auto &[Name, Stmt] : Out.Stmts)
    for (const BufferInfo &W : Stmt.Temps)
      Code.add(ir::freeBuffer(W.Name));

  for (auto &[Name, Stmt] : Out.Stmts) {
    levels::QueryResultRef Ref;
    Ref.Buffer = Name;
    Ref.Elem = Stmt.Result.Elem;
    Ref.GroupDims = Stmt.Result.Dims;
    for (int D : Stmt.Result.Dims) {
      const remap::DimBounds &B = Target.Bounds[static_cast<size_t>(D)];
      Ref.GroupLo.push_back(B.Lo);
      Ref.GroupExtent.push_back(B.extent());
    }
    Ref.Sign = Stmt.Sign;
    Ref.Shift = Stmt.Shift;
    Out.Refs[Name] = Ref;
  }

  Out.Code = Code.build();
  return Out;
}
