//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"

#include "ir/CEmitter.h"
#include "levels/Levels.h"
#include "levels/SourceIterator.h"
#include "query/Compile.h"
#include "remap/Bounds.h"
#include "remap/Lower.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <set>

using namespace convgen;
using namespace convgen::codegen;
using formats::LevelKind;

std::string Conversion::cSource() const { return ir::emitC(Func); }

std::string Conversion::pretty() const { return ir::printFunction(Func); }

namespace {

/// True if destination dims 0..UpTo (inclusive) plainly cover every
/// canonical index variable — in that case a compressed level at UpTo+1
/// sees each coordinate tuple at most once and needs no deduplication.
bool prefixCoversAllIVars(const remap::RemapStmt &Remap, int UpTo) {
  std::set<std::string> Covered;
  for (int D = 0; D <= UpTo && D < static_cast<int>(Remap.dstOrder()); ++D) {
    std::string Name;
    if (remap::dimIsPlainVar(Remap, static_cast<size_t>(D), &Name))
      Covered.insert(Name);
  }
  for (const std::string &V : Remap.SrcVars)
    if (!Covered.count(V))
      return false;
  return true;
}

/// One counter of the target remapping and how it is realized.
struct CounterPlan {
  std::vector<std::string> IVars;
  bool Scalar = false;      ///< Reuse one scalar (reset per outer row).
  int ResetLevel = 0;       ///< Source level whose body resets the scalar.
  std::string Var;          ///< Scalar name or array name.
};

struct Generator {
  const formats::Format &Src;
  const formats::Format &Dst;
  const Options &Opts;

  levels::SourceIterator SrcIt;
  std::vector<std::unique_ptr<levels::LevelFormat>> Levels;
  levels::AsmCtx Ctx;
  query::TargetShape Shape;
  std::vector<CounterPlan> Counters;
  std::vector<ir::Expr> LevelSizes; ///< sz0..szn as size variables.

  Generator(const formats::Format &Src, const formats::Format &Dst,
            const Options &Opts)
      : Src(Src), Dst(Dst), Opts(Opts), SrcIt(Src) {}

  Conversion run();

  ir::Stmt emitParentLoop(
      int K,
      const std::function<ir::Stmt(ir::Expr, const std::vector<ir::Expr> &)>
          &Body);
  void planCounters();

  /// Lowers all destination coordinate expressions for the current
  /// nonzero; appends let/counter statements to \p Out.
  std::vector<ir::Expr> dstCoords(const levels::IterEnv &Env,
                                  ir::BlockBuilder &Out,
                                  bool UseMaterialized) const;

  /// Declares counter state (scalars or calloc'd arrays) and registers the
  /// per-loop-level scalar resets of the counter-reuse optimization.
  void emitCounterSetup(
      ir::BlockBuilder &Out,
      std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>>
          &Resets) const;

  /// Reads each counter's current value into <name>_v and increments it.
  void emitCounterAdvance(const levels::IterEnv &Env,
                          ir::BlockBuilder &Out) const;

  void freeCounters(ir::BlockBuilder &Out) const;

  /// Linearized counter-array index from the counter's index variables.
  ir::Expr counterIndex(const CounterPlan &Plan,
                        const levels::IterEnv &Env) const;

  /// True when distinct iterations of the source's outermost loop touch
  /// disjoint cells of the counter array, so parallelizing that loop keeps
  /// every cell's increment sequence in serial order.
  bool outerCounterCellsDisjoint(const CounterPlan &Plan) const;

  /// Annotates a pass over the source (coordinate insertion or the
  /// materialize pre-pass) as parallel when legal; returns it unchanged
  /// otherwise. \p CheckLevels gates on every target level's insertion
  /// being order-independent under the chosen strategy (the pre-pass runs
  /// no level emitters); \p CountersAdvance requires counters to be
  /// privatizable (scalars) or iteration-owned (arrays over the outer
  /// ivar).
  ir::Stmt markInsertionParallel(ir::Stmt Loop, bool CheckLevels,
                                 bool CountersAdvance) const;

  /// Size of a counter array: product of the index variables' dimensions.
  ir::Expr counterArraySize(const CounterPlan &Plan) const;

  /// 1-based target levels that insert through a per-parent cursor
  /// (compressed without a dedup workspace).
  std::vector<int> cursorLevels() const;

  /// True when cursor level \p K (1-based) meets the Monotone strategy's
  /// preconditions: the level's parent coordinates are plain variables
  /// forming exactly a prefix of the source's lexicographically ordered
  /// iteration variables, and every stored source slot is inserted (no
  /// padded-source value guard). The serial cursor then assigns position p
  /// to the p-th visited nonzero, so emitting the source position directly
  /// is bit-identical and removes the cursor (and its serialization).
  bool cursorLevelIsMonotone(int K) const;

  /// Picks the insertion strategy for this conversion (see
  /// levels::InsertStrategy for the semantics of each).
  levels::InsertStrategy chooseInsertStrategy() const;

  /// Scalar (privatizable) counter variable names, for Parallel clauses.
  std::vector<std::string> scalarCounterVars() const;

  /// Rewrites the outermost loop of a source nest into a loop over
  /// partitions BlockVar in [0, \p Parts) of PartCount contiguous
  /// sub-ranges, so two passes that must agree on the work partition
  /// (counting and insertion) split the iteration space identically. Each
  /// partition's bounds are evaluated once into locals before its loop.
  ir::Stmt blockifyOuterLoop(const ir::Stmt &Nest, ir::Expr Parts) const;

  /// Emits the Blocked-strategy insertion: per-partition cursor counting,
  /// the partition-offset conversion, and the blocked insertion pass.
  void emitBlockedInsertion(
      ir::BlockBuilder &Fn,
      const std::function<ir::Stmt(const levels::IterEnv &)> &InsertionBody,
      const std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>>
          &Resets);
};

ir::Expr Generator::counterArraySize(const CounterPlan &Plan) const {
  ir::Expr Size = ir::intImm(1);
  for (const std::string &IV : Plan.IVars) {
    auto It = std::find(Src.Remap.SrcVars.begin(), Src.Remap.SrcVars.end(),
                        IV);
    CONVGEN_ASSERT(It != Src.Remap.SrcVars.end(),
                   "counter over unknown index variable");
    int D = static_cast<int>(It - Src.Remap.SrcVars.begin());
    Size = ir::mul(Size, ir::var("dim" + std::to_string(D)));
  }
  return Size;
}

ir::Expr Generator::counterIndex(const CounterPlan &Plan,
                                 const levels::IterEnv &Env) const {
  ir::Expr Index = ir::intImm(0);
  for (const std::string &IV : Plan.IVars) {
    auto It = std::find(Src.Remap.SrcVars.begin(), Src.Remap.SrcVars.end(),
                        IV);
    int D = static_cast<int>(It - Src.Remap.SrcVars.begin());
    Index = ir::add(ir::mul(Index, ir::var("dim" + std::to_string(D))),
                    Env.Canonical.at(IV));
  }
  return Index;
}

void Generator::emitCounterSetup(
    ir::BlockBuilder &Out,
    std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>> &Resets)
    const {
  std::map<int, std::vector<std::string>> ScalarResets;
  for (const CounterPlan &Plan : Counters) {
    if (Plan.Scalar) {
      Out.add(ir::decl(Plan.Var, ir::intImm(0)));
      if (Plan.ResetLevel > 0)
        ScalarResets[Plan.ResetLevel].push_back(Plan.Var);
    } else {
      Out.add(ir::alloc(Plan.Var, ir::ScalarKind::Int,
                        counterArraySize(Plan), true));
    }
  }
  for (auto &[Level, Vars] : ScalarResets) {
    std::vector<std::string> Copy = Vars;
    Resets[Level] = [Copy](const levels::IterEnv &) -> ir::Stmt {
      ir::BlockBuilder B;
      for (const std::string &V : Copy)
        B.add(ir::assign(V, ir::intImm(0)));
      return B.build();
    };
  }
}

void Generator::emitCounterAdvance(const levels::IterEnv &Env,
                                   ir::BlockBuilder &Out) const {
  for (const CounterPlan &Plan : Counters) {
    std::string Val = Plan.Var + "_v";
    if (Plan.Scalar) {
      Out.add(ir::decl(Val, ir::var(Plan.Var)));
      Out.add(ir::assign(Plan.Var, ir::add(ir::var(Plan.Var),
                                           ir::intImm(1))));
    } else {
      ir::Expr Index = counterIndex(Plan, Env);
      std::string IdxVar = Plan.Var + "_i";
      Out.add(ir::decl(IdxVar, Index));
      Out.add(ir::decl(Val, ir::load(Plan.Var, ir::var(IdxVar))));
      Out.add(ir::store(Plan.Var, ir::var(IdxVar),
                        ir::add(ir::var(Val), ir::intImm(1))));
    }
  }
}

bool Generator::outerCounterCellsDisjoint(const CounterPlan &Plan) const {
  // The parallelized loop is the source's outermost stored dimension. Its
  // iterations own disjoint counter cells iff that dimension is a plain
  // canonical ivar with a distinct value per iteration, and the counter is
  // indexed by it. (A COO-style non-unique root shares the ivar across
  // iterations, so its cells would race; dims that are arithmetic
  // expressions over ivars give no per-iteration ownership either.)
  std::string V;
  if (!remap::dimIsPlainVar(Src.Remap, 0, &V))
    return false;
  const formats::LevelSpec &L1 = Src.Levels[0];
  bool DistinctPerIteration =
      L1.Kind == LevelKind::Dense || L1.Kind == LevelKind::Squeezed ||
      L1.Kind == LevelKind::Sliced ||
      (L1.Kind == LevelKind::Compressed && L1.Unique);
  if (!DistinctPerIteration)
    return false;
  return std::find(Plan.IVars.begin(), Plan.IVars.end(), V) !=
         Plan.IVars.end();
}

ir::Stmt Generator::markInsertionParallel(ir::Stmt Loop, bool CheckLevels,
                                          bool CountersAdvance) const {
  if (!Loop || Loop->Kind != ir::StmtKind::For)
    return Loop;
  if (CheckLevels)
    for (const auto &LF : Levels)
      if (!LF->insertIsParallelSafe(Ctx))
        return Loop;
  std::vector<std::string> Privates;
  if (CountersAdvance) {
    for (const CounterPlan &Plan : Counters) {
      if (Plan.Scalar) {
        // Reused scalars are reset (at their owning loop level) before any
        // use within each outer iteration, so a private copy per thread
        // reproduces serial values exactly.
        Privates.push_back(Plan.Var);
      } else if (!outerCounterCellsDisjoint(Plan)) {
        return Loop;
      }
    }
  }
  return ir::markLoopParallel(Loop, std::move(Privates));
}

std::vector<int> Generator::cursorLevels() const {
  std::vector<int> Out;
  for (const auto &LF : Levels)
    if (LF->insertUsesCursor())
      Out.push_back(LF->level());
  return Out;
}

bool Generator::cursorLevelIsMonotone(int K) const {
  // Every visited slot must insert: a padded source's vals != 0 guard
  // would skip slots and break position == source-position.
  if (Src.PaddedVals)
    return false;
  // Only ivars bound by the source's leading dense loops are usable: their
  // order is guaranteed by the loop structure itself. Compressed and
  // singleton levels iterate whatever the crd arrays hold, and a tensor
  // may legally carry them unsorted (csc -> coo yields column-major coo),
  // so they give no structural monotonicity guarantee — such sources take
  // the Blocked strategy instead, which assumes nothing about order.
  std::vector<std::string> Ordered = SrcIt.orderedLoopIVars();
  if (static_cast<size_t>(K - 1) > Ordered.size())
    return false;
  // The parent chain must be dense levels over plain variables matching
  // that loop prefix in order: the linearized parent position is then
  // non-decreasing along the whole source iteration.
  for (int P = 0; P < K - 1; ++P) {
    const formats::LevelSpec &Spec = Dst.Levels[static_cast<size_t>(P)];
    if (Spec.Kind != LevelKind::Dense)
      return false;
    std::string V;
    if (!remap::dimIsPlainVar(Dst.Remap, static_cast<size_t>(Spec.Dim), &V))
      return false;
    if (V != Ordered[static_cast<size_t>(P)])
      return false;
  }
  return true;
}

levels::InsertStrategy Generator::chooseInsertStrategy() const {
  std::vector<int> Cursors = cursorLevels();
  if (Cursors.empty())
    return levels::InsertStrategy::Serial; // No cursors to replace.
  bool AllMonotone = true;
  for (int K : Cursors)
    AllMonotone = AllMonotone && cursorLevelIsMonotone(K);
  if (AllMonotone)
    return levels::InsertStrategy::Monotone;
  // Blocked handles one cursor level whose parent position is computable
  // per nonzero (its ancestors are pure levels — guaranteed for edge
  // insertion); the other levels must be order-independent. The counting
  // pass replays counter advances, which is exact for reused scalars
  // (reset before use within each outer iteration) and moot when a
  // materialize pre-pass owns the counters, but would double-count
  // counter arrays — those keep the insertion serial.
  if (Cursors.size() != 1)
    return levels::InsertStrategy::Serial;
  for (const auto &LF : Levels) {
    if (LF->insertUsesCursor())
      continue;
    levels::AsmCtx Pure = Ctx; // Strategy-independent purity probe.
    Pure.Insert = levels::InsertStrategy::Serial;
    if (!LF->insertIsParallelSafe(Pure))
      return levels::InsertStrategy::Serial;
  }
  if (!Opts.MaterializeRemap)
    for (const CounterPlan &Plan : Counters)
      if (!Plan.Scalar)
        return levels::InsertStrategy::Serial;
  return levels::InsertStrategy::Blocked;
}

std::vector<std::string> Generator::scalarCounterVars() const {
  std::vector<std::string> Out;
  if (Opts.MaterializeRemap)
    return Out; // Counters advance only in the materialize pre-pass.
  for (const CounterPlan &Plan : Counters)
    if (Plan.Scalar)
      Out.push_back(Plan.Var);
  return Out;
}

ir::Stmt Generator::blockifyOuterLoop(const ir::Stmt &Nest,
                                      ir::Expr Parts) const {
  CONVGEN_ASSERT(Nest && Nest->Kind == ir::StmtKind::For,
                 "blocked insertion requires a loop-rooted source nest");
  ir::Expr Lo = Nest->A, Hi = Nest->B, P = Ctx.PartCount;
  ir::Expr Len = ir::sub(Hi, Lo);
  ir::Expr BVar = ir::var(Ctx.BlockVar);
  // Locals, not loop conditions: inside the outlined parallel body the C
  // compiler cannot prove the cursor/crd stores leave the source's pos
  // array alone, and would redo the 64-bit divide on every iteration.
  std::string BLo = Ctx.BlockVar + "_lo", BHi = Ctx.BlockVar + "_hi";
  ir::BlockBuilder Part;
  Part.add(ir::decl(BLo, ir::add(Lo, ir::div(ir::mul(Len, BVar), P))));
  Part.add(ir::decl(
      BHi,
      ir::add(Lo, ir::div(ir::mul(Len, ir::add(BVar, ir::intImm(1))), P))));
  Part.add(ir::forRange(Nest->Name, ir::var(BLo), ir::var(BHi), Nest->Body));
  return ir::forRange(Ctx.BlockVar, ir::intImm(0), std::move(Parts),
                      Part.build());
}

void Generator::emitBlockedInsertion(
    ir::BlockBuilder &Fn,
    const std::function<ir::Stmt(const levels::IterEnv &)> &InsertionBody,
    const std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>>
        &Resets) {
  int K = cursorLevels().front();
  ir::Expr PS = Ctx.ParentSize.at(K);
  std::string Cur = Ctx.cursorName(K);
  std::vector<std::string> Privates = scalarCounterVars();
  bool Materialize = Opts.MaterializeRemap;

  // The partition count is evaluated once so the counting and insertion
  // passes split the outer loop identically; the result is deterministic
  // for any count, so the interpreter's single partition and the JIT's
  // thread count agree bit-for-bit.
  Fn.add(ir::decl("cvg_P", ir::numParts()));
  Ctx.PartCount = ir::var("cvg_P");
  Ctx.BlockVar = "cb";

  // Pass 1: each partition but the last tallies its nonzeros per parent
  // position. The scan below needs only the tallies of partitions before
  // each one, so the last partition's are never read; at one partition the
  // pass runs no iterations and assembly is SPARSKIT's count/scan/scatter.
  Fn.add(ir::comment("per-partition cursor counts"));
  Fn.add(ir::alloc(Cur, ir::ScalarKind::Int, ir::mul(Ctx.PartCount, PS),
                   true));
  auto CountBody = [&](const levels::IterEnv &Env) -> ir::Stmt {
    ir::BlockBuilder Body;
    if (!Materialize)
      emitCounterAdvance(Env, Body);
    std::vector<ir::Expr> Coords = dstCoords(Env, Body, Materialize);
    levels::PosEnv PEnv{ir::intImm(0), Coords, Env.LastPos};
    for (int P = 0; P + 1 < K; ++P)
      PEnv.ParentPos =
          Levels[static_cast<size_t>(P)]->emitPos(Ctx, PEnv, Body);
    Body.add(ir::store(
        Cur,
        ir::add(ir::mul(ir::var(Ctx.BlockVar), PS), PEnv.ParentPos),
        ir::intImm(1), ir::ReduceOp::Add));
    return Body.build();
  };
  Fn.add(ir::markLoopParallel(
      blockifyOuterLoop(SrcIt.build(CountBody, Resets),
                        ir::sub(Ctx.PartCount, ir::intImm(1))),
      Privates));

  // Pass 2: exclusive scan over partitions per parent, seeded from the
  // (final, never consumed) pos array: cur[b][q] becomes the first
  // destination position partition b writes under parent q. The uncounted
  // last partition's row still holds calloc's zeros, so the scan reads it
  // harmlessly and only ever consumes the tallies of partitions 0..P-2.
  Fn.add(ir::comment("partition counts -> starting cursors"));
  std::string Q = "cq", B = "cbo", T = "ct", Acc = "cacc";
  ir::Expr Cell = ir::add(ir::mul(ir::var(B), PS), ir::var(Q));
  ir::BlockBuilder Inner;
  Inner.add(ir::decl(T, ir::load(Cur, Cell)));
  Inner.add(ir::store(Cur, Cell, ir::var(Acc)));
  Inner.add(ir::assign(Acc, ir::add(ir::var(Acc), ir::var(T))));
  ir::BlockBuilder PerParent;
  PerParent.add(ir::decl(Acc, ir::load(Ctx.posName(K), ir::var(Q))));
  PerParent.add(
      ir::forRange(B, ir::intImm(0), Ctx.PartCount, Inner.build()));
  Fn.add(ir::markLoopParallel(
      ir::forRange(Q, ir::intImm(0), PS, PerParent.build()), {}));

  // Pass 3: blocked insertion; emitPos consumes this partition's cursors.
  Fn.add(ir::comment("blocked coordinate insertion"));
  Fn.add(ir::markLoopParallel(
      blockifyOuterLoop(SrcIt.build(InsertionBody, Resets), Ctx.PartCount),
      Privates));
  Fn.add(ir::freeBuffer(Cur));
}

void Generator::freeCounters(ir::BlockBuilder &Out) const {
  for (const CounterPlan &Plan : Counters)
    if (!Plan.Scalar)
      Out.add(ir::freeBuffer(Plan.Var));
}

/// Saturating product with an "unknown" element: -1 operands (extents the
/// numeric bounds analysis could not determine) poison the result.
int64_t satMulUnknown(int64_t A, int64_t B) {
  if (A < 0 || B < 0)
    return -1;
  if (B != 0 && A > INT64_MAX / B)
    return INT64_MAX;
  return A * B;
}

AssemblyPlan planAssemblyImpl(const formats::Format &Src,
                              const formats::Format &Dst,
                              const levels::SourceIterator &SrcIt,
                              const Options &Opts) {
  const std::vector<int64_t> &Dims = Opts.DimsHint;
  AssemblyPlan Plan;
  size_t N = Dst.Levels.size();
  Plan.Dedup.assign(N, false);
  Plan.Ranked.assign(N, false);
  Plan.Sorted.assign(N, false);
  Plan.RankSpace.assign(N, -1);

  auto isEdge = [&](size_t K) {
    return Dst.Levels[K].Kind == LevelKind::Compressed ||
           Dst.Levels[K].Kind == LevelKind::Skyline;
  };

  // Sequenced (workspace) dedup requires every nonzero of one parent tuple
  // to be visited contiguously: the grouping dims must depend on the ivars
  // of exactly a prefix of the source's lexicographic iteration order.
  // LevelsUsed reports how many leading source levels that prefix spans.
  std::vector<std::string> Ordered = SrcIt.lexOrderedIVars();
  auto seqPrefixOk = [&](size_t K, int *LevelsUsed) -> bool {
    std::set<std::string> Needed;
    for (size_t D = 0; D < K; ++D)
      remap::collectIVars(remap::inlineLets(Dst.Remap.DstDims[D]), Needed);
    *LevelsUsed = 0;
    if (Needed.empty())
      return true;
    std::set<std::string> PrefixSet;
    for (size_t I = 0; I < Ordered.size(); ++I) {
      PrefixSet.insert(Ordered[I]);
      if (PrefixSet == Needed) {
        *LevelsUsed = static_cast<int>(I) + 1;
        return true;
      }
    }
    return false;
  };

  std::vector<int> SeqLevelsUsed(N, 0);
  std::vector<bool> SeqStructural(N, true);
  for (size_t K = 0; K < N; ++K) {
    Plan.Dedup[K] = Dst.Levels[K].Kind == LevelKind::Compressed &&
                    Dst.Levels[K].Unique &&
                    !prefixCoversAllIVars(Dst.Remap, static_cast<int>(K));
    if (!Plan.Dedup[K])
      continue;
    // A compressed/skyline descendant enumerates this level's positions
    // during its own edge insertion, which only rank-based (coordinate-
    // order) positions support; and when the source cannot provide the
    // prefix iteration order the workspace needs, ranks are the fallback
    // that makes the pair convertible at all.
    bool EdgeBelow = false;
    for (size_t J = K + 1; J < N; ++J)
      EdgeBelow = EdgeBelow || isEdge(J);
    int LevelsUsed = 0;
    bool SeqOk = seqPrefixOk(K, &LevelsUsed);
    Plan.Ranked[K] = EdgeBelow || !SeqOk;
    SeqLevelsUsed[K] = LevelsUsed;
    for (int L = 0; L < LevelsUsed; ++L)
      SeqStructural[K] =
          SeqStructural[K] &&
          Src.Levels[static_cast<size_t>(L)].Kind == LevelKind::Dense;
  }

  // Size-driven strategy selection: estimate every level's dense auxiliary
  // footprint from the grouping dims' extents (when the caller supplied
  // concrete dimension sizes) and switch compressed levels over the
  // CONVGEN_RANK_DENSE_MAX_BYTES budget to the O(nnz)-memory
  // sorted-ranking strategy. Levels with no such fallback (skyline's
  // min-query buffer, squeezed's presence/perm structures) reject the pair
  // with a size-grounds diagnostic instead of silently allocating
  // gigabytes. Sorted-ness propagates down the level chain by
  // construction: a deeper compressed level's grouping dims are a
  // superset, so its footprint is at least as large.
  std::vector<int64_t> Ext; // Extent per destination dim; -1 unknown.
  if (Dims.size() == static_cast<size_t>(Dst.SrcOrder)) {
    std::vector<remap::NumericDimBounds> NB =
        remap::analyzeBoundsNumeric(Dst.Remap, Dims);
    for (const remap::NumericDimBounds &B : NB)
      Ext.push_back(B.Known ? B.extent() : -1);
  } else {
    Ext.assign(Dst.Remap.DstDims.size(), -1);
  }
  auto extAt = [&](int D) {
    return D >= 0 && static_cast<size_t>(D) < Ext.size()
               ? Ext[static_cast<size_t>(D)]
               : int64_t(-1);
  };
  auto prodExt = [&](int UpTo) -> int64_t {
    int64_t P = 1;
    for (int D = 0; D <= UpTo; ++D)
      P = satMulUnknown(P, extAt(D));
    return P;
  };
  int64_t Budget = rankDenseMaxBytes();
  auto overBudget = [&](int64_t Bytes) { return Bytes > Budget; };
  auto sizeDiagnostic = [&](size_t K, const char *What, int64_t Bytes,
                            const std::string &NoFallback) {
    return strfmt(
        "conversion %s -> %s rejected on size grounds: level %zu's dense "
        "%s would need %lld bytes at these dimensions, over the "
        "CONVGEN_RANK_DENSE_MAX_BYTES budget of %lld, and the "
        "sorted-ranking fallback does not apply: %s",
        Src.Name.c_str(), Dst.Name.c_str(), K + 1, What,
        static_cast<long long>(Bytes), static_cast<long long>(Budget),
        NoFallback.c_str());
  };
  for (size_t K = 0; K < N; ++K) {
    const formats::LevelSpec &L = Dst.Levels[K];
    if (L.Kind == LevelKind::Skyline) {
      int64_t F = satMulUnknown(4, prodExt(L.Dim - 1));
      if (F >= 0 && overBudget(F)) {
        Plan.Unsupported = sizeDiagnostic(
            K, "min-query buffer", F,
            "skyline assembly has no sorted-ranking variant");
        return Plan;
      }
      continue;
    }
    if (L.Kind == LevelKind::Squeezed) {
      int64_t F = satMulUnknown(5, extAt(L.Dim));
      if (F >= 0 && overBudget(F)) {
        Plan.Unsupported = sizeDiagnostic(
            K, "coordinate-presence and perm structures", F,
            "squeezed assembly has no sorted-ranking variant");
        return Plan;
      }
      continue;
    }
    if (L.Kind != LevelKind::Compressed)
      continue; // Dense/singleton/sliced/offset storage is the format's
                // own cost, not an auxiliary ranking structure.
    int64_t F;
    const char *What;
    if (Plan.Ranked[K]) {
      // int32 rank array + presence bit set over dims 0..Dim.
      Plan.RankSpace[K] = prodExt(L.Dim);
      F = satMulUnknown(5, Plan.RankSpace[K]);
      What = "rank array and presence bit set";
    } else if (Plan.Dedup[K]) {
      // Version-stamp workspace over the level's own dim, plus the
      // count-query buffer over the parent dims.
      F = std::max(satMulUnknown(8, extAt(L.Dim)),
                   satMulUnknown(4, prodExt(L.Dim - 1)));
      What = "dedup workspace and count-query buffer";
    } else {
      F = satMulUnknown(4, prodExt(L.Dim - 1));
      What = "count-query buffer";
    }
    bool AncestorSorted = false;
    for (size_t P = 0; P < K; ++P)
      AncestorSorted = AncestorSorted || Plan.Sorted[P];
    bool OverBudget = F >= 0 && overBudget(F);
    // ForceSortedRanking puts every eligible compressed level onto sorted
    // ranking even under the dense budget.
    if (!OverBudget && !AncestorSorted && !Opts.ForceSortedRanking)
      continue;
    Plan.RankSpace[K] = -1;
    // The level wants sorted ranking; check the strategy's preconditions.
    std::string NoFallback;
    if (!L.Unique) {
      NoFallback = "the level stores duplicate coordinates";
    } else if (Src.PaddedVals) {
      NoFallback = strfmt("source format %s pads its values array, so "
                          "stored positions are not dense in nnz",
                          Src.Name.c_str());
    }
    for (int D = 0; NoFallback.empty() && D <= L.Dim; ++D)
      if (!remap::dimIsPlainVar(Dst.Remap, static_cast<size_t>(D)))
        NoFallback = strfmt("destination dimension %d is a computed "
                            "expression, not a plain coordinate",
                            D);
    for (size_t P = 0; NoFallback.empty() && P < K; ++P) {
      bool Pure = Dst.Levels[P].Kind == LevelKind::Dense ||
                  (Dst.Levels[P].Kind == LevelKind::Compressed &&
                   (Plan.Ranked[P] || Plan.Sorted[P]));
      if (!Pure)
        NoFallback = strfmt("ancestor level %zu cannot expose pure "
                            "positions during edge insertion",
                            P + 1);
    }
    if (!NoFallback.empty()) {
      // This path is also reachable through AncestorSorted (or
      // ForceSortedRanking) with this level's own footprint small or
      // unknown; claiming "-1 bytes over the budget" would be nonsense, so
      // name the real cause instead.
      if (OverBudget)
        Plan.Unsupported = sizeDiagnostic(K, What, F, NoFallback);
      else if (AncestorSorted)
        Plan.Unsupported = strfmt(
            "conversion %s -> %s rejected on size grounds: an ancestor "
            "level's dense ranking structures exceed the "
            "CONVGEN_RANK_DENSE_MAX_BYTES budget of %lld, forcing level "
            "%zu onto the sorted-ranking strategy, which does not apply: "
            "%s",
            Src.Name.c_str(), Dst.Name.c_str(),
            static_cast<long long>(Budget), K + 1, NoFallback.c_str());
      else
        Plan.Unsupported = strfmt(
            "conversion %s -> %s: forced sorted ranking does not apply "
            "to level %zu: %s",
            Src.Name.c_str(), Dst.Name.c_str(), K + 1, NoFallback.c_str());
      return Plan;
    }
    Plan.Sorted[K] = true;
    Plan.Ranked[K] = false;
  }

  // Shared full-arity sort: level K of a validated format stores dimension
  // K, so every sorted level's grouping tuple (dims 0..K) is a prefix of
  // the deepest sorted level's. One collect+sort+unique at that arity
  // serves them all: ancestor lists are prefix compactions of the anchor's
  // (Chou et al.'s attribute queries are projections of one deepest-level
  // sorted tuple list). The anchor is 1-based: the deepest sorted level,
  // which builds the one list even when no other level sorts.
  if (Plan.anySorted())
    Plan.SharedSortAnchor = static_cast<int>(
        Plan.Sorted.rend() -
        std::find(Plan.Sorted.rbegin(), Plan.Sorted.rend(), true));

  // Packed-key sort lowering: when every destination extent is known and
  // the full-order coordinate tuple packs into one 64-bit key (sum of
  // per-dim ceil(log2(extent)) widths <= 64), every grouping prefix fits
  // too, so all sorted levels can radix-sort packed keys instead of
  // merge-sorting tuples. Packability is a property of the extents alone;
  // the sorted output is the identical pure function of the input either
  // way. The widths recorded here are this shape's; the routine recomputes
  // them from the extents at run time by the same rule (ir::bitWidth), so
  // only the verdict "this shape packs" reaches the generated code.
  if (Plan.anySorted())
    Plan.PackWidths = packWidths(Dst, Dims);

  // The sequenced workspace survives only where neither ranked nor sorted
  // replaced it; note when its prefix spans non-dense source levels, whose
  // order is data-dependent (csc -> coo legally yields column-major coo)
  // and must be validated per input tensor.
  for (size_t K = 0; K < N; ++K)
    if (Plan.Dedup[K] && !Plan.Ranked[K] && !Plan.Sorted[K] &&
        !SeqStructural[K])
      Plan.LexCheckLevels = std::max(Plan.LexCheckLevels, SeqLevelsUsed[K]);

  // Edge insertion enumerates parent positions before any insertion ran:
  // ancestors must be dense (positions are coordinate arithmetic) or
  // compressed with ranked/sorted insertion (positions are coordinate
  // ranks). Sorted levels build their structures from the source directly
  // and skip the enumeration entirely. Skyline keeps the dense-only
  // restriction of single-group assembly.
  for (size_t K = 0; K < N; ++K) {
    if (!isEdge(K) || Plan.Sorted[K])
      continue;
    for (size_t P = 0; P < K; ++P) {
      if (Dst.Levels[P].Kind == LevelKind::Dense)
        continue;
      bool RankedAncestor = Dst.Levels[P].Kind == LevelKind::Compressed &&
                            (Plan.Ranked[P] || Plan.Sorted[P]);
      if (Dst.Levels[K].Kind == LevelKind::Skyline || !RankedAncestor) {
        Plan.Unsupported =
            strfmt("conversion to %s requires multi-pass assembly "
                   "(level %zu needs edge insertion below a non-enumerable "
                   "level %zu), which is not supported",
                   Dst.Name.c_str(), K, P);
        return Plan;
      }
    }
  }

  // Ranked levels size their rank array (and presence-query buffer) by the
  // static bounds of dims 0..K; sorted levels need no extents at all.
  std::vector<ir::Expr> SrcDims;
  for (int D = 0; D < Dst.SrcOrder; ++D)
    SrcDims.push_back(ir::var("dim" + std::to_string(D)));
  std::vector<remap::DimBounds> Bounds =
      remap::analyzeBounds(Dst.Remap, SrcDims);
  for (size_t K = 0; K < N; ++K) {
    if (!Plan.Ranked[K])
      continue;
    for (size_t D = 0; D <= K; ++D)
      if (!Bounds[D].Known) {
        Plan.Unsupported = strfmt(
            "conversion %s -> %s needs ranked dedup assembly over "
            "dimension %zu, which has no static bounds",
            Src.Name.c_str(), Dst.Name.c_str(), D);
        return Plan;
      }
  }
  return Plan;
}

ir::Stmt Generator::emitParentLoop(
    int K,
    const std::function<ir::Stmt(ir::Expr, const std::vector<ir::Expr> &)>
        &Body) {
  // Enumerate positions of levels 1..K-1 in lexicographic coordinate
  // order: dense ancestors as plain loops, ranked compressed ancestors as
  // loops guarded by their presence query with positions from their (pure)
  // emitPos. Coordinate insertion assigns the same positions — dense
  // arithmetic, or ranks that count present tuples in this very coordinate
  // order — so enumeration and insertion agree on parent numbering by
  // construction, with no assumption on the source's iteration order.
  std::function<ir::Stmt(int, ir::Expr, std::vector<ir::Expr>)> Emit =
      [&](int Level, ir::Expr Pos, std::vector<ir::Expr> Coords) -> ir::Stmt {
    if (Level >= K)
      return Body(Pos, Coords);
    const formats::LevelSpec &Spec =
        Dst.Levels[static_cast<size_t>(Level - 1)];
    std::string Var = "e" + std::to_string(Level);
    ir::Expr Extent = Ctx.dimExtent(Spec.Dim);
    ir::Expr Lo = Ctx.dimLo(Spec.Dim);
    std::vector<ir::Expr> NewCoords = Coords;
    NewCoords.push_back(ir::add(ir::var(Var), Lo));
    if (Spec.Kind == LevelKind::Dense) {
      ir::Expr NewPos = ir::add(ir::mul(Pos, Extent), ir::var(Var));
      return ir::forRange(Var, ir::intImm(0), Extent,
                          Emit(Level + 1, NewPos, NewCoords));
    }
    CONVGEN_ASSERT(Spec.Kind == LevelKind::Compressed,
                   "edge-insertion parents must be dense or ranked");
    levels::QueryResultRef Present = Ctx.Result(Level, "present");
    ir::BlockBuilder Guarded;
    levels::PosEnv PEnv{Pos, NewCoords, nullptr};
    ir::Expr NewPos =
        Levels[static_cast<size_t>(Level - 1)]->emitPos(Ctx, PEnv, Guarded);
    Guarded.add(Emit(Level + 1, NewPos, NewCoords));
    return ir::forRange(
        Var, ir::intImm(0), Extent,
        ir::ifThen(levels::readQueryRaw(Present, NewCoords),
                   Guarded.build()));
  };
  return Emit(1, ir::intImm(0), {});
}

void Generator::planCounters() {
  std::vector<std::string> LoopOrdered = SrcIt.orderedLoopIVars();
  int Index = 0;
  for (const std::vector<std::string> &IVars :
       remap::collectCounters(Dst.Remap)) {
    CounterPlan Plan;
    Plan.IVars = IVars;
    Plan.Var = "cnt" + std::to_string(Index++);
    // A counter reuses one scalar when its index variables are exactly a
    // prefix of the ordered outer loops (§4.2): the scalar resets whenever
    // the innermost of those loops advances.
    if (Opts.CounterReuse && !IVars.empty() &&
        IVars.size() <= LoopOrdered.size() &&
        std::equal(IVars.begin(), IVars.end(), LoopOrdered.begin())) {
      Plan.Scalar = true;
      Plan.ResetLevel = static_cast<int>(IVars.size());
    }
    Counters.push_back(Plan);
  }
}

std::vector<ir::Expr> Generator::dstCoords(const levels::IterEnv &Env,
                                           ir::BlockBuilder &Out,
                                           bool UseMaterialized) const {
  std::vector<ir::Expr> Coords;
  remap::LowerEnv LEnv;
  LEnv.IVars = Env.Canonical;
  for (const CounterPlan &Plan : Counters)
    LEnv.Counters[remap::counterKey(Plan.IVars)] =
        ir::var(Plan.Var + "_v");
  for (size_t D = 0; D < Dst.Remap.DstDims.size(); ++D) {
    std::string PlainVar;
    if (remap::dimIsPlainVar(Dst.Remap, D, &PlainVar)) {
      Coords.push_back(Env.Canonical.at(PlainVar));
      continue;
    }
    if (UseMaterialized) {
      Coords.push_back(
          ir::load("mc" + std::to_string(D), Env.LastPos));
      continue;
    }
    LEnv.NamePrefix = "d" + std::to_string(D) + "_";
    std::vector<ir::Stmt> LetDecls;
    ir::Expr E = remap::lowerDimExpr(Dst.Remap.DstDims[D], LEnv, &LetDecls);
    Out.addAll(LetDecls);
    // Name the coordinate so positions below read like Figure 6.
    std::string CVar = "cB" + std::to_string(D);
    if (E->Kind == ir::ExprKind::Var) {
      Coords.push_back(E);
    } else {
      Out.add(ir::decl(CVar, E));
      Coords.push_back(ir::var(CVar));
    }
  }
  return Coords;
}

Conversion Generator::run() {
  AssemblyPlan Plan = planAssemblyImpl(Src, Dst, SrcIt, Opts);
  if (!Plan.Unsupported.empty())
    fatalError(Plan.Unsupported.c_str());
  planCounters();

  // Target shape: bounds of the remapped dimensions over the source dims.
  std::vector<ir::Expr> SrcDims;
  for (int D = 0; D < Dst.SrcOrder; ++D)
    SrcDims.push_back(ir::var("dim" + std::to_string(D)));
  Shape.Remap = Dst.Remap;
  Shape.Bounds = remap::analyzeBounds(Dst.Remap, SrcDims);

  // Level formats with the plan's dedup/ranked/sorted decisions.
  for (size_t K = 0; K < Dst.Levels.size(); ++K)
    Levels.push_back(levels::LevelFormat::create(
        Dst.Levels[K], static_cast<int>(K) + 1, Plan.Dedup[K],
        Plan.Ranked[K], Plan.Sorted[K], Dst.order()));

  // Compile the attribute queries the levels declare.
  std::vector<std::pair<int, query::Query>> LevelQueries;
  for (const auto &LF : Levels)
    for (const query::Query &Q : LF->queries())
      LevelQueries.push_back({LF->level(), Q});
  query::CompiledQueries Compiled = query::compileQueries(
      LevelQueries, Shape, SrcIt, Opts.OptimizeQueries);

  Ctx.Fmt = &Dst;
  Ctx.Bounds = Shape.Bounds;
  Ctx.Result = [&](int Level, const std::string &Label) {
    auto It = Compiled.Refs.find(strfmt("q%d_%s", Level, Label.c_str()));
    CONVGEN_ASSERT(It != Compiled.Refs.end(), "missing query result");
    return It->second;
  };
  Ctx.ParentLoop = [this](int K, const auto &Body) {
    return emitParentLoop(K, Body);
  };
  // Sorted-ranking hooks: tuple collection sweeps over the source and pure
  // ancestor-position composition (see AsmCtx).
  Ctx.StoredSize = SrcIt.storedSizeExpr();
  Ctx.SourceSweep =
      [this](int UpToDim,
             const std::function<ir::Stmt(const std::vector<ir::Expr> &,
                                          ir::Expr)> &Body) -> ir::Stmt {
    ir::Stmt Nest = SrcIt.build([&](const levels::IterEnv &Env) -> ir::Stmt {
      std::vector<ir::Expr> Coords;
      for (int D = 0; D <= UpToDim; ++D) {
        std::string V;
        bool Plain =
            remap::dimIsPlainVar(Dst.Remap, static_cast<size_t>(D), &V);
        CONVGEN_ASSERT(Plain,
                       "sorted ranking requires plain-variable dimensions");
        Coords.push_back(Env.Canonical.at(V));
      }
      return Body(Coords, Env.LastPos);
    });
    // Bodies write one disjoint slot per stored nonzero and read nothing
    // mutable, so the sweep parallelizes whenever its root is a loop.
    if (Nest && Nest->Kind == ir::StmtKind::For)
      Nest = ir::markLoopParallel(Nest);
    return Nest;
  };
  Ctx.ParentPos = [this](int K,
                         const std::vector<ir::Expr> &Coords) -> ir::Expr {
    ir::Expr P = ir::intImm(0);
    for (int L = 0; L + 1 < K; ++L) {
      P = Levels[static_cast<size_t>(L)]->pureChildPos(Ctx, P, Coords);
      CONVGEN_ASSERT(P, "sorted ranking requires pure ancestor positions");
    }
    return P;
  };
  // Packed plans compute their key widths from the extents at run time:
  // the plan's widths are only the verdict that this shape packs.
  for (size_t D = 0; D < Plan.PackWidths.size(); ++D)
    Ctx.PackWidths.push_back(ir::bitWidth(Ctx.dimExtent(static_cast<int>(D))));
  // A sorted level whose parent is itself sorted (and so groups exactly one
  // dim fewer) can derive parent positions by prefix ranking (flag + scan
  // over its own sorted list) instead of per-block-end binary searches.
  Ctx.PrefixRankParent.assign(Levels.size() + 1, false);
  for (size_t K = 2; K <= Levels.size(); ++K)
    Ctx.PrefixRankParent[K] = Plan.Sorted[K - 1] && Plan.Sorted[K - 2];

  // Insertion strategy for cursor-based compressed levels: decided before
  // any emission because emitPos/emitFinalize specialize on it.
  Ctx.Insert = chooseInsertStrategy();

  ir::BlockBuilder Fn;
  Fn.add(ir::comment(strfmt("convert %s -> %s", Src.Name.c_str(),
                            Dst.Name.c_str())));
  Fn.add(ir::phaseMark(-1, "start"));

  // Optional pre-pass: materialize non-plain remapped coordinates per
  // stored position (§3's strategy for complex orderings).
  bool Materialize = Opts.MaterializeRemap;
  if (Materialize) {
    Fn.add(ir::comment("remap: materialize remapped coordinates"));
    ir::Expr Stored = SrcIt.storedSizeExpr();
    std::vector<int> MatDims;
    for (size_t D = 0; D < Dst.Remap.DstDims.size(); ++D)
      if (!remap::dimIsPlainVar(Dst.Remap, D))
        MatDims.push_back(static_cast<int>(D));
    for (int D : MatDims)
      Fn.add(ir::alloc("mc" + std::to_string(D), ir::ScalarKind::Int,
                       Stored, false));
    // Counters advance inside this pass; later passes read the arrays.
    ir::BlockBuilder CounterInit;
    std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>> Resets;
    emitCounterSetup(CounterInit, Resets);
    Fn.add(CounterInit.build());
    // The pre-pass writes each materialized coordinate at the nonzero's
    // (unique) stored position, so it parallelizes whenever its counters
    // do; no level emitters run here.
    Fn.add(markInsertionParallel(
        SrcIt.build(
            [&](const levels::IterEnv &Env) -> ir::Stmt {
              ir::BlockBuilder Body;
              emitCounterAdvance(Env, Body);
              std::vector<ir::Expr> Coords =
                  dstCoords(Env, Body, /*UseMaterialized=*/false);
              for (int D : MatDims)
                Body.add(ir::store("mc" + std::to_string(D), Env.LastPos,
                                   Coords[static_cast<size_t>(D)]));
              return Body.build();
            },
            Resets),
        /*CheckLevels=*/false, /*CountersAdvance=*/true));
    freeCounters(Fn);
  }

  // Phase 1: analysis.
  Fn.add(Compiled.Code);
  Fn.add(ir::phaseMark(0, "analysis"));

  // Phase 2: per-level initialization (edge insertion, perm/K, arrays).
  Fn.add(ir::comment("assembly: edge insertion and initialization"));
  // Shared full-arity sort: one collect+sort+unique at the anchor level's
  // arity, emitted before any level init so every sorted level's emitInit
  // (shallowest first) can derive its own list from the shared buffer.
  if (Plan.SharedSortAnchor > 0) {
    Ctx.SharedSortAnchor = Plan.SharedSortAnchor;
    Fn.add(ir::comment(strfmt(
        "shared sorted ranking: one full-arity sort feeds levels' prefix "
        "lists (anchor level %d)",
        Plan.SharedSortAnchor)));
    Levels[static_cast<size_t>(Plan.SharedSortAnchor - 1)]
        ->emitSharedListBuild(Ctx, Fn);
  }
  LevelSizes.push_back(ir::intImm(1));
  for (size_t K = 0; K < Levels.size(); ++K) {
    Ctx.ParentSize[static_cast<int>(K) + 1] = LevelSizes.back();
    Levels[K]->emitInit(Ctx, LevelSizes.back(), Fn);
    std::string SzVar = "szB" + std::to_string(K + 1);
    Fn.add(ir::decl(SzVar, Levels[K]->getSize(Ctx, LevelSizes.back())));
    LevelSizes.push_back(ir::var(SzVar));
  }
  Fn.add(ir::alloc("B_vals", ir::ScalarKind::Float, LevelSizes.back(),
                   Dst.PaddedVals));
  for (size_t K = 0; K < Levels.size(); ++K)
    Levels[K]->emitInitPos(Ctx, LevelSizes[K], Fn);
  Fn.add(ir::phaseMark(1, "edge insertion"));

  // Phase 3: coordinate insertion — a fused pass over the source
  // (partition-blocked under the Blocked cursor strategy).
  Fn.add(ir::comment("assembly: coordinate insertion"));
  std::map<int, std::function<ir::Stmt(const levels::IterEnv &)>> Resets;
  if (!Materialize) {
    ir::BlockBuilder CounterInit;
    emitCounterSetup(CounterInit, Resets);
    Fn.add(CounterInit.build());
  }
  // Liveness of each level's position inside the insertion body: level K's
  // position feeds its own insert_coord store, level K+1's get_pos (as the
  // parent position), and — for the last level — the vals store. Sorted
  // levels consume neither (their get_pos is a global rank and their crd
  // was written during edge insertion), so in an all-sorted chain only the
  // deepest rank is computed: one binary search per nonzero instead of one
  // per level. Only side-effect-free positions may be skipped (cursor
  // advances and workspace stamps must run regardless).
  std::vector<bool> PosSkipped(Levels.size(), false);
  for (size_t K = 0; K < Levels.size(); ++K) {
    bool Consumed = K + 1 == Levels.size() ||
                    !Levels[K]->insertCoordIsNoOp() ||
                    !Levels[K + 1]->posIgnoresParent();
    PosSkipped[K] = !Consumed && Levels[K]->posIsPure();
  }
  auto InsertionBody = [&](const levels::IterEnv &Env) -> ir::Stmt {
    ir::BlockBuilder Body;
    if (!Materialize)
      emitCounterAdvance(Env, Body);
    std::vector<ir::Expr> Coords = dstCoords(Env, Body, Materialize);
    levels::PosEnv PEnv{ir::intImm(0), Coords, Env.LastPos};
    for (size_t K = 0; K < Levels.size(); ++K) {
      if (PosSkipped[K]) {
        // The next level ignores the parent position; keep a harmless
        // placeholder so PosEnv stays well-formed.
        PEnv.ParentPos = ir::intImm(0);
        continue;
      }
      ir::Expr Pk = Levels[K]->emitPos(Ctx, PEnv, Body);
      if (Pk->Kind != ir::ExprKind::Var &&
          Pk->Kind != ir::ExprKind::IntImm) {
        std::string PVar = "pB" + std::to_string(K + 1) + "c";
        Body.add(ir::decl(PVar, Pk));
        Pk = ir::var(PVar);
      }
      Levels[K]->emitInsertCoord(Ctx, PEnv, Pk, Body);
      PEnv.ParentPos = Pk;
    }
    Body.add(ir::store("B_vals", PEnv.ParentPos,
                       ir::load("A_vals", Env.LastPos,
                                ir::ScalarKind::Float)));
    return Body.build();
  };
  if (Ctx.Insert == levels::InsertStrategy::Blocked) {
    emitBlockedInsertion(Fn, InsertionBody, Resets);
  } else {
    Fn.add(markInsertionParallel(SrcIt.build(InsertionBody, Resets),
                                 /*CheckLevels=*/true,
                                 /*CountersAdvance=*/!Materialize));
  }
  if (!Materialize)
    freeCounters(Fn);
  Fn.add(ir::phaseMark(2, "insertion"));

  // Finalizers, temp frees, yields.
  Fn.add(ir::comment("finalize and publish outputs"));
  for (size_t K = 0; K < Levels.size(); ++K)
    Levels[K]->emitFinalize(Ctx, LevelSizes[K], Fn);
  for (const auto &[Name, Ref] : Compiled.Refs)
    Fn.add(ir::freeBuffer(Name));
  if (Materialize)
    for (size_t D = 0; D < Dst.Remap.DstDims.size(); ++D)
      if (!remap::dimIsPlainVar(Dst.Remap, D))
        Fn.add(ir::freeBuffer("mc" + std::to_string(D)));
  for (size_t K = 0; K < Levels.size(); ++K)
    Levels[K]->emitYield(Ctx, LevelSizes[K], Fn);
  Fn.add(ir::yieldBuffer("B_vals", "B_vals", LevelSizes.back()));
  Fn.add(ir::phaseMark(3, "finalize"));

  Conversion Out;
  Out.Source = Src;
  Out.Target = Dst;
  Out.Opts = Opts;
  Out.Asm = Plan;
  Out.Func.Name = "convert_" + Src.Name + "_to_" + Dst.Name;
  Out.Func.Params = SrcIt.params();
  Out.Func.Body = Fn.build();
  Out.Queries = Compiled.Stmts;
  return Out;
}

} // namespace

int64_t codegen::rankDenseMaxBytes() {
  // Snapshot read (codegen/Knobs.h): tests adjust the budget through
  // ScopedEnv, which reloads the snapshot; concurrent planners never race
  // a setenv.
  return knobs().RankDenseMaxBytes;
}

AssemblyPlan codegen::planAssembly(const formats::Format &Source,
                                   const formats::Format &Target,
                                   const std::vector<int64_t> &Dims) {
  Options Opts;
  Opts.DimsHint = Dims;
  return planAssembly(Source, Target, Opts);
}

AssemblyPlan codegen::planAssembly(const formats::Format &Source,
                                   const formats::Format &Target,
                                   const Options &Opts) {
  // The strategy decisions below assume validated formats (level K stores
  // dimension K); anything else is unsupported, not planned around.
  for (const formats::Format *F : {&Source, &Target}) {
    Status S = formats::checkFormat(*F);
    if (!S.ok()) {
      AssemblyPlan Plan;
      Plan.Unsupported = S.message();
      return Plan;
    }
  }
  levels::SourceIterator SrcIt(Source);
  return planAssemblyImpl(Source, Target, SrcIt, Opts);
}

std::vector<int64_t> codegen::packWidths(const formats::Format &Target,
                                         const std::vector<int64_t> &Dims) {
  if (Dims.size() != static_cast<size_t>(Target.SrcOrder))
    return {};
  std::vector<int64_t> Widths;
  int64_t TotalBits = 0;
  for (const remap::NumericDimBounds &B :
       remap::analyzeBoundsNumeric(Target.Remap, Dims)) {
    if (!B.Known || B.extent() < 1)
      return {};
    Widths.push_back(ir::bitWidthOf(B.extent()));
    if (Widths.back() > 32)
      return {};
    TotalBits += Widths.back();
  }
  if (Widths.empty() || TotalBits > 64)
    return {};
  return Widths;
}

Options codegen::optionsForDims(const formats::Format &Source,
                                const formats::Format &Target,
                                const Options &Opts,
                                const std::vector<int64_t> &Dims, int64_t Nnz,
                                std::string *Why) {
  Options Out = Opts;
  Out.DimsHint = Dims;
  AssemblyPlan Plan = planAssembly(Source, Target, Out);
  // The sorted-ranking rule: a ranked level whose dense rank array dwarfs
  // a nonempty input moves the plan to sorted ranking, if that applies.
  size_t Level = 0;
  while (Level < Plan.RankSpace.size() &&
         !(Nnz >= 1 && Plan.Unsupported.empty() &&
           Plan.RankSpace[Level] > kSortedRankRatio * Nnz))
    ++Level;
  bool Fires = Level < Plan.RankSpace.size();
  int64_t Space = Fires ? Plan.RankSpace[Level] : -1;
  std::string Blocked;
  if (Fires) {
    Options Sorted = Out;
    Sorted.ForceSortedRanking = true;
    AssemblyPlan SortedPlan = planAssembly(Source, Target, Sorted);
    if (SortedPlan.Unsupported.empty()) {
      Out = Sorted;
      Plan = std::move(SortedPlan);
    } else {
      Blocked = ", but sorted ranking does not apply: " +
                SortedPlan.Unsupported;
    }
  }
  if (Why && Fires)
    *Why = strfmt("%s: level %zu's dense rank space of %lld entries exceeds "
                  "%lld x nnz (%lld)%s",
                  Blocked.empty() ? "sorted ranking" : "dense ranking",
                  Level + 1, static_cast<long long>(Space),
                  static_cast<long long>(kSortedRankRatio),
                  static_cast<long long>(Nnz), Blocked.c_str());
  else if (Why && Nnz < 0)
    *Why = "default plan: nnz unknown";
  else if (Why && Nnz == 0)
    *Why = "default plan: empty input";
  else if (Why)
    *Why = strfmt("default plan: no ranked level's dense rank space "
                  "exceeds %lld x nnz (%lld)",
                  static_cast<long long>(kSortedRankRatio),
                  static_cast<long long>(Nnz));
  if (!Plan.anySorted() && Plan.Unsupported.empty())
    Out.DimsHint.clear();
  return Out;
}

bool codegen::conversionSupported(const formats::Format &Source,
                                  const formats::Format &Target,
                                  std::string *Why) {
  return conversionSupported(Source, Target, std::vector<int64_t>(), Why);
}

bool codegen::conversionSupported(const formats::Format &Source,
                                  const formats::Format &Target,
                                  const std::vector<int64_t> &Dims,
                                  std::string *Why) {
  Options Opts;
  Opts.DimsHint = Dims;
  return conversionSupported(Source, Target, Opts, Why);
}

bool codegen::conversionSupported(const formats::Format &Source,
                                  const formats::Format &Target,
                                  const Options &Opts, std::string *Why) {
  // Order mismatch must answer "unsupported" here rather than abort in
  // generateConversion: the serving layer routes arbitrary request pairs
  // through this predicate.
  if (Source.SrcOrder != Target.SrcOrder) {
    if (Why)
      *Why = "source and target formats have different canonical orders (" +
             std::to_string(Source.SrcOrder) + " vs " +
             std::to_string(Target.SrcOrder) + ")";
    return false;
  }
  std::string Reason = planAssembly(Source, Target, Opts).Unsupported;
  if (Why)
    *Why = Reason;
  return Reason.empty();
}

Conversion codegen::generateConversion(const formats::Format &Source,
                                       const formats::Format &Target,
                                       const Options &Opts) {
  formats::validateFormat(Source);
  formats::validateFormat(Target);
  if (Source.SrcOrder != Target.SrcOrder)
    fatalError("source and target formats must have the same canonical "
               "order");
  Generator G(Source, Target, Opts);
  return G.run();
}
