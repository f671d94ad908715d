//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "levels/Levels.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace convgen;
using namespace convgen::levels;
using formats::LevelKind;
using formats::LevelSpec;

ir::Expr levels::readQueryRaw(const QueryResultRef &Ref,
                              const std::vector<ir::Expr> &GroupCoords) {
  CONVGEN_ASSERT(GroupCoords.size() == Ref.GroupDims.size(),
                 "group coordinate arity mismatch");
  // Row-major linearization of (coord - lo) over the group extents.
  ir::Expr Index = ir::intImm(0);
  for (size_t G = 0; G < GroupCoords.size(); ++G) {
    ir::Expr Rel = ir::sub(GroupCoords[G], Ref.GroupLo[G]);
    Index = ir::add(ir::mul(Index, Ref.GroupExtent[G]), Rel);
  }
  return ir::load(Ref.Buffer, Index, Ref.Elem);
}

ir::Expr levels::readQueryValue(const QueryResultRef &Ref,
                                const std::vector<ir::Expr> &GroupCoords) {
  ir::Expr Raw = readQueryRaw(Ref, GroupCoords);
  if (!Ref.Shift)
    return Raw;
  ir::Expr Signed = Ref.Sign < 0 ? ir::neg(Raw) : Raw;
  return ir::add(Signed, Ref.Shift);
}

ir::Expr AsmCtx::dimLo(int D) const {
  const remap::DimBounds &B = Bounds.at(static_cast<size_t>(D));
  if (!B.Known)
    fatalError("assembly requires static bounds for a remapped dimension");
  return B.Lo;
}

ir::Expr AsmCtx::dimHi(int D) const {
  const remap::DimBounds &B = Bounds.at(static_cast<size_t>(D));
  if (!B.Known)
    fatalError("assembly requires static bounds for a remapped dimension");
  return B.Hi;
}

ir::Expr AsmCtx::dimExtent(int D) const {
  return Bounds.at(static_cast<size_t>(D)).extent();
}

LevelFormat::~LevelFormat() = default;

namespace {

/// Sequenced edge insertion (§6.1), the one pos build of count-driven
/// levels: parent positions are enumerated in order, so level K's pos
/// array is a running sum, pos[p+1] = pos[p] + Count(parent coords).
void emitSequencedPos(
    AsmCtx &Ctx, int K, ir::Expr ParentSize,
    const std::function<ir::Expr(const std::vector<ir::Expr> &)> &Count,
    ir::BlockBuilder &Out) {
  std::string Pos = Ctx.posName(K);
  Out.add(ir::alloc(Pos, ir::ScalarKind::Int,
                    ir::add(ParentSize, ir::intImm(1)), false));
  Out.add(ir::store(Pos, ir::intImm(0), ir::intImm(0)));
  Out.add(Ctx.ParentLoop(
      K, [&](ir::Expr P, const std::vector<ir::Expr> &Coords) {
        return ir::store(Pos, ir::add(P, ir::intImm(1)),
                         ir::add(ir::load(Pos, P), Count(Coords)));
      }));
}

//===----------------------------------------------------------------------===//
// dense
//===----------------------------------------------------------------------===//

class DenseLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    return ir::mul(ParentSize, Ctx.dimExtent(Spec.Dim));
  }

  ir::Expr pureChildPos(AsmCtx &Ctx, ir::Expr ParentPos,
                        const std::vector<ir::Expr> &Coords) const override {
    ir::Expr Rel = ir::sub(Coords[static_cast<size_t>(Spec.Dim)],
                           Ctx.dimLo(Spec.Dim));
    return ir::add(ir::mul(ParentPos, Ctx.dimExtent(Spec.Dim)), Rel);
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Out;
    return pureChildPos(Ctx, Env.ParentPos, Env.DstCoords);
  }
};

//===----------------------------------------------------------------------===//
// compressed
//===----------------------------------------------------------------------===//

class CompressedLevel : public LevelFormat {
public:
  CompressedLevel(const LevelSpec &Spec, int K, bool Dedup, bool Ranked,
                  bool Sorted, int Order)
      : LevelFormat(Spec, K), Dedup(Dedup), Ranked(Ranked), Sorted(Sorted),
        Order(Order) {
    CONVGEN_ASSERT(!Ranked || Dedup, "ranked insertion is a dedup variant");
    CONVGEN_ASSERT(!(Ranked && Sorted), "ranked and sorted are exclusive");
    CONVGEN_ASSERT(!Sorted || Spec.Unique,
                   "sorted ranking requires a unique compressed level");
  }

  /// Cursor-based insertion is parallel-safe exactly when the generator
  /// replaced the shared cursor: Monotone (no cursor at all) or Blocked
  /// (partition-private cursor rows). Ranked dedup and sorted-ranking
  /// positions are a pure function of the coordinates and parallelize
  /// under every strategy; workspace dedup mutates shared state and never
  /// does.
  bool insertIsParallelSafe(const AsmCtx &Ctx) const override {
    if (Ranked || Sorted)
      return true;
    return !Dedup && (Ctx.Insert == InsertStrategy::Monotone ||
                      Ctx.Insert == InsertStrategy::Blocked);
  }

  bool insertUsesCursor() const override { return !Dedup && !Sorted; }

  bool posIgnoresParent() const override { return Sorted; }
  bool posIsPure() const override { return Sorted || Ranked; }
  bool insertCoordIsNoOp() const override { return Sorted; }

  std::vector<query::Query> queries() const override {
    // Sorted ranking derives everything (pos, crd, positions) from its
    // own sorted tuple list; a dense-grouped query buffer is exactly what
    // it exists to avoid.
    if (Sorted)
      return {};
    query::Query Q;
    for (int D = 0; D < Spec.Dim; ++D)
      Q.GroupDims.push_back(D);
    query::Agg A;
    A.Kind = query::AggKind::Count;
    A.Label = "nir";
    if (Spec.Unique) {
      A.Dims = {Spec.Dim};
    } else {
      // Non-unique root level (COO): every nonzero is stored, so count over
      // all remaining dimensions (distinct full tuples = all nonzeros).
      CONVGEN_ASSERT(Spec.Dim == 0, "non-unique levels are root-only");
      for (int D = Spec.Dim; D < Order; ++D)
        A.Dims.push_back(D);
    }
    Q.Aggs = {A};
    if (!Ranked)
      return {Q};
    // Ranked insertion additionally needs per-tuple presence (including
    // this level's own dimension) to precompute local ranks.
    query::Query P;
    for (int D = 0; D <= Spec.Dim; ++D)
      P.GroupDims.push_back(D);
    P.Aggs = {query::Agg{query::AggKind::Id, {}, "present"}};
    return {Q, P};
  }

  bool needsEdgeInsertion() const override { return true; }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    return ir::load(Ctx.posName(K), ParentSize);
  }

  void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                ir::BlockBuilder &Out) const override {
    if (Sorted) {
      emitSortedInit(Ctx, ParentSize, Out);
      return;
    }
    QueryResultRef Count = Ctx.Result(K, "nir");
    emitSequencedPos(
        Ctx, K, ParentSize,
        [&](const std::vector<ir::Expr> &Coords) {
          return readQueryRaw(Count, Coords);
        },
        Out);
    Out.add(ir::alloc(Ctx.crdName(K), ir::ScalarKind::Int,
                      ir::load(Ctx.posName(K), ParentSize), false));
    if (Ranked)
      emitRankBuild(Ctx, Out);
  }

  void emitInitPos(AsmCtx &Ctx, ir::Expr ParentSize,
                   ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    if (!Dedup || Ranked || Sorted)
      return;
    // Version-stamped workspace: get_pos semantics over yield_pos storage.
    Out.add(ir::alloc(wsStamp(), ir::ScalarKind::Int, Ctx.dimExtent(Spec.Dim),
                      true));
    Out.add(ir::alloc(wsPos(), ir::ScalarKind::Int, Ctx.dimExtent(Spec.Dim),
                      false));
  }

  /// Row-major linearization of relative coordinates over dims 0..Dim (the
  /// presence query's buffer layout, reused for the rank array).
  ir::Expr rankIndex(AsmCtx &Ctx,
                     const std::vector<ir::Expr> &RelCoords) const {
    ir::Expr Index = ir::intImm(0);
    for (int D = 0; D <= Spec.Dim; ++D)
      Index = ir::add(ir::mul(Index, Ctx.dimExtent(D)),
                      RelCoords[static_cast<size_t>(D)]);
    return Index;
  }

  /// Precomputes rnk[t] = rank of coordinate tuple t among the present
  /// children of t's parent tuple, scanning each parent's child range in
  /// coordinate order. Parent tuples are independent, so the outermost
  /// parent loop parallelizes.
  void emitRankBuild(AsmCtx &Ctx, ir::BlockBuilder &Out) const {
    levels::QueryResultRef Present = Ctx.Result(K, "present");
    ir::Expr Size = ir::intImm(1);
    for (int D = 0; D <= Spec.Dim; ++D)
      Size = ir::mul(Size, Ctx.dimExtent(D));
    Out.add(ir::comment(
        strfmt("level %d ranked insertion: local ranks of present tuples",
               K)));
    Out.add(ir::alloc(rankName(), ir::ScalarKind::Int, Size, false));

    std::vector<ir::Expr> Rel, Abs;
    for (int D = 0; D <= Spec.Dim; ++D) {
      Rel.push_back(ir::var(rankLoopVar(D)));
      Abs.push_back(ir::add(ir::var(rankLoopVar(D)), Ctx.dimLo(D)));
    }
    std::string R = "r" + std::to_string(K) + "v";
    std::string IdxVar = "r" + std::to_string(K) + "i";
    ir::BlockBuilder Hit;
    Hit.add(ir::store(rankName(), ir::var(IdxVar), ir::var(R)));
    Hit.add(ir::assign(R, ir::add(ir::var(R), ir::intImm(1))));
    ir::BlockBuilder Scan;
    Scan.add(ir::decl(IdxVar, rankIndex(Ctx, Rel)));
    // The presence load goes through the query layer's own decoding so
    // the rank array's layout (rankIndex) never couples to the query
    // result buffer's.
    Scan.add(ir::ifThen(readQueryRaw(Present, Abs), Hit.build()));
    ir::BlockBuilder PerParent;
    PerParent.add(ir::decl(R, ir::intImm(0)));
    PerParent.add(ir::forRange(rankLoopVar(Spec.Dim), ir::intImm(0),
                               Ctx.dimExtent(Spec.Dim), Scan.build()));
    ir::Stmt Nest = PerParent.build();
    for (int D = Spec.Dim - 1; D >= 0; --D)
      Nest = ir::forRange(rankLoopVar(D), ir::intImm(0), Ctx.dimExtent(D),
                          Nest);
    if (Spec.Dim >= 1)
      Nest = ir::markLoopParallel(Nest);
    Out.add(Nest);
  }

  /// Builds the shared sorted unique tuple list from the source in O(nnz)
  /// memory (this level is the anchor, the deepest sorted one): collect
  /// the grouping tuple (dims 0..Dim) of every stored nonzero into an
  /// append buffer (one slot per stored position, so the pass parallelizes
  /// with disjoint writes), then one sort-and-dedup statement — the packed
  /// radix form when the planner derived component widths for every
  /// grouping dim (any prefix of a 64-bit-packable full tuple fits), the
  /// merge form otherwise.
  void emitSharedListBuild(AsmCtx &Ctx,
                           ir::BlockBuilder &Out) const override {
    CONVGEN_ASSERT(Sorted, "shared list build applies to sorted levels");
    int64_t R = Spec.Dim + 1;
    ir::Expr RImm = ir::intImm(R);
    std::string Srt = Ctx.srtName(K);
    std::string U = Ctx.uniqueVar(K);
    Out.add(ir::comment(
        strfmt("level %d sorted ranking: collect and sort the grouping "
               "tuples (O(nnz) workspace)",
               K)));
    Out.add(ir::alloc(Srt, ir::ScalarKind::Int,
                      ir::mul(Ctx.StoredSize, RImm), false));
    Out.add(Ctx.SourceSweep(
        Spec.Dim,
        [&](const std::vector<ir::Expr> &Coords, ir::Expr SrcPos) -> ir::Stmt {
          std::string Base = "t" + std::to_string(K);
          ir::BlockBuilder B;
          B.add(ir::decl(Base, ir::mul(SrcPos, RImm)));
          for (int D = 0; D <= Spec.Dim; ++D)
            B.add(ir::store(Srt, ir::add(ir::var(Base), ir::intImm(D)),
                            Coords[static_cast<size_t>(D)]));
          return B.build();
        }));
    // Sub-phase clocks (slots 4/5 of the caller's phase array):
    // sort-vs-assembly time stays visible in the bench trajectory without
    // re-instrumenting.
    Out.add(ir::phaseMark(4, "tuple collect"));
    std::vector<ir::Expr> Widths;
    std::string Rank;
    if (static_cast<int64_t>(Ctx.PackWidths.size()) >= R) {
      // Packed form: dedup runs on the sorted packed keys before they are
      // unpacked, skipping a tuple-compare pass over 3x the bytes. When
      // this list covers the full coordinate order, the sort also carries
      // each stored nonzero's slot as a payload and scatters its rank —
      // the destination position insertion would otherwise binary-search
      // for, one search per nonzero (the dominant insertion cost).
      Widths.assign(Ctx.PackWidths.begin(), Ctx.PackWidths.begin() + R);
      if (R == static_cast<int64_t>(Ctx.Bounds.size())) {
        Rank = "B" + std::to_string(K) + "_rank";
        Out.add(ir::alloc(Rank, ir::ScalarKind::Int, Ctx.StoredSize, false));
        Ctx.RankBuffer = Rank;
        Ctx.RankLevel = K;
      }
    }
    Out.add(ir::sortUniqueTuples(Srt, Ctx.StoredSize, R, U, std::move(Widths),
                                 Rank));
    Out.add(ir::phaseMark(5, "list sort"));
  }

  /// Sorted-ranking edge insertion (O(nnz) workspace, no dense-grouped
  /// structure anywhere):
  ///
  ///   1. obtain this level's sorted unique tuple list from the shared
  ///      one (emitSharedListBuild): every sorted level groups by a prefix
  ///      of the deepest sorted level's tuple, so the anchor level's list
  ///      IS the shared buffer and every other level prefix-compacts it
  ///      (ir::uniquePrefix) instead of re-collecting and re-sorting the
  ///      same nonzeros;
  ///   2. a tuple's index u in the unique list is its destination
  ///      position, because parent positions follow lexicographic
  ///      coordinate order for dense/ranked/sorted ancestors and the list
  ///      is sorted in exactly that order;
  ///   3. build the pos array from block ends: the last tuple of each
  ///      parent's block stores u+1 into pos[parent+1] (one writer per
  ///      cell — the loop parallelizes), then an inclusive max scan closes
  ///      the gaps of empty parents (blocked and parallel in the C
  ///      lowering — no serial forward fill);
  ///   4. write the crd array straight from the unique list.
  ///
  /// get_pos at insertion time is then a pure binary search (ir::lowerBound)
  /// into the list, so insertion stays order-independent and parallel-safe.
  void emitSortedInit(AsmCtx &Ctx, ir::Expr ParentSize,
                      ir::BlockBuilder &Out) const {
    int64_t R = Spec.Dim + 1;
    ir::Expr RImm = ir::intImm(R);
    std::string Srt = Ctx.srtName(K);
    std::string U = Ctx.uniqueVar(K);
    std::string Pos = Ctx.posName(K);
    CONVGEN_ASSERT(Ctx.SharedSortAnchor >= K,
                   "a sorted level reads the shared sort of a deeper anchor");
    if (Ctx.SharedSortAnchor == K) {
      Out.add(ir::comment(strfmt(
          "level %d sorted ranking: positions from the shared full-arity "
          "list",
          K)));
    } else {
      Out.add(ir::comment(strfmt(
          "level %d sorted ranking: unique prefix list derived from the "
          "shared sort",
          K)));
      Out.add(ir::alloc(
          Srt, ir::ScalarKind::Int,
          ir::mul(ir::var(Ctx.uniqueVar(Ctx.SharedSortAnchor)), RImm),
          false));
      Out.add(ir::uniquePrefix(Ctx.srtName(Ctx.SharedSortAnchor),
                               ir::var(Ctx.uniqueVar(Ctx.SharedSortAnchor)),
                               Ctx.SharedSortAnchor, Srt, R, U));
      Out.add(ir::phaseMark(5, "list sort"));
    }

    auto tupleCoords = [&](ir::Expr Index) {
      std::vector<ir::Expr> C;
      for (int D = 0; D <= Spec.Dim; ++D)
        C.push_back(ir::load(
            Srt, ir::add(ir::mul(Index, RImm), ir::intImm(D))));
      return C;
    };
    Out.add(ir::alloc(Pos, ir::ScalarKind::Int,
                      ir::add(ParentSize, ir::intImm(1)), true));
    // Whether the parent position of every block end is derivable from the
    // list itself: the parent is a sorted level grouping exactly dims
    // 0..Dim-1, so its positions are the ranks of the distinct prefixes of
    // this (sorted) list — computable by prefix-change flags plus one
    // additive scan, with zero searches in construction. Set by the
    // generator; false falls back to the pure ParentPos fold (dense
    // arithmetic / ranked loads — no searches there either).
    bool PrefixRank = Spec.Dim > 0 &&
                      static_cast<size_t>(K) < Ctx.PrefixRankParent.size() &&
                      Ctx.PrefixRankParent[static_cast<size_t>(K)];
    std::string Flg = "B" + std::to_string(K) + "_pfx";
    if (PrefixRank) {
      // flg[u] = 1 iff tuple u starts a new parent block (u == 0 or its
      // dims 0..Dim-1 prefix differs from tuple u-1's). After an inclusive
      // additive scan, flg[u] - 1 is tuple u's parent position: the rank
      // of its prefix among the distinct prefixes seen so far, which is
      // exactly the sorted parent's position for that prefix. Disjoint
      // per-u writes, so the fill parallelizes; the scan is the blocked
      // deterministic lowering.
      std::string UV = "g" + std::to_string(K);
      Out.add(ir::alloc(Flg, ir::ScalarKind::Int, ir::var(U), false));
      ir::Expr PrevDiffers;
      for (int D = 0; D < Spec.Dim; ++D) {
        auto At = [&](ir::Expr Index) {
          return ir::load(Srt,
                          ir::add(ir::mul(Index, RImm), ir::intImm(D)));
        };
        ir::Expr Ne = ir::ne(At(ir::var(UV)),
                             At(ir::sub(ir::var(UV), ir::intImm(1))));
        PrevDiffers = PrevDiffers ? ir::logicalOr(PrevDiffers, Ne) : Ne;
      }
      Out.add(ir::markLoopParallel(ir::forRange(
          UV, ir::intImm(0), ir::var(U),
          ir::ifThen(ir::eq(ir::var(UV), ir::intImm(0)),
                     ir::store(Flg, ir::var(UV), ir::intImm(1)),
                     ir::store(Flg, ir::var(UV),
                               ir::select(PrevDiffers, ir::intImm(1),
                                          ir::intImm(0)))))));
      Out.add(ir::scan(Flg, ir::var(U)));
    }
    {
      std::string UV = "u" + std::to_string(K);
      std::string PV = "up" + std::to_string(K);
      // One writer per pos cell: exactly the last tuple of each parent's
      // block stores, so the loop needs no reduction to parallelize. Two
      // adjacent sorted tuples share a parent iff their parent-coordinate
      // prefixes (dims 0..Dim-1) are equal — ancestor positions are pure
      // functions of those coordinates — so the block-end test is a few
      // loads, and the parent position is computed only for the one tuple
      // per block that actually stores: the scanned prefix-change rank
      // when available (search-free), otherwise the pure ParentPos fold.
      ir::BlockBuilder MarkEndB;
      MarkEndB.add(ir::decl(
          PV, PrefixRank
                  ? ir::sub(ir::load(Flg, ir::var(UV)), ir::intImm(1))
                  : Ctx.ParentPos(K, tupleCoords(ir::var(UV)))));
      MarkEndB.add(ir::store(Pos, ir::add(ir::var(PV), ir::intImm(1)),
                             ir::add(ir::var(UV), ir::intImm(1))));
      ir::Stmt MarkEnd = MarkEndB.build();
      ir::Expr NextDiffers; // Null for a root level: one all-tuples block.
      for (int D = 0; D < Spec.Dim; ++D) {
        auto At = [&](ir::Expr Index) {
          return ir::load(Srt,
                          ir::add(ir::mul(Index, RImm), ir::intImm(D)));
        };
        ir::Expr Ne = ir::ne(At(ir::var(UV)),
                             At(ir::add(ir::var(UV), ir::intImm(1))));
        NextDiffers = NextDiffers ? ir::logicalOr(NextDiffers, Ne) : Ne;
      }
      ir::BlockBuilder Body;
      Body.add(ir::ifThen(
          ir::eq(ir::var(UV), ir::sub(ir::var(U), ir::intImm(1))), MarkEnd,
          NextDiffers ? ir::ifThen(NextDiffers, MarkEnd) : nullptr));
      Out.add(ir::markLoopParallel(
          ir::forRange(UV, ir::intImm(0), ir::var(U), Body.build())));
    }
    if (PrefixRank)
      Out.add(ir::freeBuffer(Flg));
    // Parents with no tuples inherit the previous block's end, pos[0]
    // stays 0: an inclusive prefix max over non-negative end markers,
    // lowered to the blocked parallel scan.
    Out.add(ir::scan(Pos, ir::add(ParentSize, ir::intImm(1)),
                     ir::ReduceOp::Max));
    Out.add(ir::phaseMark(6, "pos build"));
    Out.add(ir::alloc(Ctx.crdName(K), ir::ScalarKind::Int,
                      ir::load(Pos, ParentSize), false));
    {
      std::string UV = "c" + std::to_string(K);
      Out.add(ir::markLoopParallel(ir::forRange(
          UV, ir::intImm(0), ir::var(U),
          ir::store(Ctx.crdName(K), ir::var(UV),
                    ir::load(Srt, ir::add(ir::mul(ir::var(UV), RImm),
                                          ir::intImm(Spec.Dim)))))));
    }
    Out.add(ir::phaseMark(7, "crd write"));
  }

  ir::Expr pureChildPos(AsmCtx &Ctx, ir::Expr ParentPos,
                        const std::vector<ir::Expr> &Coords) const override {
    if (Sorted) {
      // The sorted unique list is global over dims 0..Dim: the rank IS the
      // position, independent of the parent position.
      (void)ParentPos;
      std::vector<ir::Expr> Keys;
      for (int D = 0; D <= Spec.Dim; ++D)
        Keys.push_back(Coords[static_cast<size_t>(D)]);
      // The planner's packed-fit verdict covers every prefix of the packed
      // tuple, so a packed plan searches with single-uint64 key compares
      // instead of the tuple-compare loop (same index by construction).
      size_t R = static_cast<size_t>(Spec.Dim) + 1;
      if (Ctx.PackWidths.size() >= R)
        return ir::lowerBoundPacked(
            Ctx.srtName(K), ir::var(Ctx.uniqueVar(K)), Keys,
            {Ctx.PackWidths.begin(), Ctx.PackWidths.begin() + R});
      return ir::lowerBound(Ctx.srtName(K), ir::var(Ctx.uniqueVar(K)), Keys);
    }
    if (Ranked) {
      std::vector<ir::Expr> Rel;
      for (int D = 0; D <= Spec.Dim; ++D)
        Rel.push_back(ir::sub(Coords[static_cast<size_t>(D)], Ctx.dimLo(D)));
      return ir::add(ir::load(Ctx.posName(K), ParentPos),
                     ir::load(rankName(), rankIndex(Ctx, Rel)));
    }
    return nullptr;
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    std::string Pos = Ctx.posName(K);
    std::string PVar = "pB" + std::to_string(K);
    if (Sorted) {
      // The list build precomputed this nonzero's rank per source slot
      // (see AsmCtx::RankBuffer): one load replaces the binary search.
      if (Ctx.RankLevel == K && !Ctx.RankBuffer.empty()) {
        Out.add(ir::decl(PVar, ir::load(Ctx.RankBuffer, Env.SrcPos)));
        return ir::var(PVar);
      }
      Out.add(ir::decl(PVar, pureChildPos(Ctx, Env.ParentPos, Env.DstCoords)));
      return ir::var(PVar);
    }
    if (Ranked) {
      // Pure: position = pos[parent] + rank of the coordinate tuple. The
      // pos array is final from edge insertion (no cursor, no shift-back),
      // so insertion is order-independent and parallel-safe.
      std::vector<ir::Expr> Rel;
      for (int D = 0; D <= Spec.Dim; ++D)
        Rel.push_back(ir::sub(Env.DstCoords[static_cast<size_t>(D)],
                              Ctx.dimLo(D)));
      std::string IdxVar = PVar + "r";
      Out.add(ir::decl(IdxVar, rankIndex(Ctx, Rel)));
      Out.add(ir::decl(PVar,
                       ir::add(ir::load(Pos, Env.ParentPos),
                               ir::load(rankName(), ir::var(IdxVar)))));
      return ir::var(PVar);
    }
    if (!Dedup) {
      switch (Ctx.Insert) {
      case InsertStrategy::Monotone:
        // Parent positions are non-decreasing along the source iteration
        // and every stored slot is inserted, so the serial cursor would
        // assign exactly the source position; emit that directly. No
        // cursor state, no finalize shift, and the pass parallelizes.
        return Env.SrcPos;
      case InsertStrategy::Blocked: {
        // pB = cur[partition][parent]++ on this partition's private cursor
        // row (seeded from pos by the generator's counting/offset passes).
        std::string IVar = PVar + "i";
        ir::Expr Idx =
            ir::add(ir::mul(ir::var(Ctx.BlockVar), Ctx.ParentSize.at(K)),
                    Env.ParentPos);
        Out.add(ir::decl(IVar, Idx));
        Out.add(ir::decl(PVar, ir::load(Ctx.cursorName(K), ir::var(IVar))));
        Out.add(ir::store(Ctx.cursorName(K), ir::var(IVar),
                          ir::add(ir::var(PVar), ir::intImm(1))));
        return ir::var(PVar);
      }
      case InsertStrategy::Serial:
        // yield_pos: pB = pos[parent]++ (cursor trick, shifted in
        // finalize).
        Out.add(ir::decl(PVar, ir::load(Pos, Env.ParentPos)));
        Out.add(ir::store(Pos, Env.ParentPos,
                          ir::add(ir::var(PVar), ir::intImm(1))));
        return ir::var(PVar);
      }
    }
    ir::Expr CIdx = ir::sub(Env.DstCoords[static_cast<size_t>(Spec.Dim)],
                            Ctx.dimLo(Spec.Dim));
    ir::Expr Stamp = ir::add(Env.ParentPos, ir::intImm(1));
    ir::BlockBuilder Fresh;
    Fresh.add(ir::assign(PVar, ir::load(Pos, Env.ParentPos)));
    Fresh.add(ir::store(Pos, Env.ParentPos,
                        ir::add(ir::var(PVar), ir::intImm(1))));
    Fresh.add(ir::store(wsStamp(), CIdx, Stamp));
    Fresh.add(ir::store(wsPos(), CIdx, ir::var(PVar)));
    Out.add(ir::decl(PVar, ir::intImm(0)));
    Out.add(ir::ifThen(ir::ne(ir::load(wsStamp(), CIdx), Stamp),
                       Fresh.build(),
                       ir::assign(PVar, ir::load(wsPos(), CIdx))));
    return ir::var(PVar);
  }

  void emitInsertCoord(AsmCtx &Ctx, const PosEnv &Env, ir::Expr Pk,
                       ir::BlockBuilder &Out) const override {
    // Sorted ranking wrote the crd array from the unique list during edge
    // insertion; repeating the store here would be redundant (and racy
    // only in the benign identical-value sense — skip it entirely).
    if (Sorted)
      return;
    Out.add(ir::store(Ctx.crdName(K), Pk,
                      Env.DstCoords[static_cast<size_t>(Spec.Dim)]));
  }

  void emitFinalize(AsmCtx &Ctx, ir::Expr ParentSize,
                    ir::BlockBuilder &Out) const override {
    if (Sorted) {
      // pos was never consumed (no cursor) and crd is final: only the
      // sorted tuple list remains to release. Each level owns its own list
      // under shared sort too (the anchor's IS the shared buffer).
      (void)ParentSize;
      Out.add(ir::freeBuffer(Ctx.srtName(K)));
      if (Ctx.RankLevel == K && !Ctx.RankBuffer.empty())
        Out.add(ir::freeBuffer(Ctx.RankBuffer));
      return;
    }
    if (Ranked) {
      // Ranked insertion reads pos without consuming it: nothing to shift.
      Out.add(ir::freeBuffer(rankName()));
      return;
    }
    // Monotone/Blocked insertion never consumed the pos array (no cursor,
    // or partition-private cursor rows), so it is already final and the
    // serial shift-back pass disappears with the parallel strategies.
    if (Dedup || Ctx.Insert == InsertStrategy::Serial) {
      // Shift the consumed cursors back: pos[p] = pos[p-1], pos[0] = 0.
      std::string Pos = Ctx.posName(K);
      std::string S = scanVar();
      ir::Expr Idx = ir::sub(ParentSize, ir::var(S));
      Out.add(ir::forRange(
          S, ir::intImm(0), ParentSize,
          ir::store(Pos, Idx, ir::load(Pos, ir::sub(Idx, ir::intImm(1))))));
      Out.add(ir::store(Pos, ir::intImm(0), ir::intImm(0)));
    }
    if (Dedup) {
      Out.add(ir::freeBuffer(wsStamp()));
      Out.add(ir::freeBuffer(wsPos()));
    }
  }

  void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                 ir::BlockBuilder &Out) const override {
    Out.add(ir::yieldBuffer(Ctx.posName(K), Ctx.posName(K),
                            ir::add(ParentSize, ir::intImm(1))));
    Out.add(ir::yieldBuffer(Ctx.crdName(K), Ctx.crdName(K),
                            ir::load(Ctx.posName(K), ParentSize)));
  }

private:
  std::string scanVar() const { return "s" + std::to_string(K); }
  std::string wsStamp() const { return "ws" + std::to_string(K) + "_stamp"; }
  std::string wsPos() const { return "ws" + std::to_string(K) + "_pos"; }
  std::string rankName() const { return "B" + std::to_string(K) + "_rnk"; }
  std::string rankLoopVar(int D) const {
    return "r" + std::to_string(K) + "d" + std::to_string(D);
  }

  bool Dedup;
  bool Ranked;
  bool Sorted;
  int Order;
};

//===----------------------------------------------------------------------===//
// singleton
//===----------------------------------------------------------------------===//

class SingletonLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    (void)Ctx;
    return ParentSize;
  }

  void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                ir::BlockBuilder &Out) const override {
    // Padded singleton levels (ELL) zero-initialize so padding slots hold
    // valid coordinates (Figure 7's calloc).
    Out.add(ir::alloc(Ctx.crdName(K), ir::ScalarKind::Int, ParentSize,
                      Spec.Padded));
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Ctx;
    (void)Out;
    return Env.ParentPos;
  }

  void emitInsertCoord(AsmCtx &Ctx, const PosEnv &Env, ir::Expr Pk,
                       ir::BlockBuilder &Out) const override {
    Out.add(ir::store(Ctx.crdName(K), Pk,
                      Env.DstCoords[static_cast<size_t>(Spec.Dim)]));
  }

  void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                 ir::BlockBuilder &Out) const override {
    Out.add(ir::yieldBuffer(Ctx.crdName(K), Ctx.crdName(K), ParentSize));
  }
};

//===----------------------------------------------------------------------===//
// squeezed
//===----------------------------------------------------------------------===//

class SqueezedLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  std::vector<query::Query> queries() const override {
    query::Query Q;
    Q.GroupDims = {Spec.Dim};
    Q.Aggs = {query::Agg{query::AggKind::Id, {}, "nz"}};
    return {Q};
  }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    return ir::mul(ParentSize, ir::var(Ctx.paramVar(K)));
  }

  void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    // Build perm: the ascending list of coordinates whose slice is nonzero
    // (Figure 11, squeezed init_coords).
    QueryResultRef Nz = Ctx.Result(K, "nz");
    std::string KVar = Ctx.paramVar(K);
    std::string O = "o" + std::to_string(K);
    ir::Expr Extent = Ctx.dimExtent(Spec.Dim);
    ir::Expr Lo = Ctx.dimLo(Spec.Dim);
    Out.add(ir::alloc(Ctx.permName(K), ir::ScalarKind::Int, Extent, false));
    Out.add(ir::decl(KVar, ir::intImm(0)));
    ir::BlockBuilder Body;
    Body.add(ir::store(Ctx.permName(K), ir::var(KVar),
                       ir::add(ir::var(O), Lo)));
    Body.add(ir::assign(KVar, ir::add(ir::var(KVar), ir::intImm(1))));
    Out.add(ir::forRange(
        O, ir::intImm(0), Extent,
        ir::ifThen(ir::load(Nz.Buffer, ir::var(O), Nz.Elem), Body.build())));
  }

  void emitInitPos(AsmCtx &Ctx, ir::Expr ParentSize,
                   ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    // rperm inverts perm for O(1) get_pos (Figure 6a lines 16-19).
    std::string S = "s" + std::to_string(K);
    Out.add(ir::alloc(rperm(Ctx), ir::ScalarKind::Int,
                      Ctx.dimExtent(Spec.Dim), false));
    Out.add(ir::forRange(
        S, ir::intImm(0), ir::var(Ctx.paramVar(K)),
        ir::store(rperm(Ctx),
                  ir::sub(ir::load(Ctx.permName(K), ir::var(S)),
                          Ctx.dimLo(Spec.Dim)),
                  ir::var(S))));
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Out;
    ir::Expr Rel = ir::sub(Env.DstCoords[static_cast<size_t>(Spec.Dim)],
                           Ctx.dimLo(Spec.Dim));
    return ir::add(ir::mul(Env.ParentPos, ir::var(Ctx.paramVar(K))),
                   ir::load(rperm(Ctx), Rel));
  }

  void emitFinalize(AsmCtx &Ctx, ir::Expr ParentSize,
                    ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    Out.add(ir::freeBuffer(rperm(Ctx)));
  }

  void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                 ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    Out.add(ir::yieldBuffer(Ctx.permName(K), Ctx.permName(K),
                            ir::var(Ctx.paramVar(K))));
    Out.add(ir::yieldScalar("B" + std::to_string(K) + "_param",
                            ir::var(Ctx.paramVar(K))));
  }

private:
  std::string rperm(const AsmCtx &) const {
    return "B" + std::to_string(K) + "_rperm";
  }
};

//===----------------------------------------------------------------------===//
// sliced
//===----------------------------------------------------------------------===//

class SlicedLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  std::vector<query::Query> queries() const override {
    query::Query Q;
    Q.Aggs = {query::Agg{query::AggKind::Max, {Spec.Dim}, "max_crd"}};
    return {Q};
  }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    return ir::mul(ParentSize, ir::var(Ctx.paramVar(K)));
  }

  void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    // K = max_crd + 1 (Figure 7's sliced init_coords). The decoded query
    // value is -1 on an all-empty tensor, giving K = 0.
    QueryResultRef MaxCrd = Ctx.Result(K, "max_crd");
    Out.add(ir::decl(Ctx.paramVar(K),
                     ir::add(readQueryValue(MaxCrd, {}), ir::intImm(1))));
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Out;
    return ir::add(ir::mul(Env.ParentPos, ir::var(Ctx.paramVar(K))),
                   Env.DstCoords[static_cast<size_t>(Spec.Dim)]);
  }

  void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                 ir::BlockBuilder &Out) const override {
    (void)ParentSize;
    Out.add(ir::yieldScalar("B" + std::to_string(K) + "_param",
                            ir::var(Ctx.paramVar(K))));
  }
};

//===----------------------------------------------------------------------===//
// skyline
//===----------------------------------------------------------------------===//

class SkylineLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  std::vector<query::Query> queries() const override {
    query::Query Q;
    for (int D = 0; D < Spec.Dim; ++D)
      Q.GroupDims.push_back(D);
    Q.Aggs = {query::Agg{query::AggKind::Min, {Spec.Dim}, "w"}};
    return {Q};
  }

  bool needsEdgeInsertion() const override { return true; }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    return ir::load(Ctx.posName(K), ParentSize);
  }

  void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                ir::BlockBuilder &Out) const override {
    // pos[p+1] = pos[p] + max(i - w + 1, 0): stores all components between
    // the first nonzero (w) and the diagonal (Figure 11, banded). Rows
    // without nonzeros decode w past the diagonal, so the count is 0.
    QueryResultRef W = Ctx.Result(K, "w");
    auto rowCount = [&](const std::vector<ir::Expr> &Coords) {
      ir::Expr I = Coords.back();
      return ir::max(
          ir::add(ir::sub(I, readQueryValue(W, Coords)), ir::intImm(1)),
          ir::intImm(0));
    };
    emitSequencedPos(Ctx, K, ParentSize, rowCount, Out);
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Out;
    // get_pos = pos[p+1] + j - i - 1 (avoids re-reading w; Figure 11).
    ir::Expr J = Env.DstCoords[static_cast<size_t>(Spec.Dim)];
    ir::Expr I = Env.DstCoords[static_cast<size_t>(Spec.Dim) - 1];
    return ir::sub(
        ir::add(ir::load(Ctx.posName(K),
                         ir::add(Env.ParentPos, ir::intImm(1))),
                ir::sub(J, I)),
        ir::intImm(1));
  }

  void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                 ir::BlockBuilder &Out) const override {
    Out.add(ir::yieldBuffer(Ctx.posName(K), Ctx.posName(K),
                            ir::add(ParentSize, ir::intImm(1))));
  }
};

//===----------------------------------------------------------------------===//
// offset
//===----------------------------------------------------------------------===//

class OffsetLevel : public LevelFormat {
public:
  using LevelFormat::LevelFormat;

  /// Position is a pure function of (parent, coords); see LevelFormat.
  bool insertIsParallelSafe(const AsmCtx &) const override { return true; }

  ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const override {
    (void)Ctx;
    return ParentSize;
  }

  ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                   ir::BlockBuilder &Out) const override {
    (void)Ctx;
    (void)Out;
    return Env.ParentPos;
  }
};

} // namespace

std::unique_ptr<LevelFormat> LevelFormat::create(const LevelSpec &Spec, int K,
                                                 bool Dedup, bool Ranked,
                                                 bool Sorted, int Order) {
  CONVGEN_ASSERT(!Sorted || Spec.Kind == LevelKind::Compressed,
                 "sorted ranking applies to compressed levels only");
  switch (Spec.Kind) {
  case LevelKind::Dense:
    return std::make_unique<DenseLevel>(Spec, K);
  case LevelKind::Compressed:
    return std::make_unique<CompressedLevel>(Spec, K, Dedup, Ranked, Sorted,
                                             Order);
  case LevelKind::Singleton:
    return std::make_unique<SingletonLevel>(Spec, K);
  case LevelKind::Squeezed:
    return std::make_unique<SqueezedLevel>(Spec, K);
  case LevelKind::Sliced:
    return std::make_unique<SlicedLevel>(Spec, K);
  case LevelKind::Skyline:
    return std::make_unique<SkylineLevel>(Spec, K);
  case LevelKind::Offset:
    return std::make_unique<OffsetLevel>(Spec, K);
  }
  convgen_unreachable("unknown level kind");
}
