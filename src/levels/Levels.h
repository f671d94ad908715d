//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinate-hierarchy level formats and the paper's assembly
/// abstraction (§6.1, Figures 7, 11, 12). Each level format implements a
/// fixed static interface of *level functions* — get_size, sequenced edge
/// insertion (parents are enumerated in order), init_coords, get_pos /
/// yield_pos, insert_coord, and finalizers — as IR *emitters*: the
/// conversion code generator calls them to splice specialized code into the
/// routine it is building, which is exactly how the paper's compiler
/// inlines level function implementations (§6.2).
///
/// Each level format also declares the attribute queries its assembly
/// requires (a compressed level needs per-parent nonzero counts, a squeezed
/// level the set of nonzero coordinates, a sliced level the maximum
/// coordinate, a skyline level the minimum).
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_LEVELS_LEVELS_H
#define CONVGEN_LEVELS_LEVELS_H

#include "formats/Format.h"
#include "ir/IR.h"
#include "query/Query.h"
#include "remap/Bounds.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace convgen {
namespace levels {

/// Where a compiled attribute query's result lives and how to decode it.
/// Raw stored values of max/min queries are shifted so that zero means
/// "empty" (§5.2); actual = Sign * raw + Shift recovers the aggregate.
struct QueryResultRef {
  std::string Buffer;
  ir::ScalarKind Elem = ir::ScalarKind::Int;
  std::vector<int> GroupDims;
  std::vector<ir::Expr> GroupLo;     ///< Per group dim: coordinate lower bound.
  std::vector<ir::Expr> GroupExtent; ///< Per group dim: extent (for strides).
  int Sign = 1;
  ir::Expr Shift; ///< Null when raw values need no decoding (count/id).
};

/// Raw element load at the given group coordinates (row-major layout).
ir::Expr readQueryRaw(const QueryResultRef &Ref,
                      const std::vector<ir::Expr> &GroupCoords);

/// Decoded aggregate value (applies Sign/Shift).
ir::Expr readQueryValue(const QueryResultRef &Ref,
                        const std::vector<ir::Expr> &GroupCoords);

/// How the coordinate-insertion pass drives cursor-based compressed levels
/// (chosen by the generator; see Generator.cpp for the legality analysis).
enum class InsertStrategy : uint8_t {
  /// Shared per-parent pos cursor consumed in iteration order; the
  /// insertion pass must stay serial. The default, and the only legal
  /// choice for dedup levels.
  Serial,
  /// The destination position of every nonzero equals its stored source
  /// position, so no cursor exists at all: insertion is a pure function of
  /// the source position and parallelizes like a pure-level target. Legal
  /// when the cursor level's parent coordinates are exactly a prefix of
  /// the source's lexicographic iteration order and every stored slot is
  /// inserted (unpadded source): the serial cursor then provably assigns
  /// position p to the p-th visited nonzero.
  Monotone,
  /// Per-partition cursor array seeded from the pos array: a counting
  /// pre-pass tallies each partition's nonzeros per parent, a scan over
  /// partitions turns the tallies into starting cursors, and the blocked
  /// insertion pass consumes cursor[partition][parent]. Deterministic for
  /// any partition count, so bit-identical to the serial oracle.
  Blocked,
};

/// Shared emission context for one conversion. Owned by the generator;
/// level formats use it for naming, dimension bounds, query results, and
/// parent-position enumeration during edge insertion.
struct AsmCtx {
  const formats::Format *Fmt = nullptr;
  /// Symbolic bounds per destination dimension (over dim0/dim1 vars).
  std::vector<remap::DimBounds> Bounds;

  /// Cursor strategy of the coordinate-insertion pass (see InsertStrategy).
  InsertStrategy Insert = InsertStrategy::Serial;
  /// Blocked only: loop variable holding the current partition index.
  std::string BlockVar;
  /// Blocked only: partition count, evaluated once so every blocked pass
  /// splits the iteration space identically.
  ir::Expr PartCount;
  /// Parent size expression per 1-based level (filled by the generator
  /// during initialization; cursor emitters index with it).
  std::map<int, ir::Expr> ParentSize;

  /// Query result lookup: (1-based level, label) -> ref.
  std::function<QueryResultRef(int, const std::string &)> Result;

  /// Enumerates the positions of level K's parent in order, invoking Body
  /// with (parent position, destination coords of dims 0..K-2). The
  /// generator implements this with loops over the enclosing levels; it is
  /// the "for position pk-1 in parent level" of Figure 12.
  std::function<ir::Stmt(
      int, const std::function<ir::Stmt(ir::Expr,
                                        const std::vector<ir::Expr> &)> &)>
      ParentLoop;

  /// Total number of stored source positions (the size of A_vals) — the
  /// nnz-proportional bound sorted-ranking levels size their tuple
  /// workspaces by.
  ir::Expr StoredSize;

  /// Sorted-ranking support: emits one full pass over the source whose
  /// body receives the destination coordinates of dims 0..UpToDim (all
  /// plain canonical variables; planAssembly guarantees this before
  /// selecting the sorted strategy) plus the nonzero's stored position,
  /// and is annotated parallel when the nest's root is a loop (bodies must
  /// write disjoint per-nonzero slots). The generator implements this over
  /// the source iterator, with no counters involved.
  std::function<ir::Stmt(
      int, const std::function<ir::Stmt(const std::vector<ir::Expr> &,
                                        ir::Expr)> &)>
      SourceSweep;

  /// Parent position of level K for the given destination coordinates, as
  /// a pure expression (no statements): folds pureChildPos over levels
  /// 1..K-1. Only valid when every ancestor is pure-positioned (dense, or
  /// compressed with ranked/sorted insertion) — which planAssembly
  /// enforces for sorted levels.
  std::function<ir::Expr(int, const std::vector<ir::Expr> &)> ParentPos;

  /// Shared full-arity sort (set by the generator whenever a level sorts):
  /// the 1-based anchor level — the deepest sorted one — whose sorted
  /// unique tuple list every other sorted level derives its own list from
  /// by prefix compaction, instead of running a redundant collect+sort
  /// over the same nonzeros. Level K groups dims 0..K-1, so the anchor's
  /// tuples have arity SharedSortAnchor. 0 when no level sorts.
  int SharedSortAnchor = 0;

  /// Packed-key radix sort: bit width per destination dimension, in
  /// dimension order, as run-time expressions over the extents
  /// (ir::bitWidth), so the routine is the same for every shape that packs.
  /// Non-empty only when the plan's PackWidths verdict says the full-order
  /// tuple packs into 64 bits, so any grouping prefix fits too; sorted
  /// levels then lower their sorts to ir::sortUniqueTuples' packed form.
  /// Empty keeps the comparison merge sort.
  std::vector<ir::Expr> PackWidths;

  /// 1-based levels whose parent position, inside the sorted pos build,
  /// equals the rank of the tuple's dims 0..Dim-1 prefix among the
  /// distinct prefixes of the level's own sorted unique list — true when
  /// the parent is itself a sorted level grouping exactly those dims (the
  /// CSF chain case). emitSortedInit then derives every block end's parent
  /// position from prefix-change flags plus one additive scan instead of
  /// per-block-end binary searches. Index 0 unused.
  std::vector<bool> PrefixRankParent;

  /// Rank-scatter insertion (packed plans, full-order sorted list only):
  /// name of an nnz-sized int32 buffer mapping every stored source
  /// position to its tuple's rank in level RankLevel's sorted unique
  /// list, filled by the fused packed sort carrying the source slot as a
  /// payload. Coordinate insertion then resolves the deepest position
  /// with one load per nonzero instead of a binary search over the list.
  /// Empty when unavailable (unpacked or partial-arity list).
  std::string RankBuffer;
  int RankLevel = 0;

  // Naming helpers (1-based levels, matching the "B1_pos" ABI convention).
  std::string posName(int K) const { return "B" + std::to_string(K) + "_pos"; }
  std::string crdName(int K) const { return "B" + std::to_string(K) + "_crd"; }
  std::string permName(int K) const {
    return "B" + std::to_string(K) + "_perm";
  }
  std::string paramVar(int K) const { return "B" + std::to_string(K) + "_K"; }
  /// Blocked insertion's per-partition cursor array for level K.
  std::string cursorName(int K) const {
    return "B" + std::to_string(K) + "_cur";
  }
  /// Sorted ranking's per-level sorted unique tuple list and its count
  /// variable (shared between CompressedLevel and the generator's shared-
  /// sort emission, like the pos/crd ABI names above).
  std::string srtName(int K) const { return "B" + std::to_string(K) + "_srt"; }
  std::string uniqueVar(int K) const { return "uB" + std::to_string(K); }

  ir::Expr dimLo(int D) const;
  ir::Expr dimHi(int D) const;
  ir::Expr dimExtent(int D) const;
};

/// Per-nonzero state during coordinate insertion (Figure 12, right).
struct PosEnv {
  ir::Expr ParentPos;
  /// Destination coordinates c0..cn-1 of the nonzero being inserted.
  std::vector<ir::Expr> DstCoords;
  /// The nonzero's stored position in the source (indexes A_vals); the
  /// destination position under the Monotone insertion strategy.
  ir::Expr SrcPos;
};

/// Abstract level format: assembly-side code emitters.
class LevelFormat {
public:
  /// \p K is the 1-based level number; \p Dedup requests get_pos semantics
  /// over yield_pos storage for levels where several nonzeros share a
  /// coordinate (BCSR's block-column level); \p Order is the format's
  /// stored order (for root-level count queries).
  ///
  /// \p Ranked selects the order-independent variant of dedup insertion: a
  /// position is the rank of the nonzero's coordinate tuple among the
  /// *present* tuples (precomputed per parent from a presence query during
  /// edge insertion), instead of its first-visit number in a version-stamp
  /// workspace. Positions become a pure function of the coordinates, which
  /// (a) drops every requirement on the source's iteration order, (b) makes
  /// insertion parallel-safe, and (c) lets deeper levels enumerate this
  /// level's positions before any insertion ran — the key to edge insertion
  /// below compressed ancestors (CSF targets). The price is an
  /// O(prod extents of dims 0..Dim) rank array, so the generator prefers
  /// the workspace variant where the source's iteration order permits it
  /// and no descendant needs the enumeration.
  ///
  /// \p Sorted selects the O(nnz)-memory ranking strategy for unique
  /// compressed levels whose dense rank array / query buffers would exceed
  /// the planner's size threshold (huge-dimension hyper-sparse tensors):
  /// edge insertion collects the grouping tuples of every stored nonzero
  /// into an append buffer, sorts and uniques them, and a position is the
  /// tuple's index in that sorted unique list (a binary search at
  /// insertion time). Like Ranked, positions are a pure function of the
  /// coordinates — order-independent and parallel-safe — but no structure
  /// is sized by a dimension extent product. Coordinates are written
  /// during edge insertion (insert_coord is a no-op) and the level issues
  /// no attribute queries. When the context carries a shared-sort anchor,
  /// non-anchor sorted levels derive their unique list from the anchor's
  /// full-arity buffer by prefix compaction instead of collecting and
  /// sorting again.
  ///
  static std::unique_ptr<LevelFormat> create(const formats::LevelSpec &Spec,
                                             int K, bool Dedup, bool Ranked,
                                             bool Sorted, int Order);

  virtual ~LevelFormat();

  int level() const { return K; }
  const formats::LevelSpec &spec() const { return Spec; }

  /// Attribute queries this level's assembly requires (possibly none).
  /// Labels are unique per level.
  virtual std::vector<query::Query> queries() const { return {}; }

  virtual bool needsEdgeInsertion() const { return false; }

  /// get_size: number of positions in this level given the parent's.
  virtual ir::Expr getSize(AsmCtx &Ctx, ir::Expr ParentSize) const = 0;

  /// Edge insertion + init_coords: everything that must run before
  /// coordinate insertion (allocations, perm/K computation, pos arrays).
  virtual void emitInit(AsmCtx &Ctx, ir::Expr ParentSize,
                        ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)ParentSize;
    (void)Out;
  }

  /// Shared-sort hook, called by the generator on the anchor level before
  /// any per-level emitInit: builds the full-arity sorted unique tuple
  /// list (collect sweep, sort, unique) that every sorted level's emitInit
  /// then reads. Only the sorted compressed level implements it.
  virtual void emitSharedListBuild(AsmCtx &Ctx, ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)Out;
  }

  /// init_get_pos / init_yield_pos: auxiliary structures used only during
  /// coordinate insertion (squeezed's rperm, dedup workspaces).
  virtual void emitInitPos(AsmCtx &Ctx, ir::Expr ParentSize,
                           ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)ParentSize;
    (void)Out;
  }

  /// True when emitPos/emitInsertCoord touch no shared mutable state under
  /// the context's insertion strategy: the position is a pure function of
  /// (parent position, coordinates, source position) and the only writes
  /// go to this level's own arrays at that position. For a valid format
  /// those positions are distinct per stored nonzero, so the
  /// coordinate-insertion pass over a chain of such levels may be
  /// partitioned across threads without races or reordering.
  ///
  /// Cursor-based compressed levels are parallel-safe under the Monotone
  /// strategy (the cursor disappears: position == source position, legal
  /// when the level's parent coordinates are a lexicographic prefix of the
  /// source's iteration order) and under the Blocked strategy (each
  /// partition consumes its own pre-counted cursor row). With the Serial
  /// strategy they advance a shared cursor and must stay serial, as must
  /// dedup levels (version-stamped workspace) always. Defaults to false so
  /// a future level kind is serial until someone proves its insertion
  /// order-independent and opts in.
  virtual bool insertIsParallelSafe(const AsmCtx &Ctx) const {
    (void)Ctx;
    return false;
  }

  /// True when insertion advances a plain per-parent cursor and nothing
  /// else (compressed levels without a dedup workspace). Only such levels
  /// support the Monotone and Blocked strategies; the generator checks
  /// their preconditions before selecting either.
  virtual bool insertUsesCursor() const { return false; }

  /// True when emitPos never reads Env.ParentPos (sorted ranking: the
  /// position is the tuple's global rank over dims 0..Dim). The generator
  /// then need not materialize the parent chain's positions for this
  /// level's sake.
  virtual bool posIgnoresParent() const { return false; }

  /// True when emitPos touches no mutable state (no cursor advance, no
  /// workspace stamp): a position nothing consumes may be skipped
  /// entirely. Together with posIgnoresParent and insert_coord being a
  /// no-op, this lets the coordinate-insertion pass over an all-sorted
  /// chain compute only the deepest level's rank — one binary search per
  /// nonzero instead of one per level.
  virtual bool posIsPure() const { return false; }

  /// True when emitInsertCoord emits nothing (sorted ranking writes crd
  /// from the unique list during edge insertion), so the position is not
  /// needed for a coordinate store either.
  virtual bool insertCoordIsNoOp() const { return false; }

  /// The child position for the given (parent position, destination
  /// coordinates) as a pure expression with no emitted statements, or null
  /// when this level's positions are not expressible that way. Dense
  /// levels (coordinate arithmetic) and compressed levels under ranked or
  /// sorted insertion (rank lookups / binary searches) provide it; the
  /// sorted-ranking pos construction composes ancestor positions through
  /// this hook, twice per loop body, which statement-emitting emitPos
  /// variants could not support without name collisions.
  virtual ir::Expr pureChildPos(AsmCtx &Ctx, ir::Expr ParentPos,
                                const std::vector<ir::Expr> &Coords) const {
    (void)Ctx;
    (void)ParentPos;
    (void)Coords;
    return nullptr;
  }

  /// get_pos / yield_pos: emits statements computing this nonzero's
  /// position at this level and returns the position expression.
  virtual ir::Expr emitPos(AsmCtx &Ctx, const PosEnv &Env,
                           ir::BlockBuilder &Out) const = 0;

  /// insert_coord: stores the coordinate (no-op for implicit levels).
  virtual void emitInsertCoord(AsmCtx &Ctx, const PosEnv &Env, ir::Expr Pk,
                               ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)Env;
    (void)Pk;
    (void)Out;
  }

  /// finalize_get_pos / finalize_yield_pos: pos-shift loops, frees.
  virtual void emitFinalize(AsmCtx &Ctx, ir::Expr ParentSize,
                            ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)ParentSize;
    (void)Out;
  }

  /// Publishes this level's output arrays/parameters (YieldBuffer/Scalar).
  virtual void emitYield(AsmCtx &Ctx, ir::Expr ParentSize,
                         ir::BlockBuilder &Out) const {
    (void)Ctx;
    (void)ParentSize;
    (void)Out;
  }

  LevelFormat(const formats::LevelSpec &Spec, int K) : Spec(Spec), K(K) {}

protected:
  formats::LevelSpec Spec;
  int K;
};

} // namespace levels
} // namespace convgen

#endif // CONVGEN_LEVELS_LEVELS_H
