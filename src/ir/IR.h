//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative intermediate representation that conversion routines are
/// generated into. The IR is deliberately small: scalar expressions over
/// int64/double/bool, loads from named buffers, and structured statements
/// (loops, conditionals, allocation, stores with optional reduction). One IR
/// serves three backends: a C-like pretty printer (for Figure 6-style
/// inspection and golden tests), a reference interpreter (used by the test
/// suite), and a C99 emitter compiled at runtime by the JIT (used by the
/// benchmarks, mirroring how taco executes generated kernels).
///
/// Buffer elements are int32 (pos/crd/perm arrays, matching the paper's C
/// code and the baselines), double (values), or bool (bit sets from id()
/// attribute queries). All scalar arithmetic is int64 so positions into
/// padded formats such as ELL cannot overflow.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_IR_IR_H
#define CONVGEN_IR_IR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace convgen {
namespace ir {

/// The scalar value kinds the IR computes with.
enum class ScalarKind : uint8_t { Int, Float, Bool };

/// Returns a human-readable name ("int", "float", "bool").
const char *scalarKindName(ScalarKind Kind);

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntImm,
  FloatImm,
  BoolImm,
  Var,
  Load,       ///< BufferName[A]
  Binary,     ///< A op B
  Unary,      ///< op A
  Select,     ///< A ? B : C
  NumParts,   ///< Partition count for blocked parallel passes (see numParts).
  LowerBound, ///< Rank of a key tuple in a sorted tuple buffer (lowerBound).
};

enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div, ///< C semantics: truncates toward zero.
  Rem, ///< C semantics: sign follows the dividend.
  Min,
  Max,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

enum class UnOp : uint8_t { Neg, LNot, BitWidth };

struct ExprNode;
/// Expressions are immutable and freely shared.
using Expr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  ExprKind Kind;
  ScalarKind Type = ScalarKind::Int;
  int64_t IntVal = 0;
  double FloatVal = 0;
  std::string Name; ///< Variable name, or buffer name for Load/LowerBound.
  Expr A, B, C;
  /// LowerBound only: the key tuple's component expressions (the arity of
  /// the searched tuples is Args.size()).
  std::vector<Expr> Args;
  /// LowerBound only; when non-empty, the searched tuples pack into a
  /// single uint64_t key (component d occupies PackWidths[d] bits,
  /// component 0 most significant) and the C lowering compares packed
  /// keys instead of looping over the components — same lexicographic result,
  /// set via lowerBoundPacked. The widths are run-time expressions (see
  /// bitWidth). Empty means the generic tuple compare.
  std::vector<Expr> PackWidths;
  BinOp BOp = BinOp::Add;
  UnOp UOp = UnOp::Neg;
};

// Factory functions. Binary factories constant-fold integer immediates and
// apply simple identities (x+0, x*1, x*0) so generated code stays readable.
Expr intImm(int64_t Value);
Expr floatImm(double Value);
Expr boolImm(bool Value);
Expr var(const std::string &Name, ScalarKind Kind = ScalarKind::Int);
Expr load(const std::string &Buffer, Expr Index,
          ScalarKind Elem = ScalarKind::Int);
Expr binop(BinOp Op, Expr A, Expr B);
Expr add(Expr A, Expr B);
Expr sub(Expr A, Expr B);
Expr mul(Expr A, Expr B);
Expr div(Expr A, Expr B);
Expr rem(Expr A, Expr B);
Expr min(Expr A, Expr B);
Expr max(Expr A, Expr B);
Expr eq(Expr A, Expr B);
Expr ne(Expr A, Expr B);
Expr lt(Expr A, Expr B);
Expr le(Expr A, Expr B);
Expr gt(Expr A, Expr B);
Expr ge(Expr A, Expr B);
Expr logicalAnd(Expr A, Expr B);
Expr logicalOr(Expr A, Expr B);
Expr neg(Expr A);
Expr logicalNot(Expr A);
Expr select(Expr Cond, Expr IfTrue, Expr IfFalse);

/// The packed-key bit width of a coordinate component whose extent is
/// \p Extent: the smallest W >= 0 with 2^W >= Extent (0 for extents up to
/// 1), capped at 63. Every coordinate c in [0, Extent) then satisfies
/// c < 2^W. The one rule behind the planner's packed-fit verdict
/// (codegen::AssemblyPlan::PackWidths), the bitWidth expression and the
/// emitted C helper cvg_bit_width.
int64_t bitWidthOf(int64_t Extent);

/// bitWidthOf(\p Extent) as an integer expression: folded for an
/// immediate, otherwise evaluated at run time (the C lowering calls the
/// prelude helper cvg_bit_width). Packed sorts and searches take their
/// widths as such expressions over the destination extents, so one
/// compiled routine serves every shape whose tuples pack into 64 bits.
Expr bitWidth(Expr Extent);

/// The number of partitions blocked parallel passes split their iteration
/// space into. Generated code must be deterministic for *any* value >= 1:
/// the C emitter lowers it to the OpenMP max thread count (1 without
/// OpenMP), the interpreter always evaluates it to 1, and the test suite
/// checks both produce bit-identical results. Evaluate it once into a
/// variable when several passes must agree on the partitioning.
Expr numParts();

/// Returns true (and sets \p Value) if \p E is an integer immediate.
bool isIntConst(const Expr &E, int64_t *Value = nullptr);

/// Rank of the key tuple \p Keys among the sorted tuples of \p Buffer: the
/// index of the first tuple lexicographically >= the key, with tuples
/// stored contiguously (tuple t occupies Buffer[t*R .. t*R+R-1] for arity
/// R = Keys.size()) and \p Count giving the tuple count. On a sorted,
/// deduplicated buffer that contains the key this is exactly the key's
/// rank among the stored tuples — how sorted-ranking assembly computes
/// positions in O(nnz) memory where a dense rank array would need the
/// product of the grouping dimensions' extents. The expression is pure:
/// the interpreter runs a binary search, the C emitter lowers to the
/// prelude helper cvg_lower_bound.
Expr lowerBound(const std::string &Buffer, Expr Count, std::vector<Expr> Keys);

/// lowerBound with the packed-key compare: \p PackWidths gives the bit
/// width of each tuple component (one per key; at run time each must be in
/// [0, 32] with a total of at most 64 — the same fit as
/// sortUniqueTuples), so the C lowering packs the key tuple and each
/// probed tuple into single uint64_t values and compares those. Unsigned
/// packed order equals lexicographic tuple order whenever every stored
/// coordinate fits its width, so the result is identical to lowerBound —
/// the interpreter evaluates both with the same tuple-wise binary search,
/// after checking the widths and the key against that contract.
Expr lowerBoundPacked(const std::string &Buffer, Expr Count,
                      std::vector<Expr> Keys, std::vector<Expr> PackWidths);

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  Decl,   ///< type Name = A;
  Assign, ///< Name = A;
  Store,  ///< Buffer[A] = B;  (or reduction, see ReduceOp)
  For,    ///< for (Name = A; Name < B; Name++) Body
  If,     ///< if (A) Body else Else
  Alloc,  ///< Buffer = malloc/calloc(A elements)
  Free,
  Comment,
  YieldBuffer, ///< Publish Buffer (length A) to output slot Slot.
  YieldScalar, ///< Publish scalar A to output slot Slot.
  Scan,      ///< In-place prefix sum/max over Buffer[0:A] (see scan()).
  PhaseMark, ///< Phase-boundary timing probe (see phaseMark()).
  SortUniqueTuples, ///< In-place tuple sort + dedup (sortUniqueTuples()).
  UniquePrefix, ///< Prefix compaction of a sorted list (uniquePrefix()).
};

/// Reduction applied by a Store: Buffer[I] op= V.
enum class ReduceOp : uint8_t { None, Add, Or, Max, Min };

/// A buffer a parallel For reduces into: each thread accumulates into a
/// private zero/identity-initialized copy of Buffer[0:Length] which the
/// runtime merges when the loop ends (the per-thread-histogram strategy for
/// attribute-query counting sweeps). Only exact integer reductions are ever
/// emitted, so the merged result is bit-identical to serial execution.
struct ParReduction {
  std::string Buffer;
  ReduceOp Op = ReduceOp::Add;
  Expr Length; ///< Element count of the reduced section.
  ScalarKind Elem = ScalarKind::Int;
};

struct StmtNode;
using Stmt = std::shared_ptr<const StmtNode>;

struct StmtNode {
  StmtKind Kind;
  std::vector<Stmt> Stmts; ///< Block members.
  std::string Name;        ///< Variable or buffer name; comment text.
  std::string Slot;        ///< Yield output slot; count-variable name for
                           ///< SortUniqueTuples/UniquePrefix.
  ScalarKind Type = ScalarKind::Int;
  Expr A, B;
  Stmt Body, Else;
  ReduceOp Reduce = ReduceOp::None; ///< Store reduction; Scan combiner.
  int64_t Phase = 0;                ///< PhaseMark only: phase index.
  int64_t Arity = 1; ///< Tuple ops only: ints per (source) tuple.
  /// SortUniqueTuples only: when non-empty, one bit width expression per
  /// tuple component (size() == Arity) selecting the packed-key radix
  /// lowering — each tuple packs into a single uint64_t key (component d
  /// occupies PackWidths[d] bits, component 0 most significant, so key
  /// order == lexicographic tuple order). Empty selects the comparison
  /// merge sort.
  std::vector<Expr> PackWidths;
  /// UniquePrefix: the destination buffer. SortUniqueTuples: the rank
  /// buffer (empty: no ranks).
  std::string Buffer2;
  /// UniquePrefix only: ints per destination tuple (the prefix length).
  int64_t Arity2 = 0;
  bool ZeroInit = false;
  /// For only: iterations are independent (or reduction-combined) and may
  /// run concurrently. Lowered by the C emitter to `#pragma omp parallel
  /// for`; the interpreter ignores the flag and stays the bit-exact serial
  /// reference. Annotated loops must be deterministic under any iteration
  /// partition: disjoint effects apart from Reductions, with Privates
  /// re-initialized before use in every iteration.
  bool Parallel = false;
  /// For only: scalars declared outside the loop that each thread must
  /// privatize (reused scalar counters, reset at the top of the body).
  std::vector<std::string> Privates;
  /// For only: buffers combined across iterations via exact reductions.
  std::vector<ParReduction> Reductions;
};

Stmt block(std::vector<Stmt> Stmts);
Stmt decl(const std::string &Name, Expr Init,
          ScalarKind Kind = ScalarKind::Int);
Stmt assign(const std::string &Name, Expr Value);
Stmt store(const std::string &Buffer, Expr Index, Expr Value,
           ReduceOp Reduce = ReduceOp::None);
Stmt forRange(const std::string &Var, Expr Lo, Expr Hi, Stmt Body);
Stmt ifThen(Expr Cond, Stmt Then, Stmt Else = nullptr);
Stmt alloc(const std::string &Buffer, ScalarKind Elem, Expr Size,
           bool ZeroInit);
Stmt freeBuffer(const std::string &Buffer);
Stmt comment(const std::string &Text);
Stmt yieldBuffer(const std::string &Slot, const std::string &Buffer,
                 Expr Length);
Stmt yieldScalar(const std::string &Slot, Expr Value);

/// In-place inclusive integer prefix combine of Buffer[0:Length]: after
/// execution, element k holds the combination of elements 0..k of the
/// original contents, in int32 arithmetic. \p Op picks the combiner: Add
/// (the default prefix sum) or Max (prefix maximum with identity 0, so
/// buffers must be non-negative). The interpreter runs the obvious serial
/// loop (the bit-exact oracle); the C emitter lowers to a call of the
/// prebuilt runtime's two-pass blocked scan (jit/Runtime.h), which
/// parallelizes under OpenMP and degenerates to the serial loop at one
/// partition. Both agree bit-for-bit for any partition count
/// because int32 addition (mod 2^32) and max are associative. Sorted
/// ranking uses both: an additive scan over its prefix-change flags ranks
/// a CSF chain's parents, and a max scan closes the gaps of empty parents
/// in its pos arrays without a serial forward fill.
Stmt scan(const std::string &Buffer, Expr Length,
          ReduceOp Op = ReduceOp::Add);

/// Sorts the \p Count tuples of \p Buffer in place into lexicographic
/// order, drops duplicate tuples, and declares the int64 variable
/// \p CountVar holding the number of distinct tuples kept at the front of
/// the buffer. Tuples are \p Arity consecutive int32 elements each
/// (row-major, tuple t at Buffer[t*Arity]). This is the O(nnz)-memory
/// replacement for dense rank arrays in sorted-ranking assembly
/// (huge-dimension hyper-sparse tensors). The interpreter is the serial
/// oracle. The result is a pure function of the input multiset, so any
/// thread count (and the interpreter) produce bit-identical buffers.
///
/// An empty \p PackWidths selects the merge lowering: the runtime's
/// sort_unique_tuples, a bottom-up merge sort whose per-width merge passes
/// parallelize under OpenMP, compacted as it is copied out.
///
/// A non-empty \p PackWidths selects the packed-key radix lowering. It
/// gives the bit width of each tuple component as a run-time expression
/// (one per component; at run time each must be in [0, 32] and they must
/// sum to at most 64), and every stored coordinate must satisfy
/// 0 <= c < 2^width; the interpreter checks both and fails the run
/// otherwise. The factory checks immediate widths up front. The C emitter
/// lowers to the runtime's radix_sort_packed — pack each tuple into one
/// uint64_t key (component 0 most significant), LSD radix sort
/// (per-partition histograms + a serial digit-offset scan), deduplicate
/// the packed keys before unpacking, unpack. Packed-key order equals
/// lexicographic tuple order, and equal keys are equal tuples under the
/// width contract, so both lowerings produce the same buffer.
///
/// A non-empty \p RankBuffer (packed form only) names a pre-allocated
/// int32 buffer of \p Count slots that the sort additionally fills with
/// each slot's rank: RankBuffer[i] = index of the (pre-sort) tuple at slot
/// i in the deduped sorted list — exactly what lowerBound over the result
/// returns for that tuple, precomputed for every slot. The C lowering
/// carries the slot index as a payload through the radix scatters (no
/// searches); consumers can then resolve a stored nonzero's position with
/// one load.
Stmt sortUniqueTuples(const std::string &Buffer, Expr Count, int64_t Arity,
                      const std::string &CountVar,
                      std::vector<Expr> PackWidths = {},
                      const std::string &RankBuffer = "");

/// Compacts the distinct length-\p DstArity prefixes of the \p Count sorted
/// tuples in \p Src (arity \p SrcArity >= DstArity) into \p Dst, in order,
/// and declares the int64 variable \p CountVar holding how many were kept.
/// Because Src is sorted, the distinct prefixes come out sorted too — this
/// is how shared-sort assembly derives every ancestor level's unique list
/// from the one full-arity sorted buffer instead of re-sorting per level.
/// The interpreter runs the serial compaction (the bit-exact oracle); the C
/// emitter lowers to the runtime's unique_prefix, a blocked two-pass compaction
/// (count first-of-prefix flags per partition, offset, copy) that
/// parallelizes under OpenMP. The output is a pure function of the input,
/// so any partition count produces bit-identical buffers.
Stmt uniquePrefix(const std::string &Src, Expr Count, int64_t SrcArity,
                  const std::string &Dst, int64_t DstArity,
                  const std::string &CountVar);

/// Phase-boundary probe for the per-phase timing breakdown: the C emitter
/// adds the wall-clock seconds since the previous mark to slot \p Phase of
/// the caller's `cvg_phase` array, and reads no clock when the caller
/// passes NULL; the interpreter and the pretty printer treat it as a
/// comment. Index -1 starts the clock without recording (function
/// prologue).
Stmt phaseMark(int64_t Phase, const std::string &Label);

/// Returns a copy of the For statement \p Loop annotated as parallel (see
/// StmtNode::Parallel). Callers are responsible for legality: iterations
/// must be independent apart from \p Reductions and \p Privates.
Stmt markLoopParallel(const Stmt &Loop, std::vector<std::string> Privates = {},
                      std::vector<ParReduction> Reductions = {});

/// Convenience accumulator for building statement sequences.
class BlockBuilder {
public:
  void add(Stmt S) {
    if (S)
      Stmts.push_back(std::move(S));
  }
  void addAll(const std::vector<Stmt> &More) {
    for (const Stmt &S : More)
      add(S);
  }
  bool empty() const { return Stmts.empty(); }
  /// Consumes the accumulated statements as a single block.
  Stmt build() { return block(std::move(Stmts)); }

private:
  std::vector<Stmt> Stmts;
};

//===----------------------------------------------------------------------===//
// Functions
//===----------------------------------------------------------------------===//

/// A function parameter: either a scalar (dimension, size parameter) or a
/// buffer (pos/crd/perm/vals array). The conversion code generator uses the
/// naming convention "A<k>_pos", "A<k>_crd", "A<k>_perm", "A_vals",
/// "dim<d>", and "A<k>_param" for inputs; outputs are published through
/// YieldBuffer / YieldScalar slots named "B<k>_pos", "B<k>_crd",
/// "B<k>_perm", "B_vals", and "B<k>_param".
struct Param {
  std::string Name;
  ScalarKind Elem = ScalarKind::Int;
  bool IsBuffer = false;
};

struct Function {
  std::string Name;
  std::vector<Param> Params;
  Stmt Body;
};

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

/// A decomposed conventional parameter or yield-slot name. The conversion
/// code generator names inputs/outputs "A1_pos", "B_vals", "dim0",
/// "B2_param", etc.; this helper recovers the structure so the C emitter and
/// the runtime can marshal tensors without hard-coding each name.
struct SlotRef {
  enum class RoleKind { Dim, Param, Pos, Crd, Perm, Vals, Unknown };
  RoleKind Role = RoleKind::Unknown;
  char Tensor = '\0'; ///< 'A' (input) or 'B' (output); '\0' for dims.
  int Level = 0;      ///< Level index for pos/crd/perm/param; dim index.
};

/// Parses a conventional name; Role is Unknown if it does not conform.
SlotRef parseSlotName(const std::string &Name);

/// Renders \p E as C-like text.
std::string printExpr(const Expr &E);

/// Renders \p S as C-like text with \p Indent leading spaces per level.
std::string printStmt(const Stmt &S, int Indent = 0);

/// Renders \p S as compilable C99 (the JIT backend's lowering): identical
/// to printStmt except that scans, sorts and dedups lower to calls through
/// the runtime table `cvg_rt` and PhaseMark to timing probes, instead of
/// the compact pseudo-ops of the readable view. Requires the names the C
/// emitter's routine defines (cvg_nparts and cvg_now in the prelude; the
/// parameters cvg_rt and cvg_phase, and the local cvg_phase_t0).
std::string printStmtAsC(const Stmt &S, int Indent = 0);

/// Renders the whole function (signature comment plus body) as C-like text.
/// This is the "Figure 6 view" of a generated conversion routine.
std::string printFunction(const Function &F);

} // namespace ir
} // namespace convgen

#endif // CONVGEN_IR_IR_H
