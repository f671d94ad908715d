//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/CEmitter.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

using namespace convgen;
using namespace convgen::ir;

std::string ir::cTensorStructDecl() {
  return strfmt(R"(typedef struct {
  int64_t dims[%d];
  int64_t params[%d];
  int32_t *pos[%d];
  int64_t pos_len[%d];
  int32_t *crd[%d];
  int64_t crd_len[%d];
  int32_t *perm[%d];
  int64_t perm_len[%d];
  double *vals;
  int64_t vals_len;
} cvg_tensor_t;
)",
                kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1,
                kMaxLevels + 1, kMaxLevels + 1, kMaxLevels + 1,
                kMaxLevels + 1);
}

std::string ir::cRuntimeTableDecl() {
  return R"(typedef struct {
  void (*scan_sum)(int32_t *x, int64_t n, int64_t p);
  void (*scan_max)(int32_t *x, int64_t n, int64_t p);
  int64_t (*sort_unique_tuples)(int32_t *buf, int64_t n, int64_t arity,
                                int64_t p);
  int64_t (*unique_prefix)(const int32_t *src, int64_t n, int64_t src_arity,
                           int32_t *dst, int64_t dst_arity, int64_t p);
  int64_t (*radix_sort_packed)(int32_t *buf, int64_t n, int64_t arity,
                               const int64_t *widths, int32_t *rank_out,
                               int64_t p);
} cvg_runtime_t;
)";
}

namespace {
/// What a routine body needs beyond the fixed prelude, found in one walk.
/// Scans, sorts and dedups call the prebuilt runtime through the table
/// every routine receives, so they need nothing here. The binary searches
/// run once per nonzero inside insertion loops, so they stay inline, each
/// emitted only where used. A routine that needs none of this — every
/// routine without sorted ranking — carries none of it.
struct PreludeNeeds {
  bool Search = false;       ///< A tuple-compare LowerBound.
  bool PackedSearch = false; ///< A packed LowerBound.
  bool BitWidth = false;     ///< A run-time packed-key width.

  void visit(const Expr &E) {
    if (!E)
      return;
    if (E->Kind == ExprKind::LowerBound)
      (E->PackWidths.empty() ? Search : PackedSearch) = true;
    if (E->Kind == ExprKind::Unary && E->UOp == UnOp::BitWidth)
      BitWidth = true;
    for (const Expr &Arg : E->Args)
      visit(Arg);
    for (const Expr &W : E->PackWidths)
      visit(W);
    visit(E->A);
    visit(E->B);
    visit(E->C);
  }

  void visit(const Stmt &S) {
    if (!S)
      return;
    visit(S->A);
    visit(S->B);
    for (const Expr &W : S->PackWidths)
      visit(W);
    for (const Stmt &Sub : S->Stmts)
      visit(Sub);
    visit(S->Body);
    visit(S->Else);
  }
};
} // namespace

/// Emits the prologue line that binds one function parameter to a local
/// variable named exactly as the IR references it.
static std::string bindParam(const Param &P) {
  SlotRef Ref = parseSlotName(P.Name);
  switch (Ref.Role) {
  case SlotRef::RoleKind::Dim:
    return strfmt("  int64_t %s = A->dims[%d];\n", P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Param:
    return strfmt("  int64_t %s = A->params[%d];\n", P.Name.c_str(),
                  Ref.Level);
  case SlotRef::RoleKind::Pos:
    return strfmt("  const int32_t *restrict %s = A->pos[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Crd:
    return strfmt("  const int32_t *restrict %s = A->crd[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Perm:
    return strfmt("  const int32_t *restrict %s = A->perm[%d];\n",
                  P.Name.c_str(), Ref.Level);
  case SlotRef::RoleKind::Vals:
    return strfmt("  const double *restrict %s = A->vals;\n", P.Name.c_str());
  case SlotRef::RoleKind::Unknown:
    break;
  }
  fatalError(("C emitter: parameter '" + P.Name +
              "' does not follow the tensor naming convention")
                 .c_str());
}

std::string ir::emitC(const Function &F) {
  std::string Out;
  Out += "// Generated by convgen. Do not edit.\n";
  // clock_gettime needs POSIX visibility under strict -std=c11.
  Out += "#define _POSIX_C_SOURCE 199309L\n";
  Out += "#include <stdint.h>\n#include <stdlib.h>\n#include <string.h>\n"
         "#include <time.h>\n\n";
  Out += "#define cvg_min(a, b)                                              "
         "\\\n  ({ __typeof__(a) cvg_a = (a); __typeof__(b) cvg_b = (b);     "
         "\\\n     cvg_a < cvg_b ? cvg_a : cvg_b; })\n";
  Out += "#define cvg_max(a, b)                                              "
         "\\\n  ({ __typeof__(a) cvg_a = (a); __typeof__(b) cvg_b = (b);     "
         "\\\n     cvg_a > cvg_b ? cvg_a : cvg_b; })\n\n";
  // Partition count for blocked parallel passes (scans, cursor insertion).
  // Serial builds see one partition, so the same source stays valid C and
  // bit-identical: generated code is deterministic for any value >= 1.
  Out += "#ifdef _OPENMP\n"
         "#include <omp.h>\n"
         "#define cvg_nparts() ((int64_t)omp_get_max_threads())\n"
         "#else\n"
         "#define cvg_nparts() ((int64_t)1)\n"
         "#endif\n\n";
  // Binary search returning the rank of a key tuple among n sorted tuples
  // of `arity` consecutive int32 elements.
  PreludeNeeds Needs;
  Needs.visit(F.Body);
  if (Needs.Search)
    Out += R"(static int64_t cvg_lower_bound(const int32_t *buf, int64_t n, int64_t arity,
                               const int64_t *key) {
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    const int32_t *t = buf + mid * arity;
    int cmp = 0;
    for (int64_t i = 0; i < arity && cmp == 0; i++)
      cmp = (int64_t)t[i] < key[i] ? -1 : ((int64_t)t[i] > key[i] ? 1 : 0);
    if (cmp < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

)";
  // Packed-key binary search: when the planner proved the searched tuples
  // pack into 64 bits, each probe step packs the probed tuple and compares
  // one uint64_t against the pre-packed key — the branch-free equivalent of
  // cvg_lower_bound's tuple-compare loop, and the insertion phase's per-nonzero get_pos
  // cost drops accordingly. Unsigned packed order equals lexicographic
  // order whenever every stored coordinate fits its width (the same
  // contract as the runtime's packed radix sort), so the result index is
  // identical to cvg_lower_bound's.
  if (Needs.PackedSearch)
    Out += R"(static int64_t cvg_lower_bound_packed(const int32_t *restrict buf,
                                       int64_t n, int64_t arity,
                                       const int64_t *restrict widths,
                                       const int64_t *restrict key) {
  uint64_t kk = 0;
  for (int64_t d = 0; d < arity; d++)
    kk = (kk << widths[d]) | (uint64_t)(uint32_t)(int32_t)key[d];
  int64_t lo = 0, hi = n;
  while (lo < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    const int32_t *t = buf + mid * arity;
    uint64_t mk = 0;
    for (int64_t d = 0; d < arity; d++)
      mk = (mk << widths[d]) | (uint64_t)(uint32_t)t[d];
    if (mk < kk)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

)";
  // Packed-key widths are computed from the extents at run time (the rule
  // of ir::bitWidthOf), so one object serves every shape that packs.
  if (Needs.BitWidth)
    Out += R"(static int64_t cvg_bit_width(int64_t extent) {
  int64_t w = 0;
  while (w < 63 && ((int64_t)1 << w) < extent)
    w++;
  return w;
}

)";
  // The phase clock. Each call adds into the slot array its caller passes
  // (or reads no clock for NULL), so a loaded object holds no mutable
  // state and two handles of one object never share a total.
  Out += "static double cvg_now(void) {\n"
         "  struct timespec cvg_ts;\n"
         "  clock_gettime(CLOCK_MONOTONIC, &cvg_ts);\n"
         "  return (double)cvg_ts.tv_sec + 1e-9 * (double)cvg_ts.tv_nsec;\n"
         "}\n\n";
  // Every routine declares the runtime table, so its layout is part of
  // every disk-object hash.
  Out += cTensorStructDecl() + "\n" + cRuntimeTableDecl();
  Out += "\nvoid " + F.Name +
         "(const cvg_runtime_t *cvg_rt, const cvg_tensor_t *restrict A,\n" +
         std::string(F.Name.size() + 6, ' ') +
         "cvg_tensor_t *restrict B, double *cvg_phase) {\n";
  for (const Param &P : F.Params)
    Out += bindParam(P);
  Out += "  double cvg_phase_t0 = 0;\n\n";
  Out += printStmtAsC(F.Body, 1);
  Out += "}\n";
  return Out;
}
