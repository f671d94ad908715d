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

/// Whether the function body uses any sorted-ranking construct, so the
/// prelude helpers (and their OpenMP pragma) are emitted only into
/// routines that need them — keeping every other routine's emitted C (and
/// its exact parallel-loop census, which tests pin) unchanged.
static bool exprUsesSortedRanking(const Expr &E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::LowerBound)
    return true;
  for (const Expr &Arg : E->Args)
    if (exprUsesSortedRanking(Arg))
      return true;
  return exprUsesSortedRanking(E->A) || exprUsesSortedRanking(E->B) ||
         exprUsesSortedRanking(E->C);
}

static bool stmtUsesSortedRanking(const Stmt &S) {
  if (!S)
    return false;
  if (S->Kind == StmtKind::SortTuples || S->Kind == StmtKind::UniqueTuples ||
      S->Kind == StmtKind::UniquePrefix)
    return true;
  if (exprUsesSortedRanking(S->A) || exprUsesSortedRanking(S->B))
    return true;
  for (const Stmt &Sub : S->Stmts)
    if (stmtUsesSortedRanking(Sub))
      return true;
  return stmtUsesSortedRanking(S->Body) || stmtUsesSortedRanking(S->Else);
}

/// Whether the body contains a packed SortTuples, so cvg_radix_sort_packed
/// is emitted only into routines that call it — merge-sorting routines'
/// emitted C stays byte-identical to what the goldens pin.
static bool stmtUsesPackedSort(const Stmt &S) {
  if (!S)
    return false;
  if (S->Kind == StmtKind::SortTuples && !S->PackWidths.empty())
    return true;
  for (const Stmt &Sub : S->Stmts)
    if (stmtUsesPackedSort(Sub))
      return true;
  return stmtUsesPackedSort(S->Body) || stmtUsesPackedSort(S->Else);
}

/// Whether the body contains an unpacked SortTuples — only those call the
/// merge-sort helpers, so packed-only routines skip them.
static bool stmtUsesUnpackedSort(const Stmt &S) {
  if (!S)
    return false;
  if (S->Kind == StmtKind::SortTuples && S->PackWidths.empty())
    return true;
  for (const Stmt &Sub : S->Stmts)
    if (stmtUsesUnpackedSort(Sub))
      return true;
  return stmtUsesUnpackedSort(S->Body) || stmtUsesUnpackedSort(S->Else);
}

/// Whether the body contains a packed LowerBound, so cvg_lower_bound_packed
/// is emitted only into routines that call it.
static bool exprUsesPackedSearch(const Expr &E) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::LowerBound && !E->PackWidths.empty())
    return true;
  for (const Expr &Arg : E->Args)
    if (exprUsesPackedSearch(Arg))
      return true;
  return exprUsesPackedSearch(E->A) || exprUsesPackedSearch(E->B) ||
         exprUsesPackedSearch(E->C);
}

static bool stmtUsesPackedSearch(const Stmt &S) {
  if (!S)
    return false;
  if (exprUsesPackedSearch(S->A) || exprUsesPackedSearch(S->B))
    return true;
  for (const Stmt &Sub : S->Stmts)
    if (stmtUsesPackedSearch(Sub))
      return true;
  return stmtUsesPackedSearch(S->Body) || stmtUsesPackedSearch(S->Else);
}

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
  // Sorted-ranking helpers: a lexicographic tuple comparator, a bottom-up
  // merge sort whose per-width merge passes parallelize under OpenMP (the
  // result is the fully sorted sequence, so any thread count — and the
  // interpreter's serial oracle — produce bit-identical buffers), a serial
  // adjacent-duplicate compaction, and a binary search returning the rank
  // of a key tuple. Tuples are `arity` consecutive int32 elements.
  bool UsesSorted = stmtUsesSortedRanking(F.Body);
  if (UsesSorted)
    Out += R"(static int cvg_tuple_cmp(const int32_t *a, const int32_t *b,
                         int64_t arity) {
  for (int64_t i = 0; i < arity; i++) {
    if (a[i] != b[i])
      return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}
)";
  // The comparison merge sort: only unpacked SortTuples call it, so a
  // routine whose every sort is packed carries no dead merge machinery.
  if (stmtUsesUnpackedSort(F.Body))
    Out += R"(static void cvg_merge_tuples(int32_t *dst, const int32_t *src, int64_t lo,
                             int64_t mid, int64_t hi, int64_t arity) {
  int64_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi) {
    if (cvg_tuple_cmp(src + i * arity, src + j * arity, arity) <= 0)
      memcpy(dst + (k++) * arity, src + (i++) * arity,
             (size_t)arity * sizeof(int32_t));
    else
      memcpy(dst + (k++) * arity, src + (j++) * arity,
             (size_t)arity * sizeof(int32_t));
  }
  if (i < mid)
    memcpy(dst + k * arity, src + i * arity,
           (size_t)((mid - i) * arity) * sizeof(int32_t));
  if (j < hi)
    memcpy(dst + (k + (mid - i)) * arity, src + j * arity,
           (size_t)((hi - j) * arity) * sizeof(int32_t));
}
static void cvg_sort_tuples(int32_t *buf, int64_t n, int64_t arity) {
  if (n <= 1)
    return;
  int32_t *tmp = (int32_t *)malloc((size_t)(n * arity) * sizeof(int32_t));
  int32_t *src = buf, *dst = tmp;
  for (int64_t width = 1; width < n; width *= 2) {
    #pragma omp parallel for
    for (int64_t lo = 0; lo < n; lo += 2 * width) {
      int64_t mid = cvg_min(lo + width, n);
      int64_t hi = cvg_min(lo + 2 * width, n);
      cvg_merge_tuples(dst, src, lo, mid, hi, arity);
    }
    int32_t *swap = src;
    src = dst;
    dst = swap;
  }
  if (src != buf)
    memcpy(buf, src, (size_t)(n * arity) * sizeof(int32_t));
  free(tmp);
}
)";
  if (UsesSorted)
    Out += R"(static int64_t cvg_unique_tuples(int32_t *buf, int64_t n, int64_t arity) {
  int64_t u = 0;
  for (int64_t i = 0; i < n; i++) {
    if (u > 0 &&
        cvg_tuple_cmp(buf + i * arity, buf + (u - 1) * arity, arity) == 0)
      continue;
    if (u != i)
      memcpy(buf + u * arity, buf + i * arity,
             (size_t)arity * sizeof(int32_t));
    u++;
  }
  return u;
}
static int64_t cvg_lower_bound(const int32_t *buf, int64_t n, int64_t arity,
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
/* Compacts the distinct leading dst_arity components of the n sorted
 * src tuples (arity src_arity) into dst, preserving order. Blocked
 * two-pass compaction: each partition counts its first-of-prefix tuples
 * (the i-1 comparison reads across partition boundaries, src is const),
 * a serial pass turns counts into write offsets, and a second parallel
 * pass copies. The output never depends on the partition count, so any
 * thread count (and the interpreter's serial oracle) agree exactly. */
static int64_t cvg_unique_prefix(const int32_t *src, int64_t n,
                                 int64_t src_arity, int32_t *dst,
                                 int64_t dst_arity) {
  int64_t p = cvg_nparts();
  if (p > n)
    p = n;
  if (p <= 1) {
    int64_t u = 0;
    for (int64_t i = 0; i < n; i++) {
      if (i > 0 && cvg_tuple_cmp(src + i * src_arity,
                                 src + (i - 1) * src_arity, dst_arity) == 0)
        continue;
      memcpy(dst + (u++) * dst_arity, src + i * src_arity,
             (size_t)dst_arity * sizeof(int32_t));
    }
    return u;
  }
  int64_t *offs = (int64_t *)malloc((size_t)(p + 1) * sizeof(int64_t));
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t firsts = 0;
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      if (i == 0 || cvg_tuple_cmp(src + i * src_arity,
                                  src + (i - 1) * src_arity, dst_arity) != 0)
        firsts++;
    offs[b + 1] = firsts;
  }
  offs[0] = 0;
  for (int64_t b = 0; b < p; b++)
    offs[b + 1] += offs[b];
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t u = offs[b];
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      if (i == 0 || cvg_tuple_cmp(src + i * src_arity,
                                  src + (i - 1) * src_arity, dst_arity) != 0)
        memcpy(dst + (u++) * dst_arity, src + i * src_arity,
               (size_t)dst_arity * sizeof(int32_t));
  }
  int64_t total = offs[p];
  free(offs);
  return total;
}
)";
  // Packed-key LSD radix sort: each arity-component tuple packs into one
  // uint64_t key (component 0 most significant, widths chosen by the
  // planner so the total fits 64 bits and every coordinate fits its
  // component), so unsigned key order equals lexicographic tuple order and
  // the tuples reconstruct exactly from the sorted keys. Digit counts are
  // a pure function of the key multiset, not of the arrangement, so one
  // upfront sweep prices every 11-bit-digit pass (6 passes cover 64 bits;
  // 2048 scatter buckets still fit the cache): passes whose digit is
  // constant
  // are skipped outright, and the single-partition scatter reuses the
  // counts as its stable bases with no per-pass counting sweep (the
  // dominant layout on one CPU). Multi-partition passes rebuild
  // per-partition histograms over a fixed blocking of [0, n) — those DO
  // depend on the arrangement — and turn them into scatter bases with one
  // serial (digit, partition) offset scan. Either way every pass is a
  // stable scatter, and a stable LSD sort's output is uniquely determined
  // by the input multiset, so any partition count (and the interpreter's
  // serial oracle) produce bit-identical buffers by construction. The
  // rank_out payload rides the same stable scatters, so each slot's
  // position after the final pass — and therefore its dedup rank — is the
  // unique stable-sort position: rank_out is deterministic too, equal to
  // a binary search of the slot's tuple in the deduped list.
  if (stmtUsesPackedSort(F.Body))
    Out += R"(static int64_t cvg_radix_sort_packed(int32_t *restrict buf, int64_t n,
                                     int64_t arity,
                                     const int64_t *restrict widths,
                                     int32_t *restrict rank_out) {
  if (n <= 0)
    return 0;
  if (n == 1) {
    if (rank_out)
      rank_out[0] = 0;
    return 1;
  }
  int64_t total_bits = 0;
  for (int64_t d = 0; d < arity; d++)
    total_bits += widths[d];
  uint64_t *keys = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
  uint64_t *aux = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
  /* rank_out: the sort carries each tuple's source slot as a payload so
     that, once sorted and deduped, it can scatter rank_out[slot] = the
     tuple's index in the unique list — the same value a post-sort binary
     search for that tuple would return, precomputed for every slot. */
  int32_t *idx = NULL, *iaux = NULL;
  if (rank_out) {
    idx = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    iaux = (int32_t *)malloc((size_t)n * sizeof(int32_t));
  }
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++) {
    uint64_t k = 0;
    for (int64_t d = 0; d < arity; d++)
      k = (k << widths[d]) | (uint64_t)(uint32_t)buf[i * arity + d];
    keys[i] = k;
    if (idx)
      idx[i] = (int32_t)i;
  }
  int64_t p = cvg_nparts();
  if (p > n)
    p = n;
  if (p < 1)
    p = 1;
  enum { CVG_RADIX_BITS = 11, CVG_RADIX_SIZE = 1 << CVG_RADIX_BITS };
  int64_t passes =
      (total_bits + CVG_RADIX_BITS - 1) / CVG_RADIX_BITS;
  int64_t *ptot = (int64_t *)malloc(
      (size_t)(p * passes * CVG_RADIX_SIZE) * sizeof(int64_t));
  #pragma omp parallel for
  for (int64_t b = 0; b < p; b++) {
    int64_t *h = ptot + b * passes * CVG_RADIX_SIZE;
    memset(h, 0, (size_t)(passes * CVG_RADIX_SIZE) * sizeof(int64_t));
    for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
      for (int64_t pass = 0; pass < passes; pass++)
        h[pass * CVG_RADIX_SIZE +
          ((keys[i] >> (CVG_RADIX_BITS * pass)) & (CVG_RADIX_SIZE - 1))]++;
  }
  int64_t *totals = (int64_t *)calloc((size_t)(passes * CVG_RADIX_SIZE),
                                      sizeof(int64_t));
  for (int64_t b = 0; b < p; b++)
    for (int64_t j = 0; j < passes * CVG_RADIX_SIZE; j++)
      totals[j] += ptot[b * passes * CVG_RADIX_SIZE + j];
  free(ptot);
  int64_t *hist =
      (int64_t *)malloc((size_t)(p * CVG_RADIX_SIZE) * sizeof(int64_t));
  for (int64_t pass = 0; pass < passes; pass++) {
    int64_t shift = CVG_RADIX_BITS * pass;
    const int64_t *tot = totals + pass * CVG_RADIX_SIZE;
    int64_t constant = 0;
    for (int64_t digit = 0; digit < CVG_RADIX_SIZE; digit++)
      if (tot[digit] == n)
        constant = 1;
    if (constant)
      continue;
    if (p == 1) {
      int64_t base = 0;
      for (int64_t digit = 0; digit < CVG_RADIX_SIZE; digit++) {
        hist[digit] = base;
        base += tot[digit];
      }
      for (int64_t i = 0; i < n; i++) {
        int64_t dst = hist[(keys[i] >> shift) & (CVG_RADIX_SIZE - 1)]++;
        aux[dst] = keys[i];
        if (idx)
          iaux[dst] = idx[i];
      }
    } else {
      #pragma omp parallel for
      for (int64_t b = 0; b < p; b++) {
        int64_t *h = hist + b * CVG_RADIX_SIZE;
        memset(h, 0, CVG_RADIX_SIZE * sizeof(int64_t));
        for (int64_t i = n * b / p; i < n * (b + 1) / p; i++)
          h[(keys[i] >> shift) & (CVG_RADIX_SIZE - 1)]++;
      }
      int64_t base = 0;
      for (int64_t digit = 0; digit < CVG_RADIX_SIZE; digit++)
        for (int64_t b = 0; b < p; b++) {
          int64_t c = hist[b * CVG_RADIX_SIZE + digit];
          hist[b * CVG_RADIX_SIZE + digit] = base;
          base += c;
        }
      #pragma omp parallel for
      for (int64_t b = 0; b < p; b++) {
        int64_t *h = hist + b * CVG_RADIX_SIZE;
        for (int64_t i = n * b / p; i < n * (b + 1) / p; i++) {
          int64_t dst = h[(keys[i] >> shift) & (CVG_RADIX_SIZE - 1)]++;
          aux[dst] = keys[i];
          if (idx)
            iaux[dst] = idx[i];
        }
      }
    }
    uint64_t *swap = keys;
    keys = aux;
    aux = swap;
    if (idx) {
      int32_t *iswap = idx;
      idx = iaux;
      iaux = iswap;
    }
  }
  free(hist);
  free(totals);
  free(aux);
  /* Fused dedup: equal packed keys are equal tuples, so compacting the
     sorted keys before unpacking replaces the tuple-compare compaction
     pass a separate cvg_unique_tuples would run over 3x the bytes. With a
     payload the same sweep scatters each slot's rank. */
  if (rank_out) {
    int64_t u = 0;
    for (int64_t i = 0; i < n; i++) {
      if (u == 0 || keys[i] != keys[u - 1]) {
        keys[u] = keys[i];
        u++;
      }
      rank_out[idx[i]] = (int32_t)(u - 1);
    }
    n = u;
    free(idx);
    free(iaux);
  } else {
    int64_t u = 1;
    for (int64_t i = 1; i < n; i++)
      if (keys[i] != keys[u - 1])
        keys[u++] = keys[i];
    n = u;
  }
  #pragma omp parallel for
  for (int64_t i = 0; i < n; i++) {
    uint64_t k = keys[i];
    for (int64_t d = arity - 1; d >= 0; d--) {
      buf[i * arity + d] =
          (int32_t)(k & ((widths[d] >= 64 ? 0 : (1ull << widths[d])) - 1));
      k >>= widths[d];
    }
  }
  free(keys);
  return n;
}

)";
  // Packed-key binary search: when the planner proved the searched tuples
  // pack into 64 bits, each probe step packs the probed tuple and compares
  // one uint64_t against the pre-packed key — the branch-free equivalent of
  // the cvg_tuple_cmp loop, and the insertion phase's per-nonzero get_pos
  // cost drops accordingly. Unsigned packed order equals lexicographic
  // order whenever every stored coordinate fits its width (the same
  // contract as cvg_radix_sort_packed), so the result index is identical
  // to cvg_lower_bound's.
  if (stmtUsesPackedSearch(F.Body))
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
  // Per-phase wall-clock accumulators; <fn>_phase_seconds exposes them to
  // the benchmark harness (slots: analysis, edge insertion, insertion,
  // finalize). Thread-local so concurrent runs of a PlanCache-shared
  // routine never race: each caller thread accumulates (and reads back)
  // its own clock.
  Out += "static double cvg_now(void) {\n"
         "  struct timespec cvg_ts;\n"
         "  clock_gettime(CLOCK_MONOTONIC, &cvg_ts);\n"
         "  return (double)cvg_ts.tv_sec + 1e-9 * (double)cvg_ts.tv_nsec;\n"
         "}\n"
         "static _Thread_local double cvg_phase_secs[8];\n"
         "static _Thread_local double cvg_phase_t0;\n\n";
  Out += cTensorStructDecl();
  Out += "\ndouble *" + F.Name + "_phase_seconds(void) {\n"
         "  return cvg_phase_secs;\n}\n";
  Out += "\nvoid " + F.Name +
         "(const cvg_tensor_t *restrict A, cvg_tensor_t *restrict B) {\n";
  for (const Param &P : F.Params)
    Out += bindParam(P);
  Out += "\n";
  Out += printStmtAsC(F.Body, 1);
  Out += "}\n";
  return Out;
}
