//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prebuilt support runtime of generated sorted-ranking routines:
/// blocked prefix scans, the tuple merge sort with its dedup, the
/// unique-prefix compaction and the packed-key radix sort. It is compiled
/// once into libconvgen, so a routine that needs it carries a call instead
/// of ~380 lines of C the JIT would recompile on every cold plan — the
/// same split MLIR's sparse compiler makes between kernels and its
/// runtime library.
///
/// Every routine takes the table as its first argument
/// (`const cvg_runtime_t *cvg_rt`); JitConversion passes runtimeTable()
/// on each call, so a loaded object holds no runtime state. The routine
/// passes its partition count (`cvg_nparts()`) as `p` to every entry that
/// has a parallel loop, and each such loop runs in parallel only when
/// p > 1: a routine compiled without OpenMP never opens a team here. Every
/// entry's result is independent of p, so any thread count — and the
/// reference interpreter, which never calls this runtime — produce
/// bit-identical buffers.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_JIT_RUNTIME_H
#define CONVGEN_JIT_RUNTIME_H

#include <cstdint>

extern "C" {

/// In-place inclusive prefix sum of x[0:n]: x[k] = x[0] + ... + x[k].
void cvg_rt_scan_sum(int32_t *x, int64_t n, int64_t p);

/// In-place inclusive prefix max of x[0:n] from identity 0:
/// x[k] = max(0, x[0], ..., x[k]).
void cvg_rt_scan_max(int32_t *x, int64_t n, int64_t p);

/// Sorts the n tuples of \p arity consecutive int32 elements in \p buf
/// lexicographically (bottom-up merge sort), compacts adjacent duplicates
/// to the front and returns the number of distinct tuples.
int64_t cvg_rt_sort_unique_tuples(int32_t *buf, int64_t n, int64_t arity,
                                  int64_t p);

/// Writes the distinct leading \p dst_arity components of the n sorted
/// \p src tuples (arity \p src_arity) to \p dst in order; returns their
/// count.
int64_t cvg_rt_unique_prefix(const int32_t *src, int64_t n,
                             int64_t src_arity, int32_t *dst,
                             int64_t dst_arity, int64_t p);

/// Sorts and dedups the n tuples of \p buf through packed uint64 keys
/// (component d takes widths[d] <= 32 bits, component 0 most significant,
/// at most 64 bits in all; every coordinate fits its width) and returns
/// the distinct count. A non-null \p rank_out receives, for every input
/// slot, its tuple's index in the deduped list.
int64_t cvg_rt_radix_sort_packed(int32_t *buf, int64_t n, int64_t arity,
                                 const int64_t *widths, int32_t *rank_out,
                                 int64_t p);

} // extern "C"

namespace convgen {
namespace jit {

/// Bit-compatible with the cvg_runtime_t table the C emitter declares
/// (ir::cRuntimeTableDecl); the field order is the ABI.
struct RuntimeTable {
  void (*scan_sum)(int32_t *, int64_t, int64_t);
  void (*scan_max)(int32_t *, int64_t, int64_t);
  int64_t (*sort_unique_tuples)(int32_t *, int64_t, int64_t, int64_t);
  int64_t (*unique_prefix)(const int32_t *, int64_t, int64_t, int32_t *,
                           int64_t, int64_t);
  int64_t (*radix_sort_packed)(int32_t *, int64_t, int64_t, const int64_t *,
                               int32_t *, int64_t);
};

/// The process-wide table JitConversion passes to every routine call.
const RuntimeTable &runtimeTable();

} // namespace jit
} // namespace convgen

#endif // CONVGEN_JIT_RUNTIME_H
