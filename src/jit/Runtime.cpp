//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "jit/Runtime.h"

#include "support/Assert.h"

#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

using namespace convgen;

namespace {

struct FreeDeleter {
  void operator()(void *P) const { std::free(P); }
};
template <class T> using HeapArray = std::unique_ptr<T[], FreeDeleter>;

/// Uninitialized scratch of \p N elements. The routine ABI has no way to
/// report a failed allocation, so running out of memory here is fatal.
template <class T> HeapArray<T> allocate(int64_t N) {
  void *P = std::malloc(static_cast<size_t>(N > 0 ? N : 1) * sizeof(T));
  if (!P)
    fatalError("convgen runtime: out of memory");
  return HeapArray<T>(static_cast<T *>(P));
}

/// The first index of block \p B when [0, \p N) is cut into \p P blocks:
/// the blocking depends on P alone, never on the thread count.
inline int64_t blockBegin(int64_t N, int64_t B, int64_t P) {
  return N * B / P;
}

/// Tuple lengths are instantiated for the arities CSF-like targets use, so
/// the compiler unrolls the per-component loops and inlines the tuple
/// copies, as it did when every routine carried its own copy of this code
/// with the arity as a literal: without it, the prefix compaction of 40k
/// tuples ran 3x slower. Fixed = 0 reads the run-time length instead.
template <int Fixed> struct Arity {
  int64_t Runtime;
  int64_t operator()() const { return Fixed > 0 ? Fixed : Runtime; }
};

/// Calls \p Fn with an Arity<1..3> for those lengths, Arity<0> otherwise.
template <class F> auto withArity(int64_t N, F Fn) {
  switch (N) {
  case 1:
    return Fn(Arity<1>{N});
  case 2:
    return Fn(Arity<2>{N});
  case 3:
    return Fn(Arity<3>{N});
  default:
    return Fn(Arity<0>{N});
  }
}

template <int Fixed>
int tupleCmp(const int32_t *A, const int32_t *B, Arity<Fixed> Len) {
  for (int64_t I = 0; I < Len(); I++)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

template <int Fixed>
void copyTuple(int32_t *Dst, const int32_t *Src, Arity<Fixed> Len) {
  std::memcpy(Dst, Src, static_cast<size_t>(Len()) * sizeof(int32_t));
}

/// The blocked two-pass inclusive scan: each partition reduces its block,
/// a serial pass turns block totals into carries, and a second parallel
/// pass rewrites every block from its carry. The combine (int32 addition,
/// or max from identity 0) is associative, so the result equals the
/// serial left-to-right scan for any partition count.
template <class Combine>
void blockedScan(int32_t *X, int64_t N, int64_t P, Combine Op) {
  if (P > N)
    P = N;
  if (P <= 1) {
    int32_t Acc = 0;
    for (int64_t K = 0; K < N; K++)
      X[K] = Acc = Op(Acc, X[K]);
    return;
  }
  HeapArray<int32_t> Sums = allocate<int32_t>(P);
#pragma omp parallel for if (P > 1)
  for (int64_t B = 0; B < P; B++) {
    int32_t Acc = 0;
    for (int64_t K = blockBegin(N, B, P); K < blockBegin(N, B + 1, P); K++)
      Acc = Op(Acc, X[K]);
    Sums[B] = Acc;
  }
  int32_t Carry = 0;
  for (int64_t B = 0; B < P; B++) {
    int32_t T = Sums[B];
    Sums[B] = Carry;
    Carry = Op(Carry, T);
  }
#pragma omp parallel for if (P > 1)
  for (int64_t B = 0; B < P; B++) {
    int32_t Acc = Sums[B];
    for (int64_t K = blockBegin(N, B, P); K < blockBegin(N, B + 1, P); K++)
      X[K] = Acc = Op(Acc, X[K]);
  }
}

template <int Fixed>
void mergeTuples(int32_t *Dst, const int32_t *Src, int64_t Lo, int64_t Mid,
                 int64_t Hi, Arity<Fixed> Len) {
  const int64_t A = Len();
  int64_t I = Lo, J = Mid, K = Lo;
  while (I < Mid && J < Hi) {
    if (tupleCmp(Src + I * A, Src + J * A, Len) <= 0)
      copyTuple(Dst + (K++) * A, Src + (I++) * A, Len);
    else
      copyTuple(Dst + (K++) * A, Src + (J++) * A, Len);
  }
  if (I < Mid)
    std::memcpy(Dst + K * A, Src + I * A,
                static_cast<size_t>((Mid - I) * A) * sizeof(int32_t));
  if (J < Hi)
    std::memcpy(Dst + (K + (Mid - I)) * A, Src + J * A,
                static_cast<size_t>((Hi - J) * A) * sizeof(int32_t));
}

/// True when sorted tuple \p I of stride \p SrcArity starts a new run of
/// distinct leading \p Len components.
template <int Fixed>
bool firstOfPrefix(const int32_t *Src, int64_t I, int64_t SrcArity,
                   Arity<Fixed> Len) {
  return I == 0 ||
         tupleCmp(Src + I * SrcArity, Src + (I - 1) * SrcArity, Len) != 0;
}

/// Bottom-up merge sort whose per-width merge passes run in parallel (each
/// pass's output is fully determined by its input, so the sorted sequence
/// does not depend on the thread count), then one serial pass that copies
/// the sorted tuples back into \p Buf, dropping adjacent duplicates — in
/// place when the last merge pass landed in Buf.
template <int Fixed>
int64_t sortUniqueTuples(int32_t *Buf, int64_t N, Arity<Fixed> Len,
                         int64_t P) {
  const int64_t A = Len();
  HeapArray<int32_t> Tmp = allocate<int32_t>(N * A);
  int32_t *Src = Buf, *Dst = Tmp.get();
  for (int64_t Width = 1; Width < N; Width *= 2) {
#pragma omp parallel for if (P > 1)
    for (int64_t Lo = 0; Lo < N; Lo += 2 * Width) {
      int64_t Mid = Lo + Width < N ? Lo + Width : N;
      int64_t Hi = Lo + 2 * Width < N ? Lo + 2 * Width : N;
      mergeTuples(Dst, Src, Lo, Mid, Hi, Len);
    }
    std::swap(Src, Dst);
  }
  int64_t U = 0;
  for (int64_t I = 0; I < N; I++) {
    if (U > 0 && tupleCmp(Src + I * A, Buf + (U - 1) * A, Len) == 0)
      continue;
    if (Src + I * A != Buf + U * A)
      copyTuple(Buf + U * A, Src + I * A, Len);
    U++;
  }
  return U;
}

template <int Fixed>
int64_t uniquePrefix(const int32_t *Src, int64_t N, int64_t SrcArity,
                     int32_t *Dst, Arity<Fixed> Len, int64_t P) {
  const int64_t A = Len();
  if (P > N)
    P = N;
  if (P <= 1) {
    int64_t U = 0;
    for (int64_t I = 0; I < N; I++)
      if (firstOfPrefix(Src, I, SrcArity, Len))
        copyTuple(Dst + (U++) * A, Src + I * SrcArity, Len);
    return U;
  }
  HeapArray<int64_t> Offs = allocate<int64_t>(P + 1);
#pragma omp parallel for if (P > 1)
  for (int64_t B = 0; B < P; B++) {
    int64_t Firsts = 0;
    for (int64_t I = blockBegin(N, B, P); I < blockBegin(N, B + 1, P); I++)
      Firsts += firstOfPrefix(Src, I, SrcArity, Len);
    Offs[B + 1] = Firsts;
  }
  Offs[0] = 0;
  for (int64_t B = 0; B < P; B++)
    Offs[B + 1] += Offs[B];
#pragma omp parallel for if (P > 1)
  for (int64_t B = 0; B < P; B++) {
    int64_t U = Offs[B];
    for (int64_t I = blockBegin(N, B, P); I < blockBegin(N, B + 1, P); I++)
      if (firstOfPrefix(Src, I, SrcArity, Len))
        copyTuple(Dst + (U++) * A, Src + I * SrcArity, Len);
  }
  return Offs[P];
}

/// Packed-key LSD radix sort. Each tuple packs into one uint64 key
/// (widths the routine computes from the extents, so every coordinate fits
/// its component),
/// so unsigned key order is lexicographic tuple order and the tuples
/// unpack exactly from the sorted keys. Digit counts are a pure function
/// of the key multiset, so one upfront sweep prices every 11-bit pass (6
/// cover 64 bits; 2048 buckets still fit the cache): passes whose digit is
/// constant are skipped, and the one-partition scatter reuses those counts
/// as its bases with no per-pass counting sweep. Multi-partition passes
/// rebuild per-partition histograms over a fixed blocking of [0, N) and
/// turn them into scatter bases with one serial (digit, partition) offset
/// scan. Every pass is a stable scatter, and a stable LSD sort's output is
/// determined by the input multiset, so any partition count gives the same
/// buffer. The rank payload rides the same stable scatters, so RankOut is
/// deterministic too: it equals a binary search of the slot's tuple in the
/// deduped list.
template <int Fixed>
int64_t radixSortPacked(int32_t *Buf, int64_t N, Arity<Fixed> Len,
                        const int64_t *Widths, int32_t *RankOut, int64_t P) {
  const int64_t A = Len();
  if (N <= 0)
    return 0;
  if (N == 1) {
    if (RankOut)
      RankOut[0] = 0;
    return 1;
  }
  if (P > N)
    P = N;
  if (P < 1)
    P = 1;
  int64_t TotalBits = 0;
  for (int64_t D = 0; D < A; D++)
    TotalBits += Widths[D];
  HeapArray<uint64_t> KeysOwner = allocate<uint64_t>(N);
  HeapArray<uint64_t> AuxOwner = allocate<uint64_t>(N);
  uint64_t *Keys = KeysOwner.get(), *Aux = AuxOwner.get();
  // With RankOut, each tuple carries its source slot as a payload so
  // that, once sorted and deduped, RankOut[slot] is the tuple's index in
  // the unique list.
  HeapArray<int32_t> IdxOwner, IauxOwner;
  int32_t *Idx = nullptr, *Iaux = nullptr;
  if (RankOut) {
    IdxOwner = allocate<int32_t>(N);
    IauxOwner = allocate<int32_t>(N);
    Idx = IdxOwner.get();
    Iaux = IauxOwner.get();
  }
#pragma omp parallel for if (P > 1)
  for (int64_t I = 0; I < N; I++) {
    uint64_t K = 0;
    for (int64_t D = 0; D < A; D++)
      K = (K << Widths[D]) | static_cast<uint32_t>(Buf[I * A + D]);
    Keys[I] = K;
    if (Idx)
      Idx[I] = static_cast<int32_t>(I);
  }
  constexpr int64_t Bits = 11, Size = int64_t(1) << Bits;
  int64_t Passes = (TotalBits + Bits - 1) / Bits;
  HeapArray<int64_t> PartTotals = allocate<int64_t>(P * Passes * Size);
#pragma omp parallel for if (P > 1)
  for (int64_t B = 0; B < P; B++) {
    int64_t *H = PartTotals.get() + B * Passes * Size;
    std::memset(H, 0, static_cast<size_t>(Passes * Size) * sizeof(int64_t));
    for (int64_t I = blockBegin(N, B, P); I < blockBegin(N, B + 1, P); I++) {
      uint64_t K = Keys[I];
      for (int64_t Pass = 0; Pass < Passes; Pass++, K >>= Bits)
        H[Pass * Size + (K & (Size - 1))]++;
    }
  }
  HeapArray<int64_t> Totals = allocate<int64_t>(Passes * Size);
  std::memset(Totals.get(), 0,
              static_cast<size_t>(Passes * Size) * sizeof(int64_t));
  for (int64_t B = 0; B < P; B++)
    for (int64_t J = 0; J < Passes * Size; J++)
      Totals[J] += PartTotals[B * Passes * Size + J];
  PartTotals.reset();
  HeapArray<int64_t> Hist = allocate<int64_t>(P * Size);
  for (int64_t Pass = 0; Pass < Passes; Pass++) {
    int64_t Shift = Bits * Pass;
    const int64_t *Tot = Totals.get() + Pass * Size;
    bool Constant = false;
    for (int64_t Digit = 0; Digit < Size; Digit++)
      if (Tot[Digit] == N)
        Constant = true;
    if (Constant)
      continue;
    if (P == 1) {
      int64_t Base = 0;
      for (int64_t Digit = 0; Digit < Size; Digit++) {
        Hist[Digit] = Base;
        Base += Tot[Digit];
      }
      for (int64_t I = 0; I < N; I++) {
        int64_t Dst = Hist[(Keys[I] >> Shift) & (Size - 1)]++;
        Aux[Dst] = Keys[I];
        if (Idx)
          Iaux[Dst] = Idx[I];
      }
    } else {
#pragma omp parallel for if (P > 1)
      for (int64_t B = 0; B < P; B++) {
        int64_t *H = Hist.get() + B * Size;
        std::memset(H, 0, Size * sizeof(int64_t));
        for (int64_t I = blockBegin(N, B, P); I < blockBegin(N, B + 1, P); I++)
          H[(Keys[I] >> Shift) & (Size - 1)]++;
      }
      int64_t Base = 0;
      for (int64_t Digit = 0; Digit < Size; Digit++)
        for (int64_t B = 0; B < P; B++) {
          int64_t C = Hist[B * Size + Digit];
          Hist[B * Size + Digit] = Base;
          Base += C;
        }
#pragma omp parallel for if (P > 1)
      for (int64_t B = 0; B < P; B++) {
        int64_t *H = Hist.get() + B * Size;
        for (int64_t I = blockBegin(N, B, P); I < blockBegin(N, B + 1, P);
             I++) {
          int64_t Dst = H[(Keys[I] >> Shift) & (Size - 1)]++;
          Aux[Dst] = Keys[I];
          if (Idx)
            Iaux[Dst] = Idx[I];
        }
      }
    }
    std::swap(Keys, Aux);
    std::swap(Idx, Iaux);
  }
  // Fused dedup: equal packed keys are equal tuples, so compacting the
  // sorted keys before unpacking replaces a tuple-compare pass over 3x the
  // bytes. With a payload the same sweep scatters each slot's rank.
  int64_t U = 1;
  if (RankOut) {
    U = 0;
    for (int64_t I = 0; I < N; I++) {
      if (U == 0 || Keys[I] != Keys[U - 1])
        Keys[U++] = Keys[I];
      RankOut[Idx[I]] = static_cast<int32_t>(U - 1);
    }
  } else {
    for (int64_t I = 1; I < N; I++)
      if (Keys[I] != Keys[U - 1])
        Keys[U++] = Keys[I];
  }
#pragma omp parallel for if (P > 1)
  for (int64_t I = 0; I < U; I++) {
    uint64_t K = Keys[I];
    for (int64_t D = A - 1; D >= 0; D--) {
      Buf[I * A + D] =
          static_cast<int32_t>(K & ((uint64_t(1) << Widths[D]) - 1));
      K >>= Widths[D];
    }
  }
  return U;
}

} // namespace

extern "C" {

void cvg_rt_scan_sum(int32_t *x, int64_t n, int64_t p) {
  blockedScan(x, n, p, [](int32_t A, int32_t B) -> int32_t { return A + B; });
}

void cvg_rt_scan_max(int32_t *x, int64_t n, int64_t p) {
  blockedScan(x, n, p, [](int32_t A, int32_t B) { return A > B ? A : B; });
}

/// Merge sort plus dedup: see sortUniqueTuples.
int64_t cvg_rt_sort_unique_tuples(int32_t *buf, int64_t n, int64_t arity,
                                  int64_t p) {
  if (n <= 1)
    return n;
  return withArity(arity,
                   [&](auto Len) { return sortUniqueTuples(buf, n, Len, p); });
}

/// Blocked two-pass compaction: each partition counts its first-of-prefix
/// tuples (the i-1 comparison reads across partition boundaries; src is
/// const), a serial pass turns counts into write offsets, and a second
/// parallel pass copies.
int64_t cvg_rt_unique_prefix(const int32_t *src, int64_t n,
                             int64_t src_arity, int32_t *dst,
                             int64_t dst_arity, int64_t p) {
  return withArity(dst_arity, [&](auto Len) {
    return uniquePrefix(src, n, src_arity, dst, Len, p);
  });
}

/// Packed-key LSD radix sort: see radixSortPacked.
int64_t cvg_rt_radix_sort_packed(int32_t *buf, int64_t n, int64_t arity,
                                 const int64_t *widths, int32_t *rank_out,
                                 int64_t p) {
  return withArity(arity, [&](auto Len) {
    return radixSortPacked(buf, n, Len, widths, rank_out, p);
  });
}

} // extern "C"

const jit::RuntimeTable &jit::runtimeTable() {
  static const RuntimeTable Table = {
      cvg_rt_scan_sum, cvg_rt_scan_max, cvg_rt_sort_unique_tuples,
      cvg_rt_unique_prefix, cvg_rt_radix_sort_packed};
  return Table;
}
