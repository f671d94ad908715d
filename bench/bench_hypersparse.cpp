//===----------------------------------------------------------------------===//
// Huge-dimension hyper-sparse benchmark: the workload class the
// sorted-ranking strategy opens. A coo3 tensor with a 2^31-extent mode
// cannot go through dense rank-array assembly at all (the rank array alone
// would be 5 * 2^31 bytes — the planner reports the size-grounds verdict,
// printed below), while the sorted path converts it with O(nnz)
// workspaces; the nnz sweep demonstrates the cost tracking nnz rather than
// any dimension extent.
//
// A second leg runs the same conversion at dimensions whose coordinate
// tuple packs into 64 bits (2^24 x 2^20 x 2^20 = exactly 64 key bits —
// still far past the dense-rank budget, so every level stays sorted),
// where the plan lowers the shared sort to the fused packed-key LSD radix
// sort + dedup whose source-slot payload precomputes every insertion rank
// (no searches at all); at 2^31 the tuple cannot pack and the plan merge-
// sorts. Both choices follow from the extents alone. Every row carries
// the routine's own per-phase seconds (analysis / edge_insert /
// insertion / finalize plus the sorted-ranking sub-phases collect / sort
// / pos / crd), so a change is attributable to a phase, not smeared over
// the whole conversion.
//
// The per-level-sort, hashed-presence and packed-merge variants this bench
// once compared are gone from the library; their recorded numbers stay in
// the checked-in BENCH_hypersparse.json as the historical record.
//
// Emits a human-readable table and machine-readable BENCH_hypersparse.json.
// Environment: CONVGEN_BENCH_SCALE / CONVGEN_BENCH_REPS as usual; scale
// 1.0 runs the full 10^6-nonzero point, the default 0.2 a 200k smoke
// point.
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/StringUtils.h"
#include "tensor/Generators.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace convgen;
using namespace convgen::bench;

namespace {

int64_t scaled(int64_t V) {
  return std::max<int64_t>(
      64, static_cast<int64_t>(static_cast<double>(V) * benchScale()));
}

const char *const kPhaseNames[jit::kNumPhases] = {
    "analysis", "edge_insert", "insertion", "finalize",
    "collect",  "sort",        "pos",       "crd"};

std::string phasesJson(const double Phases[jit::kNumPhases]) {
  std::string S = "{";
  for (int P = 0; P < jit::kNumPhases; ++P)
    S += strfmt("%s\"%s\": %.6f", P ? ", " : "", kPhaseNames[P], Phases[P]);
  return S + "}";
}

/// Times coo3->csf at \p Dims, prints the table row and records the JSON
/// row (with the per-phase breakdown).
void runRow(const char *Variant, const std::vector<int64_t> &Dims,
            const tensor::SparseTensor &In, int64_t Nnz, const char *Leg,
            BenchReport &Report) {
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");
  codegen::Options Opts = codegen::optionsForDims(Coo3, Csf, {}, Dims);
  const jit::JitConversion &Fwd = jitConversion("coo3", "csf", Opts);
  double Phases[jit::kNumPhases] = {};
  TimeStats S = timeJitWithPhases(Fwd, In, Phases);
  std::string Label = strfmt("%s.%lldk.%s", Leg,
                             static_cast<long long>(Nnz / 1000), Variant);
  double NsPerNnz =
      Nnz ? S.MedianSeconds * 1e9 / static_cast<double>(Nnz) : 0;
  std::printf("%-26s %12.3f %12.3f %14.1f\n", Label.c_str(),
              S.MedianSeconds * 1e3, S.MinSeconds * 1e3, NsPerNnz);
  std::printf("  phases:");
  for (int P = 0; P < jit::kNumPhases; ++P)
    std::printf(" %s %.3fms", kPhaseNames[P], Phases[P] * 1e3);
  std::printf("\n");
  Report.add(strfmt("{\"label\": \"%s\", \"variant\": \"%s\", "
                    "\"nnz\": %lld, \"median_seconds\": %.6g, "
                    "\"min_seconds\": %.6g, \"ns_per_nnz\": %.1f, "
                    "\"phases\": %s}",
                    Label.c_str(), Variant, static_cast<long long>(Nnz),
                    S.MedianSeconds, S.MinSeconds, NsPerNnz,
                    phasesJson(Phases).c_str()));
}

} // namespace

int main() {
  if (!jit::jitAvailable()) {
    std::fprintf(stderr, "bench_hypersparse: no system C compiler\n");
    return 1;
  }
  BenchReport Report("BENCH_hypersparse.json");
  Report.metaStr("bench", "hypersparse");
  Report.meta("openmp", jit::jitOpenMPAvailable() ? "true" : "false");
  Report.meta("rank_dense_max_bytes",
              strfmt("%lld", static_cast<long long>(
                                 codegen::rankDenseMaxBytes())));

  const std::vector<int64_t> Dims = {int64_t(1) << 31, int64_t(1) << 20,
                                     int64_t(1) << 20};
  // 24 + 20 + 20 = 64 key bits: the largest extents whose coordinate
  // tuple still packs into one uint64_t, and still 5 * 2^24 bytes past the
  // dense-rank budget, so the plan keeps every CSF level sorted.
  const std::vector<int64_t> PackedDims = {int64_t(1) << 24,
                                           int64_t(1) << 20,
                                           int64_t(1) << 20};
  formats::Format Coo3 = formats::standardFormatOrDie("coo3");
  formats::Format Csf = formats::standardFormatOrDie("csf");

  // The dense path is genuinely rejected at these dimensions: without the
  // sorted fallback the planner's only honest answer is a size-grounds
  // diagnostic (exercised here through a pair that has no fallback), and
  // with it the plan switches every CSF level to sorted ranking sharing
  // one full-arity sort.
  {
    std::string Why;
    bool Rejected = !codegen::conversionSupported(
        formats::standardFormatOrDie("csr"), formats::standardFormatOrDie("sky"),
        std::vector<int64_t>{Dims[0], Dims[0]}, &Why);
    std::printf("dense-path rejection (csr->sky at 2^31 rows):\n  %s\n\n",
                Rejected ? Why.c_str() : "UNEXPECTEDLY ACCEPTED");
    Report.meta("dense_path_rejected", Rejected ? "true" : "false");
    codegen::AssemblyPlan Plan = codegen::planAssembly(Coo3, Csf, Dims);
    std::string Sorted;
    for (bool S : Plan.Sorted)
      Sorted += S ? '1' : '0';
    std::printf("coo3->csf strategy at (2^31, 2^20, 2^20): sorted levels %s, "
                "shared-sort anchor level %d\n\n",
                Sorted.c_str(), Plan.SharedSortAnchor);
    Report.metaStr("sorted_levels", Sorted);
    Report.meta("shared_sort_anchor",
                strfmt("%d", Plan.SharedSortAnchor));
  }

  // The huge-dims leg shares one full-arity sort; a 2^31 extent cannot
  // pack into 64 bits, so that sort is the merge sort by construction.
  // The packed leg's extents fit, so the same plan lowers it to radix.
  std::printf("%-26s %12s %12s %14s\n", "case", "median_ms", "min_ms",
              "ns_per_nnz");
  const int64_t FullNnz = scaled(1000000);
  for (int64_t Nnz : {FullNnz / 4, FullNnz / 2, FullNnz}) {
    tensor::Triplets T =
        tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], Nnz, 401);
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
    runRow("shared", Dims, In, T.nnz(), "coo3_to_csf", Report);
  }
  std::printf("\npacked-key sort at (2^24, 2^20, 2^20):\n");
  for (int64_t Nnz : {FullNnz / 4, FullNnz / 2, FullNnz}) {
    tensor::Triplets T = tensor::genHyperSparse3(
        PackedDims[0], PackedDims[1], PackedDims[2], Nnz, 401);
    tensor::SparseTensor In = tensor::buildFromTriplets(Coo3, T);
    runRow("radix", PackedDims, In, T.nnz(), "coo3_to_csf_packed", Report);
  }

  // Round-trip leg: csf back to coo3 at the full point (needs no sorted
  // levels — the coo3 target has no dense ranking structures — so it also
  // documents that huge dims alone do not force the strategy).
  {
    tensor::Triplets T =
        tensor::genHyperSparse3(Dims[0], Dims[1], Dims[2], FullNnz, 401);
    tensor::SparseTensor InCsf = tensor::buildFromTriplets(Csf, T);
    codegen::Options Back = codegen::optionsForDims(Csf, Coo3, {}, Dims);
    const jit::JitConversion &Rev = jitConversion("csf", "coo3", Back);
    TimeStats S = timeJitStats(Rev, InCsf);
    std::printf("\n%-26s %12.3f %12.3f %14.1f\n", "csf_to_coo3",
                S.MedianSeconds * 1e3, S.MinSeconds * 1e3,
                T.nnz() ? S.MedianSeconds * 1e9 /
                              static_cast<double>(T.nnz())
                        : 0);
    Report.add(strfmt("{\"label\": \"csf_to_coo3\", \"nnz\": %lld, "
                      "\"median_seconds\": %.6g, \"min_seconds\": %.6g}",
                      static_cast<long long>(T.nnz()), S.MedianSeconds,
                      S.MinSeconds));
  }
  return Report.write() ? 0 : 1;
}
