//===----------------------------------------------------------------------===//
// Randomized differential fuzz harness for the conversion pipeline. The
// strategy space is three-way per level (sequenced / ranked-dense /
// sorted, with a shared full-arity sort across nested sorted levels and a
// packed radix or merge sort lowering chosen from the extents), so
// hand-enumerated tests cannot cover the combinations; this harness drives
// random (source, target, dims, nonzero pattern,
// CONVGEN_RANK_DENSE_MAX_BYTES) tuples, a share of them sized to land on
// either side of the sorted-ranking rule (codegen::optionsForDims), and
// bit-compares
//
//   * the interpreter-backed Converter against the hand-written triplet
//     oracle (structural validity + exact triplet equality), and
//   * the JIT-compiled routine against the interpreter result at 1 and 4
//     OpenMP threads (exact pos/crd/perm/param/vals equality).
//
// Every case derives from one base seed. On failure the trace names the
// case seed and the replay invocation:
//
//   ./test_fuzz_conversions --seed=0x1234 --iters=500
//
// --seed / --iters (or CONVGEN_FUZZ_SEED / CONVGEN_FUZZ_ITERS) override
// the defaults; the per-push CI legs run the default smoke count, the
// nightly leg a larger count with a date-rotated seed under ASan.
//
// --threads=N (or CONVGEN_FUZZ_THREADS) additionally runs the same case
// stream concurrently from N threads through the shared PlanCache — the
// concurrency stress the TSan leg drives. Concurrent cases use the
// library-default knob profile only: setenv is not thread-safe, so the
// per-case ScopedEnv randomization (and the OpenMP thread flips) stay
// confined to the serial harness.
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "convert/Converter.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "support/DegradationLog.h"
#include "support/Fault.h"
#include "support/StringUtils.h"
#include "tensor/Corpus.h"
#include "tensor/Oracle.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace convgen;

using convgen::testing::ScopedEnv;

namespace {

uint64_t FuzzSeed = 0x5eedc0de2026ull; // Deterministic smoke default.
int FuzzIters = 500;
// Fault mode (--faults / CONVGEN_FUZZ_FAULTS=1): each case additionally
// draws a random CONVGEN_FAULT spec — random site subset, random rates,
// case-derived seeds — so the degradation machinery is fuzzed across the
// same tuple space as the conversions themselves. The differential checks
// are unchanged: a degraded handle must still be bit-identical to the
// interpreter, and no injected fault may ever surface as an abort.
bool FuzzFaults = false;
// Concurrency mode (--threads=N / CONVGEN_FUZZ_THREADS): N threads drain
// the same case stream through the shared PlanCache. 0/1 skips the
// concurrent test (the serial harness already ran the cases).
int FuzzThreads = 0;

/// Pins the OpenMP thread count for the scope (host runtime + the env the
/// dlopen'd generated routines read).
void setThreads(int Threads) {
  setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
#ifdef _OPENMP
  omp_set_num_threads(Threads);
#endif
}

void restoreThreads() {
  unsetenv("OMP_NUM_THREADS");
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
}

struct FuzzStats {
  int Ran = 0;
  int Skipped = 0;
  int JitCompared = 0;
  /// Cases the sorted-ranking rule routed to sorted ranking, and cases
  /// it left on the default plan.
  int RuleSorted = 0;
  int RuleDefault = 0;
};

/// Exact structural equality of two tensors in the same format (the
/// bit-compare the JIT leg uses; triplet equality would hide layout
/// divergence between bit-identical-value layouts).
void expectBitIdentical(const tensor::SparseTensor &Want,
                        const tensor::SparseTensor &Got, int Threads) {
  ASSERT_EQ(Want.Levels.size(), Got.Levels.size());
  for (size_t K = 0; K < Want.Levels.size(); ++K) {
    EXPECT_EQ(Want.Levels[K].Pos, Got.Levels[K].Pos)
        << "pos, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].Crd, Got.Levels[K].Crd)
        << "crd, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].Perm, Got.Levels[K].Perm)
        << "perm, level " << K << ", " << Threads << " threads";
    EXPECT_EQ(Want.Levels[K].SizeParam, Got.Levels[K].SizeParam)
        << "param, level " << K << ", " << Threads << " threads";
  }
  EXPECT_EQ(Want.Vals, Got.Vals) << Threads << " threads";
}

/// One random case: draws the tuple, runs interpreter-vs-oracle and (when
/// a compiler exists) JIT-vs-interpreter at 1 and 4 threads. With \p
/// Concurrent set the case must stay thread-safe: no setenv (knob/fault
/// randomization) and no process-wide OpenMP thread flips — the tuple,
/// pattern, and differential checks are unchanged.
void runFuzzCase(uint64_t CaseSeed, FuzzStats &Stats,
                 bool Concurrent = false) {
  std::mt19937_64 Rng(CaseSeed);
  auto Pick = [&](int N) { return static_cast<int>(Rng() % static_cast<uint64_t>(N)); };

  static const char *Names2[] = {"coo", "csr", "csc", "dia",
                                 "ell", "bcsr", "sky"};
  static const char *Names3[] = {"coo3", "csf", "csf_102", "csf_021"};

  bool Order3 = Pick(5) >= 3; // ~40% order-3 cases.
  std::string SrcName, DstName;
  std::vector<int64_t> Dims;
  bool Huge = false;
  // Rule cases: an order-3 shape large enough that the sorted-ranking rule
  // (codegen::optionsForDims) can fire above its nnz floor. The dims are
  // fixed so the packed-sort widths, and with them the JIT objects the
  // cases compile, stay few.
  bool Rule = false;
  if (Order3) {
    SrcName = Names3[Pick(4)];
    DstName = Names3[Pick(4)];
    Huge = Pick(4) == 0; // 25% of order-3 cases use a huge-extent mode.
    Rule = !Huge && Pick(4) == 0;
    if (Huge)
      Dims = {int64_t(1) << 31, int64_t(1) << (10 + Pick(11)),
              int64_t(1) + Pick(1000)};
    else if (Rule)
      Dims = {160, 160, 4};
    else
      Dims = {int64_t(1) + Pick(10), int64_t(1) + Pick(10),
              int64_t(1) + Pick(10)};
  } else {
    SrcName = Names2[Pick(7)];
    DstName = Names2[Pick(7)];
    Dims = {int64_t(1) + Pick(12), int64_t(1) + Pick(12)};
    // Skyline stores lower-triangular square matrices only.
    if (SrcName == "sky" || DstName == "sky")
      Dims[1] = Dims[0];
  }

  // Random budget profile. Tiny budgets push ordinary-size levels onto
  // the sorted strategy, so the O(nnz) machinery (the shared sort, and the
  // packed radix sort wherever the extents pack into 64 bits) gets
  // differential coverage on small tensors too, where the oracle is cheap.
  // The profile set is deliberately small: each distinct (pair,
  // strategy-bits) combination costs one JIT compile.
  std::vector<std::unique_ptr<ScopedEnv>> Knobs;
  switch (Concurrent || Rule ? 0 : Pick(3)) {
  case 0:
    break; // Library defaults.
  case 1:
    Knobs.push_back(std::make_unique<ScopedEnv>(
        "CONVGEN_RANK_DENSE_MAX_BYTES", std::to_string(1 << Pick(8))));
    break;
  default:
    Knobs.push_back(std::make_unique<ScopedEnv>(
        "CONVGEN_RANK_DENSE_MAX_BYTES", "1"));
    break;
  }

  if (FuzzFaults && !Concurrent) {
    static const char *Sites[] = {"compile",    "dlopen",      "dlsym",
                                  "cache-read", "cache-write", "alloc-probe"};
    static const char *Rates[] = {"0.25", "0.5", "0.75", "1"};
    std::string Spec;
    for (const char *Site : Sites) {
      if (Pick(2) == 0)
        continue; // ~half the sites per case.
      if (!Spec.empty())
        Spec += ",";
      // Rates in {0.25, 0.5, 0.75, 1}; per-case seeds keep the draw
      // streams independent across cases but replayable from --seed.
      Spec += strfmt("%s:%s:%llu", Site, Rates[Pick(4)],
                     static_cast<unsigned long long>(Rng()));
    }
    if (!Spec.empty())
      Knobs.push_back(std::make_unique<ScopedEnv>("CONVGEN_FAULT", Spec));
  }

  formats::Format Src = formats::standardFormatOrDie(SrcName);
  formats::Format Dst = formats::standardFormatOrDie(DstName);
  std::string Why;
  if (!codegen::conversionSupported(Src, Dst, Dims, &Why)) {
    ++Stats.Skipped;
    return;
  }

  // Random nonzero pattern: distinct coordinates, exact small values
  // (integer-valued doubles compare bit-exactly through any backend).
  tensor::Triplets T;
  T.setDims(Dims);
  int MaxNnz = Huge ? 40 : Pick(3) == 0 ? 0 : 1 + Pick(48);
  // A rule case draws exactly MaxNnz distinct nonzeros relative to the
  // dims, on either side of the rule's ratio: the ranked (i, j) levels'
  // dense rank space exceeds kSortedRankRatio * nnz below Boundary.
  size_t Exact = 0;
  if (Rule) {
    int Boundary = static_cast<int>(Dims[0] * Dims[1] /
                                    codegen::kSortedRankRatio);
    int Floor = static_cast<int>(codegen::kSortedRankMinNnz);
    MaxNnz = Pick(2) == 0 ? Floor + Pick(Boundary - Floor)
                          : Boundary + Pick(1500);
    Exact = static_cast<size_t>(MaxNnz);
  }
  std::set<std::vector<int64_t>> Seen;
  for (int E = 0; E < MaxNnz || T.Entries.size() < Exact; ++E) {
    std::vector<int64_t> Coord;
    for (int64_t D : Dims)
      Coord.push_back(static_cast<int64_t>(
          Rng() % static_cast<uint64_t>(D)));
    if (!Order3 && (SrcName == "sky" || DstName == "sky") &&
        Coord[1] > Coord[0])
      std::swap(Coord[0], Coord[1]); // Keep skyline lower-triangular.
    if (!Seen.insert(Coord).second)
      continue;
    T.Entries.push_back(
        tensor::Entry(Coord, static_cast<double>(1 + Pick(97))));
  }

  tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
  // The routing every runner applies to this input; the interpreter-backed
  // Converter below reaches the same options through tryRun.
  codegen::Options Opts = codegen::optionsForDims(
      Src, Dst, codegen::Options(), Dims, In.storedSize());
  ++(Opts.ForceSortedRanking ? Stats.RuleSorted : Stats.RuleDefault);
  convert::Converter Conv(Src, Dst);
  tensor::SparseTensor Out = Conv.run(In);
  Out.validate();
  tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
  EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out), tensor::toTriplets(Want)))
      << SrcName << " -> " << DstName << " diverged from the oracle";
  ++Stats.Ran;

  if (!jit::jitAvailable())
    return;
  auto Native = convert::PlanCache::instance().jit(Src, Dst, Opts);
  if (Concurrent) {
    // No OMP_NUM_THREADS flips from worker threads; the routine runs at
    // the ambient thread count (nested parallel regions when several
    // workers convert at once — itself part of the stress).
    tensor::SparseTensor FromJit = Native->run(In);
    expectBitIdentical(Out, FromJit, 0);
  } else {
    for (int Threads : {1, 4}) {
      setThreads(Threads);
      tensor::SparseTensor FromJit = Native->run(In);
      expectBitIdentical(Out, FromJit, Threads);
    }
    restoreThreads();
  }
  ++Stats.JitCompared;
}

/// The splitmix64 per-case seed shared by the serial and concurrent
/// harnesses: a failing concurrent case replays serially from --seed.
uint64_t caseSeed(int Case) {
  uint64_t S = FuzzSeed +
               0x9e3779b97f4a7c15ull * static_cast<uint64_t>(Case + 1);
  S ^= S >> 30;
  S *= 0xbf58476d1ce4e5b9ull;
  S ^= S >> 27;
  return S;
}

} // namespace

TEST(FuzzConversions, RandomizedDifferentialAgainstTheOracle) {
  FuzzStats Stats;
  for (int Case = 0; Case < FuzzIters; ++Case) {
    // splitmix64 over (base seed, case index): independent per-case
    // streams, and a failing case replays from the same --seed.
    uint64_t CaseSeed = caseSeed(Case);
    SCOPED_TRACE(strfmt("case %d of %d, case seed 0x%llx — replay: "
                        "./test_fuzz_conversions --seed=0x%llx --iters=%d",
                        Case, FuzzIters,
                        static_cast<unsigned long long>(CaseSeed),
                        static_cast<unsigned long long>(FuzzSeed),
                        FuzzIters));
    runFuzzCase(CaseSeed, Stats);
    if (::testing::Test::HasFatalFailure())
      break;
  }
  std::printf("[  fuzz    ] %d cases run, %d unsupported-pair skips, "
              "%d JIT bit-compared, %d/%d routed sorted/default by the "
              "sorted-ranking rule (seed 0x%llx)\n",
              Stats.Ran, Stats.Skipped, Stats.JitCompared, Stats.RuleSorted,
              Stats.RuleDefault, static_cast<unsigned long long>(FuzzSeed));
  if (FuzzFaults || support::faultsConfigured())
    std::printf("[  fuzz    ] faults injected: %llu; degradations: %s\n",
                static_cast<unsigned long long>(
                    support::faultInjectionTotal()),
                support::DegradationLog::instance().summary().c_str());
  // The harness must exercise real conversions, not skip everything (tiny
  // random budgets legitimately reject a chunk of the pair space).
  EXPECT_GT(Stats.Ran, FuzzIters / 3);
  // Both sides of the sorted-ranking rule must see differential coverage.
  if (FuzzIters >= 100) {
    EXPECT_GT(Stats.RuleSorted, 0);
    EXPECT_GT(Stats.RuleDefault, 0);
  }
}

TEST(FuzzConversions, ConcurrentCaseStreamThroughTheSharedCache) {
  if (FuzzThreads <= 1)
    GTEST_SKIP() << "pass --threads=N (or CONVGEN_FUZZ_THREADS) to run the "
                    "concurrent stream";
  // The same deterministic case stream as the serial harness, drained
  // round-robin by N threads through the shared single-flight PlanCache.
  // Identical seeds mean identical coverage regardless of thread count,
  // and a failing case replays serially with the printed --seed.
  std::vector<FuzzStats> PerThread(static_cast<size_t>(FuzzThreads));
  std::vector<std::thread> Pool;
  for (int T = 0; T < FuzzThreads; ++T) {
    Pool.emplace_back([&, T] {
      for (int Case = T; Case < FuzzIters; Case += FuzzThreads) {
        uint64_t CaseSeed = caseSeed(Case);
        SCOPED_TRACE(strfmt(
            "concurrent case %d (thread %d), case seed 0x%llx — serial "
            "replay: ./test_fuzz_conversions --seed=0x%llx --iters=%d",
            Case, T, static_cast<unsigned long long>(CaseSeed),
            static_cast<unsigned long long>(FuzzSeed), FuzzIters));
        runFuzzCase(CaseSeed, PerThread[static_cast<size_t>(T)],
                    /*Concurrent=*/true);
        if (::testing::Test::HasFatalFailure())
          break;
      }
    });
  }
  for (std::thread &Th : Pool)
    Th.join();
  FuzzStats Total;
  for (const FuzzStats &S : PerThread) {
    Total.Ran += S.Ran;
    Total.Skipped += S.Skipped;
    Total.JitCompared += S.JitCompared;
  }
  std::printf("[  fuzz    ] concurrent: %d threads, %d cases run, "
              "%d unsupported-pair skips, %d JIT bit-compared "
              "(seed 0x%llx)\n",
              FuzzThreads, Total.Ran, Total.Skipped, Total.JitCompared,
              static_cast<unsigned long long>(FuzzSeed));
  EXPECT_GT(Total.Ran, FuzzIters / 3);
}

//===----------------------------------------------------------------------===//
// Sorted-ranking full-corpus pass: every corpus tensor through every pair
// whose plan takes the O(nnz) ranking path at a one-byte dense budget.
//===----------------------------------------------------------------------===//

TEST(FuzzCorpus, SortedRankingFullCorpusMatchesTheOracle) {
  ScopedEnv Budget("CONVGEN_RANK_DENSE_MAX_BYTES", "1");
  int Ran = 0;
  auto sweep = [&](const std::vector<const char *> &Names,
                   const std::vector<std::pair<std::string, tensor::Triplets>>
                       &Corpus) {
    for (const char *SrcName : Names) {
      for (const char *DstName : Names) {
        formats::Format Src = formats::standardFormatOrDie(SrcName);
        formats::Format Dst = formats::standardFormatOrDie(DstName);
        for (const auto &[TName, T] : Corpus) {
          std::vector<int64_t> Dims;
          for (int M = 0; M < T.order(); ++M)
            Dims.push_back(T.dim(M));
          if (!codegen::conversionSupported(Src, Dst, Dims))
            continue;
          codegen::AssemblyPlan Plan = codegen::planAssembly(Src, Dst, Dims);
          if (!Plan.anySorted())
            continue; // Only the O(nnz) ranking path is under test.
          tensor::SparseTensor In = tensor::buildFromTriplets(Src, T);
          convert::Converter Conv(Src, Dst);
          tensor::SparseTensor Out = Conv.run(In);
          Out.validate();
          tensor::SparseTensor Want = tensor::buildFromTriplets(Dst, T);
          EXPECT_TRUE(tensor::equal(tensor::toTriplets(Out),
                                    tensor::toTriplets(Want)))
              << SrcName << " -> " << DstName << " on " << TName;
          ++Ran;
        }
      }
    }
  };
  sweep({"coo", "csr", "csc", "ell"}, tensor::testMatrices());
  sweep({"coo3", "csf", "csf_102", "csf_021"}, tensor::testTensors3());
  sweep({"coo3", "csf", "csf_102", "csf_021"}, tensor::testTensorsHuge3());
  std::printf("[  fuzz    ] sorted-ranking corpus: %d conversions\n", Ran);
  EXPECT_GT(Ran, 0);
}

int main(int argc, char **argv) {
  // CONVGEN_FUZZ_SEED / CONVGEN_FUZZ_ITERS set the CI defaults; explicit
  // --seed= / --iters= flags (the replay workflow) override them.
  if (const char *Env = std::getenv("CONVGEN_FUZZ_SEED"))
    FuzzSeed = std::strtoull(Env, nullptr, 0);
  if (const char *Env = std::getenv("CONVGEN_FUZZ_ITERS"))
    if (std::atoi(Env) > 0)
      FuzzIters = std::atoi(Env);
  if (const char *Env = std::getenv("CONVGEN_FUZZ_FAULTS"))
    FuzzFaults = std::string(Env) != "0";
  if (const char *Env = std::getenv("CONVGEN_FUZZ_THREADS"))
    FuzzThreads = std::atoi(Env);
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--seed=", 0) == 0)
      FuzzSeed = std::strtoull(Arg.c_str() + 7, nullptr, 0);
    else if (Arg.rfind("--iters=", 0) == 0)
      FuzzIters = std::atoi(Arg.c_str() + 8);
    else if (Arg == "--faults")
      FuzzFaults = true;
    else if (Arg.rfind("--threads=", 0) == 0)
      FuzzThreads = std::atoi(Arg.c_str() + 10);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
