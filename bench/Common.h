//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the benchmark binaries: lazy corpus construction at
/// a configurable scale, simple wall-clock timing (median of repeated
/// runs, as in §7.1), and cached JIT-compiled conversions.
///
/// Environment knobs:
///   CONVGEN_BENCH_SCALE  fraction of the paper's matrix sizes (default 0.2;
///                        1.0 reproduces Table 2 sizes exactly)
///   CONVGEN_BENCH_REPS   timing repetitions per cell (default 5; the paper
///                        uses 50)
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_BENCH_COMMON_H
#define CONVGEN_BENCH_COMMON_H

#include "codegen/Generator.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"
#include "tensor/Corpus.h"
#include "tensor/Oracle.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace convgen {
namespace bench {

inline double benchScale() {
  static double Scale = [] {
    const char *Env = std::getenv("CONVGEN_BENCH_SCALE");
    double S = Env ? std::atof(Env) : 0.2;
    return S > 0 && S <= 1.0 ? S : 0.2;
  }();
  return Scale;
}

inline int benchReps() {
  static int Reps = [] {
    const char *Env = std::getenv("CONVGEN_BENCH_REPS");
    int R = Env ? std::atoi(Env) : 5;
    return R > 0 ? R : 5;
  }();
  return Reps;
}

/// Wall-clock statistics over benchReps() runs. The median is robust to
/// scheduler noise (the paper's §7.1 methodology); the min approximates
/// the noise-free cost and is what cache-effect comparisons want.
struct TimeStats {
  double MinSeconds = 0;
  double MedianSeconds = 0;
};

/// Times \p Fn over benchReps() runs.
inline TimeStats timeStats(const std::function<void()> &Fn) {
  std::vector<double> Times;
  for (int Rep = 0; Rep < benchReps(); ++Rep) {
    auto Begin = std::chrono::steady_clock::now();
    Fn();
    Times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Begin)
                        .count());
  }
  std::sort(Times.begin(), Times.end());
  return {Times.front(), Times[Times.size() / 2]};
}

/// Median seconds over benchReps() runs (see timeStats for min + median).
inline double medianSeconds(const std::function<void()> &Fn) {
  return timeStats(Fn).MedianSeconds;
}

/// Machine-readable output: every bench binary writes a BENCH_<name>.json
/// beside its human-readable table. Scalar metadata first, then a
/// "results" array whose entries the benchmark formats itself (strfmt
/// keeps this dependency-free).
class BenchReport {
public:
  /// \p File is the output name, e.g. "BENCH_table3.json".
  explicit BenchReport(std::string File) : File(std::move(File)) {
    meta("scale", strfmt("%.3f", benchScale()));
    meta("reps", strfmt("%d", benchReps()));
    // Provenance: parallel-speedup numbers are only meaningful relative to
    // the recording host's core count.
    meta("host_threads",
         strfmt("%u", std::max(1u, std::thread::hardware_concurrency())));
  }

  /// Adds one metadata key with a raw JSON value ("3", "0.2", "true").
  void meta(const std::string &Key, const std::string &RawValue) {
    Meta.push_back("\"" + Key + "\": " + RawValue);
  }
  /// Adds one metadata key with a string value (quoted for you).
  void metaStr(const std::string &Key, const std::string &Value) {
    meta(Key, "\"" + Value + "\"");
  }

  /// Adds one pre-formatted JSON object to the results array.
  void add(const std::string &EntryObject) { Entries.push_back(EntryObject); }

  /// Writes the report; returns false (with a note on stderr) on failure.
  /// The process's degradation summary is embedded (and echoed to stderr
  /// when nonempty): a run whose JIT silently fell back to the interpreter
  /// must not pass its timings off as native numbers.
  bool write() const {
    std::string Degraded = support::DegradationLog::instance().summary();
    if (support::DegradationLog::instance().snapshot().degradedTotal() > 0)
      std::fprintf(stderr,
                   "convgen: runtime degraded during this benchmark (%s); "
                   "affected timings are interpreter timings, not native\n",
                   Degraded.c_str());
    std::string Json = "{\n";
    Json += "  \"degradations\": \"" + Degraded + "\",\n";
    for (const std::string &M : Meta)
      Json += "  " + M + ",\n";
    Json += "  \"results\": [\n";
    for (size_t I = 0; I < Entries.size(); ++I)
      Json += "    " + Entries[I] + (I + 1 < Entries.size() ? ",\n" : "\n");
    Json += "  ]\n}\n";
    std::FILE *Out = std::fopen(File.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", File.c_str());
      return false;
    }
    std::fwrite(Json.data(), 1, Json.size(), Out);
    std::fclose(Out);
    std::printf("\nwrote %s\n", File.c_str());
    return true;
  }

private:
  std::string File;
  std::vector<std::string> Meta;
  std::vector<std::string> Entries;
};

/// One corpus matrix, prepared in the formats the experiments read.
struct MatrixInputs {
  std::string Name;
  tensor::Triplets T;
  tensor::SparseTensor Coo, Csr, Csc;
  int64_t Diagonals = 0;
  int64_t MaxRow = 0;
  bool Symmetric = true;
};

/// Builds (and caches) a corpus matrix at the bench scale.
inline const MatrixInputs &corpusInputs(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<MatrixInputs>> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return *It->second;
  const tensor::CorpusEntry &E = tensor::corpusEntry(Name);
  auto In = std::make_unique<MatrixInputs>();
  In->Name = Name;
  In->T = E.Generate(benchScale());
  In->Coo = tensor::buildFromTriplets(formats::makeCOO(), In->T);
  In->Csr = tensor::buildFromTriplets(formats::makeCSR(), In->T);
  In->Csc = tensor::buildFromTriplets(formats::makeCSC(), In->T);
  In->Diagonals = In->T.countDiagonals();
  In->MaxRow = In->T.maxRowCount();
  In->Symmetric = E.Symmetric;
  return *(Cache[Name] = std::move(In));
}

/// The paper omits DIA/ELL conversions when the padded layout would be
/// more than 75% explicit zeros.
inline bool diaViable(const MatrixInputs &In) {
  double Stored = static_cast<double>(In.Diagonals) *
                  static_cast<double>(In.T.NumRows);
  return Stored > 0 &&
         static_cast<double>(In.T.nnz()) >= 0.25 * Stored;
}

inline bool ellViable(const MatrixInputs &In) {
  double Stored = static_cast<double>(In.MaxRow) *
                  static_cast<double>(In.T.NumRows);
  return Stored > 0 &&
         static_cast<double>(In.T.nnz()) >= 0.25 * Stored;
}

/// Lazily generated + JIT-compiled conversion for a format pair, shared
/// through the process-wide PlanCache. The returned reference is pinned
/// for the life of the process (not just of the cache entry), so it stays
/// valid even across PlanCache::clearMemory().
inline const jit::JitConversion &
jitConversion(const std::string &Src, const std::string &Dst,
              codegen::Options Opts = codegen::Options()) {
  static std::map<std::string, std::shared_ptr<jit::JitConversion>> Pinned;
  formats::Format Source = formats::standardFormatOrDie(Src);
  formats::Format Target = formats::standardFormatOrDie(Dst);
  std::shared_ptr<jit::JitConversion> Handle =
      convert::PlanCache::instance().jit(Source, Target, Opts);
  return *(Pinned[convert::planKey(Source, Target, Opts)] = Handle);
}

/// Times a JIT conversion on a marshalled input (frees outputs). A
/// degraded handle has no native routine to time: the benchmark exits
/// naming the reason instead of reporting interpreter numbers.
inline TimeStats timeJitStats(const jit::JitConversion &Conv,
                              const tensor::SparseTensor &In) {
  if (Conv.degraded()) {
    std::fprintf(stderr, "convgen: cannot time %s -> %s natively: %s\n",
                 Conv.conversion().Source.Name.c_str(),
                 Conv.conversion().Target.Name.c_str(),
                 Conv.degradationReason().c_str());
    std::exit(1);
  }
  jit::CTensor A;
  jit::marshalInput(In, &A);
  return timeStats([&] {
    jit::CTensor B;
    Conv.runRaw(&A, &B);
    jit::freeOutput(&B);
  });
}

/// Median seconds of one JIT conversion run (see timeJitStats).
inline double timeJit(const jit::JitConversion &Conv,
                      const tensor::SparseTensor &In) {
  return timeJitStats(Conv, In).MedianSeconds;
}

/// Like timeJitStats, but also reports the routine's own per-phase
/// breakdown (jit::kNumPhases slots, mean seconds per run): the delta of
/// the handle's runRaw phase totals between snapshots taken before and
/// after the loop.
inline TimeStats timeJitWithPhases(const jit::JitConversion &Conv,
                                   const tensor::SparseTensor &In,
                                   double Phases[jit::kNumPhases]) {
  const double *P = Conv.phaseSeconds();
  std::vector<double> Before(P, P + jit::kNumPhases);
  TimeStats S = timeJitStats(Conv, In);
  P = Conv.phaseSeconds();
  for (int I = 0; I < jit::kNumPhases; ++I)
    Phases[I] = (P[I] - Before[static_cast<size_t>(I)]) /
                static_cast<double>(benchReps());
  return S;
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

} // namespace bench
} // namespace convgen

#endif // CONVGEN_BENCH_COMMON_H
