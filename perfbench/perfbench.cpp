//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark: drives convgen from one process through its
/// public entry points (ConversionService::convert, PlanCache,
/// planner::decide, codegen::generateConversion, jit::JitConversion and
/// the baselines), checks every timed output bit for bit against the
/// hand-written oracle (tensor::buildFromTriplets), and prints one JSON
/// result line. NOTES.md beside this file explains the workloads, the
/// metrics and the noise decisions; run.py builds and runs it.
///
/// Usage: perfbench --workload table3|tensor3|serve --seed N --seconds S
///                  --trace 0|1 --state DIR [--trace-out FILE]
///                  [--size F] [--corrupt]
///
///   --state      an empty directory the run owns (cache objects); the
///                caller removes it afterwards
///   --trace-out  where the traced run writes its spans (JSON lines)
///   --size       multiplies every input size (smoke runs use ~0.05)
///   --corrupt    flips one value of the first checked output, to prove
///                the oracle check fails the run
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "baselines/Baselines.h"
#include "codegen/Generator.h"
#include "convert/PlanCache.h"
#include "formats/Standard.h"
#include "jit/Jit.h"
#include "planner/Planner.h"
#include "service/ConversionService.h"
#include "support/DegradationLog.h"
#include "tensor/Corpus.h"
#include "tensor/Generators.h"
#include "tensor/Oracle.h"

#include <sys/resource.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace convgen;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Run-size constants. A run measures for --seconds; these fix the inputs
// and the fixed work around the measured loop. --size scales the inputs.
//===----------------------------------------------------------------------===//

/// Fraction of the paper's Table 2 matrix sizes (largest ~0.58M nnz).
constexpr double kTable3Scale = 0.05;
/// Fraction of bench_tensor3's full-scale tensors (random3: 100k nnz).
constexpr double kTensor3Scale = 0.05;
/// Rounds per run, each a set-up, warm restarts and a share of the
/// measured loop; setup_s is the median of the rounds' set-ups.
constexpr int kRounds = 4;
/// Warm restarts (manifest export, memory drop, eager preload) per round.
constexpr int kRestartsPerRound = 3;
/// Closed-loop clients of the serve workload.
constexpr int kServeClients = 2;
/// Share of a serve run spent in the serial baseline pass.
constexpr double kServeBaselineShare = 0.25;
/// Every serial cell gets at least this many timed reps.
constexpr int kMinSweeps = 11;
/// One in this many serve outputs is compared with the oracle.
constexpr uint64_t kServeCheckEvery = 4;
/// Tail latency and throughput are taken per window and reported as the
/// median over windows, so one burst of interference from outside the
/// process moves one window, not the run. Serial windows close after this
/// many samples; serve windows after this many seconds.
constexpr size_t kSerialWindowSamples = 1000;
constexpr double kServeWindowSeconds = 1.0;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// \p Q-quantile of an ascending sample, linearly interpolated.
double sortedQuantile(const std::vector<double> &S, double Q) {
  if (S.empty())
    return 0;
  double Pos = Q * static_cast<double>(S.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  return sortedQuantile(V, Q);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// The median of a pooled sample, estimated as the mean of its 45th-55th
/// percentiles. A pool mixing several cells has gaps between their
/// latencies, and a single order statistic jumps across a gap from one run
/// to the next.
double pooledMedian(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  double Sum = 0;
  for (int P = 45; P <= 55; ++P)
    Sum += sortedQuantile(V, P / 100.0);
  return Sum / 11;
}

/// The mean of the middle 90% of a sample. Contention from outside the
/// process splits a cell's latencies into a fast and a slow mode whose mix
/// changes from run to run: a median jumps from one mode to the other as
/// the mix crosses one half, a trimmed mean moves in proportion to it.
double trimmedMean(const std::vector<double> &Sample) {
  std::vector<double> V = Sample;
  std::sort(V.begin(), V.end());
  size_t Lo = V.size() / 20, Hi = V.size() - Lo;
  double Sum = 0;
  for (size_t I = Lo; I < Hi; ++I)
    Sum += V[I];
  return Hi > Lo ? Sum / static_cast<double>(Hi - Lo) : 0;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

/// "n=<count> p50_ms=<median> p<P>_ms=<value>" where P is the highest of
/// the usual percentiles with at least ten samples beyond it (omitted when
/// there are fewer than twenty samples).
std::string distText(const std::vector<double> &V) {
  double N = static_cast<double>(V.size());
  double Tail = -1;
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (N * (1 - P / 100) >= 10) {
      Tail = P;
      break;
    }
  char Buf[128];
  int Len = std::snprintf(Buf, sizeof(Buf), "n=%zu p50_ms=%.4f", V.size(),
                          median(V));
  if (Tail > 0)
    std::snprintf(Buf + Len, sizeof(Buf) - static_cast<size_t>(Len),
                  " p%g_ms=%.4f", Tail, quantile(V, Tail / 100));
  return Buf;
}

uint64_t mixSeed(uint64_t A, uint64_t B) {
  uint64_t X = A * 0x9e3779b97f4a7c15ULL ^ (B + 0x632be59bd9b4e019ULL);
  X ^= X >> 31;
  X *= 0xbf58476d1ce4e5b9ULL;
  return X ^ (X >> 29);
}

//===----------------------------------------------------------------------===//
// Arguments and the run context
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string State;
  std::string TraceOut;
  double Size = 1.0;
  bool Corrupt = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key == "--corrupt") {
      A.Corrupt = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Val = Argv[++I];
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      A.Trace = Val == "1";
    else if (Key == "--state")
      A.State = Val;
    else if (Key == "--trace-out")
      A.TraceOut = Val;
    else if (Key == "--size")
      A.Size = std::atof(Val.c_str());
    else
      return false;
  }
  return (A.Workload == "table3" || A.Workload == "tensor3" ||
          A.Workload == "serve") &&
         A.Seconds > 0 && !A.State.empty() && A.Size > 0 && A.Size <= 1;
}

/// One conversion the benchmark times: a request (format pair + input)
/// and the oracle's output for it. Table3 cells also carry the hand-written
/// baselines for the same input; control cells feed only the speedup
/// metrics.
struct Cell {
  std::string Name;
  std::string Pair;
  std::shared_ptr<const tensor::SparseTensor> In;
  convert::ConversionRequest Request;
  std::shared_ptr<const tensor::SparseTensor> Want;
  std::function<void()> Skit, Mkl;
  bool Control = false;
};

struct Inputs {
  std::vector<std::unique_ptr<Cell>> Cells;
  double GenS = 0;
  double OracleS = 0;

  std::vector<Cell *> measured() const {
    std::vector<Cell *> Out;
    for (const auto &C : Cells)
      if (!C->Control)
        Out.push_back(C.get());
    return Out;
  }
  std::vector<Cell *> withBaselines() const {
    std::vector<Cell *> Out;
    for (const auto &C : Cells)
      if (C->Skit)
        Out.push_back(C.get());
    return Out;
  }
};

bool identical(const tensor::SparseTensor &A, const tensor::SparseTensor &B) {
  if (A.Format.Name != B.Format.Name || A.Dims != B.Dims ||
      A.Levels.size() != B.Levels.size() || !(A.Vals == B.Vals))
    return false;
  for (size_t K = 0; K < A.Levels.size(); ++K)
    if (!(A.Levels[K].Pos == B.Levels[K].Pos) ||
        !(A.Levels[K].Crd == B.Levels[K].Crd) ||
        !(A.Levels[K].Perm == B.Levels[K].Perm) ||
        A.Levels[K].SizeParam != B.Levels[K].SizeParam)
      return false;
  return true;
}

struct Bench {
  Args A;
  convert::ConversionService Service;
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<bool> Corrupted{false};
  std::mutex Mu; // Guards FirstError and Logs.
  std::string FirstError;
  std::vector<std::unique_ptr<SpanLog>> Logs;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  int DirSeq = 0;

  Bench(const Args &Args, convert::ServiceLimits Limits)
      : A(Args), Service(Limits) {}

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }

  /// A fresh, empty on-disk cache directory under the run's state, with
  /// the in-memory cache dropped: the next acquisition of every plan key
  /// runs the external compiler.
  void freshCache(const char *Tag) {
    std::string Dir = A.State + "/" + Tag + "-" + std::to_string(DirSeq++);
    setenv("CONVGEN_CACHE_DIR", Dir.c_str(), 1);
    convert::PlanCache::instance().clearMemory();
  }

  SpanLog *newLog() {
    std::lock_guard<std::mutex> Lock(Mu);
    Logs.push_back(
        std::make_unique<SpanLog>(static_cast<int64_t>(Logs.size())));
    return Logs.back().get();
  }

  void fail(const std::string &What) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(Mu);
    if (FirstError.empty())
      FirstError = What;
  }

  /// Counts one attempted conversion; a non-OK status, or (when \p Check)
  /// any bit differing from the oracle, counts it failed.
  void verify(StatusOr<tensor::SparseTensor> &Out, const Cell &C,
              bool Check) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Out.ok()) {
      fail(C.Name + ": " + Out.status().toString());
      return;
    }
    if (!Check)
      return;
    if (A.Corrupt && !Out->Vals.empty() && !Corrupted.exchange(true))
      Out->Vals[0] += 1.0;
    if (!identical(*C.Want, *Out))
      fail(C.Name + ": output differs from the oracle");
  }

  /// Times one convert() of \p C; the output is returned for checking.
  StatusOr<tensor::SparseTensor> convert(const Cell &C, double *Ms,
                                         SpanLog *Log = nullptr,
                                         int64_t Parent = 0,
                                         int64_t Request = 0) {
    ScopedSpan S(Log, "service.convert", Parent, Request);
    auto Start = Clock::now();
    StatusOr<tensor::SparseTensor> Out = Service.convert(C.Request);
    *Ms = msSince(Start);
    return Out;
  }

  /// One checked request outside the measured loops; returns its latency.
  double request(const Cell &C, SpanLog *Log) {
    double Ms = 0;
    StatusOr<tensor::SparseTensor> Out = convert(C, &Ms, Log);
    verify(Out, C, true);
    return Ms;
  }
};

double timeMs(const std::function<void()> &Fn) {
  auto Start = Clock::now();
  Fn();
  return msSince(Start);
}

//===----------------------------------------------------------------------===//
// Inputs. The seed reaches the library only through generated tensors.
//===----------------------------------------------------------------------===//

/// Replaces every value with a seeded one in [1, 2) (never zero, so padded
/// formats keep every stored entry).
void seedValues(tensor::Triplets &T, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  for (tensor::Entry &E : T.Entries)
    E.Val = 1.0 + std::ldexp(static_cast<double>(Rng() >> 11), -53);
}

/// Every format one set of triplets is built in, each built once: the cells
/// over those triplets share them as inputs and as oracle outputs.
class Builds {
public:
  Builds(const tensor::Triplets &T, Inputs &Out) : T(T), Out(Out) {}

  std::shared_ptr<const tensor::SparseTensor> get(const char *Format) {
    std::shared_ptr<const tensor::SparseTensor> &Slot = Memo[Format];
    if (!Slot) {
      auto Start = Clock::now();
      Slot = std::make_shared<const tensor::SparseTensor>(
          tensor::buildFromTriplets(formats::standardFormatOrDie(Format), T));
      (Oracle ? Out.OracleS : Out.GenS) += msSince(Start) * 1e-3;
    }
    return Slot;
  }

  /// Adds the cell converting the \p Src build to \p Dst.
  Cell &cell(const std::string &Name, const char *Src, const char *Dst) {
    auto C = std::make_unique<Cell>();
    C->Name = Name;
    C->Pair = std::string(Src) + "->" + Dst;
    C->In = get(Src);
    Oracle = true;
    C->Want = get(Dst);
    Oracle = false;
    C->Request.Source = formats::standardFormatOrDie(Src);
    C->Request.Target = formats::standardFormatOrDie(Dst);
    C->Request.Input = C->In.get();
    Out.Cells.push_back(std::move(C));
    return *Out.Cells.back();
  }

private:
  const tensor::Triplets &T;
  Inputs &Out;
  std::map<std::string, std::shared_ptr<const tensor::SparseTensor>> Memo;
  bool Oracle = false; ///< Which set-up share a build is charged to.
};

/// §7.2: DIA and ELL targets are skipped when padding would exceed 75%.
bool paddingViable(int64_t PerRow, const tensor::Triplets &T) {
  double Stored =
      static_cast<double>(PerRow) * static_cast<double>(T.NumRows);
  return Stored > 0 && static_cast<double>(T.nnz()) >= 0.25 * Stored;
}

using baselines::RawCoo;
using baselines::RawCsr;

/// Table 3: the paper's seven pairs over the Table 2 corpus stand-ins,
/// following bench_table3's cell rules: csr_csc and the csc_* pairs only
/// for non-symmetric matrices (for symmetric ones the paper folds csc_*
/// into the csr_* cells, so they would only be counted twice), DIA/ELL
/// only where padding stays under 75%. The corpus fixes each matrix's
/// structure; the seed draws its values.
Inputs buildTable3(const Args &A) {
  Inputs Out;
  for (const tensor::CorpusEntry &E : tensor::table2Corpus()) {
    auto Start = Clock::now();
    tensor::Triplets T = E.Generate(kTable3Scale * A.Size);
    seedValues(T, mixSeed(A.Seed, std::hash<std::string>{}(E.Name)));
    Out.GenS += msSince(Start) * 1e-3;
    Builds B(T, Out);
    bool Dia = paddingViable(T.countDiagonals(), T);
    bool Ell = paddingViable(T.maxRowCount(), T);
    const std::string &M = E.Name;

    RawCoo CooV = baselines::viewCoo(*B.get("coo"));
    Cell &CooCsr = B.cell("coo_csr/" + M, "coo", "csr");
    CooCsr.Skit = [CooV] { baselines::skitCooCsr(CooV).release(); };
    CooCsr.Mkl = [CooV] { baselines::mklCooCsr(CooV).release(); };
    if (Dia) {
      Cell &C = B.cell("coo_dia/" + M, "coo", "dia");
      C.Skit = [CooV] {
        RawCsr Mid = baselines::skitCooCsr(CooV);
        baselines::skitCsrDia(Mid).release();
        Mid.release();
      };
      C.Mkl = [CooV] {
        RawCsr Mid = baselines::mklCooCsr(CooV);
        baselines::mklCsrDia(Mid).release();
        Mid.release();
      };
    }
    RawCsr CsrV = baselines::viewCsr(*B.get("csr"));
    if (!E.Symmetric) {
      Cell &C = B.cell("csr_csc/" + M, "csr", "csc");
      C.Skit = [CsrV] { baselines::skitCsrCsc(CsrV).release(); };
      C.Mkl = [CsrV] { baselines::mklCsrCsc(CsrV).release(); };
    }
    if (Dia) {
      Cell &C = B.cell("csr_dia/" + M, "csr", "dia");
      C.Skit = [CsrV] { baselines::skitCsrDia(CsrV).release(); };
      C.Mkl = [CsrV] { baselines::mklCsrDia(CsrV).release(); };
    }
    if (Ell) {
      // MKL has no ELL routine.
      Cell &C = B.cell("csr_ell/" + M, "csr", "ell");
      C.Skit = [CsrV] { baselines::skitCsrEll(CsrV).release(); };
    }
    if (E.Symmetric)
      continue;
    // The libraries transpose CSC to CSR first.
    RawCsr CscT = baselines::viewCscAsTransposedCsr(*B.get("csc"));
    if (Dia) {
      Cell &C = B.cell("csc_dia/" + M, "csc", "dia");
      C.Skit = [CscT] {
        RawCsr Mid = baselines::skitCsrCsc(CscT);
        baselines::skitCsrDia(Mid).release();
        Mid.release();
      };
      C.Mkl = [CscT] {
        RawCsr Mid = baselines::mklCsrCsc(CscT);
        baselines::mklCsrDia(Mid).release();
        Mid.release();
      };
    }
    if (Ell) {
      Cell &C = B.cell("csc_ell/" + M, "csc", "ell");
      C.Skit = [CscT] {
        RawCsr Mid = baselines::skitCsrCsc(CscT);
        baselines::skitCsrEll(Mid).release();
        Mid.release();
      };
    }
  }
  return Out;
}

/// Order-3 cells: bench_tensor3's random3 / skewed3 / hyper3 shapes under
/// its three pairs, plus two cells above the planner's nnz floor where the
/// planner leaves the direct plan, plus two 2-D control cells that only
/// feed the speedup metrics. Each tensor's structure is one fixed draw of
/// its generator (conversion time depends on it); the seed draws values.
Inputs buildTensor3(const Args &A) {
  Inputs Out;
  double S = kTensor3Scale * A.Size;
  int64_t D = std::max<int64_t>(4, static_cast<int64_t>(512 * std::cbrt(S)));
  int64_t N = std::max<int64_t>(64, static_cast<int64_t>(2e6 * S));
  auto Scaled = [&](int64_t V) {
    return std::max<int64_t>(64, static_cast<int64_t>(V * A.Size));
  };
  auto Start = Clock::now();
  // Hypersparse coo3 -> csf: a dense rank array over 2048x2048 slices
  // against sorting 40k nonzeros (the planner picks direct+sorted).
  std::vector<std::pair<std::string, tensor::Triplets>> Cases = {
      {"random3", tensor::genRandomTensor3(D, D, D, N, 1001)},
      {"skewed3", tensor::genSliceSkewed3(D, D, D, N * 3 / 4, 1002)},
      {"hyper3", tensor::genHyperSparse3(D * 8, D, D, D * 4, 1003)},
      {"hyperplan",
       tensor::genRandomTensor3(2048, 2048, 64, Scaled(40000), 1004)},
      {"permplan", tensor::genRandomTensor3(512, 512, 64, Scaled(40000), 1005)},
      {"control", tensor::genRandomUniform(Scaled(40000), Scaled(40000), 2.5,
                                           8, 1006)}};
  for (auto &[Name, T] : Cases)
    seedValues(T, mixSeed(A.Seed, std::hash<std::string>{}(Name)));
  Out.GenS += msSince(Start) * 1e-3;
  for (const auto &[Name, T] : Cases) {
    Builds B(T, Out);
    if (Name == "hyperplan") {
      B.cell("coo3_csf/" + Name, "coo3", "csf");
    } else if (Name == "permplan") {
      B.cell("csf102_csf/" + Name, "csf_102", "csf");
    } else if (Name == "control") {
      RawCoo CooV = baselines::viewCoo(*B.get("coo"));
      RawCsr CsrV = baselines::viewCsr(*B.get("csr"));
      Cell &C1 = B.cell("coo_csr/" + Name, "coo", "csr");
      C1.Control = true;
      C1.Skit = [CooV] { baselines::skitCooCsr(CooV).release(); };
      C1.Mkl = [CooV] { baselines::mklCooCsr(CooV).release(); };
      Cell &C2 = B.cell("csr_csc/" + Name, "csr", "csc");
      C2.Control = true;
      C2.Skit = [CsrV] { baselines::skitCsrCsc(CsrV).release(); };
      C2.Mkl = [CsrV] { baselines::mklCsrCsc(CsrV).release(); };
    } else {
      B.cell("coo3_csf/" + Name, "coo3", "csf");
      B.cell("csf_csf102/" + Name, "csf", "csf_102");
      B.cell("csf_coo3/" + Name, "csf", "coo3");
    }
  }
  return Out;
}

/// The serve pool: 12 plan keys (2-D and 3-D), three inputs each, all small
/// (~10k nnz), so per-request overhead and compile/load carry weight. The
/// 2-D keys with a library counterpart carry baselines. Structures are
/// fixed draws; the seed draws values, request order and checked sample.
Inputs buildServe(const Args &A) {
  Inputs Out;
  auto Scaled = [&](int64_t V) {
    return std::max<int64_t>(8, static_cast<int64_t>(V * A.Size));
  };
  for (uint64_t V = 0; V < 3; ++V) {
    uint64_t Shape = 2000 + 3 * V;
    std::string Tag = "/in" + std::to_string(V);
    auto Start = Clock::now();
    tensor::Triplets Rand =
        tensor::genRandomUniform(Scaled(2500), Scaled(2500), 4.0, 8, Shape);
    int64_t Band = Scaled(2000);
    int64_t Far = std::max<int64_t>(2, Band / 50);
    tensor::Triplets Banded = tensor::genDiagonals(
        Band, Band, {-Far, -1, 0, 1, Far}, 0.95, Shape + 1);
    tensor::Triplets T3 =
        tensor::genRandomTensor3(64, 64, 64, Scaled(10000), Shape + 2);
    seedValues(Rand, mixSeed(A.Seed, Shape));
    seedValues(Banded, mixSeed(A.Seed, Shape + 1));
    seedValues(T3, mixSeed(A.Seed, Shape + 2));
    Out.GenS += msSince(Start) * 1e-3;

    Builds R(Rand, Out);
    RawCoo CooV = baselines::viewCoo(*R.get("coo"));
    RawCsr CsrV = baselines::viewCsr(*R.get("csr"));
    RawCsr CscT = baselines::viewCscAsTransposedCsr(*R.get("csc"));
    Cell &CooCsr = R.cell("coo_csr" + Tag, "coo", "csr");
    CooCsr.Skit = [CooV] { baselines::skitCooCsr(CooV).release(); };
    CooCsr.Mkl = [CooV] { baselines::mklCooCsr(CooV).release(); };
    Cell &CsrCsc = R.cell("csr_csc" + Tag, "csr", "csc");
    CsrCsc.Skit = [CsrV] { baselines::skitCsrCsc(CsrV).release(); };
    CsrCsc.Mkl = [CsrV] { baselines::mklCsrCsc(CsrV).release(); };
    Cell &CscCsr = R.cell("csc_csr" + Tag, "csc", "csr");
    CscCsr.Skit = [CscT] { baselines::skitCsrCsc(CscT).release(); };
    CscCsr.Mkl = [CscT] { baselines::mklCsrCsc(CscT).release(); };
    R.cell("csr_coo" + Tag, "csr", "coo");
    R.cell("coo_csc" + Tag, "coo", "csc");

    Builds B(Banded, Out);
    RawCsr BandV = baselines::viewCsr(*B.get("csr"));
    Cell &CsrDia = B.cell("csr_dia" + Tag, "csr", "dia");
    CsrDia.Skit = [BandV] { baselines::skitCsrDia(BandV).release(); };
    CsrDia.Mkl = [BandV] { baselines::mklCsrDia(BandV).release(); };
    Cell &CsrEll = B.cell("csr_ell" + Tag, "csr", "ell");
    CsrEll.Skit = [BandV] { baselines::skitCsrEll(BandV).release(); };

    Builds B3(T3, Out);
    B3.cell("coo3_csf" + Tag, "coo3", "csf");
    B3.cell("csf_coo3" + Tag, "csf", "coo3");
    B3.cell("csf_csf102" + Tag, "csf", "csf_102");
    B3.cell("csf102_csf" + Tag, "csf_102", "csf");
    B3.cell("coo3_csf021" + Tag, "coo3", "csf_021");
  }
  return Out;
}

Inputs buildInputs(const Args &A) {
  if (A.Workload == "table3")
    return buildTable3(A);
  if (A.Workload == "tensor3")
    return buildTensor3(A);
  return buildServe(A);
}

/// The cell with the smallest input of every format pair. These requests
/// go first after a (re)start and measure time-to-first-conversion: the
/// start-up cost, with as little conversion work on top as the workload
/// offers.
std::vector<Cell *> firstPerPair(const Inputs &In) {
  std::map<std::string, Cell *> Smallest;
  for (const auto &C : In.Cells) {
    Cell *&S = Smallest[C->Pair];
    if (!C->Control &&
        (!S || C->In->storedSize() < S->In->storedSize()))
      S = C.get();
  }
  std::vector<Cell *> Out;
  for (const auto &[Pair, C] : Smallest)
    if (C)
      Out.push_back(C);
  return Out;
}

//===----------------------------------------------------------------------===//
// Measured loops
//===----------------------------------------------------------------------===//

/// Per-cell samples of one serial pass.
struct SerialResult {
  std::vector<std::vector<double>> Conv, Skit, Mkl, SkitRatio, MklRatio;
  /// Latencies of the non-control cells, in windows of whole sweeps.
  std::vector<std::vector<double>> Windows;
  std::vector<std::map<std::string, uint64_t>> Labels;
  uint64_t NonDirect = 0;
  uint64_t MeasuredWins = 0;
  /// The window still filling; it carries over from one round to the next.
  std::vector<double> Open;

  /// Closes the run: a last partial window counts only if no window filled.
  void finish() {
    if (Windows.empty() || Open.size() >= kSerialWindowSamples)
      Windows.push_back(std::move(Open));
    Open.clear();
  }
};

std::string plannerLabel(const planner::Decision &D) {
  return D.Engaged ? D.Chosen.Label : "planner-off";
}

/// One request at a time, round robin over \p Cells, for \p Seconds (and
/// at least \p MinSweeps sweeps), appending to \p R. Each rep times
/// convert() and then, on the same input, the cell's baselines back to
/// back. The planner label the request will get is read (untimed) before
/// each convert().
void serialLoop(Bench &B, const std::vector<Cell *> &Cells, double Seconds,
                int MinSweeps, SpanLog *Log, SerialResult &R) {
  size_t N = Cells.size();
  R.Conv.resize(N), R.Skit.resize(N), R.Mkl.resize(N);
  R.SkitRatio.resize(N), R.MklRatio.resize(N), R.Labels.resize(N);
  auto End = Clock::now() + std::chrono::duration<double>(Seconds);
  int64_t Req = 0;
  std::vector<double> &Window = R.Open;
  for (int Sweep = 0; Sweep < MinSweeps || Clock::now() < End; ++Sweep) {
    if (Window.size() >= kSerialWindowSamples) {
      R.Windows.push_back(std::move(Window));
      Window.clear();
    }
    for (size_t I = 0; I < N; ++I) {
      const Cell &C = *Cells[I];
      ++Req;
      ScopedSpan Root(Log, "request", 0, Req);
      planner::Decision D;
      {
        ScopedSpan S(Log, "planner.decide", Root.id(), Req);
        D = planner::decide(C.Request.Source, C.Request.Target,
                            C.Request.Opts,
                            planner::InputStats::fromTensor(*C.In));
      }
      ++R.Labels[I][plannerLabel(D)];
      if (D.Engaged && D.Chosen.Label != "direct")
        ++R.NonDirect;
      if (D.MeasuredWin)
        ++R.MeasuredWins;
      double Ms = 0;
      {
        StatusOr<tensor::SparseTensor> Out =
            B.convert(C, &Ms, Log, Root.id(), Req);
        ScopedSpan S(Log, "oracle.check", Root.id(), Req);
        B.verify(Out, C, true);
      }
      R.Conv[I].push_back(Ms);
      if (!C.Control)
        Window.push_back(Ms);
      if (C.Skit) {
        ScopedSpan S(Log, "baselines.skit", Root.id(), Req);
        double Sk = timeMs(C.Skit);
        R.Skit[I].push_back(Sk);
        R.SkitRatio[I].push_back(Sk / Ms);
      }
      if (C.Mkl) {
        ScopedSpan S(Log, "baselines.mkl", Root.id(), Req);
        double Mk = timeMs(C.Mkl);
        R.Mkl[I].push_back(Mk);
        R.MklRatio[I].push_back(Mk / Ms);
      }
    }
  }
}

/// Geomean over \p Cells (control cells skipped unless \p WithControl) of
/// \p Stat (default: the median) of each cell's samples in \p Per; cells
/// with no samples are skipped.
double geomeanOverCells(const std::vector<Cell *> &Cells,
                        const std::vector<std::vector<double>> &Per,
                        bool WithControl,
                        double (*Stat)(const std::vector<double> &) = median) {
  std::vector<double> Vals;
  for (size_t I = 0; I < Cells.size(); ++I)
    if (!Per[I].empty() && (WithControl || !Cells[I]->Control))
      Vals.push_back(Stat(Per[I]));
  return geomean(Vals);
}

struct ServeResult {
  std::vector<std::vector<double>> PerCell;
  std::vector<double> All;
  /// Latencies by the kServeWindowSeconds window they completed in; only
  /// windows that lie wholly inside the measured interval. A loop shorter
  /// than one window gives one window of its whole length.
  std::vector<std::vector<double>> Windows;
  std::vector<double> WindowS;

  void append(ServeResult &&O) {
    PerCell.resize(O.PerCell.size());
    for (size_t I = 0; I < O.PerCell.size(); ++I)
      PerCell[I].insert(PerCell[I].end(), O.PerCell[I].begin(),
                        O.PerCell[I].end());
    All.insert(All.end(), O.All.begin(), O.All.end());
    for (size_t W = 0; W < O.Windows.size(); ++W) {
      Windows.push_back(std::move(O.Windows[W]));
      WindowS.push_back(O.WindowS[W]);
    }
  }
};

/// The closed loop: kServeClients threads, each sending its next request
/// (drawn by seed from the pool) when the previous one returns. One in
/// kServeCheckEvery outputs, chosen by seed, is compared with the oracle.
ServeResult serveLoop(Bench &B, const std::vector<Cell *> &Pool,
                      double Seconds, uint64_t Salt, bool Traced) {
  struct Sample {
    uint32_t Cell;
    double Ms;
    double EndMs; ///< Completion, from the start of the loop.
  };
  std::vector<std::vector<Sample>> Samples(kServeClients);
  std::vector<SpanLog *> Logs;
  for (int T = 0; T < kServeClients; ++T)
    Logs.push_back(Traced ? B.newLog() : nullptr);
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  Clock::time_point Start, End;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kServeClients; ++T)
    Threads.emplace_back([&, T] {
      std::mt19937_64 Rng(mixSeed(B.A.Seed, Salt * 16 + T));
      std::vector<Sample> &Mine = Samples[T];
      Mine.reserve(1 << 18);
      SpanLog *Log = Logs[T];
      int64_t Req = static_cast<int64_t>(T) << 32;
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      while (Clock::now() < End) {
        uint64_t Draw = Rng();
        uint32_t I = static_cast<uint32_t>(Draw % Pool.size());
        bool Check = (Draw >> 32) % kServeCheckEvery == 0;
        ++Req;
        ScopedSpan Root(Log, "request", 0, Req);
        double Ms = 0;
        StatusOr<tensor::SparseTensor> Out =
            B.convert(*Pool[I], &Ms, Log, Root.id(), Req);
        Mine.push_back({I, Ms, msSince(Start)});
        ScopedSpan S(Log, "oracle.check", Root.id(), Req);
        B.verify(Out, *Pool[I], Check);
      }
    });
  while (Ready.load() < kServeClients)
    std::this_thread::yield();
  Start = Clock::now();
  End = Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Seconds));
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  ServeResult R;
  double WallS = msSince(Start) * 1e-3;
  R.PerCell.resize(Pool.size());
  R.Windows.resize(static_cast<size_t>(Seconds / kServeWindowSeconds));
  R.WindowS.assign(R.Windows.size(), kServeWindowSeconds);
  for (const auto &Mine : Samples)
    for (const Sample &S : Mine) {
      R.PerCell[S.Cell].push_back(S.Ms);
      R.All.push_back(S.Ms);
      size_t W = static_cast<size_t>(S.EndMs * 1e-3 / kServeWindowSeconds);
      if (W < R.Windows.size())
        R.Windows[W].push_back(S.Ms);
    }
  if (R.Windows.empty()) {
    R.Windows.push_back(R.All);
    R.WindowS.push_back(WallS);
  }
  return R;
}

/// Per format pair: the pooled latency samples of its cells.
std::map<std::string, std::vector<double>>
byPair(const std::vector<Cell *> &Pool, const ServeResult &R) {
  std::map<std::string, std::vector<double>> Out;
  for (size_t I = 0; I < Pool.size(); ++I) {
    auto &V = Out[Pool[I]->Pair];
    V.insert(V.end(), R.PerCell[I].begin(), R.PerCell[I].end());
  }
  return Out;
}

/// The end-to-end metrics the measured loops give. Serial workloads report
/// conv_ms from their cells and speedups from the same loop; serve reports
/// latency from the closed loop and speedups from its serial baseline pass.
struct LoopMetrics {
  double ConvMs = 0, ReqPerS = 0, P50 = 0, P99 = 0, SkitX = 0, MklX = 0;
  size_t Samples = 0, Windows = 0;
};

/// Geomean over keys of \p Stat (default: the median) of each key's
/// samples.
double geomeanOverKeys(const std::map<std::string, std::vector<double>> &M,
                       double (*Stat)(const std::vector<double> &) = median) {
  std::vector<double> Vals;
  for (const auto &[Key, V] : M)
    if (!V.empty())
      Vals.push_back(Stat(V));
  return geomean(Vals);
}

/// p99 and throughput as medians over windows; \p Seconds gives each
/// window's length (busy time for serial windows, wall time for serve).
void windowed(const std::vector<std::vector<double>> &Windows,
              const std::vector<double> &Seconds, LoopMetrics &M) {
  std::vector<double> P99, Rate;
  for (size_t I = 0; I < Windows.size(); ++I) {
    P99.push_back(quantile(Windows[I], 0.99));
    double S = Seconds[I];
    Rate.push_back(S > 0 ? static_cast<double>(Windows[I].size()) / S : 0);
  }
  M.P99 = median(P99);
  M.ReqPerS = median(Rate);
  M.Windows = Windows.size();
}

LoopMetrics serialMetrics(const std::vector<Cell *> &Cells,
                          const SerialResult &R) {
  LoopMetrics M;
  M.ConvMs = geomeanOverCells(Cells, R.Conv, false, trimmedMean);
  std::vector<double> All;
  for (size_t I = 0; I < Cells.size(); ++I)
    if (!Cells[I]->Control)
      All.insert(All.end(), R.Conv[I].begin(), R.Conv[I].end());
  M.P50 = pooledMedian(All);
  M.Samples = All.size();
  std::vector<double> BusyS;
  for (const std::vector<double> &W : R.Windows) {
    double SumMs = 0;
    for (double X : W)
      SumMs += X;
    BusyS.push_back(SumMs * 1e-3);
  }
  windowed(R.Windows, BusyS, M);
  M.SkitX = geomeanOverCells(Cells, R.SkitRatio, true);
  M.MklX = geomeanOverCells(Cells, R.MklRatio, true);
  return M;
}

LoopMetrics serveMetrics(const std::vector<Cell *> &Pool,
                         const ServeResult &R) {
  LoopMetrics M;
  M.ConvMs = geomeanOverKeys(byPair(Pool, R), trimmedMean);
  M.P50 = pooledMedian(R.All);
  M.Samples = R.All.size();
  windowed(R.Windows, R.WindowS, M);
  return M;
}

void printSerialRows(const std::vector<Cell *> &Cells, const SerialResult &R) {
  for (size_t I = 0; I < Cells.size(); ++I) {
    std::string Labels;
    for (const auto &[L, N] : R.Labels[I])
      Labels += (Labels.empty() ? "" : ",") + L + ":" + std::to_string(N);
    std::printf("cell %-26s %s label=%s", Cells[I]->Name.c_str(),
                distText(R.Conv[I]).c_str(), Labels.c_str());
    if (!R.SkitRatio[I].empty())
      std::printf(" skit_x=%.3f", median(R.SkitRatio[I]));
    if (!R.MklRatio[I].empty())
      std::printf(" mkl_x=%.3f", median(R.MklRatio[I]));
    std::printf("\n");
  }
}

//===----------------------------------------------------------------------===//
// Per-layer probes (traced run only)
//===----------------------------------------------------------------------===//

const char *const kPhaseNames[jit::kNumPhases] = {
    "analysis", "edges", "coords", "finalize",
    "collect",  "sort",  "pos",    "crd"};

/// The options the runtime executes a cell's request under: the planner's
/// chosen direct plan when it engages, else the dims-routed default.
codegen::Options probeOptions(const Cell &C) {
  planner::Decision D =
      planner::decide(C.Request.Source, C.Request.Target, C.Request.Opts,
                      planner::InputStats::fromTensor(*C.In));
  if (D.Engaged && D.Chosen.Kind == planner::Candidate::Path::Direct)
    return D.Chosen.Hops[0].Opts;
  return codegen::optionsForDims(C.Request.Source, C.Request.Target,
                                 C.Request.Opts, C.In->Dims);
}

/// Splits each request into the public calls convert() makes — planner
/// decision, cache hit, tryRun — plus runRaw on pre-marshalled input and
/// the routine's own phase clock, on the calling thread (the phase clock
/// is thread-local to the thread that loaded the routine).
void probeRequests(Bench &B, const std::vector<Cell *> &Cells,
                   double Seconds, SpanLog *Log) {
  struct Probe {
    const Cell *C;
    codegen::Options Opts;
    std::shared_ptr<jit::JitConversion> H;
    jit::CTensor In;
    std::vector<double> Raw, Marshal;
    double Phases[jit::kNumPhases] = {};
  };
  convert::PlanCache &Cache = convert::PlanCache::instance();
  std::vector<Probe> Probes;
  for (Cell *C : Cells) {
    Probe P;
    P.C = C;
    P.Opts = probeOptions(*C);
    StatusOr<std::shared_ptr<jit::JitConversion>> H = Cache.tryJit(
        C->Request.Source, C->Request.Target, P.Opts);
    if (!H.ok()) {
      B.fail(C->Name + ": probe acquisition: " + H.status().toString());
      continue;
    }
    P.H = H.take();
    jit::marshalInput(*C->In, &P.In);
    Probes.push_back(std::move(P));
  }
  std::vector<double> Decide, Hit, Overhead;
  auto End = Clock::now() + std::chrono::duration<double>(Seconds);
  int64_t Req = int64_t(1) << 48;
  for (int Rep = 0; Rep < 5 || Clock::now() < End; ++Rep) {
    for (Probe &P : Probes) {
      const Cell &C = *P.C;
      ++Req;
      ScopedSpan Root(Log, "probe", 0, Req);
      // convert() runs before its parts on even reps and after them on odd
      // ones, so neither side always finds the input warm in cache.
      double ConvMs = 0;
      auto Whole = [&] {
        StatusOr<tensor::SparseTensor> Conv =
            B.convert(C, &ConvMs, Log, Root.id(), Req);
        B.verify(Conv, C, true);
      };
      if (Rep % 2 == 0)
        Whole();
      auto T0 = Clock::now();
      {
        ScopedSpan S(Log, "planner.decide", Root.id(), Req);
        (void)planner::decide(C.Request.Source, C.Request.Target,
                              C.Request.Opts,
                              planner::InputStats::fromTensor(*C.In));
      }
      double DecideMs = msSince(T0);
      T0 = Clock::now();
      {
        ScopedSpan S(Log, "cache.hit", Root.id(), Req);
        (void)Cache.tryJit(C.Request.Source, C.Request.Target, P.Opts);
      }
      double HitMs = msSince(T0);
      double TryMs = 0;
      {
        StatusOr<tensor::SparseTensor> Out = [&] {
          ScopedSpan S(Log, "jit.tryRun", Root.id(), Req);
          T0 = Clock::now();
          StatusOr<tensor::SparseTensor> Res = P.H->tryRun(*C.In);
          TryMs = msSince(T0);
          return Res;
        }();
        B.verify(Out, C, true);
      }

      double Before[jit::kNumPhases] = {};
      if (const double *Ph = P.H->phaseSeconds())
        std::copy(Ph, Ph + jit::kNumPhases, Before);
      jit::CTensor Raw;
      T0 = Clock::now();
      {
        ScopedSpan S(Log, "jit.runRaw", Root.id(), Req);
        P.H->runRaw(&P.In, &Raw);
      }
      double RawMs = msSince(T0);
      jit::freeOutput(&Raw);
      if (const double *Ph = P.H->phaseSeconds())
        for (int K = 0; K < jit::kNumPhases; ++K)
          P.Phases[K] += (Ph[K] - Before[K]) * 1e3;
      if (Rep % 2 == 1)
        Whole();
      P.Raw.push_back(RawMs);
      P.Marshal.push_back(TryMs - RawMs);
      Decide.push_back(DecideMs);
      Hit.push_back(HitMs);
      Overhead.push_back(ConvMs - (DecideMs + HitMs + TryMs));
    }
  }
  std::vector<double> RawMed, Marshal;
  double Phases[jit::kNumPhases] = {};
  for (const Probe &P : Probes) {
    RawMed.push_back(median(P.Raw));
    Marshal.push_back(median(P.Marshal));
    for (int K = 0; K < jit::kNumPhases; ++K)
      Phases[K] += P.Phases[K] / static_cast<double>(P.Raw.size());
  }
  B.metric("jit.run_ms", geomean(RawMed), "ms");
  B.metric("jit.marshal_ms", mean(Marshal), "ms");
  for (int K = 0; K < jit::kNumPhases; ++K)
    B.metric(std::string("jit.phase.") + kPhaseNames[K] + "_ms",
             Phases[K] / static_cast<double>(std::max<size_t>(
                             1, Probes.size())),
             "ms");
  B.metric("planner.decide_us", median(Decide) * 1e3, "us");
  B.metric("cache.hit_us", median(Hit) * 1e3, "us");
  B.metric("service.overhead_us", median(Overhead) * 1e3, "us");
}

/// Code generation, cold compile and disk load of every distinct plan key
/// the cells run under, each timed around its public call.
void probeCompile(Bench &B, const std::vector<Cell *> &Cells, SpanLog *Log) {
  struct Key {
    formats::Format Src, Dst;
    codegen::Options Opts;
  };
  std::map<std::string, Key> Keys;
  for (Cell *C : Cells) {
    codegen::Options Opts = probeOptions(*C);
    Keys.emplace(convert::planKey(C->Request.Source, C->Request.Target, Opts),
                 Key{C->Request.Source, C->Request.Target, Opts});
  }
  std::vector<double> Gen, Compile, Load;
  double CBytes = 0, Queries = 0;
  for (const auto &[Name, K] : Keys) {
    std::vector<double> Ms;
    for (int Rep = 0; Rep < 3; ++Rep) {
      ScopedSpan S(Log, "codegen.generate");
      auto T0 = Clock::now();
      codegen::Conversion Conv =
          codegen::generateConversion(K.Src, K.Dst, K.Opts);
      Ms.push_back(msSince(T0));
      if (Rep == 0) {
        CBytes += static_cast<double>(Conv.cSource().size());
        Queries += static_cast<double>(Conv.Queries.size());
      }
    }
    Gen.push_back(median(Ms));
  }
  convert::PlanCache &Cache = convert::PlanCache::instance();
  B.freshCache("probe");
  for (bool Cold : {true, false}) {
    if (!Cold)
      Cache.clearMemory(); // The disk cache keeps the objects.
    for (const auto &[Name, K] : Keys) {
      ScopedSpan S(Log, Cold ? "jit.compile" : "jit.load");
      auto T0 = Clock::now();
      StatusOr<std::shared_ptr<jit::JitConversion>> H =
          Cache.tryJit(K.Src, K.Dst, K.Opts);
      double Ms = msSince(T0);
      if (!H.ok() || (*H)->degraded() || (*H)->loadedFromCache() == Cold) {
        B.fail("probe " + Name + ": expected a " +
               (Cold ? "compile" : "disk load"));
        continue;
      }
      (Cold ? Compile : Load).push_back(Ms);
    }
  }
  B.metric("codegen.generate_ms", median(Gen), "ms");
  B.metric("codegen.c_bytes", CBytes, "bytes");
  B.metric("codegen.queries", Queries, "count");
  B.metric("jit.compile_ms", median(Compile), "ms");
  B.metric("jit.load_ms", median(Load), "ms");
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void printResult(const Bench &B) {
  std::string Json = "{\"correct\": ";
  Json += B.Failed.load() == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(B.Attempted.load());
  Json += ", \"failed\": " + std::to_string(B.Failed.load());
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : B.Metrics) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), VU.first,
                  VU.second.c_str());
    Json += Buf;
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

bool writeTrace(const Bench &B, int64_t Epoch) {
  std::FILE *Out = std::fopen(B.A.TraceOut.c_str(), "w");
  if (!Out)
    return false;
  for (const auto &L : B.Logs)
    L->write(Out, Epoch);
  return std::fclose(Out) == 0;
}

int threadsFromEnv(const char *Name) {
  const char *V = std::getenv(Name);
  return V && std::atoi(V) > 0 ? std::atoi(V) : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table3|tensor3|serve --seed N "
                 "--seconds S --trace 0|1 --state DIR [--trace-out FILE] "
                 "[--size F] [--corrupt]\n");
    return 2;
  }
  setvbuf(stdout, nullptr, _IOLBF, 0);
  int64_t Epoch = perfbench::nowNs();

  // Thread budget: generated routines run OpenMP regions; more client
  // threads x OpenMP threads than cores makes every timing a scheduling
  // lottery.
  int Cores = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  int Omp = threadsFromEnv("OMP_NUM_THREADS");
#ifdef _OPENMP
  if (Omp != omp_get_max_threads()) {
    std::fprintf(stderr, "perfbench: OMP_NUM_THREADS must be set (the "
                         "OpenMP runtime reports %d threads)\n",
                 omp_get_max_threads());
    return 2;
  }
#endif
  int Clients = A.Workload == "serve" ? kServeClients : 1;
  if (Omp < 1 || Clients * Omp > Cores) {
    std::fprintf(stderr,
                 "perfbench: %d client(s) x %d OpenMP thread(s) exceeds the "
                 "%d available cores; refusing to run\n",
                 Clients, Omp, Cores);
    return 2;
  }
  if (!jit::jitAvailable()) {
    std::fprintf(stderr, "perfbench: no working C compiler for the JIT\n");
    return 2;
  }
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"size\": %g, "
              "\"table3_scale\": %g, \"tensor3_scale\": %g, \"nproc\": %d, "
              "\"omp_threads\": %d, \"clients\": %d, \"jit_openmp\": %s}\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, A.Size, kTable3Scale * A.Size,
              kTensor3Scale * A.Size, Cores, Omp, Clients,
              jit::jitOpenMPAvailable() ? "true" : "false");

  convert::ServiceLimits Limits;
  Limits.MaxInflight = Clients;
  Limits.QueueDepth = Clients;
  Bench B(A, Limits);
  SpanLog *MainLog = A.Trace ? B.newLog() : nullptr;
  convert::PlanCache &Cache = convert::PlanCache::instance();

  // The run is kRounds rounds. Each round sets up from nothing, restarts
  // warm, then runs its share of the measured loop. So set-up, first
  // requests and the loop are each sampled across the whole run, not in
  // one burst that a spell of load on the host can cover.
  //
  // Set-up: a fresh cache directory and (in-memory) outcome store, inputs
  // and oracle outputs, then one request per cell, the smallest cell of
  // each format pair first. Every request that compiles is a
  // time-to-first-conversion sample on a cold cache.
  //
  // Warm restarts: export the manifest, drop every in-memory handle,
  // preload eagerly, then the first request of each format pair.
  //
  // The traced run measures each round's share of the loop twice, first
  // untraced and then traced, and reports the difference as the tracing
  // overhead; the untraced run reports the end-to-end metrics.
  bool Serve = A.Workload == "serve";
  std::unique_ptr<Inputs> In;
  std::vector<Cell *> All, Measured, Baselined;
  std::vector<double> SetupS, GenS, OracleS, PreloadMs;
  std::map<std::string, std::vector<double>> ColdMs, WarmMs;
  // Per pass (untraced, traced): the serial loop (serve: its serial
  // baseline pass) and the serve closed loop.
  SerialResult Serial[2];
  ServeResult Served[2];
  // Cache and service counters, summed over the measured loops.
  auto Counters = [&] {
    convert::PlanCacheStats C = Cache.stats();
    convert::ServiceStats S = B.Service.stats();
    return std::map<std::string, uint64_t>{
        {"cache.jit_hits", C.JitHits},
        {"cache.jit_misses", C.JitMisses},
        {"cache.disk_hits", C.DiskHits},
        {"cache.coalesced", C.JitCoalesced},
        {"service.shed", S.Shed},
        {"service.deadline_expired", S.DeadlineExpired},
        {"service.request_errors", S.RequestErrors},
        {"service.degraded_runs", S.DegradedRuns}};
  };
  std::map<std::string, uint64_t> LoopCounts;
  int Passes = A.Trace ? 2 : 1;
  double RoundS = A.Seconds / kRounds / Passes;
  int MinSweeps = (kMinSweeps + kRounds - 1) / kRounds;
  for (int Round = 0; Round < kRounds; ++Round) {
    In.reset();
    B.freshCache("setup");
    Cache.resetOutcomes();
    {
      ScopedSpan S(MainLog, "setup");
      auto Start = Clock::now();
      In = std::make_unique<Inputs>(buildInputs(A));
      std::vector<Cell *> Order = firstPerPair(*In);
      for (const auto &C : In->Cells)
        if (std::find(Order.begin(), Order.end(), C.get()) == Order.end())
          Order.push_back(C.get());
      for (Cell *C : Order) {
        uint64_t Misses = Cache.stats().JitMisses;
        double Ms = B.request(*C, MainLog);
        if (Cache.stats().JitMisses != Misses)
          ColdMs[C->Name].push_back(Ms);
      }
      SetupS.push_back(msSince(Start) * 1e-3);
      GenS.push_back(In->GenS);
      OracleS.push_back(In->OracleS);
    }

    for (int Rep = 0; Rep < kRestartsPerRound; ++Rep) {
      Status Exported = Cache.exportManifest();
      if (!Exported.ok())
        B.fail("exportManifest: " + Exported.toString());
      Cache.clearMemory();
      auto Start = Clock::now();
      {
        ScopedSpan S(MainLog, "cache.preload");
        convert::PreloadStats P =
            Cache.preload("", convert::PreloadMode::Eager);
        if (P.Evicted != 0 || P.Loaded == 0)
          B.fail("preload loaded " + std::to_string(P.Loaded) +
                 ", evicted " + std::to_string(P.Evicted));
      }
      PreloadMs.push_back(msSince(Start));
      for (Cell *C : firstPerPair(*In))
        WarmMs[C->Pair].push_back(B.request(*C, MainLog));
    }
    // Plans the manifest does not carry (planner-forced strategies) reload
    // from disk here rather than inside the measured loop.
    for (const auto &C : In->Cells)
      B.request(*C, MainLog);

    All.clear();
    for (const auto &C : In->Cells)
      All.push_back(C.get());
    Measured = In->measured();
    // Serve measures speedups in a serial pass over its baselined cells;
    // the serial workloads time baselines inside their one loop.
    Baselined = Serve ? In->withBaselines() : All;
    std::map<std::string, uint64_t> Before = Counters();
    for (int Pass = 0; Pass < Passes; ++Pass) {
      SpanLog *Log = Pass == 1 ? MainLog : nullptr;
      if (Serve) {
        Served[Pass].append(serveLoop(B, Measured,
                                      RoundS * (1 - kServeBaselineShare),
                                      Round * 2 + Pass, Pass == 1));
        serialLoop(B, Baselined, RoundS * kServeBaselineShare, MinSweeps,
                   Log, Serial[Pass]);
      } else {
        serialLoop(B, All, RoundS, MinSweeps, Log, Serial[Pass]);
      }
    }
    for (const auto &[Name, N] : Counters())
      LoopCounts[Name] += N - Before[Name];
  }

  LoopMetrics Loop[2];
  for (int Pass = 0; Pass < Passes; ++Pass) {
    Serial[Pass].finish();
    LoopMetrics BM = serialMetrics(Baselined, Serial[Pass]);
    Loop[Pass] = Serve ? serveMetrics(Measured, Served[Pass]) : BM;
    Loop[Pass].SkitX = BM.SkitX;
    Loop[Pass].MklX = BM.MklX;
  }
  // The rows of the pass whose metrics are printed: the untraced run's
  // only pass, the traced run's traced one.
  const SerialResult &Base = Serial[Passes - 1];
  if (Serve)
    for (const auto &[Pair, V] : byPair(Measured, Served[Passes - 1]))
      std::printf("pair %-16s %s\n", Pair.c_str(), distText(V).c_str());
  else
    printSerialRows(All, Base);
  const LoopMetrics &Untraced = Loop[0], &Traced = Loop[1];

  if (!A.Trace) {
    const LoopMetrics &M = Untraced;
    B.metric("setup_s", median(SetupS), "s");
    B.metric("conv_ms", M.ConvMs, "ms");
    B.metric("req_per_s", M.ReqPerS, "1/s");
    B.metric("latency_p50_ms", M.P50, "ms");
    B.metric("latency_p99_ms", M.P99, "ms");
    B.metric("speedup_vs_skit", M.SkitX, "x");
    B.metric("speedup_vs_mkl", M.MklX, "x");
    B.metric("ttfc_cold_ms", geomeanOverKeys(ColdMs), "ms");
    B.metric("peak_rss_mb", peakRssMb(), "MB");
    std::printf("latency samples=%zu windows=%zu\n", M.Samples, M.Windows);
    for (const auto &[Name, V] : ColdMs)
      std::printf("ttfc_cold %-26s %s\n", Name.c_str(), distText(V).c_str());
    for (const auto &[Pair, V] : WarmMs)
      std::printf("ttfc_warm %-26s %s\n", Pair.c_str(), distText(V).c_str());
  } else {
    probeRequests(B, Measured, A.Seconds / 3, MainLog);
    probeCompile(B, Measured, MainLog);
    double Primary = Serve ? Untraced.P50 : Untraced.ConvMs;
    double PrimaryT = Serve ? Traced.P50 : Traced.ConvMs;
    B.metric("trace.overhead_pct",
             Primary > 0 ? (PrimaryT / Primary - 1) * 100 : 0, "%");
    for (const LoopMetrics *M : {&Untraced, &Traced})
      std::printf("%s pass: conv_ms=%.4f req_per_s=%.1f latency_p50_ms=%.4f "
                  "latency_p99_ms=%.4f\n",
                  M == &Traced ? "traced" : "untraced", M->ConvMs, M->ReqPerS,
                  M->P50, M->P99);
    B.metric("tensor.gen_s", median(GenS), "s");
    B.metric("tensor.oracle_s", median(OracleS), "s");
    B.metric("cache.preload_ms", median(PreloadMs), "ms");
    // First requests after a warm restart pay first-touch costs that swing
    // by a quarter or more between runs on a shared VM, beyond any bound an
    // end-to-end metric may have; the figure stays here, unbounded.
    B.metric("ttfc_warm_ms", geomeanOverKeys(WarmMs), "ms");
    uint64_t NonDirect = 0, MeasuredWins = 0;
    for (const SerialResult &R : Serial) {
      NonDirect += R.NonDirect;
      MeasuredWins += R.MeasuredWins;
    }
    B.metric("planner.non_direct", static_cast<double>(NonDirect), "count");
    B.metric("planner.measured_wins", static_cast<double>(MeasuredWins),
             "count");
    for (const auto &[Name, N] : LoopCounts)
      B.metric(Name, static_cast<double>(N), "count");
    B.metric("baselines.skit_ms", geomeanOverCells(Baselined, Base.Skit, true),
             "ms");
    B.metric("baselines.mkl_ms", geomeanOverCells(Baselined, Base.Mkl, true),
             "ms");
    size_t Spans = 0;
    for (const auto &L : B.Logs)
      Spans += L->size();
    B.metric("trace.spans", static_cast<double>(Spans), "count");
  }

  if (A.Trace && !A.TraceOut.empty() && !writeTrace(B, Epoch)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }
  support::DegradationCounters Deg =
      support::DegradationLog::instance().snapshot();
  if (Deg.degradedTotal() > 0) {
    std::fprintf(stderr,
                 "perfbench: the runtime degraded (%s); these would be "
                 "interpreter timings, not native ones, so none are "
                 "reported\n",
                 support::DegradationLog::instance().summary().c_str());
    return 3;
  }
  if (B.Failed.load() != 0)
    std::fprintf(stderr, "perfbench: %llu of %llu conversions failed; first: "
                         "%s\n",
                 static_cast<unsigned long long>(B.Failed.load()),
                 static_cast<unsigned long long>(B.Attempted.load()),
                 B.FirstError.c_str());
  printResult(B);
  return B.Failed.load() == 0 ? 0 : 1;
}
