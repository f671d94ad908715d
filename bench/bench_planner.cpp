//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Planner ablation: for each format pair, time every candidate the path
/// planner enumerates (the direct default, "direct+sorted" and the
/// "via-coo" chain), feed the measurements into the outcome store, and
/// compare the planner's warmed-up choice against the forced-direct
/// default. This is
/// the measured-outcome auto-tuning loop run end to end: the "planner-
/// chosen" row is whatever decide() picks after it has seen real timings.
///
/// All rows use the interpreter-backed Converter so candidate timings are
/// methodologically identical (the JIT path shares the same plans; its
/// relative ordering is the same). Outcomes are kept memory-only so the
/// benchmark neither reads nor pollutes the user's auto-tuning history.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/Knobs.h"
#include "convert/Converter.h"
#include "planner/Planner.h"
#include "tensor/Triplets.h"

#include <cinttypes>
#include <random>
#include <set>

using namespace convgen;
using namespace convgen::bench;

namespace {

/// Pins CONVGEN_PLANNER off for a scope (candidate timings must execute
/// exactly the candidate's forced options, not re-decide).
class ScopedPlannerOff {
public:
  ScopedPlannerOff() {
    if (const char *Old = std::getenv("CONVGEN_PLANNER")) {
      Had = true;
      Saved = Old;
    }
    setenv("CONVGEN_PLANNER", "off", 1);
    codegen::reloadKnobsFromEnv();
  }
  ~ScopedPlannerOff() {
    if (Had)
      setenv("CONVGEN_PLANNER", Saved.c_str(), 1);
    else
      unsetenv("CONVGEN_PLANNER");
    codegen::reloadKnobsFromEnv();
  }

private:
  std::string Saved;
  bool Had = false;
};

/// A fixed-seed random tensor: \p Nnz distinct coordinates in \p Dims.
tensor::SparseTensor randomTensor(const formats::Format &Src,
                                  const std::vector<int64_t> &Dims,
                                  int64_t Nnz, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  tensor::Triplets T;
  T.setDims(Dims);
  std::set<std::vector<int64_t>> Seen;
  while (static_cast<int64_t>(T.Entries.size()) < Nnz) {
    std::vector<int64_t> Coord;
    for (int64_t D : Dims)
      Coord.push_back(static_cast<int64_t>(Rng() % static_cast<uint64_t>(D)));
    if (!Seen.insert(Coord).second)
      continue;
    T.Entries.push_back(
        tensor::Entry(Coord, static_cast<double>(1 + Rng() % 97)));
  }
  return tensor::buildFromTriplets(Src, T);
}

/// Runs one candidate path hop by hop with the planner pinned off.
bool runCandidate(const planner::Candidate &C,
                  const tensor::SparseTensor &In) {
  tensor::SparseTensor Staged;
  const tensor::SparseTensor *Cur = &In;
  for (const planner::Hop &H : C.Hops) {
    StatusOr<convert::Converter> Conv =
        convert::Converter::tryCreate(H.Src, H.Dst, H.Opts);
    if (!Conv.ok())
      return false;
    StatusOr<tensor::SparseTensor> Out = Conv->tryRun(*Cur);
    if (!Out.ok())
      return false;
    Staged = Out.take();
    Cur = &Staged;
  }
  return true;
}

struct PairSpec {
  const char *Name;
  const char *Src;
  const char *Dst;
  std::vector<int64_t> Dims;
  int64_t Nnz; ///< At scale 1.0; multiplied by benchScale().
};

void benchPair(const PairSpec &Spec, BenchReport &Report) {
  formats::Format Src = formats::standardFormatOrDie(Spec.Src);
  formats::Format Dst = formats::standardFormatOrDie(Spec.Dst);
  int64_t Nnz = std::max<int64_t>(
      codegen::knobs().PlannerMinNnz,
      static_cast<int64_t>(static_cast<double>(Spec.Nnz) * benchScale()));
  tensor::SparseTensor In = randomTensor(Src, Spec.Dims, Nnz, 0xb0b0cafe);

  planner::Decision Cold =
      planner::decide(Src, Dst, codegen::Options(),
                      planner::InputStats::fromTensor(In));
  if (!Cold.Engaged) {
    std::printf("%-14s planner disengaged (%s); skipping\n", Spec.Name,
                Cold.Why.c_str());
    return;
  }

  // Time every candidate with identical methodology, recording each rep
  // into the outcome store so the planner can learn from it.
  std::printf("%-14s nnz %" PRId64 ", %zu candidates\n", Spec.Name, Nnz,
              Cold.Considered.size());
  convert::PlanCache &Cache = convert::PlanCache::instance();
  std::map<std::string, TimeStats> Timed;
  {
    ScopedPlannerOff Off;
    for (const planner::Candidate &C : Cold.Considered) {
      std::vector<double> Times;
      bool Ok = true;
      for (int Rep = 0; Rep < benchReps() && Ok; ++Rep) {
        auto Begin = std::chrono::steady_clock::now();
        Ok = runCandidate(C, In);
        double Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Begin)
                             .count();
        if (Ok) {
          Times.push_back(Seconds);
          Cache.recordOutcome(C.OutcomeKey, Seconds);
        }
      }
      if (!Ok || Times.empty()) {
        std::printf("    %-24s failed to execute\n", C.Label.c_str());
        continue;
      }
      std::sort(Times.begin(), Times.end());
      TimeStats S{Times.front(), Times[Times.size() / 2]};
      Timed[C.Label] = S;
      std::printf("    %-24s median %8.2f ms  (analytic cost %.3g)\n",
                  C.Label.c_str(), S.MedianSeconds * 1e3, C.AnalyticCost);
      Report.add(strfmt("{\"label\": \"%s/candidate/%s\", "
                        "\"median_seconds\": %.6g, \"min_seconds\": %.6g, "
                        "\"analytic_cost\": %.6g}",
                        Spec.Name, C.Label.c_str(), S.MedianSeconds,
                        S.MinSeconds, C.AnalyticCost));
    }
  }

  // The warmed-up decision: measurements now outvote the analytic model.
  planner::Decision Hot =
      planner::decide(Src, Dst, codegen::Options(),
                      planner::InputStats::fromTensor(In));
  const std::string &Chosen = Hot.Chosen.Label;
  if (!Timed.count("direct") || !Timed.count(Chosen)) {
    std::printf("    (no timing for chosen plan '%s')\n", Chosen.c_str());
    return;
  }
  TimeStats DirectS = Timed["direct"];
  TimeStats ChosenS = Timed[Chosen];
  double Speedup = DirectS.MedianSeconds / ChosenS.MedianSeconds;
  std::printf("    -> planner chose %-17s %s  speedup over direct %.2fx\n",
              Chosen.c_str(), Hot.MeasuredWin ? "(measured)" : "(analytic)",
              Speedup);
  Report.add(strfmt("{\"label\": \"%s/direct-default\", "
                    "\"median_seconds\": %.6g, \"min_seconds\": %.6g}",
                    Spec.Name, DirectS.MedianSeconds, DirectS.MinSeconds));
  Report.add(strfmt("{\"label\": \"%s/planner-chosen\", "
                    "\"median_seconds\": %.6g, \"min_seconds\": %.6g, "
                    "\"plan\": \"%s\", \"measured_win\": %s, "
                    "\"speedup_over_direct\": %.3f}",
                    Spec.Name, ChosenS.MedianSeconds, ChosenS.MinSeconds,
                    Chosen.c_str(), Hot.MeasuredWin ? "true" : "false",
                    Speedup));
}

} // namespace

int main() {
  // Memory-only outcomes: do not read or pollute the persisted history.
  setenv("CONVGEN_OUTCOMES", "", 1);
  codegen::reloadKnobsFromEnv();
  convert::PlanCache::instance().resetOutcomes();

  std::printf("planner ablation (scale %.2f, %d reps)\n\n", benchScale(),
              benchReps());
  BenchReport Report("BENCH_planner.json");
  Report.metaStr("engine", "interpreter");

  // Hypersparse 3-tensor: the dense-ranked default touches a multi-MB rank
  // array; the packed radix sort only touches nnz. The planner should
  // learn the forced-sorted variant here.
  benchPair({"coo3_to_csf", "coo3", "csf", {2048, 2048, 64}, 200000}, Report);
  // Transpose-flavoured 2-D pairs: the dense rank array is small, so the
  // direct default should survive its measurement.
  benchPair({"csr_to_csc", "csr", "csc", {4096, 4096}, 400000}, Report);
  benchPair({"csc_to_csr", "csc", "csr", {4096, 4096}, 400000}, Report);
  // Higher-order permutation with a legal via-coo chain enumerated.
  benchPair({"csf102_to_csf", "csf_102", "csf", {512, 512, 64}, 200000},
            Report);

  return Report.write() ? 0 : 1;
}
