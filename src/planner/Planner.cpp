//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "planner/Planner.h"

using namespace convgen;
using namespace convgen::planner;

InputStats InputStats::fromTensor(const tensor::SparseTensor &In) {
  InputStats S;
  S.Nnz = In.storedSize();
  S.Dims = In.Dims;
  return S;
}

Decision planner::decide(const formats::Format &Src, const formats::Format &Dst,
                         const codegen::Options &BaseOpts,
                         const InputStats &Stats) {
  Decision D;
  codegen::Options Opts = codegen::optionsForDims(
      Src, Dst, BaseOpts, Stats.Dims, Stats.Nnz, &D.Why);
  std::string Unsupported;
  if (!codegen::conversionSupported(Src, Dst, Opts, &Unsupported)) {
    D.Why = "conversion unsupported: " + Unsupported;
    return D;
  }
  D.Engaged = true;
  D.Chosen.Label = Opts.ForceSortedRanking ? "direct+sorted" : "direct";
  D.Chosen.Hops.push_back(Hop{Src, Dst, std::move(Opts)});
  return D;
}
