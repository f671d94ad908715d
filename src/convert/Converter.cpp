//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "convert/Converter.h"

#include "convert/PlanCache.h"
#include "ir/Interpreter.h"
#include "support/Assert.h"
#include "support/DegradationLog.h"
#include "support/StringUtils.h"

using namespace convgen;
using namespace convgen::convert;
using formats::LevelKind;

Converter::Converter(formats::Format Source, formats::Format Target,
                     codegen::Options Opts)
    : Conv(PlanCache::instance().plan(Source, Target, Opts)) {}

StatusOr<Converter> Converter::tryCreate(formats::Format Source,
                                         formats::Format Target,
                                         codegen::Options Opts) {
  StatusOr<std::shared_ptr<const codegen::Conversion>> Plan =
      PlanCache::instance().tryPlan(Source, Target, Opts);
  if (!Plan.ok())
    return Plan.status();
  return Converter(Plan.take());
}

void convert::bindSourceTensor(ir::Interpreter &Interp,
                               const tensor::SparseTensor &In) {
  for (size_t D = 0; D < In.Dims.size(); ++D)
    Interp.bindScalar("dim" + std::to_string(D), In.Dims[D]);
  for (size_t K = 0; K < In.Format.Levels.size(); ++K) {
    const tensor::LevelStorage &L = In.Levels[K];
    std::string Base = "A" + std::to_string(K + 1);
    switch (In.Format.Levels[K].Kind) {
    case LevelKind::Compressed:
      Interp.bindIntBuffer(Base + "_pos", L.Pos);
      Interp.bindIntBuffer(Base + "_crd", L.Crd);
      break;
    case LevelKind::Singleton:
      Interp.bindIntBuffer(Base + "_crd", L.Crd);
      break;
    case LevelKind::Squeezed:
      Interp.bindIntBuffer(Base + "_perm", L.Perm);
      Interp.bindScalar(Base + "_param", L.SizeParam);
      break;
    case LevelKind::Sliced:
      Interp.bindScalar(Base + "_param", L.SizeParam);
      break;
    case LevelKind::Skyline:
      Interp.bindIntBuffer(Base + "_pos", L.Pos);
      break;
    case LevelKind::Dense:
    case LevelKind::Offset:
      break;
    }
  }
  Interp.bindFloatBuffer("A_vals", In.Vals);
}

tensor::SparseTensor
convert::collectTargetTensor(const formats::Format &Target,
                             const std::vector<int64_t> &Dims,
                             ir::RunResult &Result) {
  tensor::SparseTensor Out;
  Out.Format = Target;
  Out.Dims = Dims;
  Out.Levels.resize(Target.Levels.size());
  for (size_t K = 0; K < Target.Levels.size(); ++K) {
    std::string Base = "B" + std::to_string(K + 1);
    tensor::LevelStorage &L = Out.Levels[K];
    auto takeInts = [&](const std::string &Slot,
                        tensor::OwnedArray<int32_t> &Dest) {
      auto It = Result.Buffers.find(Slot);
      if (It == Result.Buffers.end())
        fatalError(("conversion did not yield " + Slot).c_str());
      Dest = It->second.Ints;
    };
    switch (Target.Levels[K].Kind) {
    case LevelKind::Compressed:
      takeInts(Base + "_pos", L.Pos);
      takeInts(Base + "_crd", L.Crd);
      break;
    case LevelKind::Singleton:
      takeInts(Base + "_crd", L.Crd);
      break;
    case LevelKind::Squeezed:
      takeInts(Base + "_perm", L.Perm);
      L.SizeParam = Result.Scalars.at(Base + "_param");
      break;
    case LevelKind::Sliced:
      L.SizeParam = Result.Scalars.at(Base + "_param");
      break;
    case LevelKind::Skyline:
      takeInts(Base + "_pos", L.Pos);
      break;
    case LevelKind::Dense:
    case LevelKind::Offset:
      break;
    }
  }
  auto It = Result.Buffers.find("B_vals");
  if (It == Result.Buffers.end())
    fatalError("conversion did not yield B_vals");
  Out.Vals = It->second.Floats;
  return Out;
}

Status convert::checkSourceOrder(const codegen::Conversion &Conv,
                                 const tensor::SparseTensor &In) {
  if (Conv.Asm.LexCheckLevels <= 0)
    return Status();
  std::string Why;
  if (!In.lexOrderedUpTo(Conv.Asm.LexCheckLevels, &Why))
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("conversion %s -> %s requires a lexicographically sorted "
               "source (its dedup assembly visits grouping coordinates as "
               "an ordered prefix), but the input is unsorted: %s",
               Conv.Source.Name.c_str(), Conv.Target.Name.c_str(),
               Why.c_str()));
  return Status();
}

StatusOr<tensor::SparseTensor>
Converter::tryRun(const tensor::SparseTensor &In,
                  const support::Deadline &Deadline) const {
  auto deadlineError = [&](const char *Where) {
    support::DegradationLog::instance().record(
        support::Degradation::DeadlineExceeded,
        strfmt("%s -> %s: %s", Conv->Source.Name.c_str(),
               Conv->Target.Name.c_str(), Where));
    return Status::error(ErrorCode::DeadlineExceeded,
                         strfmt("converter: request deadline expired %s",
                                Where));
  };
  if (Deadline.expired())
    return deadlineError("on entry");
  if (In.Format.Name != Conv->Source.Name)
    return Status::error(
        ErrorCode::InvalidArgument,
        strfmt("converter compiled for source '%s' got a '%s' tensor",
               Conv->Source.Name.c_str(), In.Format.Name.c_str()));
  // Per-request strategy routing (codegen::optionsForDims): when this
  // tensor's dims or nnz change the plan — a level's dense ranking
  // structures over the CONVGEN_RANK_DENSE_MAX_BYTES budget, or a dense
  // rank array that dwarfs nnz — fetch that specialized plan from the
  // cache, or return its size-grounds diagnostic when no fallback applies.
  const codegen::Conversion *Plan = Conv.get();
  std::shared_ptr<const codegen::Conversion> DimPlan;
  codegen::Options Effective = codegen::optionsForDims(
      Conv->Source, Conv->Target, Conv->Opts, In.Dims, In.storedSize());
  if (Effective.DimsHint != Conv->Opts.DimsHint ||
      Effective.ForceSortedRanking != Conv->Opts.ForceSortedRanking) {
    StatusOr<std::shared_ptr<const codegen::Conversion>> Specialized =
        PlanCache::instance().tryPlan(Conv->Source, Conv->Target, Effective);
    if (!Specialized.ok())
      return Specialized.status();
    DimPlan = Specialized.take();
    Plan = DimPlan.get();
    if (Deadline.expired())
      return deadlineError("after dims-specialized plan acquisition");
  }
  Status Order = checkSourceOrder(*Plan, In);
  if (!Order.ok())
    return Order;
  return interpretPlan(*Plan, In);
}

tensor::SparseTensor convert::interpretPlan(const codegen::Conversion &Conv,
                                            const tensor::SparseTensor &In) {
  ir::Interpreter Interp;
  bindSourceTensor(Interp, In);
  ir::RunResult Result = Interp.run(Conv.Func);
  return collectTargetTensor(Conv.Target, In.Dims, Result);
}

tensor::SparseTensor Converter::run(const tensor::SparseTensor &In) const {
  StatusOr<tensor::SparseTensor> R = tryRun(In);
  if (!R.ok())
    fatalError(R.status().message().c_str());
  return R.take();
}
