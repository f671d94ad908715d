//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing conversion API: compile once per (source, target)
/// format pair, then convert tensors. This header's Converter executes
/// through the reference interpreter; the JIT backend (jit/Jit.h) runs the
/// same generated routine as native code.
///
/// \code
///   Converter Conv(formats::makeCOO(), formats::makeCSR());
///   tensor::SparseTensor Csr = Conv.run(Coo);
///   std::fputs(Conv.conversion().pretty().c_str(), stdout);
/// \endcode
///
/// Ownership: run() never aliases its input — the interpreter binds copies
/// of the source arrays and the result owns fresh storage. The JIT backend
/// is the zero-copy path: it binds source arrays by pointer and the result
/// tensor adopts the routine's malloc'd output buffers (see jit/Jit.h for
/// the full contract).
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_CONVERT_CONVERTER_H
#define CONVGEN_CONVERT_CONVERTER_H

#include "codegen/Generator.h"
#include "ir/Interpreter.h"
#include "support/Deadline.h"
#include "support/Status.h"
#include "tensor/SparseTensor.h"

#include <memory>

namespace convgen {
namespace convert {

class Converter {
public:
  /// Obtains the generated routine through the process-wide PlanCache:
  /// the first Converter for a (source, target, options) triple runs
  /// codegen, later ones share its plan. Aborts on an unsupported pair;
  /// tryCreate is the checked form.
  Converter(formats::Format Source, formats::Format Target,
            codegen::Options Opts = codegen::Options());

  /// Checked construction: an unsupported pair comes back as
  /// ErrorCode::Unsupported with planAssembly's diagnostic instead of
  /// aborting.
  static StatusOr<Converter> tryCreate(formats::Format Source,
                                       formats::Format Target,
                                       codegen::Options Opts =
                                           codegen::Options());

  const codegen::Conversion &conversion() const { return *Conv; }

  /// Converts \p In (which must be in the source format) by interpreting
  /// the generated routine. The result is fully validated in debug use via
  /// SparseTensor::validate by the caller if desired. Aborts on request
  /// errors; tryRun is the checked form.
  tensor::SparseTensor run(const tensor::SparseTensor &In) const;

  /// Checked conversion: a tensor in the wrong format, an unsorted source
  /// where the plan requires order, or dimensions no plan supports come
  /// back as a Status instead of aborting. \p Deadline (optional) is
  /// checked at the phase boundaries — on entry and after dims-specialized
  /// plan acquisition — and returns DeadlineExceeded when expired; the
  /// interpreter run itself, once started, completes (in-process compute
  /// is never preempted, only waiting is bounded).
  StatusOr<tensor::SparseTensor>
  tryRun(const tensor::SparseTensor &In,
         const support::Deadline &Deadline = {}) const;

private:
  explicit Converter(std::shared_ptr<const codegen::Conversion> Plan)
      : Conv(std::move(Plan)) {}

  std::shared_ptr<const codegen::Conversion> Conv;
};

/// Binds \p In's arrays/dims/params as interpreter inputs under the "A"
/// naming convention (shared with the JIT runner's marshalling).
void bindSourceTensor(ir::Interpreter &Interp, const tensor::SparseTensor &In);

/// Enforces the plan's source-order requirement (the assembly plan's
/// LexCheckLevels): returns ErrorCode::InvalidArgument with a diagnostic
/// when \p In's leading levels are not lexicographically sorted but the
/// routine's dedup assembly assumes they are. Shared by the interpreter
/// and JIT runners.
Status checkSourceOrder(const codegen::Conversion &Conv,
                        const tensor::SparseTensor &In);

/// Assembles the output tensor from interpreter yields.
tensor::SparseTensor collectTargetTensor(const formats::Format &Target,
                                         const std::vector<int64_t> &Dims,
                                         ir::RunResult &Result);

} // namespace convert
} // namespace convgen

#endif // CONVGEN_CONVERT_CONVERTER_H
