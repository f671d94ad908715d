//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a generated conversion routine as a self-contained C99 translation
/// unit. The JIT compiles this source with the system compiler and loads it
/// with dlopen, which is the same execution model taco uses for generated
/// kernels. The ABI is a single `cvg_tensor_t` struct per tensor (dims,
/// per-level pos/crd/perm arrays with lengths, per-level size parameters,
/// and the values array).
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_IR_CEMITTER_H
#define CONVGEN_IR_CEMITTER_H

#include "ir/IR.h"

#include <string>

namespace convgen {
namespace ir {

/// Maximum tensor order the C ABI supports. Level indices are 1-based, so
/// arrays have kMaxLevels + 1 entries.
constexpr int kMaxLevels = 7;

/// The C declaration of the tensor ABI struct (also consumed by the JIT
/// runner, which lays out a bit-compatible struct in C++).
std::string cTensorStructDecl();

/// The C declaration of the prebuilt runtime's function table
/// (`cvg_runtime_t`, bit-compatible with jit::RuntimeTable). Routines that
/// scan, sort or dedup call through it; emitting it into their source puts
/// the table layout inside the disk-cache content hash.
std::string cRuntimeTableDecl();

/// Emits a complete C99 translation unit defining
/// `void <F.Name>(const cvg_tensor_t *A, cvg_tensor_t *B)`, plus
/// `void <F.Name>_bind_runtime(const cvg_runtime_t *)` when the routine
/// calls the prebuilt runtime.
std::string emitC(const Function &F);

} // namespace ir
} // namespace convgen

#endif // CONVGEN_IR_CEMITTER_H
