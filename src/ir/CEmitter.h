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
/// and the values array), plus the runtime table and the caller's phase
/// slots as arguments.
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
/// scan, sort or dedup call through it; every routine declares it, which
/// puts the table layout inside every disk-cache content hash.
std::string cRuntimeTableDecl();

/// Emits a complete C99 translation unit whose one non-static function is
/// `void <F.Name>(const cvg_runtime_t *cvg_rt, const cvg_tensor_t *A,
/// cvg_tensor_t *B, double *cvg_phase)`. \p cvg_rt is the prebuilt
/// runtime's table; \p cvg_phase is NULL or an array of jit::kNumPhases
/// slots the routine adds its per-phase seconds to. The object holds no
/// mutable state.
std::string emitC(const Function &F);

} // namespace ir
} // namespace convgen

#endif // CONVGEN_IR_CEMITTER_H
