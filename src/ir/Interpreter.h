//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference interpreter for the conversion IR. It executes generated
/// routines directly, with hard bounds checking on every buffer access, and
/// is the oracle-facing backend used throughout the test suite. Benchmarks
/// use the JIT backend instead, which compiles the same IR to native code.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_IR_INTERPRETER_H
#define CONVGEN_IR_INTERPRETER_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace convgen {
namespace ir {

/// A typed runtime buffer. Int buffers hold int32 elements (widened to
/// int64 on load), Float buffers hold doubles, Bool buffers hold bytes.
struct RuntimeBuffer {
  ScalarKind Elem = ScalarKind::Int;
  std::vector<int32_t> Ints;
  std::vector<double> Floats;
  std::vector<uint8_t> Bools;

  int64_t size() const;
};

/// What an executed conversion produced: output buffers and scalars keyed by
/// their yield slot names ("B1_pos", "B_vals", "B1_param", ...).
struct RunResult {
  std::map<std::string, RuntimeBuffer> Buffers;
  std::map<std::string, int64_t> Scalars;
};

/// Executes IR functions over bound inputs.
///
/// Typical use:
/// \code
///   Interpreter Interp;
///   Interp.bindScalar("dim0", M);
///   Interp.bindIntBuffer("A1_pos", Pos);
///   ...
///   RunResult R = Interp.run(F);
/// \endcode
class Interpreter {
public:
  void bindScalar(const std::string &Name, int64_t Value);
  void bindIntBuffer(const std::string &Name, std::vector<int32_t> Data);
  void bindFloatBuffer(const std::string &Name, std::vector<double> Data);

  /// Value numParts() evaluates to (default 1, the reference semantics).
  /// Blocked passes must produce identical results for any count >= 1;
  /// tests run other counts to check that without OpenMP.
  void setNumParts(int64_t Parts) { NumParts = Parts; }

  /// Runs \p F against the bound inputs. Aborts with a diagnostic on any
  /// out-of-bounds access, use of an undefined variable, or type mismatch;
  /// the interpreter never silently mis-executes.
  RunResult run(const Function &F);

private:
  std::map<std::string, int64_t> BoundScalars;
  std::map<std::string, RuntimeBuffer> BoundBuffers;
  int64_t NumParts = 1;
};

} // namespace ir
} // namespace convgen

#endif // CONVGEN_IR_INTERPRETER_H
