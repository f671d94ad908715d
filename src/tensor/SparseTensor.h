//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime representation of a sparse tensor: per-level pos/crd/perm
/// arrays (int32, as in the paper's generated C), per-level size parameters
/// (DIA's and ELL's K), and the values array. A SparseTensor always carries
/// the Format that interprets its storage.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_TENSOR_SPARSETENSOR_H
#define CONVGEN_TENSOR_SPARSETENSOR_H

#include "formats/Format.h"
#include "tensor/OwnedArray.h"

#include <cstdint>
#include <string>
#include <vector>

namespace convgen {
namespace tensor {

/// Storage for one coordinate-hierarchy level. Which arrays are populated
/// depends on the level kind: compressed/skyline use Pos (+Crd for
/// compressed), singleton uses Crd, squeezed uses Perm and SizeParam,
/// sliced uses SizeParam only, dense and offset use nothing.
///
/// Arrays are OwnedArray so a tensor can adopt the malloc'd buffers a
/// JIT-compiled conversion yields without copying them (see jit/Jit.h for
/// the ownership contract at that boundary).
struct LevelStorage {
  OwnedArray<int32_t> Pos;
  OwnedArray<int32_t> Crd;
  OwnedArray<int32_t> Perm;
  int64_t SizeParam = -1;
};

struct SparseTensor {
  formats::Format Format;
  /// Canonical dimension sizes (rows, cols for matrices).
  std::vector<int64_t> Dims;
  /// One storage record per level, outermost first.
  std::vector<LevelStorage> Levels;
  OwnedArray<double> Vals;

  int64_t numRows() const { return Dims.at(0); }
  int64_t numCols() const { return Dims.at(1); }

  /// Number of stored value slots (equals nnz for unpadded formats).
  int64_t storedSize() const { return static_cast<int64_t>(Vals.size()); }

  /// Checks structural invariants for every level (pos monotonicity and
  /// sizing, coordinate ranges, parameter presence) and aborts with a
  /// diagnostic naming the violated invariant. Tests run every generated
  /// conversion's output through this.
  void validate() const;

  /// True if the stored coordinate tuples of the first \p Levels levels are
  /// lexicographically non-decreasing in storage order. Dense levels are
  /// sorted by construction; compressed and singleton crd arrays are
  /// data-dependent — csc -> coo legally yields column-major coo, which is
  /// a valid tensor but NOT lex-ordered. Conversion plans whose dedup
  /// assembly trusts the source's iteration order (AssemblyPlan's
  /// LexCheckLevels) run this check per input and reject unsorted sources
  /// instead of assembling garbage. On failure \p Why (optional) names the
  /// offending position.
  bool lexOrderedUpTo(int Levels, std::string *Why = nullptr) const;

  /// Human-readable dump of the storage arrays (small tensors only);
  /// mirrors the layout drawings of paper Figure 2.
  std::string dump() const;
};

} // namespace tensor
} // namespace convgen

#endif // CONVGEN_TENSOR_SPARSETENSOR_H
