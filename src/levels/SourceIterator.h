//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits loop nests that iterate a tensor stored in any source format,
/// recovering canonical coordinates via the format's inverse mapping. This
/// is the iteration machinery of Kjolstad/Chou (summarized in paper §2)
/// that both the attribute-query compiler (§5.2) and the conversion
/// generator's remapping/assembly passes (§4.2, §6.2) build on: each level
/// kind contributes either a loop (dense, compressed, squeezed, sliced,
/// skyline) or a direct position/coordinate derivation (singleton, offset).
///
/// Sources whose values array contains padding (DIA/ELL/BCSR/SKY) get a
/// `vals[p] != 0` guard around the innermost body so only logical nonzeros
/// are visited.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_LEVELS_SOURCEITERATOR_H
#define CONVGEN_LEVELS_SOURCEITERATOR_H

#include "formats/Format.h"
#include "ir/IR.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace convgen {
namespace levels {

/// What the body of an emitted loop nest can see.
struct IterEnv {
  /// Stored-dimension coordinates c0..cL-1 for the levels iterated so far.
  std::vector<ir::Expr> DstCoords;
  /// Canonical ivar name -> coordinate expression, for every ivar
  /// recoverable from the iterated levels.
  std::map<std::string, ir::Expr> Canonical;
  /// Position at the innermost iterated level (indexes vals at full depth).
  ir::Expr LastPos;
  /// Positions p1..pL at each iterated level.
  std::vector<ir::Expr> Positions;
};

class SourceIterator {
public:
  /// \p Tensor is the parameter-name prefix ("A" for conversion inputs).
  SourceIterator(const formats::Format &Fmt, std::string Tensor = "A");

  /// Emits the full nest over all stored nonzeros. \p Body produces the
  /// innermost statements; \p LevelPrologue (optional) injects statements
  /// at the top of the given 1-based level's loop body — the counter-reuse
  /// optimization resets scalar counters there (§4.2).
  ir::Stmt
  build(const std::function<ir::Stmt(const IterEnv &)> &Body,
        const std::map<int, std::function<ir::Stmt(const IterEnv &)>>
            &LevelPrologue = {}) const;

  /// Emits the nest as one flat loop over the innermost level's positions
  /// — for csr, `for p in [A2_pos[0], A2_pos[dim0])` — or returns null
  /// when that would change what \p Body computes. The flat loop applies
  /// when the innermost level is compressed, every level above it is dense
  /// or compressed (their positions then cover one contiguous range, so
  /// the innermost positions of all parents do too), the values array is
  /// unpadded (no zero guard), and every canonical ivar in \p BodyIVars
  /// (those \p Body reads) follows from the innermost coordinate alone.
  /// \p Body sees LastPos and those ivars only.
  ir::Stmt buildFlat(const std::set<std::string> &BodyIVars,
                     const std::function<ir::Stmt(const IterEnv &)> &Body)
      const;

  /// Emits a nest over only the first \p Levels levels (no value guard);
  /// used by optimized queries that read per-slice statistics (e.g. CSR's
  /// pos array) without touching nonzeros.
  ir::Stmt buildPrefix(int Levels,
                       const std::function<ir::Stmt(const IterEnv &)> &Body)
      const;

  /// Number of children of (1-based, compressed) level \p L under the
  /// current position: pos[p+1] - pos[p]. \p Env must come from
  /// buildPrefix(L-1). This is the dynamically computed B' of the
  /// simplify-width-count transformation (Table 1).
  ir::Expr rowNnz(int L, const IterEnv &Env) const;

  /// Canonical ivars recoverable from the first \p Levels levels.
  std::vector<std::string> ivarsAvailableAtPrefix(int Levels) const;

  /// Canonical ivars bound, in order, by the leading dense loops of the
  /// nest; counters indexed by a subset of these can reuse one scalar.
  std::vector<std::string> orderedLoopIVars() const;

  /// Canonical ivars whose values are lexicographically ordered across the
  /// whole iteration (leading levels storing plain variables, with sorted
  /// coordinate arrays). Dedup workspaces require the target's parent dims
  /// to depend only on these.
  std::vector<std::string> lexOrderedIVars() const;

  /// Total number of stored positions (the size of A_vals), as an
  /// expression over the source's parameters.
  ir::Expr storedSizeExpr() const;

  /// Function parameters the emitted code reads (dims, pos/crd/perm/vals,
  /// per-level size parameters).
  std::vector<ir::Param> params() const;

  const formats::Format &format() const { return Fmt; }

  /// The trailing levels starting at 1-based level \p L are all one-to-one
  /// (singleton/offset); with a compressed level at L-1 this enables the
  /// whole-suffix variant of simplify-width-count.
  bool suffixIsOneToOne(int L) const;

  // Naming and bounds helpers (public: the nest emitter and the query
  // compiler build expressions with them).
  std::string posName(int K) const;
  std::string crdName(int K) const;
  std::string permName(int K) const;
  std::string paramName(int K) const;
  std::string coordVarName(int K) const;
  const std::string &tensorName() const { return Tensor; }
  /// Extent/lower-bound of stored dimension (1-based level); null extent
  /// means data-dependent (counter dim, sized by the A<k>_param input).
  ir::Expr dimExtentAt(int K) const {
    return DimExtent[static_cast<size_t>(K - 1)];
  }
  ir::Expr dimLoAt(int K) const { return DimLo[static_cast<size_t>(K - 1)]; }

private:
  formats::Format Fmt;
  std::string Tensor;
  /// Symbolic bounds per stored dimension (over dim0/dim1).
  std::vector<ir::Expr> DimExtent; ///< Null for counter dims (use param).
  std::vector<ir::Expr> DimLo;
};

} // namespace levels
} // namespace convgen

#endif // CONVGEN_LEVELS_SOURCEITERATOR_H
