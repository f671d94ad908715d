//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coordinate remapping notation (paper §4, Figure 8). A remap statement
///
///   (i,j) -> (j-i, i, j)
///
/// describes how a canonical tensor's components map into a higher-order
/// tensor whose lexicographic coordinate order matches how a target format
/// groups and orders nonzeros in memory. Destination dimension expressions
/// are arithmetic/bitwise expressions over the source index variables, may
/// introduce let-bound locals (`r=i/N in (r&1)|...`), and may use counters
/// (`#i`) that number the nonzeros sharing the listed coordinates in
/// iteration order.
///
//===----------------------------------------------------------------------===//

#ifndef CONVGEN_REMAP_REMAP_H
#define CONVGEN_REMAP_REMAP_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace convgen {
namespace remap {

enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
};

enum class ExprKind : uint8_t {
  Const,
  IVar,    ///< A source index variable (i, j, ...).
  LetVar,  ///< A let-bound local within the same dimension expression.
  Counter, ///< #i1 i2 ... : running count per distinct (i1, i2, ...).
  Binary,
};

struct ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  ExprKind Kind;
  int64_t Value = 0;               ///< Const.
  std::string Name;                ///< IVar / LetVar.
  std::vector<std::string> CounterIndices; ///< Counter (may be empty: `#`).
  BinOp Op = BinOp::Add;
  Expr A, B;
};

Expr constant(int64_t Value);
Expr ivar(const std::string &Name);
Expr letVar(const std::string &Name);
Expr counter(std::vector<std::string> Indices);
Expr binary(BinOp Op, Expr A, Expr B);

/// One let binding: `Name = Value in ...`.
struct LetBinding {
  std::string Name;
  Expr Value;
};

/// A destination dimension expression with its (possibly empty) chain of
/// let bindings, scoped to this dimension only.
struct DimExpr {
  std::vector<LetBinding> Lets;
  Expr Value;
};

/// A full remap statement: `(i,j) -> (j-i, i, j)`.
struct RemapStmt {
  std::vector<std::string> SrcVars;
  std::vector<DimExpr> DstDims;

  size_t srcOrder() const { return SrcVars.size(); }
  size_t dstOrder() const { return DstDims.size(); }
};

/// Builds the identity remapping over \p Vars (used by canonical formats
/// such as COO and CSR; CSC uses the transposition (i,j) -> (j,i)).
RemapStmt identityRemap(const std::vector<std::string> &Vars);

/// Returns a stable key identifying a counter by its index list, e.g. "#i".
std::string counterKey(const std::vector<std::string> &Indices);

/// Collects the distinct counters used anywhere in \p Stmt, in first-use
/// order. Each entry is the counter's index-variable list.
std::vector<std::vector<std::string>> collectCounters(const RemapStmt &Stmt);

/// Adds to \p Out every source variable \p E depends on, including the
/// index variables of its counters. \p E may be null.
void collectIVars(const Expr &E, std::set<std::string> &Out);

/// True if \p DimIdx's expression is exactly one source variable; that
/// variable's name is stored in \p VarName.
bool dimIsPlainVar(const RemapStmt &Stmt, size_t DimIdx,
                   std::string *VarName = nullptr);

/// True if \p DimIdx's expression is exactly one counter; the counter's
/// index list is stored in \p Indices.
bool dimIsPlainCounter(const RemapStmt &Stmt, size_t DimIdx,
                       std::vector<std::string> *Indices = nullptr);

/// Substitutes a dimension expression's let bindings into its value,
/// producing a self-contained expression over source variables, counters,
/// and constants. Bounds analysis and the query language operate on the
/// inlined form; code generation may instead materialize lets as locals.
Expr inlineLets(const DimExpr &Dim);

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string printExpr(const Expr &E);
std::string printDimExpr(const DimExpr &D);
std::string printRemap(const RemapStmt &Stmt);

//===----------------------------------------------------------------------===//
// Evaluation (used by tests and by the oracle converter)
//===----------------------------------------------------------------------===//

/// Evaluates remap statements over concrete coordinates, maintaining counter
/// state across calls: nonzeros must be fed in iteration order, and each
/// counter increments per distinct set of values of its index variables
/// (paper Figure 9).
class Evaluator {
public:
  explicit Evaluator(const RemapStmt &Stmt) : Stmt(Stmt) {}

  /// Maps canonical coordinates \p SrcCoords (parallel to Stmt.SrcVars) to
  /// destination coordinates, advancing counter state.
  std::vector<int64_t> map(const std::vector<int64_t> &SrcCoords);

  void resetCounters() { Counters.clear(); }

private:
  const RemapStmt &Stmt;
  std::map<std::string, int64_t> Counters;
};

} // namespace remap
} // namespace convgen

#endif // CONVGEN_REMAP_REMAP_H
