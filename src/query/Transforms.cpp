//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "query/Transforms.h"

#include "support/Assert.h"

#include <algorithm>
#include <set>

using namespace convgen;
using namespace convgen::query;

namespace {

bool containsCounter(const remap::Expr &E) {
  if (!E)
    return false;
  if (E->Kind == remap::ExprKind::Counter)
    return true;
  return containsCounter(E->A) || containsCounter(E->B);
}

/// True if every variable in \p Vars appears as a whole, plain index
/// expression in \p Idx.
bool allPlainlyIndexed(const std::vector<std::string> &Vars,
                       const std::vector<remap::Expr> &Idx) {
  for (const std::string &V : Vars) {
    bool Found = false;
    for (const remap::Expr &E : Idx)
      if (E && E->Kind == remap::ExprKind::IVar && E->Name == V)
        Found = true;
    if (!Found)
      return false;
  }
  return true;
}

} // namespace

bool query::counterToHistogram(CinStmt &Stmt,
                               const levels::SourceIterator &Src,
                               const TargetShape &Target) {
  (void)Src;
  for (size_t S = 0; S < Stmt.Stmts.size(); ++S) {
    Forall &F = Stmt.Stmts[S];
    if (F.Space != Forall::IterSpace::SourceAll || F.Op != AssignOp::Max ||
        F.Rhs.Kind != RhsExpr::RhsKind::MapSource || !containsCounter(F.Rhs.Value))
      continue;
    CONVGEN_ASSERT(F.Rhs.Value->Kind == remap::ExprKind::Counter,
                   "only plain counter payloads are supported");
    const std::vector<std::string> &CounterIVars =
        F.Rhs.Value->CounterIndices;

    // W is indexed by the group dims plus the counter's index variables,
    // each of which must be stored plainly by some destination dimension
    // of the target remapping (ELL's row dimension stores #i's index i).
    BufferInfo W;
    W.Name = Stmt.Result.Name + "_w";
    W.Elem = ir::ScalarKind::Int;
    W.Dims = Stmt.Result.Dims;
    std::vector<remap::Expr> WIdx = F.Lhs.Idx;
    for (const std::string &IV : CounterIVars) {
      int Dim = -1;
      for (size_t D = 0; D < Target.Remap.DstDims.size(); ++D) {
        std::string Name;
        if (remap::dimIsPlainVar(Target.Remap, D, &Name) && Name == IV)
          Dim = static_cast<int>(D);
      }
      if (Dim < 0)
        fatalError("counter histogram requires the counter's index "
                   "variables to be stored dimensions");
      WIdx.push_back(remap::ivar(IV));
      W.Dims.push_back(Dim);
    }
    Stmt.Temps.push_back(W);

    Forall Produce;
    Produce.Space = Forall::IterSpace::SourceAll;
    Produce.Lhs = Access{W.Name, WIdx};
    Produce.Op = AssignOp::Add;
    Produce.Rhs.Kind = RhsExpr::RhsKind::MapSource;
    Produce.Rhs.ValueShift = ir::intImm(1);

    Forall Consume;
    Consume.Space = Forall::IterSpace::TempDense;
    Consume.TempIterated = W.Name;
    Consume.Lhs.Tensor = F.Lhs.Tensor;
    Consume.Lhs.Idx.resize(F.Lhs.Idx.size());
    Consume.Op = AssignOp::Max;
    Consume.Rhs.Kind = RhsExpr::RhsKind::ReadTemp;
    Consume.Rhs.Temp = Access{W.Name, {}};

    // The histogram counts per distinct counter coordinates; its max is
    // max(counter)+1, which is exactly the shifted payload (shift = 1).
    Stmt.Stmts.erase(Stmt.Stmts.begin() + static_cast<long>(S));
    Stmt.Stmts.insert(Stmt.Stmts.begin() + static_cast<long>(S), Consume);
    Stmt.Stmts.insert(Stmt.Stmts.begin() + static_cast<long>(S), Produce);
    return true;
  }
  return false;
}

bool query::reductionToAssign(CinStmt &Stmt,
                              const levels::SourceIterator &Src) {
  bool Changed = false;
  for (Forall &F : Stmt.Stmts) {
    if (F.Op == AssignOp::Assign)
      continue;
    if (F.Space == Forall::IterSpace::SourceAll) {
      const std::vector<std::string> &IVars = Src.format().Remap.SrcVars;
      if (allPlainlyIndexed(IVars, F.Lhs.Idx)) {
        F.Op = AssignOp::Assign;
        Changed = true;
      }
    } else if (F.Space == Forall::IterSpace::SourcePrefix) {
      std::vector<std::string> Avail =
          Src.ivarsAvailableAtPrefix(F.PrefixLevels);
      if (static_cast<int>(Avail.size()) == F.PrefixLevels &&
          allPlainlyIndexed(Avail, F.Lhs.Idx)) {
        F.Op = AssignOp::Assign;
        Changed = true;
      }
    }
  }
  return Changed;
}

bool query::simplifyWidthCount(CinStmt &Stmt,
                               const levels::SourceIterator &Src) {
  if (Src.format().PaddedVals)
    return false; // B must store only nonzeros (Table 1 precondition).
  int Order = static_cast<int>(Src.format().Levels.size());
  for (Forall &F : Stmt.Stmts) {
    if (F.Space != Forall::IterSpace::SourceAll ||
        (F.Op != AssignOp::Add && F.Op != AssignOp::Or) ||
        F.Rhs.Kind != RhsExpr::RhsKind::MapSource || F.Rhs.Value)
      continue;
    int64_t Payload = 0;
    if (!F.Rhs.ValueShift || !ir::isIntConst(F.Rhs.ValueShift, &Payload))
      continue;
    if (F.Op == AssignOp::Or)
      continue; // |= sweeps mark bits; widths do not apply.

    // Find a prefix whose recovered ivars cover the lhs and whose stripped
    // suffix is one compressed level followed only by one-to-one levels —
    // then the compressed level's stored width is the aggregate count.
    std::set<std::string> Used;
    for (const remap::Expr &E : F.Lhs.Idx)
      remap::collectIVars(E, Used);
    int Prefix = -1;
    for (int L = 0; L < Order; ++L) {
      std::vector<std::string> Avail = Src.ivarsAvailableAtPrefix(L);
      std::set<std::string> AvailSet(Avail.begin(), Avail.end());
      if (!std::includes(AvailSet.begin(), AvailSet.end(), Used.begin(),
                         Used.end()))
        continue;
      if (Src.format().Levels[static_cast<size_t>(L)].Kind !=
          formats::LevelKind::Compressed)
        continue;
      if (!Src.suffixIsOneToOne(L + 2))
        continue;
      Prefix = L;
      break;
    }
    if (Prefix < 0)
      continue;

    F.Space = Forall::IterSpace::SourcePrefix;
    F.PrefixLevels = Prefix;
    F.Rhs.Kind = RhsExpr::RhsKind::RowNnz;
    F.Rhs.RowNnzLevel = Prefix + 1;
    F.Rhs.Scale = Payload;
    F.Rhs.ValueShift = nullptr;
    return true;
  }
  return false;
}

bool query::inlineTemporary(CinStmt &Stmt, const levels::SourceIterator &) {
  for (size_t C = 0; C < Stmt.Stmts.size(); ++C) {
    Forall &Consumer = Stmt.Stmts[C];
    if (Consumer.Space != Forall::IterSpace::TempDense ||
        Consumer.Rhs.Kind != RhsExpr::RhsKind::ReadTemp)
      continue;
    // Find the producer of the temp; it must be a plain assignment so the
    // substitution cannot change how many times each cell contributes.
    for (size_t P = 0; P < Stmt.Stmts.size(); ++P) {
      Forall &Producer = Stmt.Stmts[P];
      if (Producer.Lhs.Tensor != Consumer.TempIterated ||
          Producer.Op != AssignOp::Assign)
        continue;
      Forall Fused;
      Fused.Space = Producer.Space;
      Fused.PrefixLevels = Producer.PrefixLevels;
      Fused.Lhs.Tensor = Consumer.Lhs.Tensor;
      Fused.Lhs.Idx.assign(Producer.Lhs.Idx.begin(),
                           Producer.Lhs.Idx.begin() +
                               static_cast<long>(Consumer.Lhs.Idx.size()));
      Fused.Op = Consumer.Op;
      Fused.Rhs = Producer.Rhs;
      Fused.Rhs.Scale *= Consumer.Rhs.Scale;

      // Remove producer and temp; replace consumer with the fused forall.
      std::string TempName = Consumer.TempIterated;
      Stmt.Stmts[C] = Fused;
      Stmt.Stmts.erase(Stmt.Stmts.begin() + static_cast<long>(P));
      Stmt.Temps.erase(
          std::remove_if(Stmt.Temps.begin(), Stmt.Temps.end(),
                         [&](const BufferInfo &B) {
                           return B.Name == TempName;
                         }),
          Stmt.Temps.end());
      return true;
    }
  }
  return false;
}

void query::optimize(CinStmt &Stmt, const levels::SourceIterator &Src,
                     const TargetShape &Target) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Changed |= counterToHistogram(Stmt, Src, Target);
    Changed |= reductionToAssign(Stmt, Src);
    Changed |= simplifyWidthCount(Stmt, Src);
    Changed |= inlineTemporary(Stmt, Src);
  }
}
