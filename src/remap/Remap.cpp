//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "remap/Remap.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace convgen;
using namespace convgen::remap;

static Expr makeExpr(ExprKind Kind) {
  auto Node = std::make_shared<ExprNode>();
  Node->Kind = Kind;
  return Node;
}

Expr remap::constant(int64_t Value) {
  Expr E = makeExpr(ExprKind::Const);
  const_cast<ExprNode &>(*E).Value = Value;
  return E;
}

Expr remap::ivar(const std::string &Name) {
  Expr E = makeExpr(ExprKind::IVar);
  const_cast<ExprNode &>(*E).Name = Name;
  return E;
}

Expr remap::letVar(const std::string &Name) {
  Expr E = makeExpr(ExprKind::LetVar);
  const_cast<ExprNode &>(*E).Name = Name;
  return E;
}

Expr remap::counter(std::vector<std::string> Indices) {
  Expr E = makeExpr(ExprKind::Counter);
  const_cast<ExprNode &>(*E).CounterIndices = std::move(Indices);
  return E;
}

Expr remap::binary(BinOp Op, Expr A, Expr B) {
  CONVGEN_ASSERT(A && B, "binary remap expression requires two operands");
  Expr E = makeExpr(ExprKind::Binary);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.Op = Op;
  N.A = std::move(A);
  N.B = std::move(B);
  return E;
}

RemapStmt remap::identityRemap(const std::vector<std::string> &Vars) {
  RemapStmt Stmt;
  Stmt.SrcVars = Vars;
  for (const std::string &V : Vars)
    Stmt.DstDims.push_back(DimExpr{{}, ivar(V)});
  return Stmt;
}

std::string remap::counterKey(const std::vector<std::string> &Indices) {
  return "#" + join(Indices, " ");
}

static void collectCountersIn(const Expr &E,
                              std::vector<std::vector<std::string>> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::Counter) {
    if (std::find(Out.begin(), Out.end(), E->CounterIndices) == Out.end())
      Out.push_back(E->CounterIndices);
    return;
  }
  collectCountersIn(E->A, Out);
  collectCountersIn(E->B, Out);
}

std::vector<std::vector<std::string>>
remap::collectCounters(const RemapStmt &Stmt) {
  std::vector<std::vector<std::string>> Out;
  for (const DimExpr &D : Stmt.DstDims) {
    for (const LetBinding &L : D.Lets)
      collectCountersIn(L.Value, Out);
    collectCountersIn(D.Value, Out);
  }
  return Out;
}

void remap::collectIVars(const Expr &E, std::set<std::string> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::IVar)
    Out.insert(E->Name);
  Out.insert(E->CounterIndices.begin(), E->CounterIndices.end());
  collectIVars(E->A, Out);
  collectIVars(E->B, Out);
}

bool remap::dimIsPlainVar(const RemapStmt &Stmt, size_t DimIdx,
                          std::string *VarName) {
  CONVGEN_ASSERT(DimIdx < Stmt.DstDims.size(), "dimension out of range");
  const DimExpr &D = Stmt.DstDims[DimIdx];
  if (!D.Lets.empty() || D.Value->Kind != ExprKind::IVar)
    return false;
  if (VarName)
    *VarName = D.Value->Name;
  return true;
}

bool remap::dimIsPlainCounter(const RemapStmt &Stmt, size_t DimIdx,
                              std::vector<std::string> *Indices) {
  CONVGEN_ASSERT(DimIdx < Stmt.DstDims.size(), "dimension out of range");
  Expr E = inlineLets(Stmt.DstDims[DimIdx]);
  if (E->Kind != ExprKind::Counter)
    return false;
  if (Indices)
    *Indices = E->CounterIndices;
  return true;
}

static Expr substitute(const Expr &E,
                       const std::map<std::string, Expr> &Bindings) {
  switch (E->Kind) {
  case ExprKind::Const:
  case ExprKind::IVar:
  case ExprKind::Counter:
    return E;
  case ExprKind::LetVar: {
    auto It = Bindings.find(E->Name);
    CONVGEN_ASSERT(It != Bindings.end(), "unbound let variable");
    return It->second;
  }
  case ExprKind::Binary:
    return binary(E->Op, substitute(E->A, Bindings),
                  substitute(E->B, Bindings));
  }
  convgen_unreachable("unknown remap expression kind");
}

Expr remap::inlineLets(const DimExpr &Dim) {
  std::map<std::string, Expr> Bindings;
  for (const LetBinding &L : Dim.Lets)
    Bindings[L.Name] = substitute(L.Value, Bindings);
  return substitute(Dim.Value, Bindings);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

/// Precedence levels follow Figure 8 (lowest binds loosest).
int precedence(BinOp Op) {
  switch (Op) {
  case BinOp::BitOr:
    return 1;
  case BinOp::BitXor:
    return 2;
  case BinOp::BitAnd:
    return 3;
  case BinOp::Shl:
  case BinOp::Shr:
    return 4;
  case BinOp::Add:
  case BinOp::Sub:
    return 5;
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Rem:
    return 6;
  }
  convgen_unreachable("unknown remap binary op");
}

const char *spelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Rem:
    return "%";
  case BinOp::BitAnd:
    return "&";
  case BinOp::BitOr:
    return "|";
  case BinOp::BitXor:
    return "^";
  case BinOp::Shl:
    return "<<";
  case BinOp::Shr:
    return ">>";
  }
  convgen_unreachable("unknown remap binary op");
}

std::string printWithPrec(const Expr &E, int ParentPrec) {
  switch (E->Kind) {
  case ExprKind::Const:
    return std::to_string(E->Value);
  case ExprKind::IVar:
  case ExprKind::LetVar:
    return E->Name;
  case ExprKind::Counter:
    return counterKey(E->CounterIndices);
  case ExprKind::Binary: {
    int Prec = precedence(E->Op);
    std::string Text = printWithPrec(E->A, Prec) + spelling(E->Op) +
                       printWithPrec(E->B, Prec + 1);
    if (Prec < ParentPrec)
      Text = "(" + Text + ")";
    return Text;
  }
  }
  convgen_unreachable("unknown remap expression kind");
}

} // namespace

std::string remap::printExpr(const Expr &E) { return printWithPrec(E, 0); }

std::string remap::printDimExpr(const DimExpr &D) {
  std::string Out;
  for (const LetBinding &L : D.Lets)
    Out += L.Name + "=" + printExpr(L.Value) + " in ";
  return Out + printExpr(D.Value);
}

std::string remap::printRemap(const RemapStmt &Stmt) {
  std::vector<std::string> Dims;
  Dims.reserve(Stmt.DstDims.size());
  for (const DimExpr &D : Stmt.DstDims)
    Dims.push_back(printDimExpr(D));
  return "(" + join(Stmt.SrcVars, ",") + ") -> (" + join(Dims, ",") + ")";
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

namespace {

int64_t applyOp(BinOp Op, int64_t A, int64_t B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::Div:
    CONVGEN_ASSERT(B != 0, "remap evaluation: division by zero");
    return A / B;
  case BinOp::Rem:
    CONVGEN_ASSERT(B != 0, "remap evaluation: remainder by zero");
    return A % B;
  case BinOp::BitAnd:
    return A & B;
  case BinOp::BitOr:
    return A | B;
  case BinOp::BitXor:
    return A ^ B;
  case BinOp::Shl:
    return A << B;
  case BinOp::Shr:
    return A >> B;
  }
  convgen_unreachable("unknown remap binary op");
}

/// Evaluates one expression. \p Env holds source ivars and let locals;
/// \p CounterRead returns the value a counter takes for this nonzero.
int64_t evalExpr(const Expr &E, const std::map<std::string, int64_t> &Env,
                 const std::map<std::string, int64_t> &CounterVals) {
  switch (E->Kind) {
  case ExprKind::Const:
    return E->Value;
  case ExprKind::IVar:
  case ExprKind::LetVar: {
    auto It = Env.find(E->Name);
    if (It == Env.end())
      fatalError(("remap evaluation: unbound variable '" + E->Name + "'")
                     .c_str());
    return It->second;
  }
  case ExprKind::Counter: {
    auto It = CounterVals.find(counterKey(E->CounterIndices));
    CONVGEN_ASSERT(It != CounterVals.end(), "counter value not precomputed");
    return It->second;
  }
  case ExprKind::Binary:
    return applyOp(E->Op, evalExpr(E->A, Env, CounterVals),
                   evalExpr(E->B, Env, CounterVals));
  }
  convgen_unreachable("unknown remap expression kind");
}

} // namespace

std::vector<int64_t> Evaluator::map(const std::vector<int64_t> &SrcCoords) {
  CONVGEN_ASSERT(SrcCoords.size() == Stmt.SrcVars.size(),
                 "coordinate arity mismatch");
  std::map<std::string, int64_t> Env;
  for (size_t I = 0; I < SrcCoords.size(); ++I)
    Env[Stmt.SrcVars[I]] = SrcCoords[I];

  // Counters advance once per nonzero: compute this nonzero's value for
  // every distinct counter, then increment the stored state.
  std::map<std::string, int64_t> CounterVals;
  for (const std::vector<std::string> &Indices : collectCounters(Stmt)) {
    std::string StateKey = counterKey(Indices);
    for (const std::string &Var : Indices) {
      auto It = Env.find(Var);
      if (It == Env.end())
        fatalError(("remap evaluation: counter over unknown variable '" +
                    Var + "'")
                       .c_str());
      StateKey += "," + std::to_string(It->second);
    }
    CounterVals[counterKey(Indices)] = Counters[StateKey]++;
  }

  std::vector<int64_t> Out;
  Out.reserve(Stmt.DstDims.size());
  for (const DimExpr &D : Stmt.DstDims) {
    std::map<std::string, int64_t> Scope = Env;
    for (const LetBinding &L : D.Lets)
      Scope[L.Name] = evalExpr(L.Value, Scope, CounterVals);
    Out.push_back(evalExpr(D.Value, Scope, CounterVals));
  }
  return Out;
}
