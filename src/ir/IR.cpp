//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>

using namespace convgen;
using namespace convgen::ir;

const char *ir::scalarKindName(ScalarKind Kind) {
  switch (Kind) {
  case ScalarKind::Int:
    return "int";
  case ScalarKind::Float:
    return "float";
  case ScalarKind::Bool:
    return "bool";
  }
  convgen_unreachable("unknown scalar kind");
}

//===----------------------------------------------------------------------===//
// Expression factories
//===----------------------------------------------------------------------===//

static Expr makeExpr(ExprKind Kind) {
  auto Node = std::make_shared<ExprNode>();
  Node->Kind = Kind;
  return Node;
}

Expr ir::intImm(int64_t Value) {
  Expr E = makeExpr(ExprKind::IntImm);
  const_cast<ExprNode &>(*E).IntVal = Value;
  return E;
}

Expr ir::floatImm(double Value) {
  Expr E = makeExpr(ExprKind::FloatImm);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.FloatVal = Value;
  N.Type = ScalarKind::Float;
  return E;
}

Expr ir::boolImm(bool Value) {
  Expr E = makeExpr(ExprKind::BoolImm);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.IntVal = Value ? 1 : 0;
  N.Type = ScalarKind::Bool;
  return E;
}

Expr ir::var(const std::string &Name, ScalarKind Kind) {
  CONVGEN_ASSERT(!Name.empty(), "variable must have a name");
  Expr E = makeExpr(ExprKind::Var);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.Name = Name;
  N.Type = Kind;
  return E;
}

Expr ir::load(const std::string &Buffer, Expr Index, ScalarKind Elem) {
  CONVGEN_ASSERT(Index != nullptr, "load requires an index");
  Expr E = makeExpr(ExprKind::Load);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.Name = Buffer;
  N.A = std::move(Index);
  N.Type = Elem;
  return E;
}

bool ir::isIntConst(const Expr &E, int64_t *Value) {
  if (!E || (E->Kind != ExprKind::IntImm && E->Kind != ExprKind::BoolImm))
    return false;
  if (Value)
    *Value = E->IntVal;
  return true;
}

/// Applies the integer semantics of \p Op; used for constant folding and by
/// the interpreter so both agree exactly.
static int64_t applyIntBinOp(BinOp Op, int64_t A, int64_t B) {
  switch (Op) {
  case BinOp::Add:
    return A + B;
  case BinOp::Sub:
    return A - B;
  case BinOp::Mul:
    return A * B;
  case BinOp::Div:
    CONVGEN_ASSERT(B != 0, "integer division by zero");
    return A / B;
  case BinOp::Rem:
    CONVGEN_ASSERT(B != 0, "integer remainder by zero");
    return A % B;
  case BinOp::Min:
    return A < B ? A : B;
  case BinOp::Max:
    return A > B ? A : B;
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
  case BinOp::Eq:
    return A == B;
  case BinOp::Ne:
    return A != B;
  case BinOp::Lt:
    return A < B;
  case BinOp::Le:
    return A <= B;
  case BinOp::Gt:
    return A > B;
  case BinOp::Ge:
    return A >= B;
  case BinOp::LAnd:
    return (A != 0) && (B != 0);
  case BinOp::LOr:
    return (A != 0) || (B != 0);
  }
  convgen_unreachable("unknown binary op");
}

static bool isComparison(BinOp Op) {
  switch (Op) {
  case BinOp::Eq:
  case BinOp::Ne:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
  case BinOp::LAnd:
  case BinOp::LOr:
    return true;
  default:
    return false;
  }
}

Expr ir::binop(BinOp Op, Expr A, Expr B) {
  CONVGEN_ASSERT(A && B, "binop requires two operands");
  int64_t CA = 0, CB = 0;
  bool AConst = isIntConst(A, &CA);
  bool BConst = isIntConst(B, &CB);
  bool IntLike = A->Type != ScalarKind::Float && B->Type != ScalarKind::Float;

  // Constant folding over integers.
  if (AConst && BConst && IntLike &&
      !((Op == BinOp::Div || Op == BinOp::Rem) && CB == 0)) {
    int64_t Folded = applyIntBinOp(Op, CA, CB);
    return isComparison(Op) ? boolImm(Folded != 0) : intImm(Folded);
  }
  // Identities that keep generated loop bounds and indexing readable.
  if (IntLike) {
    if (Op == BinOp::Add && AConst && CA == 0)
      return B;
    if ((Op == BinOp::Add || Op == BinOp::Sub) && BConst && CB == 0)
      return A;
    if (Op == BinOp::Mul && AConst && CA == 1)
      return B;
    if ((Op == BinOp::Mul || Op == BinOp::Div) && BConst && CB == 1)
      return A;
    if (Op == BinOp::Mul && ((AConst && CA == 0) || (BConst && CB == 0)))
      return intImm(0);
    // Normalize +/- of negative constants so code prints as x - 3, never
    // x + -3 or x - -3.
    if (Op == BinOp::Add && BConst && CB < 0)
      return binop(BinOp::Sub, A, intImm(-CB));
    if (Op == BinOp::Sub && BConst && CB < 0)
      return binop(BinOp::Add, A, intImm(-CB));
    // Fold constant chains: (x + c1) + c2 and (x - c1) + c2 collapse, so
    // bounds like (dim0 - 1) + 1 print as dim0.
    if ((Op == BinOp::Add || Op == BinOp::Sub) && BConst &&
        A->Kind == ExprKind::Binary &&
        (A->BOp == BinOp::Add || A->BOp == BinOp::Sub)) {
      int64_t Inner = 0;
      if (isIntConst(A->B, &Inner)) {
        int64_t Outer = Op == BinOp::Add ? CB : -CB;
        int64_t Net = (A->BOp == BinOp::Add ? Inner : -Inner) + Outer;
        if (Net == 0)
          return A->A;
        return Net > 0 ? binop(BinOp::Add, A->A, intImm(Net))
                       : binop(BinOp::Sub, A->A, intImm(-Net));
      }
    }
  }

  Expr E = makeExpr(ExprKind::Binary);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.BOp = Op;
  if (isComparison(Op))
    N.Type = ScalarKind::Bool;
  else if (A->Type == ScalarKind::Float || B->Type == ScalarKind::Float)
    N.Type = ScalarKind::Float;
  else
    N.Type = ScalarKind::Int;
  N.A = std::move(A);
  N.B = std::move(B);
  return E;
}

Expr ir::add(Expr A, Expr B) { return binop(BinOp::Add, A, B); }
Expr ir::sub(Expr A, Expr B) { return binop(BinOp::Sub, A, B); }
Expr ir::mul(Expr A, Expr B) { return binop(BinOp::Mul, A, B); }
Expr ir::div(Expr A, Expr B) { return binop(BinOp::Div, A, B); }
Expr ir::rem(Expr A, Expr B) { return binop(BinOp::Rem, A, B); }
Expr ir::min(Expr A, Expr B) { return binop(BinOp::Min, A, B); }
Expr ir::max(Expr A, Expr B) { return binop(BinOp::Max, A, B); }
Expr ir::eq(Expr A, Expr B) { return binop(BinOp::Eq, A, B); }
Expr ir::ne(Expr A, Expr B) { return binop(BinOp::Ne, A, B); }
Expr ir::lt(Expr A, Expr B) { return binop(BinOp::Lt, A, B); }
Expr ir::le(Expr A, Expr B) { return binop(BinOp::Le, A, B); }
Expr ir::gt(Expr A, Expr B) { return binop(BinOp::Gt, A, B); }
Expr ir::ge(Expr A, Expr B) { return binop(BinOp::Ge, A, B); }
Expr ir::logicalAnd(Expr A, Expr B) { return binop(BinOp::LAnd, A, B); }
Expr ir::logicalOr(Expr A, Expr B) { return binop(BinOp::LOr, A, B); }

Expr ir::neg(Expr A) {
  int64_t C = 0;
  if (isIntConst(A, &C))
    return intImm(-C);
  Expr E = makeExpr(ExprKind::Unary);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.UOp = UnOp::Neg;
  N.Type = A->Type;
  N.A = std::move(A);
  return E;
}

Expr ir::logicalNot(Expr A) {
  int64_t C = 0;
  if (isIntConst(A, &C))
    return boolImm(C == 0);
  Expr E = makeExpr(ExprKind::Unary);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.UOp = UnOp::LNot;
  N.Type = ScalarKind::Bool;
  N.A = std::move(A);
  return E;
}

Expr ir::numParts() {
  Expr E = makeExpr(ExprKind::NumParts);
  const_cast<ExprNode &>(*E).Type = ScalarKind::Int;
  return E;
}

Expr ir::lowerBound(const std::string &Buffer, Expr Count,
                    std::vector<Expr> Keys) {
  CONVGEN_ASSERT(Count != nullptr, "lowerBound requires a tuple count");
  CONVGEN_ASSERT(!Keys.empty(), "lowerBound requires at least one key");
  Expr E = makeExpr(ExprKind::LowerBound);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.Name = Buffer;
  N.A = std::move(Count);
  N.Args = std::move(Keys);
  N.Type = ScalarKind::Int;
  return E;
}

Expr ir::lowerBoundPacked(const std::string &Buffer, Expr Count,
                          std::vector<Expr> Keys,
                          std::vector<int64_t> PackWidths) {
  if (PackWidths.size() != Keys.size())
    fatalError("lowerBoundPacked requires one bit width per key component");
  int64_t TotalBits = 0;
  for (int64_t W : PackWidths) {
    if (W < 0 || W > 32)
      fatalError("lowerBoundPacked widths are int32 coordinate widths");
    TotalBits += W;
  }
  if (TotalBits > 64)
    fatalError("lowerBoundPacked requires the tuple to fit 64 bits");
  Expr E = lowerBound(Buffer, std::move(Count), std::move(Keys));
  const_cast<ExprNode &>(*E).PackWidths = std::move(PackWidths);
  return E;
}

Expr ir::select(Expr Cond, Expr IfTrue, Expr IfFalse) {
  int64_t C = 0;
  if (isIntConst(Cond, &C))
    return C != 0 ? IfTrue : IfFalse;
  Expr E = makeExpr(ExprKind::Select);
  ExprNode &N = const_cast<ExprNode &>(*E);
  N.Type = IfTrue->Type;
  N.A = std::move(Cond);
  N.B = std::move(IfTrue);
  N.C = std::move(IfFalse);
  return E;
}

//===----------------------------------------------------------------------===//
// Statement factories
//===----------------------------------------------------------------------===//

static Stmt makeStmt(StmtKind Kind) {
  auto Node = std::make_shared<StmtNode>();
  Node->Kind = Kind;
  return Node;
}

Stmt ir::block(std::vector<Stmt> Stmts) {
  Stmt S = makeStmt(StmtKind::Block);
  const_cast<StmtNode &>(*S).Stmts = std::move(Stmts);
  return S;
}

Stmt ir::decl(const std::string &Name, Expr Init, ScalarKind Kind) {
  CONVGEN_ASSERT(Init != nullptr, "decl requires an initializer");
  Stmt S = makeStmt(StmtKind::Decl);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Name;
  N.Type = Kind;
  N.A = std::move(Init);
  return S;
}

Stmt ir::assign(const std::string &Name, Expr Value) {
  Stmt S = makeStmt(StmtKind::Assign);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Name;
  N.A = std::move(Value);
  return S;
}

Stmt ir::store(const std::string &Buffer, Expr Index, Expr Value,
               ReduceOp Reduce) {
  Stmt S = makeStmt(StmtKind::Store);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Buffer;
  N.A = std::move(Index);
  N.B = std::move(Value);
  N.Reduce = Reduce;
  return S;
}

Stmt ir::forRange(const std::string &Var, Expr Lo, Expr Hi, Stmt Body) {
  Stmt S = makeStmt(StmtKind::For);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Var;
  N.A = std::move(Lo);
  N.B = std::move(Hi);
  N.Body = std::move(Body);
  return S;
}

Stmt ir::whileLoop(Expr Cond, Stmt Body) {
  Stmt S = makeStmt(StmtKind::While);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.A = std::move(Cond);
  N.Body = std::move(Body);
  return S;
}

Stmt ir::ifThen(Expr Cond, Stmt Then, Stmt Else) {
  Stmt S = makeStmt(StmtKind::If);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.A = std::move(Cond);
  N.Body = std::move(Then);
  N.Else = std::move(Else);
  return S;
}

Stmt ir::alloc(const std::string &Buffer, ScalarKind Elem, Expr Size,
               bool ZeroInit) {
  Stmt S = makeStmt(StmtKind::Alloc);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Buffer;
  N.Type = Elem;
  N.A = std::move(Size);
  N.ZeroInit = ZeroInit;
  return S;
}

Stmt ir::freeBuffer(const std::string &Buffer) {
  Stmt S = makeStmt(StmtKind::Free);
  const_cast<StmtNode &>(*S).Name = Buffer;
  return S;
}

Stmt ir::markLoopParallel(const Stmt &Loop, std::vector<std::string> Privates,
                          std::vector<ParReduction> Reductions) {
  CONVGEN_ASSERT(Loop && Loop->Kind == StmtKind::For,
                 "only For loops can be parallel");
  auto Node = std::make_shared<StmtNode>(*Loop);
  Node->Parallel = true;
  Node->Privates = std::move(Privates);
  Node->Reductions = std::move(Reductions);
  return Node;
}

Stmt ir::comment(const std::string &Text) {
  Stmt S = makeStmt(StmtKind::Comment);
  const_cast<StmtNode &>(*S).Name = Text;
  return S;
}

Stmt ir::yieldBuffer(const std::string &Slot, const std::string &Buffer,
                     Expr Length) {
  Stmt S = makeStmt(StmtKind::YieldBuffer);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Slot = Slot;
  N.Name = Buffer;
  N.A = std::move(Length);
  return S;
}

Stmt ir::yieldScalar(const std::string &Slot, Expr Value) {
  Stmt S = makeStmt(StmtKind::YieldScalar);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Slot = Slot;
  N.A = std::move(Value);
  return S;
}

Stmt ir::scan(const std::string &Buffer, Expr Length, ScanKind Kind,
              ReduceOp Op) {
  CONVGEN_ASSERT(Length != nullptr, "scan requires a length");
  CONVGEN_ASSERT(Op == ReduceOp::Add || Op == ReduceOp::Max,
                 "scan combines with Add or Max only");
  CONVGEN_ASSERT(Op == ReduceOp::Add || Kind == ScanKind::Inclusive,
                 "max scans are inclusive (identity 0 over non-negatives)");
  Stmt S = makeStmt(StmtKind::Scan);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Buffer;
  N.A = std::move(Length);
  N.Scan = Kind;
  N.Reduce = Op;
  return S;
}

Stmt ir::sortTuples(const std::string &Buffer, Expr Count, int64_t Arity) {
  CONVGEN_ASSERT(Count != nullptr, "sortTuples requires a tuple count");
  CONVGEN_ASSERT(Arity >= 1, "sortTuples requires a positive arity");
  Stmt S = makeStmt(StmtKind::SortTuples);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Buffer;
  N.A = std::move(Count);
  N.Arity = Arity;
  return S;
}

Stmt ir::sortUniqueTuplesPacked(const std::string &Buffer, Expr Count,
                                int64_t Arity,
                                std::vector<int64_t> PackWidths,
                                const std::string &CountVar,
                                const std::string &RankBuffer) {
  // Hard errors even in release builds: a bad width vector would silently
  // mis-sort (keys aliasing or truncating coordinates).
  if (CountVar.empty())
    fatalError("sortUniqueTuplesPacked requires a result name");
  if (static_cast<int64_t>(PackWidths.size()) != Arity)
    fatalError("sortUniqueTuplesPacked requires one bit width per component");
  int64_t TotalBits = 0;
  for (int64_t W : PackWidths) {
    if (W < 0 || W > 32)
      fatalError("sortUniqueTuplesPacked widths are int32 coordinate widths");
    TotalBits += W;
  }
  if (TotalBits > 64)
    fatalError("sortUniqueTuplesPacked requires the tuple to fit 64 bits");
  Stmt S = sortTuples(Buffer, std::move(Count), Arity);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.PackWidths = std::move(PackWidths);
  N.Slot = CountVar;
  N.Buffer2 = RankBuffer;
  return S;
}

Stmt ir::uniqueTuples(const std::string &Buffer, Expr Count, int64_t Arity,
                      const std::string &CountVar) {
  CONVGEN_ASSERT(Count != nullptr, "uniqueTuples requires a tuple count");
  CONVGEN_ASSERT(Arity >= 1, "uniqueTuples requires a positive arity");
  CONVGEN_ASSERT(!CountVar.empty(), "uniqueTuples requires a result name");
  Stmt S = makeStmt(StmtKind::UniqueTuples);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Buffer;
  N.Slot = CountVar;
  N.A = std::move(Count);
  N.Arity = Arity;
  return S;
}

Stmt ir::uniquePrefix(const std::string &Src, Expr Count, int64_t SrcArity,
                      const std::string &Dst, int64_t DstArity,
                      const std::string &CountVar) {
  CONVGEN_ASSERT(Count != nullptr, "uniquePrefix requires a tuple count");
  CONVGEN_ASSERT(SrcArity >= 1 && DstArity >= 1 && DstArity <= SrcArity,
                 "uniquePrefix requires 1 <= DstArity <= SrcArity");
  CONVGEN_ASSERT(!CountVar.empty(), "uniquePrefix requires a result name");
  Stmt S = makeStmt(StmtKind::UniquePrefix);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Src;
  N.Buffer2 = Dst;
  N.Slot = CountVar;
  N.A = std::move(Count);
  N.Arity = SrcArity;
  N.Arity2 = DstArity;
  return S;
}

Stmt ir::phaseMark(int64_t Phase, const std::string &Label) {
  Stmt S = makeStmt(StmtKind::PhaseMark);
  StmtNode &N = const_cast<StmtNode &>(*S);
  N.Name = Label;
  N.Phase = Phase;
  return S;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static const char *binOpSpelling(BinOp Op) {
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
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::LAnd:
    return "&&";
  case BinOp::LOr:
    return "||";
  case BinOp::Min:
  case BinOp::Max:
    return nullptr; // Printed as function calls.
  }
  convgen_unreachable("unknown binary op");
}

std::string ir::printExpr(const Expr &E) {
  CONVGEN_ASSERT(E != nullptr, "cannot print a null expression");
  switch (E->Kind) {
  case ExprKind::IntImm:
    return std::to_string(E->IntVal);
  case ExprKind::FloatImm:
    return strfmt("%g", E->FloatVal);
  case ExprKind::BoolImm:
    return E->IntVal ? "1" : "0";
  case ExprKind::Var:
    return E->Name;
  case ExprKind::Load:
    return E->Name + "[" + printExpr(E->A) + "]";
  case ExprKind::Binary: {
    if (E->BOp == BinOp::Min || E->BOp == BinOp::Max) {
      const char *Fn = E->BOp == BinOp::Min ? "cvg_min" : "cvg_max";
      return std::string(Fn) + "(" + printExpr(E->A) + ", " + printExpr(E->B) +
             ")";
    }
    std::string A = printExpr(E->A);
    std::string B = printExpr(E->B);
    auto needsParens = [](const Expr &Sub) {
      return Sub->Kind == ExprKind::Binary || Sub->Kind == ExprKind::Select ||
             Sub->Kind == ExprKind::Unary;
    };
    if (needsParens(E->A))
      A = "(" + A + ")";
    if (needsParens(E->B))
      B = "(" + B + ")";
    return A + " " + binOpSpelling(E->BOp) + " " + B;
  }
  case ExprKind::Unary: {
    std::string A = printExpr(E->A);
    if (E->A->Kind == ExprKind::Binary || E->A->Kind == ExprKind::Select)
      A = "(" + A + ")";
    return (E->UOp == UnOp::Neg ? "-" : "!") + A;
  }
  case ExprKind::Select:
    return "(" + printExpr(E->A) + " ? " + printExpr(E->B) + " : " +
           printExpr(E->C) + ")";
  case ExprKind::NumParts:
    // The emitted C prelude defines cvg_nparts() as the OpenMP max thread
    // count (1 without OpenMP); the interpreter evaluates it to 1.
    return "cvg_nparts()";
  case ExprKind::LowerBound: {
    // The C prelude defines cvg_lower_bound (and the packed-key variant);
    // the key tuple is passed as a C99 compound literal so the call stays
    // a plain expression. The same spelling doubles as the readable view.
    std::vector<std::string> Keys;
    Keys.reserve(E->Args.size());
    for (const Expr &K : E->Args)
      Keys.push_back(printExpr(K));
    if (!E->PackWidths.empty()) {
      std::vector<std::string> Widths;
      Widths.reserve(E->PackWidths.size());
      for (int64_t W : E->PackWidths)
        Widths.push_back(std::to_string(W));
      return "cvg_lower_bound_packed(" + E->Name + ", " + printExpr(E->A) +
             ", " + std::to_string(E->Args.size()) + ", (const int64_t[]){" +
             join(Widths, ",") + "}, (const int64_t[]){" + join(Keys, ", ") +
             "})";
    }
    return "cvg_lower_bound(" + E->Name + ", " + printExpr(E->A) + ", " +
           std::to_string(E->Args.size()) + ", (const int64_t[]){" +
           join(Keys, ", ") + "})";
  }
  }
  convgen_unreachable("unknown expression kind");
}

static const char *cElemType(ScalarKind Kind) {
  switch (Kind) {
  case ScalarKind::Int:
    return "int32_t";
  case ScalarKind::Float:
    return "double";
  case ScalarKind::Bool:
    return "uint8_t";
  }
  convgen_unreachable("unknown scalar kind");
}

/// Emits the C lowering of a Scan: a two-pass blocked prefix sum that
/// parallelizes under OpenMP and reduces to the canonical serial loop when
/// there is a single partition (no OpenMP, short buffers). Deterministic
/// for any partition count — int32 addition is associative mod 2^32 — so
/// the result is bit-identical to the interpreter's serial scan. All
/// locals live in their own braces, so nested scans cannot collide.
static void printScanC(const Stmt &S, const std::string &Pad,
                       std::string &Out) {
  bool Incl = S->Scan == ScanKind::Inclusive;
  bool IsMax = S->Reduce == ReduceOp::Max;
  const std::string &X = S->Name;
  std::string Body =
      IsMax ? "cvg_acc = cvg_max(cvg_acc, " + X + "[cvg_k]); " + X +
                  "[cvg_k] = cvg_acc;"
      : Incl ? "cvg_acc += " + X + "[cvg_k]; " + X + "[cvg_k] = cvg_acc;"
             : "int32_t cvg_v = " + X + "[cvg_k]; " + X +
                   "[cvg_k] = cvg_acc; cvg_acc += cvg_v;";
  std::string Accumulate =
      IsMax ? "cvg_acc = cvg_max(cvg_acc, " + X + "[cvg_k]);"
            : "cvg_acc += " + X + "[cvg_k];";
  std::string Carry =
      IsMax ? "cvg_sums[cvg_b] = cvg_carry; "
              "cvg_carry = cvg_max(cvg_carry, cvg_t);"
            : "cvg_sums[cvg_b] = cvg_carry; cvg_carry += cvg_t;";
  Out += Pad + "{ // " + (Incl ? "inclusive" : "exclusive") +
         (IsMax ? " max scan of " : " scan of ") + X + "[0:" +
         printExpr(S->A) + "]\n";
  std::string In = Pad + "  ";
  Out += In + "int64_t cvg_n = " + printExpr(S->A) + ";\n";
  Out += In + "int64_t cvg_p = cvg_nparts();\n";
  Out += In + "if (cvg_p > cvg_n) cvg_p = cvg_n;\n";
  Out += In + "if (cvg_p > 1) {\n";
  Out += In + "  int32_t* cvg_sums = (int32_t*)malloc(cvg_p * "
              "sizeof(int32_t));\n";
  Out += In + "  #pragma omp parallel for\n";
  Out += In + "  for (int64_t cvg_b = 0; cvg_b < cvg_p; cvg_b++) {\n";
  Out += In + "    int32_t cvg_acc = 0;\n";
  Out += In + "    for (int64_t cvg_k = cvg_n * cvg_b / cvg_p; "
              "cvg_k < cvg_n * (cvg_b + 1) / cvg_p; cvg_k++)\n";
  Out += In + "      " + Accumulate + "\n";
  Out += In + "    cvg_sums[cvg_b] = cvg_acc;\n";
  Out += In + "  }\n";
  Out += In + "  int32_t cvg_carry = 0;\n";
  Out += In + "  for (int64_t cvg_b = 0; cvg_b < cvg_p; cvg_b++) {\n";
  Out += In + "    int32_t cvg_t = cvg_sums[cvg_b]; " + Carry + "\n";
  Out += In + "  }\n";
  Out += In + "  #pragma omp parallel for\n";
  Out += In + "  for (int64_t cvg_b = 0; cvg_b < cvg_p; cvg_b++) {\n";
  Out += In + "    int32_t cvg_acc = cvg_sums[cvg_b];\n";
  Out += In + "    for (int64_t cvg_k = cvg_n * cvg_b / cvg_p; "
              "cvg_k < cvg_n * (cvg_b + 1) / cvg_p; cvg_k++) {\n";
  Out += In + "      " + Body + "\n";
  Out += In + "    }\n";
  Out += In + "  }\n";
  Out += In + "  free(cvg_sums);\n";
  Out += In + "} else {\n";
  Out += In + "  int32_t cvg_acc = 0;\n";
  Out += In + "  for (int64_t cvg_k = 0; cvg_k < cvg_n; cvg_k++) {\n";
  Out += In + "    " + Body + "\n";
  Out += In + "  }\n";
  Out += In + "}\n";
  Out += Pad + "}\n";
}

static const char *reduceOpName(ReduceOp Op) {
  return Op == ReduceOp::Add   ? "+"
         : Op == ReduceOp::Or  ? "|"
         : Op == ReduceOp::Max ? "max"
                               : "min";
}

static void printStmtInto(const Stmt &S, int Indent, std::string &Out,
                          bool CMode);

/// Emits the C lowering of a parallel For with reductions. OpenMP's
/// array-section reduction clause places every thread's private copy on
/// that thread's stack, which overflows the default 8 MB stack once a
/// histogram spans a few million rows. Instead each thread accumulates
/// into a heap copy initialized to the identity, and merges it into the
/// shared buffer under a critical section after the loop's implicit
/// barrier. Thread 0 could accumulate into the shared buffer directly, but
/// the compiler cannot tell that buffer apart from the source arrays
/// inside the outlined region, so every histogram store would force the
/// loop bounds (pos-array loads) to be re-read; a fresh calloc/malloc
/// result provably aliases nothing. Only exact integer reductions are
/// emitted, so any merge order gives the bit-identical serial result.
static void printReductionLoopC(const Stmt &S, int Indent,
                                const std::string &Privates,
                                std::string &Out) {
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  std::string In1 = Pad + "  ", In2 = Pad + "    ";
  Out += Pad + "{\n";
  for (const ParReduction &R : S->Reductions)
    Out += In1 + cElemType(R.Elem) + " *cvg_sh_" + R.Buffer + " = " +
           R.Buffer + ";\n";
  Out += In1 + "#pragma omp parallel\n" + In1 + "{\n";
  for (const ParReduction &R : S->Reductions) {
    CONVGEN_ASSERT(R.Elem != ScalarKind::Float,
                   "parallel reductions must be exact (integer) ops");
    std::string Ty = cElemType(R.Elem), Len = printExpr(R.Length);
    bool Int = R.Elem == ScalarKind::Int;
    const char *Identity = R.Op == ReduceOp::Max ? (Int ? "INT32_MIN" : "0")
                           : R.Op == ReduceOp::Min
                               ? (Int ? "INT32_MAX" : "UINT8_MAX")
                               : nullptr;
    if (!Identity) {
      Out += In2 + Ty + " *" + R.Buffer + " = (" + Ty + " *)calloc(" + Len +
             ", sizeof(" + Ty + "));\n";
      continue;
    }
    Out += In2 + Ty + " *" + R.Buffer + " = (" + Ty + " *)malloc((" + Len +
           ") * sizeof(" + Ty + "));\n";
    Out += In2 + "for (int64_t cvg_r = 0; cvg_r < " + Len + "; cvg_r++)\n" +
           In2 + "  " + R.Buffer + "[cvg_r] = " + Identity + ";\n";
  }
  Out += In2 + "#pragma omp for" + Privates + "\n";
  Out += In2 + "for (int64_t " + S->Name + " = " + printExpr(S->A) + "; " +
         S->Name + " < " + printExpr(S->B) + "; " + S->Name + "++) {\n";
  printStmtInto(S->Body, Indent + 3, Out, true);
  Out += In2 + "}\n";
  for (const ParReduction &R : S->Reductions) {
    Out += In2 + "#pragma omp critical\n";
    Out += In2 + "for (int64_t cvg_r = 0; cvg_r < " + printExpr(R.Length) +
           "; cvg_r++) {\n";
    printStmtInto(store("cvg_sh_" + R.Buffer, var("cvg_r"),
                        load(R.Buffer, var("cvg_r")), R.Op),
                  Indent + 3, Out, true);
    Out += In2 + "}\n" + In2 + "free(" + R.Buffer + ");\n";
  }
  Out += In1 + "}\n" + Pad + "}\n";
}

static void printStmtInto(const Stmt &S, int Indent, std::string &Out,
                          bool CMode) {
  CONVGEN_ASSERT(S != nullptr, "cannot print a null statement");
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  switch (S->Kind) {
  case StmtKind::Block:
    for (const Stmt &Sub : S->Stmts)
      printStmtInto(Sub, Indent, Out, CMode);
    return;
  case StmtKind::Decl: {
    const char *Ty =
        S->Type == ScalarKind::Float ? "double" : "int64_t";
    Out += Pad + Ty + " " + S->Name + " = " + printExpr(S->A) + ";\n";
    return;
  }
  case StmtKind::Assign:
    Out += Pad + S->Name + " = " + printExpr(S->A) + ";\n";
    return;
  case StmtKind::Store: {
    std::string Lhs = S->Name + "[" + printExpr(S->A) + "]";
    switch (S->Reduce) {
    case ReduceOp::None:
      Out += Pad + Lhs + " = " + printExpr(S->B) + ";\n";
      return;
    case ReduceOp::Add:
      Out += Pad + Lhs + " += " + printExpr(S->B) + ";\n";
      return;
    case ReduceOp::Or:
      Out += Pad + Lhs + " |= " + printExpr(S->B) + ";\n";
      return;
    case ReduceOp::Max:
      Out += Pad + Lhs + " = cvg_max(" + Lhs + ", " + printExpr(S->B) + ");\n";
      return;
    case ReduceOp::Min:
      Out += Pad + Lhs + " = cvg_min(" + Lhs + ", " + printExpr(S->B) + ");\n";
      return;
    }
    convgen_unreachable("unknown reduce op");
  }
  case StmtKind::For: {
    // Parallel loops carry an OpenMP annotation. Compilers ignore the
    // pragma without -fopenmp, so the emitted C stays valid serial code.
    std::string Privates =
        S->Privates.empty() ? "" : " private(" + join(S->Privates, ", ") + ")";
    if (S->Parallel && CMode && !S->Reductions.empty()) {
      printReductionLoopC(S, Indent, Privates, Out);
      return;
    }
    if (S->Parallel) {
      // The readable view keeps the compact reduction-clause notation.
      Out += Pad + "#pragma omp parallel for" + Privates;
      for (const ParReduction &R : S->Reductions)
        Out += std::string(" reduction(") + reduceOpName(R.Op) + ":" +
               R.Buffer + "[0:" + printExpr(R.Length) + "])";
      Out += "\n";
    }
    Out += Pad + "for (int64_t " + S->Name + " = " + printExpr(S->A) + "; " +
           S->Name + " < " + printExpr(S->B) + "; " + S->Name + "++) {\n";
    printStmtInto(S->Body, Indent + 1, Out, CMode);
    Out += Pad + "}\n";
    return;
  }
  case StmtKind::While:
    Out += Pad + "while (" + printExpr(S->A) + ") {\n";
    printStmtInto(S->Body, Indent + 1, Out, CMode);
    Out += Pad + "}\n";
    return;
  case StmtKind::If:
    Out += Pad + "if (" + printExpr(S->A) + ") {\n";
    printStmtInto(S->Body, Indent + 1, Out, CMode);
    if (S->Else) {
      Out += Pad + "} else {\n";
      printStmtInto(S->Else, Indent + 1, Out, CMode);
    }
    Out += Pad + "}\n";
    return;
  case StmtKind::Alloc: {
    const char *Ty = cElemType(S->Type);
    std::string Fn = S->ZeroInit ? "calloc" : "malloc";
    std::string Size = printExpr(S->A);
    if (S->ZeroInit)
      Out += Pad + Ty + "* " + S->Name + " = (" + Ty + "*)calloc(" + Size +
             ", sizeof(" + Ty + "));\n";
    else
      Out += Pad + Ty + "* " + S->Name + " = (" + Ty + "*)malloc((" + Size +
             ") * sizeof(" + Ty + "));\n";
    return;
  }
  case StmtKind::Free:
    Out += Pad + "free(" + S->Name + ");\n";
    return;
  case StmtKind::Comment:
    Out += Pad + "// " + S->Name + "\n";
    return;
  case StmtKind::YieldBuffer: {
    SlotRef Ref = parseSlotName(S->Slot);
    std::string Len = printExpr(S->A);
    switch (Ref.Role) {
    case SlotRef::RoleKind::Pos:
    case SlotRef::RoleKind::Crd:
    case SlotRef::RoleKind::Perm: {
      const char *Field = Ref.Role == SlotRef::RoleKind::Pos   ? "pos"
                          : Ref.Role == SlotRef::RoleKind::Crd ? "crd"
                                                               : "perm";
      Out += Pad + strfmt("B->%s[%d] = %s;\n", Field, Ref.Level,
                          S->Name.c_str());
      Out += Pad + strfmt("B->%s_len[%d] = ", Field, Ref.Level) + Len + ";\n";
      return;
    }
    case SlotRef::RoleKind::Vals:
      Out += Pad + "B->vals = " + S->Name + ";\n";
      Out += Pad + "B->vals_len = " + Len + ";\n";
      return;
    default:
      Out += Pad + "/* yield " + S->Slot + " = " + S->Name + " (length " +
             Len + ") */\n";
      return;
    }
  }
  case StmtKind::YieldScalar: {
    SlotRef Ref = parseSlotName(S->Slot);
    if (Ref.Role == SlotRef::RoleKind::Param) {
      Out += Pad + strfmt("B->params[%d] = ", Ref.Level) + printExpr(S->A) +
             ";\n";
      return;
    }
    Out += Pad + "/* yield " + S->Slot + " = " + printExpr(S->A) + " */\n";
    return;
  }
  case StmtKind::Scan:
    if (CMode) {
      printScanC(S, Pad, Out);
    } else {
      // Figure 6 view: a compact pseudo-op keeps the routine readable.
      const char *Op = S->Reduce == ReduceOp::Max
                           ? "inclusive_max_scan("
                           : (S->Scan == ScanKind::Inclusive
                                  ? "inclusive_scan("
                                  : "exclusive_scan(");
      Out += Pad + Op + S->Name + ", " + printExpr(S->A) + ");\n";
    }
    return;
  case StmtKind::SortTuples:
    if (!S->PackWidths.empty()) {
      // Packed lowering: the per-component widths travel as a compound
      // literal (like cvg_lower_bound keys); the readable view shows them
      // as a bits= annotation.
      std::string Widths;
      for (int64_t W : S->PackWidths) {
        if (!Widths.empty())
          Widths += ",";
        Widths += std::to_string(W);
      }
      // Packed sorts always dedup the sorted keys and declare the unique
      // count in Slot; a non-empty Buffer2 additionally scatters per-slot
      // ranks into that buffer.
      if (CMode) {
        Out += Pad + strfmt("int64_t %s = cvg_radix_sort_packed(%s, %s, %lld, "
                            "(const int64_t[]){%s}, %s);\n",
                            S->Slot.c_str(), S->Name.c_str(),
                            printExpr(S->A).c_str(),
                            static_cast<long long>(S->Arity), Widths.c_str(),
                            S->Buffer2.empty() ? "NULL" : S->Buffer2.c_str());
      } else {
        std::string Rank =
            S->Buffer2.empty() ? "" : strfmt(", rank=%s", S->Buffer2.c_str());
        Out += Pad + strfmt("int64_t %s = sort_unique_tuples_packed(%s, %s, "
                            "%lld, bits=[%s]%s);\n",
                            S->Slot.c_str(), S->Name.c_str(),
                            printExpr(S->A).c_str(),
                            static_cast<long long>(S->Arity), Widths.c_str(),
                            Rank.c_str());
      }
      return;
    }
    if (CMode) {
      Out += Pad + strfmt("cvg_sort_tuples(%s, %s, %lld);\n", S->Name.c_str(),
                          printExpr(S->A).c_str(),
                          static_cast<long long>(S->Arity));
    } else {
      // Figure 6 view: a compact pseudo-op keeps the routine readable.
      Out += Pad + strfmt("sort_tuples(%s, %s, %lld);\n", S->Name.c_str(),
                          printExpr(S->A).c_str(),
                          static_cast<long long>(S->Arity));
    }
    return;
  case StmtKind::UniqueTuples:
    if (CMode) {
      Out += Pad + strfmt("int64_t %s = cvg_unique_tuples(%s, %s, %lld);\n",
                          S->Slot.c_str(), S->Name.c_str(),
                          printExpr(S->A).c_str(),
                          static_cast<long long>(S->Arity));
    } else {
      Out += Pad + strfmt("int64_t %s = unique_tuples(%s, %s, %lld);\n",
                          S->Slot.c_str(), S->Name.c_str(),
                          printExpr(S->A).c_str(),
                          static_cast<long long>(S->Arity));
    }
    return;
  case StmtKind::UniquePrefix:
    Out += Pad + strfmt("int64_t %s = %s(%s, %s, %lld, %s, %lld);\n",
                        S->Slot.c_str(),
                        CMode ? "cvg_unique_prefix" : "unique_prefix",
                        S->Name.c_str(), printExpr(S->A).c_str(),
                        static_cast<long long>(S->Arity),
                        S->Buffer2.c_str(),
                        static_cast<long long>(S->Arity2));
    return;
  case StmtKind::PhaseMark:
    if (!CMode) {
      Out += Pad + "// [phase] " + S->Name + "\n";
      return;
    }
    // Accumulate wall-clock seconds since the previous mark into the
    // per-routine phase array (exported as <fn>_phase_seconds). Index -1
    // only (re)starts the clock.
    if (S->Phase < 0) {
      Out += Pad + "cvg_phase_t0 = cvg_now();\n";
    } else {
      Out += Pad + strfmt("{ double cvg_t = cvg_now(); "
                          "cvg_phase_add(%lld, cvg_t - cvg_phase_t0); "
                          "cvg_phase_t0 = cvg_t; } // %s",
                          static_cast<long long>(S->Phase),
                          S->Name.c_str()) +
             "\n";
    }
    return;
  }
  convgen_unreachable("unknown statement kind");
}

SlotRef ir::parseSlotName(const std::string &Name) {
  SlotRef Ref;
  if (Name.size() >= 4 && Name.compare(0, 3, "dim") == 0) {
    Ref.Role = SlotRef::RoleKind::Dim;
    Ref.Level = std::atoi(Name.c_str() + 3);
    return Ref;
  }
  if (Name.size() < 2 || (Name[0] != 'A' && Name[0] != 'B'))
    return Ref;
  Ref.Tensor = Name[0];
  if (Name.compare(1, std::string::npos, "_vals") == 0) {
    Ref.Role = SlotRef::RoleKind::Vals;
    return Ref;
  }
  size_t Underscore = Name.find('_');
  if (Underscore == std::string::npos || Underscore == 1)
    return Ref;
  for (size_t I = 1; I < Underscore; ++I)
    if (!std::isdigit(static_cast<unsigned char>(Name[I])))
      return Ref;
  Ref.Level = std::atoi(Name.substr(1, Underscore - 1).c_str());
  std::string Suffix = Name.substr(Underscore + 1);
  if (Suffix == "pos")
    Ref.Role = SlotRef::RoleKind::Pos;
  else if (Suffix == "crd")
    Ref.Role = SlotRef::RoleKind::Crd;
  else if (Suffix == "perm")
    Ref.Role = SlotRef::RoleKind::Perm;
  else if (Suffix == "param")
    Ref.Role = SlotRef::RoleKind::Param;
  return Ref;
}

std::string ir::printStmt(const Stmt &S, int Indent) {
  std::string Out;
  printStmtInto(S, Indent, Out, /*CMode=*/false);
  return Out;
}

std::string ir::printStmtAsC(const Stmt &S, int Indent) {
  std::string Out;
  printStmtInto(S, Indent, Out, /*CMode=*/true);
  return Out;
}

std::string ir::printFunction(const Function &F) {
  std::string Out = "// " + F.Name + "(";
  std::vector<std::string> Names;
  Names.reserve(F.Params.size());
  for (const Param &P : F.Params)
    Names.push_back(P.Name);
  Out += join(Names, ", ") + ")\n";
  printStmtInto(F.Body, 0, Out, /*CMode=*/false);
  return Out;
}
