//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"

#include "support/Assert.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

using namespace convgen;
using namespace convgen::ir;

int64_t RuntimeBuffer::size() const {
  switch (Elem) {
  case ScalarKind::Int:
    return static_cast<int64_t>(Ints.size());
  case ScalarKind::Float:
    return static_cast<int64_t>(Floats.size());
  case ScalarKind::Bool:
    return static_cast<int64_t>(Bools.size());
  }
  convgen_unreachable("unknown buffer kind");
}

namespace {

/// A scalar runtime value.
struct Value {
  ScalarKind Kind = ScalarKind::Int;
  int64_t I = 0;
  double F = 0;

  static Value makeInt(int64_t V) { return {ScalarKind::Int, V, 0}; }
  static Value makeBool(bool V) { return {ScalarKind::Bool, V ? 1 : 0, 0}; }
  static Value makeFloat(double V) { return {ScalarKind::Float, 0, V}; }

  bool isFloat() const { return Kind == ScalarKind::Float; }
  double asFloat() const { return isFloat() ? F : static_cast<double>(I); }
  int64_t asInt() const {
    return isFloat() ? static_cast<int64_t>(F) : I;
  }
  bool asBool() const { return isFloat() ? F != 0 : I != 0; }
};

/// The mutable execution state of one run: scalar environment, live buffers,
/// and the collected yields.
class ExecState {
public:
  ExecState(std::map<std::string, int64_t> Scalars,
            std::map<std::string, RuntimeBuffer> Buffers, int64_t NumParts)
      : NumParts(NumParts), Buffers(std::move(Buffers)) {
    for (const auto &[Name, V] : Scalars)
      Env[Name] = Value::makeInt(V);
  }

  [[noreturn]] void fail(const std::string &Msg) {
    fatalError(("interpreter: " + Msg).c_str());
  }

  Value eval(const Expr &E);
  void exec(const Stmt &S);

  RunResult takeResult() { return std::move(Result); }

private:
  RuntimeBuffer &buffer(const std::string &Name) {
    auto It = Buffers.find(Name);
    if (It == Buffers.end())
      fail("use of unknown buffer '" + Name + "'");
    return It->second;
  }

  Value loadElem(const std::string &Name, int64_t Index) {
    RuntimeBuffer &Buf = buffer(Name);
    if (Index < 0 || Index >= Buf.size())
      fail(strfmt("load out of bounds: %s[%lld], size %lld", Name.c_str(),
                  static_cast<long long>(Index),
                  static_cast<long long>(Buf.size())));
    switch (Buf.Elem) {
    case ScalarKind::Int:
      return Value::makeInt(Buf.Ints[static_cast<size_t>(Index)]);
    case ScalarKind::Float:
      return Value::makeFloat(Buf.Floats[static_cast<size_t>(Index)]);
    case ScalarKind::Bool:
      return Value::makeBool(Buf.Bools[static_cast<size_t>(Index)] != 0);
    }
    convgen_unreachable("unknown buffer kind");
  }

  void storeElem(const std::string &Name, int64_t Index, Value V,
                 ReduceOp Reduce);

  /// Evaluates a packed sort's or search's run-time component widths and
  /// holds them to the packing contract the C lowering relies on: each in
  /// [0, 32], at most 64 bits in total.
  std::vector<int64_t> evalPackWidths(const std::vector<Expr> &Widths,
                                      const char *Op) {
    std::vector<int64_t> Out;
    int64_t Total = 0;
    for (const Expr &W : Widths) {
      Out.push_back(eval(W).asInt());
      if (Out.back() < 0 || Out.back() > 32)
        fail(strfmt("%s width %lld is not an int32 coordinate width", Op,
                    static_cast<long long>(Out.back())));
      Total += Out.back();
    }
    if (Total > 64)
      fail(strfmt("%s widths need %lld bits, over the 64-bit key", Op,
                  static_cast<long long>(Total)));
    return Out;
  }

  /// The other half of the contract: 0 <= C < 2^Width.
  void checkFits(int64_t C, int64_t Width, const char *Op) {
    if (C < 0 || C >= (int64_t(1) << Width))
      fail(strfmt("%s coordinate %lld does not fit its %lld-bit component",
                  Op, static_cast<long long>(C),
                  static_cast<long long>(Width)));
  }

  int64_t NumParts;
  std::unordered_map<std::string, Value> Env;
  std::map<std::string, RuntimeBuffer> Buffers;
  RunResult Result;
};

Value ExecState::eval(const Expr &E) {
  CONVGEN_ASSERT(E != nullptr, "evaluating null expression");
  switch (E->Kind) {
  case ExprKind::IntImm:
    return Value::makeInt(E->IntVal);
  case ExprKind::FloatImm:
    return Value::makeFloat(E->FloatVal);
  case ExprKind::BoolImm:
    return Value::makeBool(E->IntVal != 0);
  case ExprKind::Var: {
    auto It = Env.find(E->Name);
    if (It == Env.end())
      fail("use of undefined variable '" + E->Name + "'");
    return It->second;
  }
  case ExprKind::Load:
    return loadElem(E->Name, eval(E->A).asInt());
  case ExprKind::NumParts:
    // The reference semantics partition nothing: one block, serial order.
    // Generated code must produce identical results for any value >= 1,
    // which the thread-invariance tests check against the JIT and the
    // partition-count tests check here (Interpreter::setNumParts).
    return Value::makeInt(NumParts);
  case ExprKind::LowerBound: {
    RuntimeBuffer &Buf = buffer(E->Name);
    if (Buf.Elem != ScalarKind::Int)
      fail("lower_bound over a non-integer buffer '" + E->Name + "'");
    int64_t N = eval(E->A).asInt();
    int64_t R = static_cast<int64_t>(E->Args.size());
    if (N < 0 || N * R > Buf.size())
      fail(strfmt("lower_bound range %lld tuples of arity %lld out of "
                  "bounds for buffer %s (size %lld)",
                  static_cast<long long>(N), static_cast<long long>(R),
                  E->Name.c_str(), static_cast<long long>(Buf.size())));
    std::vector<int64_t> Key;
    Key.reserve(E->Args.size());
    for (const Expr &K : E->Args)
      Key.push_back(eval(K).asInt());
    if (!E->PackWidths.empty()) {
      std::vector<int64_t> W =
          evalPackWidths(E->PackWidths, "lower_bound_packed");
      for (int64_t I = 0; I < R; ++I)
        checkFits(Key[static_cast<size_t>(I)], W[static_cast<size_t>(I)],
                  "lower_bound_packed key");
    }
    int64_t Lo = 0, Hi = N;
    while (Lo < Hi) {
      int64_t Mid = Lo + (Hi - Lo) / 2;
      int Cmp = 0;
      for (int64_t I = 0; I < R && Cmp == 0; ++I) {
        int64_t T = Buf.Ints[static_cast<size_t>(Mid * R + I)];
        Cmp = T < Key[static_cast<size_t>(I)]
                  ? -1
                  : (T > Key[static_cast<size_t>(I)] ? 1 : 0);
      }
      if (Cmp < 0)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Value::makeInt(Lo);
  }
  case ExprKind::Unary: {
    Value A = eval(E->A);
    if (E->UOp == UnOp::LNot)
      return Value::makeBool(!A.asBool());
    if (E->UOp == UnOp::BitWidth)
      return Value::makeInt(bitWidthOf(A.asInt()));
    if (A.isFloat())
      return Value::makeFloat(-A.asFloat());
    return Value::makeInt(-A.asInt());
  }
  case ExprKind::Select:
    return eval(E->A).asBool() ? eval(E->B) : eval(E->C);
  case ExprKind::Binary: {
    Value A = eval(E->A);
    Value B = eval(E->B);
    if (A.isFloat() || B.isFloat()) {
      double X = A.asFloat(), Y = B.asFloat();
      switch (E->BOp) {
      case BinOp::Add:
        return Value::makeFloat(X + Y);
      case BinOp::Sub:
        return Value::makeFloat(X - Y);
      case BinOp::Mul:
        return Value::makeFloat(X * Y);
      case BinOp::Div:
        return Value::makeFloat(X / Y);
      case BinOp::Min:
        return Value::makeFloat(X < Y ? X : Y);
      case BinOp::Max:
        return Value::makeFloat(X > Y ? X : Y);
      case BinOp::Eq:
        return Value::makeBool(X == Y);
      case BinOp::Ne:
        return Value::makeBool(X != Y);
      case BinOp::Lt:
        return Value::makeBool(X < Y);
      case BinOp::Le:
        return Value::makeBool(X <= Y);
      case BinOp::Gt:
        return Value::makeBool(X > Y);
      case BinOp::Ge:
        return Value::makeBool(X >= Y);
      default:
        fail("invalid float binary operation");
      }
    }
    int64_t X = A.asInt(), Y = B.asInt();
    switch (E->BOp) {
    case BinOp::Add:
      return Value::makeInt(X + Y);
    case BinOp::Sub:
      return Value::makeInt(X - Y);
    case BinOp::Mul:
      return Value::makeInt(X * Y);
    case BinOp::Div:
      if (Y == 0)
        fail("integer division by zero");
      return Value::makeInt(X / Y);
    case BinOp::Rem:
      if (Y == 0)
        fail("integer remainder by zero");
      return Value::makeInt(X % Y);
    case BinOp::Min:
      return Value::makeInt(X < Y ? X : Y);
    case BinOp::Max:
      return Value::makeInt(X > Y ? X : Y);
    case BinOp::BitAnd:
      return Value::makeInt(X & Y);
    case BinOp::BitOr:
      return Value::makeInt(X | Y);
    case BinOp::BitXor:
      return Value::makeInt(X ^ Y);
    case BinOp::Shl:
      return Value::makeInt(X << Y);
    case BinOp::Shr:
      return Value::makeInt(X >> Y);
    case BinOp::Eq:
      return Value::makeBool(X == Y);
    case BinOp::Ne:
      return Value::makeBool(X != Y);
    case BinOp::Lt:
      return Value::makeBool(X < Y);
    case BinOp::Le:
      return Value::makeBool(X <= Y);
    case BinOp::Gt:
      return Value::makeBool(X > Y);
    case BinOp::Ge:
      return Value::makeBool(X >= Y);
    case BinOp::LAnd:
      return Value::makeBool(X != 0 && Y != 0);
    case BinOp::LOr:
      return Value::makeBool(X != 0 || Y != 0);
    }
    convgen_unreachable("unknown binary op");
  }
  }
  convgen_unreachable("unknown expression kind");
}

void ExecState::storeElem(const std::string &Name, int64_t Index, Value V,
                          ReduceOp Reduce) {
  RuntimeBuffer &Buf = buffer(Name);
  if (Index < 0 || Index >= Buf.size())
    fail(strfmt("store out of bounds: %s[%lld], size %lld", Name.c_str(),
                static_cast<long long>(Index),
                static_cast<long long>(Buf.size())));
  size_t I = static_cast<size_t>(Index);
  switch (Buf.Elem) {
  case ScalarKind::Int: {
    int64_t New = V.asInt();
    int64_t Old = Buf.Ints[I];
    switch (Reduce) {
    case ReduceOp::None:
      break;
    case ReduceOp::Add:
      New = Old + New;
      break;
    case ReduceOp::Or:
      New = Old | New;
      break;
    case ReduceOp::Max:
      New = Old > New ? Old : New;
      break;
    case ReduceOp::Min:
      New = Old < New ? Old : New;
      break;
    }
    Buf.Ints[I] = static_cast<int32_t>(New);
    return;
  }
  case ScalarKind::Float: {
    double New = V.asFloat();
    double Old = Buf.Floats[I];
    switch (Reduce) {
    case ReduceOp::None:
      break;
    case ReduceOp::Add:
      New = Old + New;
      break;
    case ReduceOp::Max:
      New = Old > New ? Old : New;
      break;
    case ReduceOp::Min:
      New = Old < New ? Old : New;
      break;
    case ReduceOp::Or:
      fail("bitwise-or reduction on a float buffer");
    }
    Buf.Floats[I] = New;
    return;
  }
  case ScalarKind::Bool: {
    bool New = V.asBool();
    if (Reduce == ReduceOp::Or)
      New = New || (Buf.Bools[I] != 0);
    else if (Reduce != ReduceOp::None)
      fail("unsupported reduction on a bool buffer");
    Buf.Bools[I] = New ? 1 : 0;
    return;
  }
  }
  convgen_unreachable("unknown buffer kind");
}

void ExecState::exec(const Stmt &S) {
  CONVGEN_ASSERT(S != nullptr, "executing null statement");
  switch (S->Kind) {
  case StmtKind::Block:
    for (const Stmt &Sub : S->Stmts)
      exec(Sub);
    return;
  case StmtKind::Decl:
  case StmtKind::Assign:
    Env[S->Name] = eval(S->A);
    return;
  case StmtKind::Store:
    storeElem(S->Name, eval(S->A).asInt(), eval(S->B), S->Reduce);
    return;
  case StmtKind::For: {
    // Parallel annotations are deliberately ignored: the interpreter runs
    // every loop serially and stays the bit-exact reference the JIT's
    // OpenMP lowering is validated against.
    int64_t Lo = eval(S->A).asInt();
    int64_t Hi = eval(S->B).asInt();
    // The loop variable shadows any outer binding for the loop's duration.
    auto Saved = Env.find(S->Name) != Env.end()
                     ? std::optional<Value>(Env[S->Name])
                     : std::nullopt;
    for (int64_t I = Lo; I < Hi; ++I) {
      Env[S->Name] = Value::makeInt(I);
      exec(S->Body);
    }
    if (Saved)
      Env[S->Name] = *Saved;
    else
      Env.erase(S->Name);
    return;
  }
  case StmtKind::If:
    if (eval(S->A).asBool())
      exec(S->Body);
    else if (S->Else)
      exec(S->Else);
    return;
  case StmtKind::Alloc: {
    int64_t Size = eval(S->A).asInt();
    if (Size < 0)
      fail("allocation with negative size for '" + S->Name + "'");
    RuntimeBuffer Buf;
    Buf.Elem = S->Type;
    // malloc'd int buffers are filled with a poison pattern so tests catch
    // reads of uninitialized storage that calloc would have hidden.
    switch (S->Type) {
    case ScalarKind::Int:
      Buf.Ints.assign(static_cast<size_t>(Size),
                      S->ZeroInit ? 0 : INT32_MIN / 2);
      break;
    case ScalarKind::Float:
      Buf.Floats.assign(static_cast<size_t>(Size), 0.0);
      break;
    case ScalarKind::Bool:
      Buf.Bools.assign(static_cast<size_t>(Size), 0);
      break;
    }
    Buffers[S->Name] = std::move(Buf);
    return;
  }
  case StmtKind::Free:
    // Keep freed buffers alive if they were yielded; a yield transfers
    // ownership to the result, so Free on a yielded buffer is an error in
    // generated code and is diagnosed here.
    if (Buffers.erase(S->Name) == 0)
      fail("free of unknown buffer '" + S->Name + "'");
    return;
  case StmtKind::Comment:
  case StmtKind::PhaseMark:
    return;
  case StmtKind::Scan: {
    // The serial oracle for the C emitter's blocked parallel scan: a plain
    // in-place inclusive prefix sum (or max) in int32 arithmetic.
    RuntimeBuffer &Buf = buffer(S->Name);
    if (Buf.Elem != ScalarKind::Int)
      fail("scan over a non-integer buffer '" + S->Name + "'");
    int64_t Len = eval(S->A).asInt();
    if (Len < 0 || Len > Buf.size())
      fail(strfmt("scan length %lld out of range for buffer %s (size %lld)",
                  static_cast<long long>(Len), S->Name.c_str(),
                  static_cast<long long>(Buf.size())));
    int32_t Acc = 0;
    for (int64_t K = 0; K < Len; ++K) {
      int32_t V = Buf.Ints[static_cast<size_t>(K)];
      Acc = S->Reduce == ReduceOp::Max ? (Acc > V ? Acc : V)
                                       : static_cast<int32_t>(Acc + V);
      Buf.Ints[static_cast<size_t>(K)] = Acc;
    }
    return;
  }
  case StmtKind::SortUniqueTuples: {
    // The serial oracle for both C lowerings (merge sort and packed radix
    // sort): the sorted, deduplicated sequence is a pure function of the
    // input multiset, so all agree bit-for-bit for any thread count.
    RuntimeBuffer &Buf = buffer(S->Name);
    if (Buf.Elem != ScalarKind::Int)
      fail("sort_unique_tuples over a non-integer buffer '" + S->Name + "'");
    int64_t N = eval(S->A).asInt();
    int64_t R = S->Arity;
    if (N < 0 || N * R > Buf.size())
      fail(strfmt("sort_unique_tuples range %lld tuples of arity %lld out "
                  "of bounds for buffer %s (size %lld)",
                  static_cast<long long>(N), static_cast<long long>(R),
                  S->Name.c_str(), static_cast<long long>(Buf.size())));
    std::vector<int32_t> &Ints = Buf.Ints;
    if (!S->PackWidths.empty()) {
      std::vector<int64_t> W =
          evalPackWidths(S->PackWidths, "sort_unique_tuples_packed");
      for (int64_t I = 0; I < N * R; ++I)
        checkFits(Ints[static_cast<size_t>(I)],
                  W[static_cast<size_t>(I % R)],
                  "sort_unique_tuples_packed");
    }
    std::vector<int64_t> Order(static_cast<size_t>(N));
    for (int64_t I = 0; I < N; ++I)
      Order[static_cast<size_t>(I)] = I;
    auto Tuple = [&](const std::vector<int32_t> &V, int64_t T) {
      return V.begin() + T * R;
    };
    std::sort(Order.begin(), Order.end(), [&](int64_t A, int64_t B) {
      return std::lexicographical_compare(Tuple(Ints, A), Tuple(Ints, A + 1),
                                          Tuple(Ints, B), Tuple(Ints, B + 1));
    });
    RuntimeBuffer *Rank = nullptr;
    if (!S->Buffer2.empty()) {
      Rank = &buffer(S->Buffer2);
      if (Rank->Elem != ScalarKind::Int || Rank->size() < N)
        fail("sort_unique_tuples_packed rank buffer '" + S->Buffer2 +
             "' missing or too small");
    }
    // Copy the distinct tuples out in sorted order. Slot i's rank in the
    // deduped list is the number of distinct tuples at or before its
    // sorted position, minus one; equal tuples share a rank, so the tie
    // order inside Order is irrelevant — the same pure function of the
    // multiset as the C payload.
    std::vector<int32_t> Sorted(static_cast<size_t>(N * R));
    int64_t U = 0;
    for (int64_t Src : Order) {
      if (U == 0 || !std::equal(Tuple(Ints, Src), Tuple(Ints, Src + 1),
                                Tuple(Sorted, U - 1)))
        std::copy(Tuple(Ints, Src), Tuple(Ints, Src + 1),
                  Sorted.begin() + (U++) * R);
      if (Rank)
        Rank->Ints[static_cast<size_t>(Src)] = static_cast<int32_t>(U - 1);
    }
    std::copy(Sorted.begin(), Sorted.begin() + U * R, Ints.begin());
    Env[S->Slot] = Value::makeInt(U);
    return;
  }
  case StmtKind::UniquePrefix: {
    // Serial oracle for cvg_unique_prefix: compact the distinct leading
    // DstArity components of the sorted Src tuples into Dst, in order.
    RuntimeBuffer &Src = buffer(S->Name);
    if (Src.Elem != ScalarKind::Int)
      fail("unique_prefix over a non-integer buffer '" + S->Name + "'");
    int64_t N = eval(S->A).asInt();
    int64_t R = S->Arity, Rp = S->Arity2;
    if (N < 0 || N * R > Src.size())
      fail(strfmt("unique_prefix range %lld tuples of arity %lld out of "
                  "bounds for buffer %s (size %lld)",
                  static_cast<long long>(N), static_cast<long long>(R),
                  S->Name.c_str(), static_cast<long long>(Src.size())));
    std::vector<int32_t> Kept;
    for (int64_t I = 0; I < N; ++I) {
      if (I > 0 &&
          std::equal(Src.Ints.begin() + I * R, Src.Ints.begin() + I * R + Rp,
                     Src.Ints.begin() + (I - 1) * R))
        continue;
      Kept.insert(Kept.end(), Src.Ints.begin() + I * R,
                  Src.Ints.begin() + I * R + Rp);
    }
    RuntimeBuffer &Dst = buffer(S->Buffer2);
    if (Dst.Elem != ScalarKind::Int)
      fail("unique_prefix into a non-integer buffer '" + S->Buffer2 + "'");
    if (static_cast<int64_t>(Kept.size()) > Dst.size())
      fail(strfmt("unique_prefix writes %zu ints past buffer %s (size %lld)",
                  Kept.size(), S->Buffer2.c_str(),
                  static_cast<long long>(Dst.size())));
    std::copy(Kept.begin(), Kept.end(), Dst.Ints.begin());
    Env[S->Slot] =
        Value::makeInt(static_cast<int64_t>(Kept.size()) / Rp);
    return;
  }
  case StmtKind::YieldBuffer: {
    RuntimeBuffer &Buf = buffer(S->Name);
    int64_t Len = eval(S->A).asInt();
    if (Len < 0 || Len > Buf.size())
      fail(strfmt("yield length %lld out of range for buffer %s (size %lld)",
                  static_cast<long long>(Len), S->Name.c_str(),
                  static_cast<long long>(Buf.size())));
    RuntimeBuffer Out;
    Out.Elem = Buf.Elem;
    switch (Buf.Elem) {
    case ScalarKind::Int:
      Out.Ints.assign(Buf.Ints.begin(), Buf.Ints.begin() + Len);
      break;
    case ScalarKind::Float:
      Out.Floats.assign(Buf.Floats.begin(), Buf.Floats.begin() + Len);
      break;
    case ScalarKind::Bool:
      Out.Bools.assign(Buf.Bools.begin(), Buf.Bools.begin() + Len);
      break;
    }
    Result.Buffers[S->Slot] = std::move(Out);
    return;
  }
  case StmtKind::YieldScalar:
    Result.Scalars[S->Slot] = eval(S->A).asInt();
    return;
  }
  convgen_unreachable("unknown statement kind");
}

} // namespace

void Interpreter::bindScalar(const std::string &Name, int64_t Value) {
  BoundScalars[Name] = Value;
}

void Interpreter::bindIntBuffer(const std::string &Name,
                                std::vector<int32_t> Data) {
  RuntimeBuffer Buf;
  Buf.Elem = ScalarKind::Int;
  Buf.Ints = std::move(Data);
  BoundBuffers[Name] = std::move(Buf);
}

void Interpreter::bindFloatBuffer(const std::string &Name,
                                  std::vector<double> Data) {
  RuntimeBuffer Buf;
  Buf.Elem = ScalarKind::Float;
  Buf.Floats = std::move(Data);
  BoundBuffers[Name] = std::move(Buf);
}

RunResult Interpreter::run(const Function &F) {
  ExecState State(BoundScalars, BoundBuffers, NumParts);
  State.exec(F.Body);
  return State.takeResult();
}
