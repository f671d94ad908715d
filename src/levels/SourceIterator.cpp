//===----------------------------------------------------------------------===//
//
// Part of convgen. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "levels/SourceIterator.h"

#include "remap/Bounds.h"
#include "remap/Lower.h"
#include "support/Assert.h"

#include <set>

using namespace convgen;
using namespace convgen::levels;
using formats::LevelKind;
using formats::LevelSpec;

SourceIterator::SourceIterator(const formats::Format &Fmt, std::string Tensor)
    : Fmt(Fmt), Tensor(std::move(Tensor)) {
  std::vector<ir::Expr> SrcDims;
  for (int D = 0; D < Fmt.SrcOrder; ++D)
    SrcDims.push_back(ir::var("dim" + std::to_string(D)));
  for (const remap::DimBounds &B : remap::analyzeBounds(Fmt.Remap, SrcDims)) {
    DimExtent.push_back(B.Known ? B.extent() : nullptr);
    DimLo.push_back(B.Known ? B.Lo : nullptr);
  }
}

std::string SourceIterator::posName(int K) const {
  return Tensor + std::to_string(K) + "_pos";
}
std::string SourceIterator::crdName(int K) const {
  return Tensor + std::to_string(K) + "_crd";
}
std::string SourceIterator::permName(int K) const {
  return Tensor + std::to_string(K) + "_perm";
}
std::string SourceIterator::paramName(int K) const {
  return Tensor + std::to_string(K) + "_param";
}

std::string SourceIterator::coordVarName(int K) const {
  // Plain-variable dimensions reuse the canonical ivar name so emitted code
  // reads like the paper's examples (i, j); others get c<dim>.
  std::string IVar;
  if (remap::dimIsPlainVar(Fmt.Remap, static_cast<size_t>(K - 1), &IVar))
    return IVar;
  return "c" + std::to_string(K - 1);
}

namespace {

/// True if \p E (an inlined inverse-mapping expression) reads only
/// constants and stored-dimension variables \p IsBound accepts.
bool onlyReads(const remap::Expr &E,
               const std::function<bool(const std::string &)> &IsBound) {
  switch (E->Kind) {
  case remap::ExprKind::Const:
    return true;
  case remap::ExprKind::IVar:
    return IsBound(E->Name);
  case remap::ExprKind::Binary:
    return onlyReads(E->A, IsBound) && onlyReads(E->B, IsBound);
  default:
    return false;
  }
}

/// Lowers the inverse mapping over the stored-dimension coordinates bound
/// in \p Stored: canonical ivar name -> coordinate expression, for every
/// ivar whose inverse expression those coordinates determine.
std::map<std::string, ir::Expr>
recoverCanonical(const formats::Format &Fmt,
                 const std::map<std::string, ir::Expr> &Stored) {
  remap::LowerEnv LEnv;
  LEnv.IVars = Stored;
  std::map<std::string, ir::Expr> Out;
  for (size_t T = 0; T < Fmt.Inverse.DstDims.size(); ++T) {
    remap::Expr E = remap::inlineLets(Fmt.Inverse.DstDims[T]);
    if (onlyReads(E, [&](const std::string &V) { return Stored.count(V); }))
      Out[Fmt.Remap.SrcVars[T]] = remap::lowerExpr(E, LEnv);
  }
  return Out;
}

} // namespace

std::vector<std::string>
SourceIterator::ivarsAvailableAtPrefix(int Levels) const {
  // An ivar is available if its inverse expression only references stored
  // dimensions d0..dLevels-1.
  std::set<std::string> Available(Fmt.Inverse.SrcVars.begin(),
                                  Fmt.Inverse.SrcVars.begin() + Levels);
  std::vector<std::string> Out;
  for (size_t T = 0; T < Fmt.Inverse.DstDims.size(); ++T)
    if (onlyReads(remap::inlineLets(Fmt.Inverse.DstDims[T]),
                  [&](const std::string &V) { return Available.count(V); }))
      Out.push_back(Fmt.Remap.SrcVars[T]);
  return Out;
}

std::vector<std::string> SourceIterator::orderedLoopIVars() const {
  std::vector<std::string> Out;
  for (size_t K = 0; K < Fmt.Levels.size(); ++K) {
    if (Fmt.Levels[K].Kind != LevelKind::Dense)
      break;
    std::string IVar;
    if (!remap::dimIsPlainVar(Fmt.Remap, K, &IVar))
      break;
    Out.push_back(IVar);
  }
  return Out;
}

std::vector<std::string> SourceIterator::lexOrderedIVars() const {
  std::vector<std::string> Out;
  for (size_t K = 0; K < Fmt.Levels.size(); ++K) {
    LevelKind Kind = Fmt.Levels[K].Kind;
    if (Kind != LevelKind::Dense && Kind != LevelKind::Compressed &&
        Kind != LevelKind::Singleton && Kind != LevelKind::Skyline)
      break;
    std::string IVar;
    if (!remap::dimIsPlainVar(Fmt.Remap, K, &IVar))
      break;
    Out.push_back(IVar);
  }
  return Out;
}

ir::Expr SourceIterator::storedSizeExpr() const {
  ir::Expr Size = ir::intImm(1);
  for (size_t K = 0; K < Fmt.Levels.size(); ++K) {
    int L = static_cast<int>(K) + 1;
    switch (Fmt.Levels[K].Kind) {
    case LevelKind::Dense: {
      ir::Expr Extent = dimExtentAt(L);
      if (!Extent)
        fatalError("source size: dense level with unknown extent");
      Size = ir::mul(Size, Extent);
      break;
    }
    case LevelKind::Compressed:
    case LevelKind::Skyline:
      Size = ir::load(posName(L), Size);
      break;
    case LevelKind::Squeezed:
    case LevelKind::Sliced:
      Size = ir::mul(Size, ir::var(paramName(L)));
      break;
    case LevelKind::Singleton:
    case LevelKind::Offset:
      break;
    }
  }
  return Size;
}

bool SourceIterator::suffixIsOneToOne(int L) const {
  for (size_t K = static_cast<size_t>(L - 1); K < Fmt.Levels.size(); ++K) {
    LevelKind Kind = Fmt.Levels[K].Kind;
    if (Kind != LevelKind::Singleton && Kind != LevelKind::Offset)
      return false;
  }
  return true;
}

ir::Expr SourceIterator::rowNnz(int L, const IterEnv &Env) const {
  CONVGEN_ASSERT(
      Fmt.Levels[static_cast<size_t>(L - 1)].Kind == LevelKind::Compressed,
      "rowNnz requires a compressed level");
  ir::Expr P = Env.LastPos;
  return ir::sub(ir::load(posName(L), ir::add(P, ir::intImm(1))),
                 ir::load(posName(L), P));
}

namespace {

/// Recursively emits the nest from level K (1-based) downward.
struct NestBuilder {
  const SourceIterator &Iter;
  const formats::Format &Fmt;
  const std::function<ir::Stmt(const IterEnv &)> &Body;
  const std::map<int, std::function<ir::Stmt(const IterEnv &)>> &Prologues;
  int MaxLevels;
  bool GuardZeros;

  ir::Stmt emitLevel(int K, IterEnv Env);
  ir::Stmt finish(IterEnv Env);
};

ir::Stmt NestBuilder::finish(IterEnv Env) {
  // Recover canonical coordinates from the stored dimensions.
  std::map<std::string, ir::Expr> Stored;
  for (size_t D = 0; D < Env.DstCoords.size(); ++D)
    Stored[Fmt.Inverse.SrcVars[D]] = Env.DstCoords[D];
  Env.Canonical = recoverCanonical(Fmt, Stored);

  ir::Stmt Inner = Body(Env);
  if (GuardZeros && MaxLevels == static_cast<int>(Fmt.Levels.size()))
    Inner = ir::ifThen(
        ir::ne(ir::load("A_vals", Env.LastPos, ir::ScalarKind::Float),
               ir::floatImm(0)),
        Inner);
  return Inner;
}

ir::Stmt NestBuilder::emitLevel(int K, IterEnv Env) {
  if (K > MaxLevels)
    return finish(Env);

  const LevelSpec &Spec = Fmt.Levels[static_cast<size_t>(K - 1)];
  ir::Expr Parent = Env.LastPos;
  std::string CName = Iter.coordVarName(K);
  auto withPrologue = [&](IterEnv &NewEnv, ir::Stmt Rest) {
    auto It = Prologues.find(K);
    if (It == Prologues.end())
      return Rest;
    ir::BlockBuilder B;
    B.add(It->second(NewEnv));
    B.add(Rest);
    return B.build();
  };

  switch (Spec.Kind) {
  case LevelKind::Dense: {
    ir::Expr Extent = Iter.dimExtentAt(K);
    ir::Expr Lo = Iter.dimLoAt(K);
    if (!Extent)
      fatalError("source iteration: dense level with unknown extent");
    std::string LoopVar = CName;
    ir::Expr Coord = ir::var(LoopVar);
    int64_t LoC = 0;
    bool ZeroLo = ir::isIntConst(Lo, &LoC) && LoC == 0;
    IterEnv NewEnv = Env;
    NewEnv.DstCoords.push_back(ZeroLo ? Coord : ir::add(Coord, Lo));
    NewEnv.LastPos = ir::add(ir::mul(Parent, Extent), Coord);
    NewEnv.Positions.push_back(NewEnv.LastPos);
    return ir::forRange(LoopVar, ir::intImm(0), Extent,
                        withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
  }
  case LevelKind::Compressed: {
    std::string PVar = "p" + Iter.tensorName() + std::to_string(K);
    IterEnv NewEnv = Env;
    NewEnv.LastPos = ir::var(PVar);
    NewEnv.Positions.push_back(NewEnv.LastPos);
    ir::BlockBuilder LoopBody;
    LoopBody.add(ir::decl(CName, ir::load(Iter.crdName(K), ir::var(PVar))));
    NewEnv.DstCoords.push_back(ir::var(CName));
    LoopBody.add(withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
    return ir::forRange(
        PVar, ir::load(Iter.posName(K), Parent),
        ir::load(Iter.posName(K), ir::add(Parent, ir::intImm(1))),
        LoopBody.build());
  }
  case LevelKind::Singleton: {
    IterEnv NewEnv = Env;
    NewEnv.LastPos = Parent;
    NewEnv.Positions.push_back(Parent);
    ir::BlockBuilder Seq;
    Seq.add(ir::decl(CName, ir::load(Iter.crdName(K), Parent)));
    NewEnv.DstCoords.push_back(ir::var(CName));
    Seq.add(withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
    return Seq.build();
  }
  case LevelKind::Squeezed: {
    std::string SVar = "s" + Iter.tensorName() + std::to_string(K);
    ir::Expr KParam = ir::var(Iter.paramName(K));
    IterEnv NewEnv = Env;
    NewEnv.LastPos = ir::add(ir::mul(Parent, KParam), ir::var(SVar));
    NewEnv.Positions.push_back(NewEnv.LastPos);
    ir::BlockBuilder LoopBody;
    LoopBody.add(ir::decl(CName, ir::load(Iter.permName(K), ir::var(SVar))));
    NewEnv.DstCoords.push_back(ir::var(CName));
    LoopBody.add(withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
    return ir::forRange(SVar, ir::intImm(0), KParam, LoopBody.build());
  }
  case LevelKind::Sliced: {
    std::string SVar = CName;
    ir::Expr KParam = ir::var(Iter.paramName(K));
    IterEnv NewEnv = Env;
    NewEnv.DstCoords.push_back(ir::var(SVar));
    NewEnv.LastPos = ir::add(ir::mul(Parent, KParam), ir::var(SVar));
    NewEnv.Positions.push_back(NewEnv.LastPos);
    return ir::forRange(SVar, ir::intImm(0), KParam,
                        withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
  }
  case LevelKind::Skyline: {
    std::string PVar = "p" + Iter.tensorName() + std::to_string(K);
    IterEnv NewEnv = Env;
    NewEnv.LastPos = ir::var(PVar);
    NewEnv.Positions.push_back(NewEnv.LastPos);
    ir::BlockBuilder LoopBody;
    // j = p - pos[parent+1] + i + 1 (inverse of the level's get_pos).
    ir::Expr ParentCoord = Env.DstCoords.back();
    LoopBody.add(ir::decl(
        CName,
        ir::add(ir::sub(ir::var(PVar),
                        ir::load(Iter.posName(K),
                                 ir::add(Parent, ir::intImm(1)))),
                ir::add(ParentCoord, ir::intImm(1)))));
    NewEnv.DstCoords.push_back(ir::var(CName));
    LoopBody.add(withPrologue(NewEnv, emitLevel(K + 1, NewEnv)));
    return ir::forRange(
        PVar, ir::load(Iter.posName(K), Parent),
        ir::load(Iter.posName(K), ir::add(Parent, ir::intImm(1))),
        LoopBody.build());
  }
  case LevelKind::Offset: {
    const auto &Addends = Spec.AddendDims;
    IterEnv NewEnv = Env;
    NewEnv.DstCoords.push_back(
        ir::add(Env.DstCoords[static_cast<size_t>(Addends[0])],
                Env.DstCoords[static_cast<size_t>(Addends[1])]));
    NewEnv.LastPos = Parent;
    NewEnv.Positions.push_back(Parent);
    return withPrologue(NewEnv, emitLevel(K + 1, NewEnv));
  }
  }
  convgen_unreachable("unknown level kind");
}

} // namespace

ir::Stmt SourceIterator::build(
    const std::function<ir::Stmt(const IterEnv &)> &Body,
    const std::map<int, std::function<ir::Stmt(const IterEnv &)>>
        &LevelPrologue) const {
  NestBuilder NB{*this, Fmt, Body, LevelPrologue,
                 static_cast<int>(Fmt.Levels.size()), Fmt.PaddedVals};
  IterEnv Root;
  Root.LastPos = ir::intImm(0);
  return NB.emitLevel(1, Root);
}

ir::Stmt SourceIterator::buildFlat(
    const std::set<std::string> &BodyIVars,
    const std::function<ir::Stmt(const IterEnv &)> &Body) const {
  int L = static_cast<int>(Fmt.Levels.size());
  if (L < 2 || Fmt.PaddedVals ||
      Fmt.Levels[static_cast<size_t>(L - 1)].Kind != LevelKind::Compressed)
    return nullptr;
  // Over dense and compressed parents, level K's positions cover one
  // contiguous range [Lo, Hi) in parent order, so the innermost level's
  // children of every parent together are [pos[Lo], pos[Hi]).
  ir::Expr Lo = ir::intImm(0), Hi = ir::intImm(1);
  for (int K = 1; K <= L; ++K) {
    switch (Fmt.Levels[static_cast<size_t>(K - 1)].Kind) {
    case LevelKind::Dense: {
      ir::Expr Extent = dimExtentAt(K);
      if (!Extent)
        return nullptr;
      Lo = ir::mul(Lo, Extent);
      Hi = ir::mul(Hi, Extent);
      break;
    }
    case LevelKind::Compressed:
      Lo = ir::load(posName(K), Lo);
      Hi = ir::load(posName(K), Hi);
      break;
    default:
      return nullptr;
    }
  }
  std::string PVar = "p" + Tensor + std::to_string(L);
  std::string CName = coordVarName(L);
  IterEnv Env;
  Env.LastPos = ir::var(PVar);
  Env.Canonical =
      recoverCanonical(Fmt, {{Fmt.Inverse.SrcVars.back(), ir::var(CName)}});
  for (const std::string &V : BodyIVars)
    if (!Env.Canonical.count(V))
      return nullptr;
  ir::BlockBuilder LoopBody;
  LoopBody.add(ir::decl(CName, ir::load(crdName(L), ir::var(PVar))));
  LoopBody.add(Body(Env));
  return ir::forRange(PVar, Lo, Hi, LoopBody.build());
}

ir::Stmt SourceIterator::buildPrefix(
    int Levels, const std::function<ir::Stmt(const IterEnv &)> &Body) const {
  CONVGEN_ASSERT(Levels <= static_cast<int>(Fmt.Levels.size()),
                 "prefix longer than the format");
  NestBuilder NB{*this, Fmt, Body, {}, Levels, false};
  IterEnv Root;
  Root.LastPos = ir::intImm(0);
  return NB.emitLevel(1, Root);
}

std::vector<ir::Param> SourceIterator::params() const {
  std::vector<ir::Param> Out;
  for (int D = 0; D < Fmt.SrcOrder; ++D)
    Out.push_back({"dim" + std::to_string(D), ir::ScalarKind::Int, false});
  for (size_t K = 0; K < Fmt.Levels.size(); ++K) {
    int L = static_cast<int>(K) + 1;
    switch (Fmt.Levels[K].Kind) {
    case LevelKind::Compressed:
      Out.push_back({posName(L), ir::ScalarKind::Int, true});
      Out.push_back({crdName(L), ir::ScalarKind::Int, true});
      break;
    case LevelKind::Singleton:
      Out.push_back({crdName(L), ir::ScalarKind::Int, true});
      break;
    case LevelKind::Squeezed:
      Out.push_back({permName(L), ir::ScalarKind::Int, true});
      Out.push_back({paramName(L), ir::ScalarKind::Int, false});
      break;
    case LevelKind::Sliced:
      Out.push_back({paramName(L), ir::ScalarKind::Int, false});
      break;
    case LevelKind::Skyline:
      Out.push_back({posName(L), ir::ScalarKind::Int, true});
      break;
    case LevelKind::Dense:
    case LevelKind::Offset:
      break;
    }
  }
  Out.push_back({Tensor + "_vals", ir::ScalarKind::Float, true});
  return Out;
}
