//===- linear/Affine.cpp - Affine abstract value domain -------------------===//

#include "linear/Affine.h"

#include "support/Diag.h"
#include "wir/Interp.h"

#include <cmath>
#include <cstdio>

using namespace slin;
using wir::BinOp;
using wir::UnOp;

bool AffineValue::dependsOnState() const {
  for (const auto &KV : State)
    if (KV.second != 0.0)
      return true;
  return false;
}

bool AffineValue::sameValue(const AffineValue &O) const {
  if (K != O.K)
    return false;
  if (K == Kind::Top || K == Kind::Bot)
    return true;
  if (K == Kind::ModVal && Mod != O.Mod)
    return false;
  if (!(In == O.In) || Const != O.Const)
    return false;
  // State maps may carry explicit zero entries (e.g. after scaling by
  // 0); compare over the key union with == semantics.
  for (const auto &KV : State) {
    auto It = O.State.find(KV.first);
    double Theirs = It == O.State.end() ? 0.0 : It->second;
    if (KV.second != Theirs)
      return false;
  }
  for (const auto &KV : O.State)
    if (State.find(KV.first) == State.end() && KV.second != 0.0)
      return false;
  return true;
}

std::string
AffineValue::str(const std::vector<std::string> *FieldNames) const {
  if (isTop())
    return "<top>";
  if (isBot())
    return "<bottom>";
  auto Num = [](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", V);
    return std::string(Buf);
  };
  std::string S;
  auto Term = [&](double C, const std::string &Sym) {
    if (C == 0.0)
      return;
    if (!S.empty())
      S += " + ";
    if (C == 1.0)
      S += Sym;
    else
      S += Num(C) + "*" + Sym;
  };
  for (size_t I = 0; I != In.size(); ++I)
    Term(In[I], "peek(" + std::to_string(I) + ")");
  for (const auto &KV : State) {
    int F = symField(KV.first), E = symElem(KV.first);
    std::string Name = FieldNames && static_cast<size_t>(F) < FieldNames->size()
                           ? (*FieldNames)[static_cast<size_t>(F)]
                           : "f" + std::to_string(F);
    if (E != 0)
      Name += "[" + std::to_string(E) + "]";
    Term(KV.second, "state(" + Name + ")");
  }
  if (S.empty() || Const != 0.0) {
    if (!S.empty())
      S += " + ";
    S += Num(Const);
  }
  if (isModVal())
    return "fmod(" + S + ", " + Num(Mod) + ")";
  return S;
}

AffineValue slin::affJoin(const AffineValue &A, const AffineValue &B) {
  if (A.isBot())
    return B;
  if (B.isBot() || A.sameValue(B))
    return A;
  return AffineValue::top();
}

namespace {

/// Every coefficient and the constant multiplied by \p C, in index order.
AffineValue scale(const AffineValue &V, double C) {
  AffineValue R = V;
  for (size_t I = 0; I != R.In.size(); ++I)
    R.In[I] *= C;
  for (auto &KV : R.State)
    KV.second *= C;
  R.Const *= C;
  return R;
}

/// The ops with no affine transfer function, over two constants.
double foldNonAffine(BinOp Op, double L, double R) {
  switch (Op) {
  case BinOp::Mod:  return std::fmod(L, R);
  case BinOp::Lt:   return L < R ? 1.0 : 0.0;
  case BinOp::Le:   return L <= R ? 1.0 : 0.0;
  case BinOp::Gt:   return L > R ? 1.0 : 0.0;
  case BinOp::Ge:   return L >= R ? 1.0 : 0.0;
  case BinOp::Eq:   return L == R ? 1.0 : 0.0;
  case BinOp::Ne:   return L != R ? 1.0 : 0.0;
  case BinOp::LAnd: return L != 0.0 && R != 0.0 ? 1.0 : 0.0;
  case BinOp::LOr:  return L != 0.0 || R != 0.0 ? 1.0 : 0.0;
  default:
    unreachable("affine op reached the constant folder");
  }
}

} // namespace

AffineValue slin::affBinary(BinOp Op, const AffineValue &L,
                            const AffineValue &R) {
  if (!L.isVal() || !R.isVal())
    return AffineValue::top();
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub: {
    double Sign = Op == BinOp::Add ? 1.0 : -1.0;
    AffineValue V = L;
    for (size_t I = 0; I != V.In.size(); ++I)
      V.In[I] += Sign * R.In[I];
    for (const auto &KV : R.State)
      V.State[KV.first] += Sign * KV.second;
    V.Const += Sign * R.Const;
    return V;
  }
  case BinOp::Mul:
    if (L.isConst())
      return scale(R, L.Const);
    if (R.isConst())
      return scale(L, R.Const);
    return AffineValue::top();
  case BinOp::Div:
    if (R.isConst() && R.Const != 0.0)
      return scale(L, 1.0 / R.Const);
    return AffineValue::top();
  case BinOp::Mod:
    if (!L.isConst() && R.isConst() && R.Const > 0.0) {
      AffineValue V = L;
      V.K = AffineValue::Kind::ModVal;
      V.Mod = R.Const;
      return V;
    }
    break;
  default:
    break;
  }
  if (!L.isConst() || !R.isConst())
    return AffineValue::top();
  return AffineValue::constant(foldNonAffine(Op, L.Const, R.Const),
                               L.In.size());
}

AffineValue slin::affUnary(UnOp Op, const AffineValue &V) {
  if (Op == UnOp::Neg && V.isVal()) {
    AffineValue R = V;
    for (size_t I = 0; I != R.In.size(); ++I)
      R.In[I] = -R.In[I];
    for (auto &KV : R.State)
      KV.second = -KV.second;
    R.Const = -R.Const;
    return R;
  }
  if (Op == UnOp::LNot && V.isConst())
    return AffineValue::constant(V.Const == 0.0 ? 1.0 : 0.0, V.In.size());
  return AffineValue::top();
}

AffineValue slin::affIntrinsic(wir::Intrinsic Fn, const AffineValue &V) {
  if (!V.isConst())
    return AffineValue::top();
  return AffineValue::constant(wir::evalIntrinsic(Fn, V.Const), V.In.size());
}
