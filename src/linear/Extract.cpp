//===- linear/Extract.cpp - Linear extraction analysis ----------------------==//
///
/// \file
/// The work-function tree walk of the linearity analysis. Values live in
/// the affine domain of linear/Affine.h; verify/AbstractInterp.cpp walks
/// the compiled op tape over the same domain, and verify-linear compares
/// the two walks' results.
///
//===----------------------------------------------------------------------===//

#include "linear/Extract.h"

#include "linear/Affine.h"
#include "support/Diag.h"

#include <cmath>

using namespace slin;
using namespace slin::wir;

namespace {

/// popcount/pushcount live in the lattice constant-int domain.
struct LatticeInt {
  enum KindTy { Val, Top } Kind = Val;
  int Value = 0;

  static LatticeInt top() { return {Top, 0}; }
};

LatticeInt join(LatticeInt A, LatticeInt B) {
  if (A.Kind == LatticeInt::Top || B.Kind == LatticeInt::Top ||
      A.Value != B.Value)
    return LatticeInt::top();
  return A;
}

/// Thrown-free failure signalling: the extractor sets Failed/Reason and
/// unwinds by checking at each step.
class Extractor {
public:
  explicit Extractor(const Filter &F) : F(F), Work(F.work()) {
    Peek = std::max(Work.PeekRate, Work.PopRate);
    Pop = Work.PopRate;
    Push = Work.PushRate;
  }

  ExtractionResult run() {
    if (Push <= 0)
      return fail("filter pushes nothing");
    if (!Work.Resolved)
      resolve(Work, F.fields());

    State S;
    S.Scalars.assign(static_cast<size_t>(Work.NumScalarSlots),
                     AffineValue::bottom());
    S.Arrays.assign(static_cast<size_t>(Work.NumArraySlots), {});
    S.Pushed.assign(static_cast<size_t>(Push), AffineValue::bottom());

    execBody(Work.Body, S);
    if (Failed)
      return {std::nullopt, Reason};

    if (S.PopCount.Kind == LatticeInt::Top || S.PopCount.Value != Pop)
      return fail("pop count does not match declared pop rate");
    if (S.PushCount.Kind == LatticeInt::Top || S.PushCount.Value != Push)
      return fail("push count does not match declared push rate");

    // Push j fills column Push-1-j of A and entry Push-1-j of b, with the
    // paper-orientation row reversal A[e-1-p, col] = In[p].
    Matrix A(static_cast<size_t>(Peek), static_cast<size_t>(Push));
    Vector B(static_cast<size_t>(Push));
    for (int J = 0; J != Push; ++J) {
      const AffineValue &V = S.Pushed[static_cast<size_t>(J)];
      if (!V.isVal())
        return fail("pushed values differ across data-dependent paths");
      size_t Col = static_cast<size_t>(Push - 1 - J);
      for (int P = 0; P != Peek; ++P)
        A.at(static_cast<size_t>(Peek - 1 - P), Col) =
            V.In[static_cast<size_t>(P)];
      B[Col] = V.Const;
    }
    ExtractionResult R;
    R.Node = LinearNode(std::move(A), std::move(B), Peek, Pop, Push);
    return R;
  }

private:
  struct State {
    std::vector<AffineValue> Scalars;
    std::vector<std::vector<AffineValue>> Arrays;
    std::vector<AffineValue> Pushed; ///< in push order; ⊥ until pushed
    LatticeInt PopCount;
    LatticeInt PushCount;
  };

  ExtractionResult fail(const std::string &Why) {
    Failed = true;
    if (Reason.empty())
      Reason = Why;
    return {std::nullopt, Reason};
  }

  AffineValue constant(double C) const {
    return AffineValue::constant(C, static_cast<size_t>(Peek));
  }

  AffineValue evalExpr(const Expr &E, State &S) {
    if (Failed)
      return AffineValue::top();
    switch (E.kind()) {
    case ExprKind::Const:
      return constant(wir::cast<ConstExpr>(&E)->Value);
    case ExprKind::VarRef: {
      const auto *V = wir::cast<VarRefExpr>(&E);
      const AffineValue &F = S.Scalars[static_cast<size_t>(V->Slot)];
      if (F.isBot()) {
        fail("read of unassigned variable '" + V->Name + "'");
        return AffineValue::top();
      }
      return F;
    }
    case ExprKind::ArrayRef: {
      const auto *A = wir::cast<ArrayRefExpr>(&E);
      AffineValue Idx = evalExpr(*A->Index, S);
      if (!Idx.isConst()) {
        fail("array index not a compile-time constant");
        return AffineValue::top();
      }
      auto &Arr = S.Arrays[static_cast<size_t>(A->Slot)];
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size()) {
        fail("array read out of range");
        return AffineValue::top();
      }
      if (Arr[static_cast<size_t>(I)].isBot()) {
        fail("read of unassigned array element");
        return AffineValue::top();
      }
      return Arr[static_cast<size_t>(I)];
    }
    case ExprKind::FieldRef: {
      const auto *FR = wir::cast<FieldRefExpr>(&E);
      const FieldDef &FD = F.fields()[static_cast<size_t>(FR->FieldIndex)];
      // Persistent (mutable) state: any access is ⊤ (Section 3.2).
      if (FD.IsMutable)
        return AffineValue::top();
      if (!FR->Index)
        return constant(FD.Init[0]);
      AffineValue Idx = evalExpr(*FR->Index, S);
      if (!Idx.isConst())
        return AffineValue::top();
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= FD.Init.size()) {
        fail("const field read out of range");
        return AffineValue::top();
      }
      return constant(FD.Init[static_cast<size_t>(I)]);
    }
    case ExprKind::Peek: {
      AffineValue Idx = evalExpr(*wir::cast<PeekExpr>(&E)->Index, S);
      if (!Idx.isConst()) {
        fail("peek index not a compile-time constant");
        return AffineValue::top();
      }
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("peek with unresolved pop count");
        return AffineValue::top();
      }
      int Pos = S.PopCount.Value + static_cast<int>(std::lround(Idx.Const));
      if (Pos < 0 || Pos >= Peek) {
        fail("peek beyond declared peek rate");
        return AffineValue::top();
      }
      // BuildCoeff (Algorithm 1): a unit coefficient on peek(Pos).
      return AffineValue::input(static_cast<size_t>(Pos),
                                static_cast<size_t>(Peek));
    }
    case ExprKind::Pop: {
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("pop with unresolved pop count");
        return AffineValue::top();
      }
      if (S.PopCount.Value >= Peek) {
        fail("pop beyond declared rates");
        return AffineValue::top();
      }
      return AffineValue::input(static_cast<size_t>(S.PopCount.Value++),
                                static_cast<size_t>(Peek));
    }
    case ExprKind::Binary: {
      const auto *B = wir::cast<BinaryExpr>(&E);
      AffineValue L = evalExpr(*B->LHS, S);
      AffineValue R = evalExpr(*B->RHS, S);
      if (Failed)
        return AffineValue::top();
      return affBinary(B->Op, L, R);
    }
    case ExprKind::Unary: {
      const auto *U = wir::cast<UnaryExpr>(&E);
      return affUnary(U->Op, evalExpr(*U->Operand, S));
    }
    case ExprKind::Call: {
      const auto *C = wir::cast<CallExpr>(&E);
      return affIntrinsic(C->Fn, evalExpr(*C->Arg, S));
    }
    }
    unreachable("unknown expr kind");
  }

  void execBody(const StmtList &Body, State &S) {
    for (const StmtPtr &St : Body) {
      if (Failed)
        return;
      execStmt(*St, S);
    }
  }

  void execStmt(const Stmt &St, State &S) {
    switch (St.kind()) {
    case StmtKind::Assign: {
      const auto *A = wir::cast<AssignStmt>(&St);
      AffineValue V = evalExpr(*A->Value, S);
      if (!Failed)
        S.Scalars[static_cast<size_t>(A->Slot)] = std::move(V);
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = wir::cast<ArrayAssignStmt>(&St);
      AffineValue Idx = evalExpr(*A->Index, S);
      AffineValue V = evalExpr(*A->Value, S);
      if (Failed)
        return;
      if (!Idx.isConst()) {
        fail("array store index not a compile-time constant");
        return;
      }
      auto &Arr = S.Arrays[static_cast<size_t>(A->Slot)];
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size()) {
        fail("array store out of range");
        return;
      }
      Arr[static_cast<size_t>(I)] = std::move(V);
      return;
    }
    case StmtKind::FieldAssign: {
      // Writing persistent state: evaluate operands for their tape
      // effects; the store itself is irrelevant since every read of
      // mutable state is already ⊤.
      const auto *FA = wir::cast<FieldAssignStmt>(&St);
      if (FA->Index)
        (void)evalExpr(*FA->Index, S);
      (void)evalExpr(*FA->Value, S);
      return;
    }
    case StmtKind::LocalArray: {
      const auto *L = wir::cast<LocalArrayStmt>(&St);
      S.Arrays[static_cast<size_t>(L->Slot)].assign(
          static_cast<size_t>(L->Size), AffineValue::bottom());
      return;
    }
    case StmtKind::Push: {
      AffineValue V = evalExpr(*wir::cast<PushStmt>(&St)->Value, S);
      if (Failed)
        return;
      if (!V.isVal()) {
        fail("pushed value is not an affine function of the input");
        return;
      }
      if (S.PushCount.Kind == LatticeInt::Top) {
        fail("push with unresolved push count");
        return;
      }
      if (S.PushCount.Value >= Push) {
        fail("push beyond declared push rate");
        return;
      }
      AffineValue &Slot = S.Pushed[static_cast<size_t>(S.PushCount.Value++)];
      assert(Slot.isBot() && "push slot written twice");
      Slot = std::move(V);
      return;
    }
    case StmtKind::PopDiscard: {
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("pop with unresolved pop count");
        return;
      }
      ++S.PopCount.Value;
      return;
    }
    case StmtKind::For: {
      const auto *F2 = wir::cast<ForStmt>(&St);
      AffineValue Begin = evalExpr(*F2->Begin, S);
      AffineValue End = evalExpr(*F2->End, S);
      if (Failed)
        return;
      if (!Begin.isConst() || !End.isConst()) {
        fail("loop bounds not compile-time constants");
        return;
      }
      int B = static_cast<int>(std::lround(Begin.Const));
      int E = static_cast<int>(std::lround(End.Const));
      if (E - B > (1 << 20)) {
        fail("loop trip count too large to unroll");
        return;
      }
      for (int I = B; I < E && !Failed; ++I) {
        S.Scalars[static_cast<size_t>(F2->Slot)] = constant(I);
        execBody(F2->Body, S);
      }
      return;
    }
    case StmtKind::If: {
      const auto *I = wir::cast<IfStmt>(&St);
      AffineValue Cond = evalExpr(*I->Cond, S);
      if (Failed)
        return;
      // Constant condition: execute only the taken arm.
      if (Cond.isConst()) {
        execBody(Cond.Const != 0.0 ? I->Then : I->Else, S);
        return;
      }
      // Data-dependent condition: execute both arms and join.
      State SThen = S;
      State SElse = std::move(S);
      execBody(I->Then, SThen);
      execBody(I->Else, SElse);
      if (Failed)
        return;
      S = joinStates(SThen, SElse);
      return;
    }
    case StmtKind::Print:
      // External side effect: the filter is not a pure affine map.
      fail("print statement (external side effect)");
      return;
    case StmtKind::Uncounted:
      execBody(wir::cast<UncountedStmt>(&St)->Body, S);
      return;
    }
    unreachable("unknown stmt kind");
  }

  static std::vector<AffineValue> joinAll(const std::vector<AffineValue> &A,
                                          const std::vector<AffineValue> &B) {
    std::vector<AffineValue> R(A.size());
    for (size_t I = 0; I != A.size(); ++I)
      R[I] = affJoin(A[I], B[I]);
    return R;
  }

  State joinStates(const State &A, const State &B) {
    State R;
    R.Scalars = joinAll(A.Scalars, B.Scalars);
    R.Arrays.resize(A.Arrays.size());
    for (size_t I = 0; I != A.Arrays.size(); ++I)
      R.Arrays[I] =
          A.Arrays[I].size() == B.Arrays[I].size()
              ? joinAll(A.Arrays[I], B.Arrays[I])
              : std::vector<AffineValue>(
                    std::max(A.Arrays[I].size(), B.Arrays[I].size()),
                    AffineValue::top());
    R.Pushed = joinAll(A.Pushed, B.Pushed);
    R.PopCount = join(A.PopCount, B.PopCount);
    R.PushCount = join(A.PushCount, B.PushCount);
    return R;
  }

  const Filter &F;
  const WorkFunction &Work;
  int Peek, Pop, Push;
  bool Failed = false;
  std::string Reason;
};

} // namespace

ExtractionResult slin::extractLinearNode(const Filter &F) {
  if (F.isNative())
    return {std::nullopt, "native filter (no work IR)"};
  if (F.hasInitWork())
    return {std::nullopt, "filter has a distinct init work function"};
  return Extractor(F).run();
}
