//===- linear/Affine.h - Affine abstract value domain -----------*- C++ -*-===//
///
/// \file
/// The abstract domain of the paper's linearity analysis (Section 3.2,
/// Algorithm 1): every value is tracked as an affine combination of the
/// current firing's input window, the filter's symbolic initial state, and
/// a constant:
///
///     v  =  Σᵢ In[i]·peek(i)  +  Σₛ State[s]·state(s)  +  Const
///
/// with three extra points: ⊥ (not yet assigned), ⊤ (no affine form known)
/// and ModVal — the image of an affine value under fmod(·, Mod), the shape
/// OpProgram::analyzeSteadyState's modular-cursor claims take.
///
/// Two traversals compute with this one domain: linear/Extract.cpp walks a
/// filter's work-function tree (where mutable state reads are ⊤) and
/// verify/AbstractInterp.cpp walks its compiled op tape (where they are
/// state symbols). Both call the same transfer functions, so a value both
/// walks call affine carries bit-identical coefficients — the property the
/// verify-linear oracle's exact [A, b] cross-check rests on. What the
/// cross-check still tests is the lowering: tree and tape reach their
/// values through different code.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LINEAR_AFFINE_H
#define SLIN_LINEAR_AFFINE_H

#include "matrix/Matrix.h"
#include "wir/IR.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slin {

/// Symbol naming one element of a filter's initial (pre-firing) mutable
/// state: field index in the high half, element index in the low half.
using StateSym = int64_t;

inline StateSym stateSym(int Field, int Elem) {
  return (static_cast<int64_t>(Field) << 32) |
         static_cast<uint32_t>(Elem);
}
inline int symField(StateSym S) { return static_cast<int>(S >> 32); }
inline int symElem(StateSym S) {
  return static_cast<int>(S & 0xffffffff);
}

class AffineValue {
public:
  enum class Kind {
    Bot,    ///< unassigned
    Val,    ///< affine: In·peeks + State·state + Const
    ModVal, ///< fmod(affine part, Mod) with Mod a positive constant
    Top,    ///< unknown / not affine
  };

  Kind K = Kind::Bot;
  /// Dense input-window coefficients, sized to the filter's peek window
  /// E = max(peek, pop); In[p] multiplies peek(p).
  Vector In;
  /// Sparse initial-state coefficients (mutable field elements only).
  std::map<StateSym, double> State;
  double Const = 0.0;
  double Mod = 0.0; ///< ModVal only; > 0

  static AffineValue bottom() { return AffineValue(); }
  static AffineValue top() {
    AffineValue V;
    V.K = Kind::Top;
    return V;
  }
  static AffineValue constant(double C, size_t E) {
    AffineValue V;
    V.K = Kind::Val;
    V.In = Vector(E);
    V.Const = C;
    return V;
  }
  /// peek(\p Pos): a unit coefficient (BuildCoeff).
  static AffineValue input(size_t Pos, size_t E) {
    AffineValue V = constant(0.0, E);
    V.In[Pos] = 1.0;
    return V;
  }
  static AffineValue initialState(int Field, int Elem, size_t E) {
    AffineValue V = constant(0.0, E);
    V.State[stateSym(Field, Elem)] = 1.0;
    return V;
  }

  bool isBot() const { return K == Kind::Bot; }
  bool isVal() const { return K == Kind::Val; }
  bool isTop() const { return K == Kind::Top; }
  bool isModVal() const { return K == Kind::ModVal; }

  /// Any nonzero initial-state coefficient? (Zero-valued entries are
  /// treated as absent, so scaling by 0 does not change the answer.)
  bool dependsOnState() const;

  /// A Val with no nonzero input or state coefficient.
  bool isConst() const {
    return isVal() && In.countNonZero() == 0 && !dependsOnState();
  }

  /// Affine purely over the input window — the verify-linear shape.
  bool isInputAffine() const { return isVal() && !dependsOnState(); }

  /// Exact structural equality (double ==, zero state entries ignored).
  bool sameValue(const AffineValue &O) const;

  /// Human-readable rendering for findings ("0.5*peek(3) + state(h[0]) +
  /// 1"). \p FieldNames maps a field index to its name (may be null).
  std::string str(const std::vector<std::string> *FieldNames = nullptr) const;
};

/// Confluence of two control-flow paths: ⊥ is the identity, equal values
/// stay, anything else is ⊤.
AffineValue affJoin(const AffineValue &A, const AffineValue &B);

/// L op R. Add/Sub accumulate ±R into a copy of L; Mul scales the other
/// side by a constant one (L checked first); Div scales L by the
/// reciprocal of a nonzero constant divisor; Mod of a non-constant L by a
/// positive constant is ModVal. Every other case folds when both operands
/// are constants (comparisons and logicals give 1.0 or 0.0) and is ⊤
/// otherwise — a zero constant over a non-constant divisor is NOT zero,
/// the runtime divisor might be singular (footnote in Section 3.2).
AffineValue affBinary(wir::BinOp Op, const AffineValue &L,
                      const AffineValue &R);

/// Neg negates elementwise (not 0 - x); LNot folds constants only.
AffineValue affUnary(wir::UnOp Op, const AffineValue &V);

/// Constant folding of an intrinsic call; ⊤ for any other argument.
AffineValue affIntrinsic(wir::Intrinsic Fn, const AffineValue &V);

} // namespace slin

#endif // SLIN_LINEAR_AFFINE_H
