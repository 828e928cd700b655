//===- core/AbstractSolver.h - Abstract operator splitting ------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sound abstract transformers g# for the monDEQ fixpoint solvers of
/// Section 5 over the CH-Zonotope and Box domains.
///
/// Forward-Backward (Eq. 8) is one affine map plus one ReLU:
///   s' = ReLU(((1-a) I + a W) s + a U x + a b).
///
/// Peaceman-Rachford (Eq. 9) operates on the stacked state s = [z; u] of
/// dimension 2p. All four affine sub-steps compose into a single affine
/// map followed by a partial ReLU on the z-half:
///   u_next = (2 M^{-1} - I)(2 z - u) + 2 a M^{-1} (U x + b),
///   s'     = [ReLU(u_next); u_next],         M = I + a (I - W).
/// Both halves of s' start from the one u_next, so the solver keeps only
/// its p rows (the p x 2p map [2T, -T]) and stacks the image on itself.
///
/// Composing the affine steps before abstraction keeps the transformer
/// exact up to the single ReLU relaxation per iteration.
///
/// The solver is bound to one input abstraction X so that the input
/// contribution (InputMatrix * X) is mapped once and reused every
/// iteration with shared error-term ids -- this is what keeps the abstract
/// state correlated with the input region across iterations.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CORE_ABSTRACTSOLVER_H
#define CRAFT_CORE_ABSTRACTSOLVER_H

#include "domains/CHZonotope.h"
#include "domains/DomainConcept.h"
#include "domains/Interval.h"
#include "nn/Solvers.h"

namespace craft {

/// Abstract transformer for one solver iteration, bound to a model, a
/// splitting method, a step size, and an input abstraction.
class AbstractSolver {
public:
  /// \p Alpha <= 0 selects the same defaults as the concrete FixpointSolver.
  AbstractSolver(const MonDeq &Model, Splitting Method, double Alpha,
                 const CHZonotope &InputAbs);

  Splitting method() const { return Method; }
  double alpha() const { return Alpha; }

  /// State dimension: p for FB, 2p for PR.
  size_t stateDim() const { return StateMatrix.cols(); }
  size_t latentDim() const { return LatentDim; }

  /// Initial abstract state from the concrete center fixpoint (Alg. 1
  /// line 2): {z*} for FB, {[z*; z*]} for PR.
  CHZonotope initialState(const Vector &ZStar) const;
  IntervalVector initialStateInterval(const Vector &ZStar) const;

  /// One abstract solver step on the CH-Zonotope domain. \p LambdaScale
  /// scales the default ReLU slopes (lambda optimization, App. C);
  /// \p AbsorbBox selects the CH-Zonotope ReLU (Box absorption) vs the
  /// classic Zonotope ReLU (fresh columns).
  CHZonotope step(const CHZonotope &State, double LambdaScale = 1.0,
                  bool AbsorbBox = true) const;

  /// One abstract solver step on the Box domain.
  IntervalVector stepInterval(const IntervalVector &State) const;

  /// Extracts the z-part of a state abstraction (identity for FB).
  CHZonotope zPart(const CHZonotope &State) const;
  IntervalVector zPartInterval(const IntervalVector &State) const;

private:
  size_t LatentDim;
  Splitting Method;
  double Alpha;
  ActivationKind Act; ///< Equilibrium activation (App. B.6 dispatch).
  /// p x stateDim affine map onto the pre-activation: the FB state matrix,
  /// or PR's u_next row block [2T, -T].
  Matrix StateMatrix;
  Vector Offset;               ///< Constant part (biases), p rows.
  CHZonotope InputContrib;     ///< InputMatrix * X, shared ids, mapped once.
  IntervalVector InputContribIv;
};

/// Margin rows D with D_i = V_t - V_i for rivals i != t, plus offsets —
/// the one linear system every domain's margin evaluation shares.
void classificationMarginSystem(const MonDeq &Model, int TargetClass,
                                Matrix &D, Vector &Off);

/// Lower bounds on the classification margins y_t - y_i for all rivals
/// i != t, evaluated on the z-part abstraction in domain \p Dom (exactly,
/// as one affine map, for the zonotope family; by interval arithmetic for
/// Box). Positive everywhere means the postcondition "class t" holds
/// (Alg. 1 line 13).
template <class Dom>
Vector classificationMarginsIn(const MonDeq &Model,
                               const typename Dom::State &Z, int TargetClass) {
  Matrix D;
  Vector Off;
  classificationMarginSystem(Model, TargetClass, D, Off);
  return Dom::marginLowerBounds(Z, D, Off);
}

/// Domain-deducing conveniences (the historic overload set; callers that
/// already know the domain statically should prefer the template above).
inline Vector classificationMargins(const MonDeq &Model, const CHZonotope &Z,
                                    int TargetClass) {
  return classificationMarginsIn<CHZonoDomain>(Model, Z, TargetClass);
}
inline Vector classificationMargins(const MonDeq &Model,
                                    const IntervalVector &Z, int TargetClass) {
  return classificationMarginsIn<BoxDomain>(Model, Z, TargetClass);
}

} // namespace craft

#endif // CRAFT_CORE_ABSTRACTSOLVER_H
