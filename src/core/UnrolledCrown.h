//===- core/UnrolledCrown.h - Linear-bound unrolling baseline ---*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 1 "Polyhedra" comparator implemented honestly for fixpoint
/// iterators: CROWN/DeepPoly-style linear bound propagation (restricted
/// polyhedra, Singh et al. 2019 / Zhang et al. 2018) through a *fixed
/// unrolling* of the Forward-Backward iteration, made sound for the true
/// fixpoints by an explicit contraction tail bound.
///
/// Linear bounds  L_k x + l_k <= s_k(x) <= U_k x + u_k  are propagated
/// through k solver steps (affine part exactly via positive/negative row
/// splitting, ReLU via the CROWN relaxation with adaptive lower slopes).
/// Because s_k is the k-th *iterate*, not the fixpoint, certified margins
/// subtract the tail
///
///   ||s_k(x) - s*(x)||_2 <= L_a^k * R_0,
///   L_a = sqrt(1 - 2 a m + a^2 ||I - W||_2^2) < 1,
///   R_0 >= max_x ||s_0 - s*(x)||_2  (Lipschitz bound on x -> z*(x)),
///
/// which is only finite inside FB's concrete convergence range — exactly
/// the Table 1 observation that domains without a native inclusion check
/// need convergence-rate side conditions to say anything about fixpoints,
/// while CH-Zonotope's containment check needs none. The paper's second
/// inclusion obstacle (co-NP-hard projection of the input dimensions,
/// Section 2.3) is why this baseline certifies a postcondition directly
/// instead of attempting fixpoint containment.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CORE_UNROLLEDCROWN_H
#define CRAFT_CORE_UNROLLEDCROWN_H

#include "domains/Interval.h"
#include "nn/Solvers.h"

namespace craft {

/// Knobs for the unrolled linear-bound verifier.
struct CrownOptions {
  /// FB step size; <= 0 selects 0.9 * fbAlphaBound() (the largest step
  /// with a concrete convergence guarantee, up to the safety factor).
  double Alpha = -1.0;
  /// Number of unrolled solver steps k.
  int UnrollSteps = 60;
  /// CROWN adaptive lower ReLU slope (1 if u > -l else 0) instead of the
  /// fixed 0 lower bound.
  bool AdaptiveLower = true;
  /// Clamp robustness balls to this input range (images live in [0,1]).
  double InputClampLo = 0.0;
  double InputClampHi = 1.0;
};

/// Result of one unrolled-CROWN verification query.
struct CrownResult {
  bool Certified = false;
  /// Sound lower bound on the min rival margin of the *fixpoint* outputs
  /// (iterate margin minus the contraction tail).
  double MarginLower = -1e300;
  /// Min rival margin of the k-th iterate (before the tail correction).
  double IterateMargin = -1e300;
  /// Margin-space tail bound subtracted for soundness.
  double Tail = 1e300;
  /// Per-step contraction factor L_a (>= 1 means no guarantee: the result
  /// is reported uncertified with an infinite tail).
  double Contraction = 1e300;
  /// Interval bounds on the k-th iterate (concretized linear bounds).
  IntervalVector StateBounds;
};

/// Unrolled-CROWN verifier bound to one model.
class CrownVerifier {
public:
  explicit CrownVerifier(const MonDeq &Model, CrownOptions Options = {});

  const CrownOptions &options() const { return Opts; }
  /// Per-step l2 contraction factor of the FB iteration at this alpha.
  double contraction() const { return Contraction; }

  /// l-inf robustness: does the model classify the (clamped) Epsilon-ball
  /// around X as TargetClass?
  CrownResult verifyRobustness(const Vector &X, int TargetClass,
                               double Epsilon) const;

  /// General box precondition against the "class = TargetClass"
  /// postcondition.
  CrownResult verifyRegion(const Vector &InLo, const Vector &InHi,
                           int TargetClass) const;

private:
  const MonDeq &Model;
  CrownOptions Opts;
  double Alpha;
  double Contraction;  ///< L_a.
  double LatentLip2;   ///< l2 Lipschitz bound of x -> z*(x).
  Matrix StateMatrix;  ///< (1-a) I + a W.
  Matrix SplitPos;     ///< max(StateMatrix, 0): sign-split upper half.
  Matrix SplitNeg;     ///< min(StateMatrix, 0): sign-split lower half.
  Matrix InputMatrix;  ///< a U.
  Vector Offset;       ///< a b.
};

} // namespace craft

#endif // CRAFT_CORE_UNROLLEDCROWN_H
