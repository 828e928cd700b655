//===- core/Verifier.h - The Craft verifier (Algorithm 1) -------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Craft (Convex Relaxation Abstract Fixpoint iTeration), the paper's
/// Algorithm 1 with the App. C engineering details:
///
///  Phase 1 (containment): iterate the abstract solver g#1 (PR by default),
///  consolidating every r-th iteration with expansion (Eq. 10), keeping the
///  last HistorySize consolidated proper states and checking the current
///  state against all of them (s-step containment, Thm B.1). Once contained,
///  the state provably over-approximates the true fixpoint set (Thm 3.1).
///  Phase 1 starts from a point, so it consolidates in the identity basis
///  until the first PCA refresh over a non-empty generator matrix (the
///  first PcaRefreshEvery consolidations); containment checks against
///  those diag(1/c) inverses skip the dense gemm (absProductRowSums). That
///  is speed, not soundness: any basis consolidates soundly (Thm 4.1).
///
///  Phase 2 (tightening): apply fixpoint-set-preserving iterations
///  (Thm 3.3 / Thm 5.1) -- FB with a line-searched step size by default --
///  re-checking the postcondition each step, with the App. C abortion
///  heuristics and the optional lambda optimization for near-certified
///  samples. Every FB step size in [0,1] is sound, so the line search
///  stops at its first 6-step probe that certifies; otherwise the best
///  probe continues as the main run (the run a fresh start at its alpha
///  would repeat). Phase 2 runs only for contained states that phase 1
///  did not certify, and a caller hook (verifyRegion's BeforePhase2, where
///  the driver runs PGD's first restart) can skip it.
///
///  The line-search probes and the lambda scales are helped sections
///  (helpedForIndex, support/ThreadPool.h): inside a fan-out item, idle
///  pool threads run later probes or scales while the query folds them
///  in order, and a run past the first certifying one stops at
///  its next step. Each item mints error-term ids from its own range past
///  the query's counter, so the result is byte-identical to the plain
///  loop's on any thread and for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CORE_VERIFIER_H
#define CRAFT_CORE_VERIFIER_H

#include "core/AbstractSolver.h"
#include "domains/DomainConcept.h"
#include "domains/OrderReduction.h"
#include "support/Deadline.h"

#include <functional>

namespace craft {

/// Expansion schedule for the consolidation coefficients (App. D.2).
enum class ExpansionSchedule {
  None,        ///< w_mul = w_add = 0 ("No Expansion" ablation).
  Constant,    ///< Fixed w_mul = 1e-3, w_add = 1e-2.
  Exponential, ///< Constant start, scaled by 1.1 / 1.2 every 2nd
               ///< consolidation (CIFAR configs).
};

/// All Craft knobs (defaults follow Table 7 for the small MNIST models).
struct CraftConfig {
  VerifierDomain Domain = VerifierDomain::CHZono;

  Splitting Phase1Method = Splitting::PeacemanRachford;
  double Alpha1 = 0.1;

  Splitting Phase2Method = Splitting::ForwardBackward;
  /// Phase-2 step size; < 0 enables the adaptive line search (FB only,
  /// sound for any alpha in [0,1] by Thm 5.1).
  double Alpha2 = -1.0;

  int MaxIterations = 500;  ///< n_max.
  int ConsolidateEvery = 3; ///< r.
  int PcaRefreshEvery = 30;
  int HistorySize = 10;
  int Phase2Window = 50; ///< r' (abort after 3 r' steps without progress).
  /// Hard cap on phase-2 tightening steps (<= MaxIterations). Large conv
  /// models set this low: each abstract step is O(p^3)-expensive and the
  /// no-progress window alone would dominate runtime. The main run
  /// continues the best line-search probe, which has run 6 steps already:
  /// a cap below 6 returns that probe's result.
  int Phase2MaxIterations = 500;
  /// Check containment against the history every this many iterations
  /// (1 = every iteration, App. C default). Large conv models raise it:
  /// each check is O(p^2 k) against up to HistorySize outer states.
  int ContainmentCheckEvery = 1;

  ExpansionSchedule Expansion = ExpansionSchedule::Constant;
  double WMul = 1e-3;
  double WAdd = 1e-2;

  /// Ablation "Same iter. containment": phase 2 may only certify from
  /// states contained in their predecessor.
  bool SameIterationContainment = false;
  /// Lambda optimization level: 0 = off, 1 = reduced, 2 = full (App. C).
  int LambdaOptLevel = 2;
  /// Engage lambda optimization only when the best margin is this close to
  /// certification (absolute logit-margin units).
  double LambdaOptMarginWindow = 1.0;

  double AbortWidth = 1e9; ///< Width blow-up abort (App. C).
  /// Clamp robustness balls to this input range (images live in [0,1]).
  double InputClampLo = 0.0;
  double InputClampHi = 1.0;

  /// Deadline/cancellation polled at iteration boundaries. A stop aborts
  /// tightening early — the partial result stays sound (not certified,
  /// never a wrong verdict). Default: never stops.
  RunControl Control;
};

/// Outcome of one Craft verification query.
struct CraftResult {
  bool Containment = false; ///< An abstract post-fixpoint was found.
  bool Certified = false;   ///< The postcondition holds.
  int ContainmentIteration = -1;
  int TotalIterations = 0;
  double BestMargin = -1e300; ///< Largest min-margin seen in phase 2.
  /// Phase-2 step size (Fig. 17): with the line search, the first
  /// candidate whose 6-step probe certifies, else the candidate with the
  /// best probe margin; -1 when phase 2 did not run.
  double ChosenAlpha2 = -1.0;
  IntervalVector FixpointHull; ///< Hull of the certified fixpoint set (z).
  double TimeSeconds = 0.0;
};

/// The Craft verifier bound to one model.
class CraftVerifier {
public:
  explicit CraftVerifier(const MonDeq &Model, CraftConfig Config = {});

  const CraftConfig &config() const { return Config; }

  /// l-inf robustness: does the model classify the (clamped) Epsilon-ball
  /// around X as TargetClass?
  CraftResult verifyRobustness(const Vector &X, int TargetClass,
                               double Epsilon) const;

  /// General box precondition against the "class = TargetClass"
  /// postcondition.
  ///
  /// \p BeforePhase2, when set, is called once after containment if the
  /// phase-1 state does not certify (in every domain). Returning true
  /// skips phase 2 and returns the phase-1 result: the driver runs PGD's
  /// first restart here, and a counterexample makes tightening moot.
  CraftResult verifyRegion(const Vector &InLo, const Vector &InHi,
                           int TargetClass,
                           const std::function<bool()> &BeforePhase2 = {})
      const;

private:
  /// Algorithm 1, generic over the abstract domain \p Dom (one of the
  /// \ref AbstractDomain traits types from domains/DomainConcept.h).
  template <class Dom>
  CraftResult verifyImpl(const Vector &InLo, const Vector &InHi,
                         int TargetClass,
                         const std::function<bool()> &BeforePhase2) const;

  const MonDeq &Model;
  CraftConfig Config;
};

} // namespace craft

#endif // CRAFT_CORE_VERIFIER_H
