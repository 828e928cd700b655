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
///  re-checking the postcondition each step. Every state phase 2 reaches
///  is sound, so when it stops moves only the margin: a run stops once
///  3 r' steps pass without a better margin. The default r' = 1 gives 3
///  steps, one consolidation period at r = 3: the margin moves around
///  each consolidation, no split-gmm child gained again after 3 steps
///  without a gain, and no verdict moved on the measured workloads
///  (App. C's r' = 50 gives 150). Every FB step size in [0,1] is sound, so the line search
///  folds its 6-step probes in order and stops at the first that
///  certifies, or at the first whose best margin is below the best
///  probe's so far (the margin rises with alpha to a peak and then
///  collapses); the best probe continues as the main run (the run a
///  fresh start at its alpha would repeat). The lambda optimization for
///  near-certified samples is off unless the config asks for it. Phase 2
///  runs only for contained states that phase 1 did not certify, and a
///  caller hook (verifyRegion's BeforePhase2, where the driver runs PGD's
///  first restart) can skip it.
///
///  Split children (core/SplitEngine.h) start phase 2 from their parent's
///  state instead: no phase 1, no center fixpoint solve, no line search.
///  The parent's final main-run z-state S over-approximates Fix(X_parent)
///  (Thm 3.1 / 3.3), and X_child is a subset of X_parent, so
///  Fix(X_child) is a subset of Fix(X_parent), hence of S: S is a sound
///  phase-2 start for the child, and FB tightening with the child's
///  input box stays sound at the parent's alpha (Thm 5.1, any alpha in
///  [0,1]). The inherited error terms must stay independent of the
///  child's input terms -- sharing an id would correlate them and be
///  unsound -- so the hand-off renumbers them 1..k and the child mints
///  its own ids above k (see Phase2Start).
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
#include <memory>

namespace craft {

/// Expansion schedule for the consolidation coefficients (App. D.2).
enum class ExpansionSchedule {
  None,        ///< w_mul = w_add = 0 ("No Expansion" ablation).
  Constant,    ///< Fixed w_mul = 1e-3, w_add = 1e-2.
  Exponential, ///< Constant start, scaled by 1.1 / 1.2 every 2nd
               ///< consolidation (CIFAR configs).
};

/// Phase-1 consolidations between PCA basis refreshes (App. C).
constexpr int PcaRefreshEvery = 30;
/// Consolidated states phase 1 keeps for its s-step containment check.
constexpr int HistorySize = 10;
/// Lambda optimization engages only when the best margin is this close to
/// certification (absolute logit-margin units).
constexpr double LambdaOptMarginWindow = 1.0;

/// All Craft knobs. The defaults are the engine's: Table 7's schedule for
/// the small MNIST models, with a short phase-2 stall window and no lambda
/// optimization. Paper reproduction pins App. C's r' and lambda level per
/// model (bench/BenchCommon.h, craftConfigFor).
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
  /// r': a phase-2 run (line-search probe, main run, lambda run or Box's
  /// phase 2) stops after 3 r' steps without a better margin. The default
  /// 3 steps is one consolidation period at r = 3; App. C uses 50. Past
  /// the first consolidation periods the margin rarely moves, and on the
  /// measured workloads no verdict did.
  int Phase2Window = 1;
  /// Hard cap on the steps of the main phase-2 run and of each lambda run
  /// (<= MaxIterations), in every domain. Large conv models set this low:
  /// each abstract step is O(p^3)-expensive and the no-progress window
  /// alone would dominate runtime. The line-search probes run their 6
  /// steps regardless, and the main run continues the best one: a cap
  /// below 6 returns that probe's result.
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
  /// Off by default: on the measured query sets it certified nothing the
  /// main run did not.
  int LambdaOptLevel = 0;

  double AbortWidth = 1e9; ///< Width blow-up abort (App. C).
  /// Clamp robustness balls to this input range (images live in [0,1]).
  double InputClampLo = 0.0;
  double InputClampHi = 1.0;

  /// Deadline/cancellation polled at iteration boundaries. A stop aborts
  /// tightening early — the partial result stays sound (not certified,
  /// never a wrong verdict). Default: never stops.
  RunControl Control;
};

/// Where a split child's phase 2 starts: the z-state its parent's FB main
/// run ended in, and the parent's step size. Z's error-term ids are
/// 1..k in column order (k = Z.numGenerators()), and a verifier call
/// starting from it mints its own ids above k on its thread, so no input
/// term of the child aliases an inherited one on any thread. Results
/// depend only on the relative order of ids, so a child's result is the
/// same whichever thread runs it.
struct Phase2Start {
  CHZonotope Z;
  double Alpha2 = -1.0;
};

/// Outcome of one Craft verification query.
struct CraftResult {
  bool Containment = false; ///< An abstract post-fixpoint was found.
  bool Certified = false;   ///< The postcondition holds.
  int ContainmentIteration = -1;
  int TotalIterations = 0;
  double BestMargin = -1e300; ///< Largest min-margin seen in phase 2.
  /// Phase-2 step size (Fig. 17): with the line search, the candidate
  /// whose 6-step probe certified, else the best-margin candidate among
  /// the probes it folded; -1 when phase 2 did not run.
  double ChosenAlpha2 = -1.0;
  IntervalVector FixpointHull; ///< Hull of the certified fixpoint set (z).
  double TimeSeconds = 0.0;
  /// Where a sub-region's phase 2 may start: set when a zonotope-family
  /// call ran FB phase 2 (same-iteration ablation off), did not certify,
  /// and its main run ended below AbortWidth; null otherwise.
  std::shared_ptr<const Phase2Start> Phase2End;
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
  /// phase-1 state does not certify (in every domain), or before an
  /// inherited phase 2. Returning true skips phase 2 and returns the
  /// result so far: the driver runs PGD's first restart here, and a
  /// counterexample makes tightening moot.
  ///
  /// \p Start, when set, must be the Phase2End of a call of this
  /// verifier on a box containing [InLo, InHi]. Phase 2 then starts from
  /// it: phase 1, the center solve and the line search are skipped. It is
  /// ignored by a config that leaves no Phase2End (Box, PR phase 2, the
  /// same-iteration ablation).
  CraftResult verifyRegion(const Vector &InLo, const Vector &InHi,
                           int TargetClass,
                           const std::function<bool()> &BeforePhase2 = {},
                           const Phase2Start *Start = nullptr) const;

private:
  /// Algorithm 1, generic over the abstract domain \p Dom (one of the
  /// \ref AbstractDomain traits types from domains/DomainConcept.h).
  template <class Dom>
  CraftResult verifyImpl(const Vector &InLo, const Vector &InHi,
                         int TargetClass,
                         const std::function<bool()> &BeforePhase2,
                         const Phase2Start *Start) const;

  const MonDeq &Model;
  CraftConfig Config;
};

} // namespace craft

#endif // CRAFT_CORE_VERIFIER_H
