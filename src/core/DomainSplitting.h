//===- core/DomainSplitting.h - Global certification ------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain splitting for global robustness certification (Section 6.2): the
/// input space is bisected along the widest dimension; each region is
/// certified with Craft against the class predicted at its center; regions
/// that fail are split further until a depth budget is exhausted. The
/// certified volume fraction is the headline metric (the paper reports
/// 82.8% on the HCAS input space).
///
/// Both entry points run on the parallel work-queue engine in
/// core/SplitEngine.h: regions are identified by their bisection path and
/// expanded in waves of parallelForIndex fan-outs (support/ThreadPool.h),
/// so results are byte-identical for every job count, and the certified
/// fraction is exact leaf-unit accounting — degenerate (zero-width) input
/// dimensions certify like any other instead of collapsing the volume
/// ratio to 0/0.
///
/// Unlike the paper, which verifies each region from scratch, a child
/// region starts phase 2 from the state its parent's phase 2 ended in, at
/// the parent's step size. Fix(X_child) is a subset of Fix(X_parent),
/// which that state contains (Thm 3.1 / 3.3), so the start is sound; its
/// error terms are renumbered so they stay independent of the child's
/// input terms (core/SplitEngine.h, wave phase 2).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CORE_DOMAINSPLITTING_H
#define CRAFT_CORE_DOMAINSPLITTING_H

#include "core/SplitEngine.h"
#include "core/Verifier.h"

#include <vector>

namespace craft {

/// One leaf region of the splitting tree.
struct SplitRegion {
  Vector Lo;
  Vector Hi;
  int CertifiedClass = -1; ///< -1: not certified.
  RegionPath Path = 0;     ///< Bisection path (root = 1).
};

/// Aggregate splitting outcome.
struct SplitResult {
  std::vector<SplitRegion> Regions; ///< Leaves in wave (path) order.
  double CertifiedFraction = 0.0;   ///< Exact leaf-unit measure.
  size_t NumCertified = 0;
  size_t NumVerifierCalls = 0;
  size_t NumWaves = 0;
};

/// Exhaustively certifies the box [Lo, Hi] by bisection, running the Craft
/// verifier on each candidate region across \p Jobs worker threads (<= 0 =
/// all hardware threads; the result is identical for every value).
/// \p MaxDepth bounds the number of splits along any root-to-leaf path.
SplitResult certifyByDomainSplitting(const MonDeq &Model,
                                     const CraftConfig &Config,
                                     const Vector &Lo, const Vector &Hi,
                                     int MaxDepth, int Jobs = 1);

/// Knobs for the branch-and-bound local-robustness refinement.
struct SplitOptions {
  int MaxDepth = 8;
  /// Worker threads (<= 0 = all hardware threads). Outcomes are
  /// byte-identical for every value.
  int Jobs = 1;
  /// Attack undecided max-depth leaves with PGD, each probe seeded as
  /// taskSeed(ProbeSeedBase, region path).
  bool PgdProbes = false;
  PgdOptions Pgd; ///< Probe template (Epsilon/Seed set per leaf).
  uint64_t ProbeSeedBase = 20230617;
};

/// Outcome of a branch-and-bound local-robustness query.
struct BranchAndBoundResult {
  /// Every leaf certified to the target class: the property holds.
  bool Certified = false;
  /// A concrete counterexample was found: the property provably fails.
  bool Refuted = false;
  bool RefutedByPgd = false; ///< Witness came from a PGD leaf probe.
  Vector Counterexample;     ///< Valid when Refuted.
  RegionPath CounterexamplePath = 0; ///< Region that produced the witness.
  uint64_t PgdSeed = 0; ///< Seed of the refuting PGD probe (0 otherwise).
  size_t NumVerifierCalls = 0;
  size_t NumLeaves = 0;    ///< Certified + undecided leaves.
  size_t NumUndecided = 0; ///< Undecided leaves.
  size_t NumWaves = 0;
  size_t NumPgdProbes = 0;
  /// Measure fraction of the input box certified (exact leaf units; 1.0
  /// iff Certified, degenerate dimensions included).
  double CertifiedVolumeFraction = 0.0;
};

/// Branch-and-bound refinement of a *local* robustness query: certifies
/// that every point of the box [Lo, Hi] classifies to \p TargetClass,
/// bisecting uncertified regions along their widest dimension up to
/// \p Opts.MaxDepth splits across \p Opts.Jobs workers. Region centers are
/// tested concretely first, so the procedure is anytime-refuting: a
/// misclassified center is a definitive counterexample that aborts the
/// remaining expansion. Neither Certified nor Refuted means the depth
/// budget ran out undecided (the verifier is incomplete, Section 5.2).
BranchAndBoundResult verifyRobustnessSplit(const MonDeq &Model,
                                           const CraftConfig &Config,
                                           const Vector &Lo,
                                           const Vector &Hi, int TargetClass,
                                           const SplitOptions &Opts);

/// Serial-defaults convenience overload (Jobs = 1, no PGD probes).
BranchAndBoundResult verifyRobustnessSplit(const MonDeq &Model,
                                           const CraftConfig &Config,
                                           const Vector &Lo,
                                           const Vector &Hi, int TargetClass,
                                           int MaxDepth);

} // namespace craft

#endif // CRAFT_CORE_DOMAINSPLITTING_H
