//===- core/SplitEngine.h - Domain splitting --------------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain splitting: the one engine behind both uses of it. runSplitEngine
/// with a SplitOptions is the only entry point, in one of two modes:
///
///  - global mode (TargetClass < 0): the paper's Section 6.2 global
///    certification (`craft split`). The input space is bisected along the
///    widest dimension; each region is certified with Craft against the
///    class predicted at its center; regions that fail are split further
///    until the depth budget is exhausted. The certified fraction of the
///    box is the headline metric (the paper reports 82.8% on the HCAS
///    input space). Nothing refutes.
///  - refutation mode (TargetClass >= 0): branch-and-bound local
///    robustness (`split-depth` in a spec). Every region is certified
///    against the target class, and a misclassified region center is a
///    definitive counterexample that aborts the remaining expansion.
///    Neither Certified nor Refuted means the depth budget ran out
///    undecided (the verifier is incomplete, Section 5.2).
///
/// The engine is a frontier worklist of path-encoded regions expanded in
/// waves; each parallel phase of a wave is one parallelForIndex fan-out
/// (support/ThreadPool.h), so inside a batch query it borrows idle pool
/// workers and never starts a thread.
///
/// Region identity is the bisection path (root = 1, low child = P << 1,
/// high child = P << 1 | 1), so a region's box, probe seed, and processing
/// order are pure functions of the root box — never of scheduling. Each
/// wave runs three phases:
///
///  1. probe (parallel): the region center is classified concretely; in
///     refutation mode a misclassified center is a definitive
///     counterexample. Every probe of the wave runs and the lowest-path
///     refutation wins, so the reported witness is identical for every
///     worker count.
///  2. verify (parallel): the Craft verifier runs on every surviving
///     region. A refutation in phase 1 aborts the whole search before this
///     phase starts — that is the early-abort broadcast, applied at wave
///     granularity precisely so outcomes stay byte-identical for
///     jobs = 1 vs N. Unlike the paper, which verifies each region from
///     scratch, a child region starts Craft's phase 2 from its parent's
///     Phase2End (core/Verifier.h): the last state of the parent's FB main
///     run, at the parent's alpha, with no phase 1 and no line search.
///     That state contains Fix(X_parent), which contains Fix(X_child)
///     since X_child is a subset of X_parent, and FB tightening is sound
///     for any alpha in [0,1] (Thm 3.1 / 3.3 / 5.1), so the start is
///     sound. Its error-term ids are renumbered 1..k, and the child mints
///     its own above k on its thread, so no input term aliases an
///     inherited one; results depend only on the relative order of ids,
///     so a child's result does not depend on the thread that runs it.
///     Both children share the parent's copy, freed after their wave.
///     Roots, and children of a parent that left no state (no
///     containment, width abort, Box, PR phase 2, same-iteration
///     ablation), run Craft in full.
///  3. expand (sequential): uncertified regions below the depth budget are
///     bisected along their widest splittable dimension and their children
///     appended to the next frontier in path order.
///
/// Certified measure is tracked by exact leaf accounting: a leaf at depth
/// d owns exactly 2^(MaxDepth - d) units of the root's 2^MaxDepth (the
/// budget after clamping), in integer arithmetic, so a fully certified
/// box reports fraction 1.0 exactly — including boxes with degenerate
/// (zero-width) dimensions, whose geometric volume is 0 and which a
/// volume ratio could never certify. measureOf() is the matching
/// geometric measure over non-degenerate dimensions only.
///
/// Undecided max-depth leaves can optionally be attacked with PGD probes,
/// seeded per region as taskSeed(ProbeSeedBase, path), run in fixed-size
/// chunks (again: deterministic early abort).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_CORE_SPLITENGINE_H
#define CRAFT_CORE_SPLITENGINE_H

#include "attack/Pgd.h"
#include "core/Verifier.h"

#include <cstdint>
#include <vector>

namespace craft {

/// Bisection-path region id: root = 1; low child = P << 1, high child =
/// P << 1 | 1. The leading 1 bit keeps depth recoverable from the id.
using RegionPath = uint64_t;

/// Deepest split budget the exact unit accounting supports (unit counts
/// are uint64, the root owning 2^depth units). Budgets beyond this are
/// clamped; 2^62 regions is far past any feasible workload anyway.
constexpr int MaxSupportedSplitDepth = 62;

/// Geometric measure of [Lo, Hi] over its non-degenerate dimensions only:
/// the product of Hi[i] - Lo[i] over every i with Hi[i] > Lo[i]. A box
/// that is degenerate in every dimension (a point) has measure 1 (the
/// empty product), never 0 — callers divide by this.
double measureOf(const Vector &Lo, const Vector &Hi);

/// Settings of one split run.
struct SplitOptions {
  /// Bisections allowed on any root-to-leaf path (clamped to
  /// MaxSupportedSplitDepth).
  int MaxDepth = 8;
  /// Threads per wave fan-out, the caller included (<= 0 = all hardware
  /// threads, 1 = inline). Outcomes are byte-identical for every value.
  int Jobs = 1;
  /// >= 0: refutation mode — certify every region against this class and
  /// treat a misclassified region center as a definitive counterexample.
  /// < 0: global mode — certify each region against the class its own
  /// center predicts; nothing refutes.
  int TargetClass = -1;
  /// Refutation mode only: attack undecided max-depth leaves with PGD,
  /// seeded per region as taskSeed(ProbeSeedBase, path).
  bool PgdProbes = false;
  /// Probe template; Epsilon and Seed are overridden per leaf.
  PgdOptions Pgd;
  uint64_t ProbeSeedBase = 20230617;
};

/// One leaf region of the finished (or aborted) splitting tree.
struct SplitRegion {
  RegionPath Path = 1;
  int Depth = 0;
  Vector Lo, Hi;
  /// Certified class (global mode: the center's class; refutation mode:
  /// the target class); -1 = undecided.
  int CertifiedClass = -1;
};

/// Outcome of one split run.
struct SplitResult {
  /// Leaves in wave (breadth-first path) order. Partial when Refuted.
  std::vector<SplitRegion> Regions;
  bool Refuted = false;
  bool RefutedByPgd = false; ///< Witness came from a PGD probe.
  Vector Counterexample;     ///< Valid when Refuted.
  RegionPath CounterexamplePath = 0; ///< Region that produced the witness.
  uint64_t PgdSeed = 0; ///< Seed of the refuting PGD probe (0 otherwise).
  size_t NumVerifierCalls = 0;
  size_t NumCertified = 0; ///< Certified leaves.
  size_t NumWaves = 0;
  size_t NumPgdProbes = 0;
  /// Exact leaf accounting in units of 2^-MaxDepth of the root (the
  /// clamped budget): CertifiedUnits == TotalUnits iff every leaf
  /// certified.
  uint64_t CertifiedUnits = 0;
  uint64_t TotalUnits = 0;
  /// CertifiedUnits / TotalUnits: exactly 1.0 when every leaf certified
  /// (degenerate dimensions included). 0 when Refuted.
  double CertifiedFraction = 0.0;
  /// Every leaf certified (never when Refuted): the property holds.
  bool Certified = false;
};

/// Runs the split engine on the box [Lo, Hi] (see the file comment for
/// the two modes). \p Model is strictly read-only (its lazy alpha-bound
/// cache is warmed before fan-out), so one instance is shared by every
/// worker.
SplitResult runSplitEngine(const MonDeq &Model, const CraftConfig &Config,
                           const Vector &Lo, const Vector &Hi,
                           const SplitOptions &Opts);

} // namespace craft

#endif // CRAFT_CORE_SPLITENGINE_H
