//===- attack/Pgd.h - Projected gradient descent attack ---------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted PGD attack with margin loss (Madry et al. 2018; Gowal et al.
/// 2019) and output-diversified initialization (Tashiro et al. 2020), per
/// App. D.3 of the paper. The attack provides the empirical robustness upper
/// bound (#Bound) in Tables 2/3: a sample counts as "empirically robust" if
/// no restart finds a misclassified point inside the l-inf ball. Gradients
/// flow through the fixpoint via the implicit function theorem.
///
/// The sign-step-and-project loop is itself a fixpoint iterator: each ODI
/// or margin step is a function of the current iterate alone (the Rng is
/// drawn only when a target starts), so a step that leaves the iterate
/// bitwise unchanged would be repeated unchanged by every later step, and
/// the loop stops there. The Rng sequence, and so every result, is that of
/// the loop that runs all steps; only the `pgd.gradients` count drops.
/// Within a restart, exact (LU) adjoint solves share one AdjointSolver,
/// which factorizes again only when the activation pattern changes.
///
/// One U x per step: an ODI or margin step computes the input drive U x
/// once (nn/Solvers.h). A margin step's gradient-tolerance solve, its
/// continuation to the logits tolerance and the gradient's activation
/// pattern all read the product its first solve carries out; the
/// continuation is given the same iterate it solved for. So a target
/// computes one `concrete.input_products` per `pgd.gradients` it takes,
/// plus at most one: the solve of the step whose logits are already
/// adversarial, or the closing prediction when its steps run out.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_ATTACK_PGD_H
#define CRAFT_ATTACK_PGD_H

#include "nn/Solvers.h"
#include "support/Rng.h"

#include <atomic>
#include <vector>

namespace craft {

/// Attack configuration. The paper uses 20 restarts x 50 steps with 5 ODI
/// steps; defaults here are scaled for the single-core substrate and can be
/// raised per call site.
struct PgdOptions {
  double Epsilon = 0.05;
  int Steps = 30;
  int Restarts = 3;
  int OdiSteps = 5;
  double StepFraction = 0.25; ///< Step size = StepFraction * Epsilon.
  uint64_t Seed = 99;
  double InputLo = 0.0; ///< Valid input range (images live in [0,1]).
  double InputHi = 1.0;
  /// Adjoint solve mode for gradients: <0 exact LU, otherwise Neumann-term
  /// count (used for large latents).
  int NeumannTerms = -1;
  /// Run one targeted attack per wrong class (paper setting) instead of a
  /// single untargeted margin attack per restart.
  bool TargetAllClasses = true;
};

/// Result of attacking one sample.
struct PgdResult {
  bool FoundAdversarial = false;
  Vector Adversarial; ///< Valid only if FoundAdversarial.
  int AdversarialClass = -1;
};

/// One seeded attack on the l-inf ball around \p X for a sample of true
/// class \p Label, run in installments: every restart draws a fixed count
/// from the one Rng the attack carries, up front and in restart order, and
/// factorizes on its own, so running restart 1 now and the rest later
/// gives exactly the result (and the gradient and factorization counts)
/// of one whole run. The verifier's driver runs restart 1 before phase-2
/// tightening and the rest only if the query stays uncertified. The
/// restarts of one installment are a helped section (helpedForIndex,
/// support/ThreadPool.h): inside a fan-out item, idle pool threads may
/// run later restarts while this one folds them in order; only folded restarts add
/// to `pgd.gradients` and `pgd.adjoint_factorizations`. \p Model and
/// \p Solver (a PR solver bound to \p Model) must outlive the attack.
class PgdAttack {
public:
  PgdAttack(const MonDeq &Model, const FixpointSolver &Solver, Vector X,
            int Label, const PgdOptions &Opts);

  /// Runs up to \p Count more restarts, stopping at the first
  /// counterexample, and returns the result so far.
  const PgdResult &run(int Count);
  /// Runs every remaining restart.
  const PgdResult &run() { return run(Opts.Restarts); }

  const PgdResult &result() const { return Result; }

private:
  struct Restart;
  /// Runs one restart from its pre-drawn randomness; ends at the next
  /// target once \p Cut is set.
  void runRestart(Restart &Rs, const std::atomic<bool> &Cut) const;

  const MonDeq &Model;
  const FixpointSolver &Solver;
  Vector X;
  int Label;
  PgdOptions Opts;
  Rng R;
  std::vector<int> Targets; ///< Rival classes (-1 = untargeted margin).
  int NextRestart = 0;
  PgdResult Result;
};

/// Attacks the l-inf ball around \p X for a sample of true class \p Label
/// with every restart of \p Opts at once (see PgdAttack).
PgdResult pgdAttack(const MonDeq &Model, const FixpointSolver &Solver,
                    const Vector &X, int Label, const PgdOptions &Opts);

} // namespace craft

#endif // CRAFT_ATTACK_PGD_H
