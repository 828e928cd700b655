//===- attack/Pgd.cpp -----------------------------------------------------===//

#include "attack/Pgd.h"

#include "nn/Training.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

using namespace craft;

namespace {

const telemetry::Counter PgdGradients =
    telemetry::counterMetric("pgd.gradients");
const telemetry::Counter PgdAdjointFactorizations =
    telemetry::counterMetric("pgd.adjoint_factorizations");

// A margin step takes its gradient at the InputGradientTol solve and its
// logits at the DefaultLogitsTol one. Both are prefixes of one run only if
// the gradient solve is the looser of the two.
static_assert(InputGradientTol >= DefaultLogitsTol &&
                  InputGradientMaxIter <= DefaultSolveMaxIter,
              "the gradient solve must be a prefix of the logits solve");

/// \p V clamped to the l-inf ball around \p C intersected with the valid
/// input range (one coordinate).
double projectEntry(double V, double C, const PgdOptions &Opts) {
  return std::clamp(V, std::max(C - Opts.Epsilon, Opts.InputLo),
                    std::min(C + Opts.Epsilon, Opts.InputHi));
}

/// Projects \p X onto the l-inf ball around \p Center intersected with the
/// valid input range.
void project(Vector &X, const Vector &Center, const PgdOptions &Opts) {
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = projectEntry(X[I], Center[I], Opts);
}

/// One signed step of size \p Step along \p G followed by the projection
/// around \p Center; bitwise `X += Step * sign(G); project(X)`. Returns
/// whether some entry of \p X changed bitwise.
bool stepAndProject(Vector &X, const Vector &G, double Step,
                    const Vector &Center, const PgdOptions &Opts) {
  bool Moved = false;
  for (size_t I = 0; I < X.size(); ++I) {
    double Next = projectEntry(X[I] + Step * (G[I] > 0.0 ? 1.0 : -1.0),
                               Center[I], Opts);
    Moved |= std::bit_cast<uint64_t>(Next) != std::bit_cast<uint64_t>(X[I]);
    X[I] = Next;
  }
  return Moved;
}

/// FixpointSolver::predict's argmax, for logits already at hand.
int argmax(const Vector &Y) {
  return static_cast<int>(std::max_element(Y.begin(), Y.end()) - Y.begin());
}

/// Argmax over logits excluding \p Skip (pass -1 to consider all).
int argmaxExcluding(const Vector &Y, int Skip) {
  int Best = -1;
  double BestVal = -1e300;
  for (size_t I = 0; I < Y.size(); ++I) {
    if (static_cast<int>(I) == Skip)
      continue;
    if (Y[I] > BestVal) {
      BestVal = Y[I];
      Best = static_cast<int>(I);
    }
  }
  return Best;
}

} // namespace

PgdAttack::PgdAttack(const MonDeq &Model, const FixpointSolver &Solver,
                     Vector X, int Label, const PgdOptions &Opts)
    : Model(Model), Solver(Solver), X(std::move(X)), Label(Label),
      Opts(Opts), R(Opts.Seed) {
  if (Opts.TargetAllClasses) {
    for (int T = 0, N = static_cast<int>(Model.outputDim()); T < N; ++T)
      if (T != Label)
        Targets.push_back(T);
  } else {
    Targets.push_back(-1); // Untargeted margin attack.
  }
}

/// One restart: its pre-drawn randomness in, its result and work counts
/// out.
struct PgdAttack::Restart {
  /// Per target, in order: X.size() start offsets, then outputDim() ODI
  /// directions.
  std::vector<double> Draws;
  PgdResult Result;
  uint64_t Gradients = 0;
  uint64_t Factorizations = 0;
};

const PgdResult &PgdAttack::run(int Count) {
  const int Runs = Result.FoundAdversarial
                       ? 0
                       : std::min(Count, Opts.Restarts - NextRestart);
  if (Runs <= 0)
    return Result;
  // Each restart's randomness, drawn from R in the plain loop's order. A
  // restart draws a fixed count, so restart I's draws depend on I alone;
  // the draws a restart that ends the attack leaves unused are never
  // read again.
  std::vector<Restart> Restarts(static_cast<size_t>(Runs));
  for (Restart &Rs : Restarts) {
    Rs.Draws.reserve(Targets.size() * (X.size() + Model.outputDim()));
    for (size_t T = 0; T < Targets.size(); ++T) {
      for (size_t I = 0; I < X.size(); ++I)
        Rs.Draws.push_back(R.uniform(-Opts.Epsilon, Opts.Epsilon));
      for (size_t I = 0; I < Model.outputDim(); ++I)
        Rs.Draws.push_back(R.uniform(-1.0, 1.0));
    }
  }
  // Restarts fold in order and the first counterexample ends the attack.
  // Idle pool threads may run later restarts ahead of the fold; one past
  // the stop ends at its next target and counts nowhere.
  std::atomic<bool> Cut{false};
  helpedForIndex(
      Restarts.size(), [&](size_t I) { runRestart(Restarts[I], Cut); },
      [&](size_t I) {
        Restart &Rs = Restarts[I];
        ++NextRestart;
        PgdGradients.add(Rs.Gradients);
        PgdAdjointFactorizations.add(Rs.Factorizations);
        if (!Rs.Result.FoundAdversarial)
          return false;
        Result = std::move(Rs.Result);
        Cut = true;
        return true;
      });
  return Result;
}

void PgdAttack::runRestart(Restart &Rs, const std::atomic<bool> &Cut) const {
  const size_t Q = X.size();
  const double Step = Opts.StepFraction * Opts.Epsilon;
  // Restart-scoped, so running restarts in installments, or on other
  // threads, factorizes exactly as one whole run does.
  AdjointSolver Adjoint(Model.weightW());
  const double *Draw = Rs.Draws.data();
  for (int Target : Targets) {
    if (Cut)
      break;
    // Random start inside the ball.
    Vector Adv = X;
    for (size_t I = 0; I < Q; ++I)
      Adv[I] += *Draw++;
    project(Adv, X, Opts);

    // Output diversified initialization: ascend a random output direction.
    // A step is a function of Adv alone, so once one leaves Adv unchanged
    // every later one would too, and the loop stops there.
    Vector Odi(Model.outputDim());
    for (double &V : Odi)
      V = *Draw++;
    for (int S = 0; S < Opts.OdiSteps; ++S) {
      Vector G = inputGradient(Model, Solver, Adv, Odi, Opts.NeumannTerms,
                               &Adjoint);
      ++Rs.Gradients;
      if (!stepAndProject(Adv, G, Step, X, Opts))
        break;
    }

    // Margin-loss PGD: ascend y_target - y_label (targeted) or
    // y_runnerup - y_label (untargeted). The margin coefficient vector is
    // hoisted out of the step loop and rewritten in place (two entries
    // per step) instead of reallocated. Each step runs one forward solve
    // and one U x: to the gradient's tolerance first, then the same run
    // continues to the logits' tolerance, and the gradient reads its
    // activation pattern from the same carried U x — bitwise what
    // separate logits() and inputGradient() solves would give. The loop
    // ends early when a step's logits Y (bitwise Solver.logits(Adv)) are
    // adversarial, or when a step leaves Adv unchanged (a fixed point:
    // every later step would redo it); either way the closing prediction
    // is argmax(Y).
    Vector Coef(Model.outputDim(), 0.0);
    int Pred = -1;
    for (int S = 0; S < Opts.Steps; ++S) {
      FixpointResult Fix =
          Solver.solve(Adv, InputGradientTol, InputGradientMaxIter);
      const Vector ZGrad = Fix.Z;
      Solver.solve(Adv, Fix, DefaultLogitsTol, DefaultSolveMaxIter);
      Vector Y = Model.output(Fix.Z);
      int Rival = Target >= 0 ? Target : argmaxExcluding(Y, Label);
      if (argmaxExcluding(Y, -1) != Label) {
        Pred = argmax(Y); // Already adversarial; stop refining.
        break;
      }
      Coef[Rival] = 1.0;
      Coef[Label] = -1.0;
      Vector G = inputGradient(Model, ZGrad, Fix.InputProduct, Coef,
                               Opts.NeumannTerms, &Adjoint);
      ++Rs.Gradients;
      Coef[Rival] = 0.0;
      Coef[Label] = 0.0;
      if (!stepAndProject(Adv, G, Step, X, Opts)) {
        Pred = argmax(Y);
        break;
      }
    }
    if (Pred < 0)
      Pred = Solver.predict(Adv);
    if (Pred != Label) {
      Rs.Result.FoundAdversarial = true;
      Rs.Result.Adversarial = std::move(Adv);
      Rs.Result.AdversarialClass = Pred;
      break;
    }
  }
  Rs.Factorizations = Adjoint.factorizations();
}

PgdResult craft::pgdAttack(const MonDeq &Model, const FixpointSolver &Solver,
                           const Vector &X, int Label,
                           const PgdOptions &Opts) {
  return PgdAttack(Model, Solver, X, Label, Opts).run();
}
