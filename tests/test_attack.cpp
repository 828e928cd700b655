//===- tests/test_attack.cpp - PGD attack tests ---------------------------===//

#include "attack/Pgd.h"

#include "data/GaussianMixture.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace craft;

namespace {

/// Trains a small GMM classifier shared by the attack tests.
const MonDeq &trainedModel() {
  static const MonDeq Model = [] {
    Rng R(20);
    Dataset Train = makeGaussianMixture(R, 400, 5, 3, 0.2);
    MonDeq M = MonDeq::randomFc(R, 5, 8, 3, 20.0);
    TrainOptions Opts;
    Opts.Epochs = 30;
    Opts.LearningRate = 0.02;
    trainMonDeq(M, Train, Opts);
    return M;
  }();
  return Model;
}

TEST(PgdTest, FindsAdversarialWithLargeEpsilon) {
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(21);
  Dataset Test = makeGaussianMixture(R, 40, 5, 3, 0.2);

  // With a huge ball, any sample can be pushed into another class region.
  PgdOptions Opts;
  Opts.Epsilon = 0.8;
  Opts.Steps = 40;
  Opts.Restarts = 2;
  size_t Found = 0, Tried = 0;
  for (size_t I = 0; I < Test.size() && Tried < 10; ++I) {
    if (Solver.predict(Test.input(I)) != Test.Labels[I])
      continue;
    ++Tried;
    PgdResult Res = pgdAttack(Model, Solver, Test.input(I), Test.Labels[I],
                              Opts);
    Found += Res.FoundAdversarial;
    if (Res.FoundAdversarial) {
      // The adversarial point must be inside the ball and misclassified.
      Vector Delta = Res.Adversarial - Test.input(I);
      EXPECT_LE(Delta.normInf(), Opts.Epsilon + 1e-9);
      EXPECT_NE(Solver.predict(Res.Adversarial), Test.Labels[I]);
      EXPECT_EQ(Solver.predict(Res.Adversarial), Res.AdversarialClass);
    }
  }
  EXPECT_GE(Found, Tried - 1) << "large-ball attack should almost always win";
}

TEST(PgdTest, RespectsInputDomain) {
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(22);
  Dataset Test = makeGaussianMixture(R, 5, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Epsilon = 2.0; // Ball exceeds the [0,1] domain: clamping must apply.
  Opts.Steps = 10;
  Opts.Restarts = 1;
  PgdResult Res =
      pgdAttack(Model, Solver, Test.input(0), Test.Labels[0], Opts);
  if (Res.FoundAdversarial)
    for (size_t J = 0; J < 5; ++J) {
      EXPECT_GE(Res.Adversarial[J], 0.0);
      EXPECT_LE(Res.Adversarial[J], 1.0);
    }
}

TEST(PgdTest, TinyEpsilonRarelySucceeds) {
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(23);
  Dataset Test = makeGaussianMixture(R, 30, 5, 3, 0.2);

  PgdOptions Opts;
  Opts.Epsilon = 1e-4;
  Opts.Steps = 15;
  Opts.Restarts = 1;
  size_t Found = 0, Tried = 0;
  for (size_t I = 0; I < Test.size() && Tried < 8; ++I) {
    if (Solver.predict(Test.input(I)) != Test.Labels[I])
      continue;
    ++Tried;
    Found += pgdAttack(Model, Solver, Test.input(I), Test.Labels[I], Opts)
                 .FoundAdversarial;
  }
  EXPECT_LE(Found, 1u) << "well-classified points are 1e-4-robust";
}

TEST(PgdTest, UntargetedModeAlsoWorks) {
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(24);
  Dataset Test = makeGaussianMixture(R, 20, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Epsilon = 0.8;
  Opts.Steps = 40;
  Opts.Restarts = 2;
  Opts.TargetAllClasses = false;
  Opts.NeumannTerms = 20;
  size_t Found = 0, Tried = 0;
  for (size_t I = 0; I < Test.size() && Tried < 6; ++I) {
    if (Solver.predict(Test.input(I)) != Test.Labels[I])
      continue;
    ++Tried;
    Found += pgdAttack(Model, Solver, Test.input(I), Test.Labels[I], Opts)
                 .FoundAdversarial;
  }
  EXPECT_GE(Found, Tried / 2);
}

/// pgdAttack as composed from separate Solver.logits and solver-taking
/// inputGradient calls, i.e. two forward solves per margin step, a fresh
/// adjoint factorization per gradient, and every step run even when it
/// leaves the iterate unchanged. The attack shares one solve per step,
/// reuses factorizations and stops at a fixed point, and must match this
/// bitwise. Adds the gradients it takes to \p Gradients.
PgdResult referencePgd(const MonDeq &Model, const FixpointSolver &Solver,
                       const Vector &X, int Label, const PgdOptions &Opts,
                       uint64_t &Gradients) {
  auto Project = [&](Vector &V) {
    for (size_t I = 0; I < V.size(); ++I)
      V[I] = std::clamp(V[I], std::max(X[I] - Opts.Epsilon, Opts.InputLo),
                        std::min(X[I] + Opts.Epsilon, Opts.InputHi));
  };
  auto ArgmaxExcluding = [](const Vector &Y, int Skip) {
    int Best = -1;
    double BestVal = -1e300;
    for (size_t I = 0; I < Y.size(); ++I)
      if (static_cast<int>(I) != Skip && Y[I] > BestVal) {
        BestVal = Y[I];
        Best = static_cast<int>(I);
      }
    return Best;
  };
  auto StepAlong = [&](Vector &Adv, const Vector &G) {
    ++Gradients;
    for (size_t I = 0; I < Adv.size(); ++I)
      Adv[I] += Opts.StepFraction * Opts.Epsilon * (G[I] > 0.0 ? 1.0 : -1.0);
    Project(Adv);
  };

  PgdResult Result;
  Rng R(Opts.Seed);
  const int NumClasses = static_cast<int>(Model.outputDim());
  std::vector<int> Targets;
  for (int T = 0; T < NumClasses; ++T)
    if (Opts.TargetAllClasses && T != Label)
      Targets.push_back(T);
  if (!Opts.TargetAllClasses)
    Targets.push_back(-1);

  for (int Restart = 0; Restart < Opts.Restarts; ++Restart)
    for (int Target : Targets) {
      Vector Adv = X;
      for (double &V : Adv)
        V += R.uniform(-Opts.Epsilon, Opts.Epsilon);
      Project(Adv);
      Vector Odi(Model.outputDim());
      for (double &V : Odi)
        V = R.uniform(-1.0, 1.0);
      for (int S = 0; S < Opts.OdiSteps; ++S)
        StepAlong(Adv,
                  inputGradient(Model, Solver, Adv, Odi, Opts.NeumannTerms));
      for (int S = 0; S < Opts.Steps; ++S) {
        Vector Y = Solver.logits(Adv);
        int Rival = Target >= 0 ? Target : ArgmaxExcluding(Y, Label);
        if (ArgmaxExcluding(Y, -1) != Label)
          break;
        Vector Coef(Model.outputDim(), 0.0);
        Coef[Rival] = 1.0;
        Coef[Label] = -1.0;
        StepAlong(Adv,
                  inputGradient(Model, Solver, Adv, Coef, Opts.NeumannTerms));
      }
      int Pred = Solver.predict(Adv);
      if (Pred != Label) {
        Result.FoundAdversarial = true;
        Result.Adversarial = Adv;
        Result.AdversarialClass = Pred;
        return Result;
      }
    }
  return Result;
}

/// Asserts that \p Got and \p Want are the same result, bytes included.
void expectSameResult(const PgdResult &Got, const PgdResult &Want) {
  ASSERT_EQ(Got.FoundAdversarial, Want.FoundAdversarial);
  EXPECT_EQ(Got.AdversarialClass, Want.AdversarialClass);
  ASSERT_EQ(Got.Adversarial.size(), Want.Adversarial.size());
  if (Got.FoundAdversarial) {
    EXPECT_EQ(0, std::memcmp(Got.Adversarial.data(), Want.Adversarial.data(),
                             Got.Adversarial.size() * sizeof(double)));
  }
}

class PgdSharedSolveTest : public ::testing::TestWithParam<bool> {};

TEST_P(PgdSharedSolveTest, BitwiseMatchesSeparateSolves) {
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  const telemetry::Counter Gradients =
      telemetry::counterMetric("pgd.gradients");
  const telemetry::Counter Products =
      telemetry::counterMetric("concrete.input_products");
  Rng R(25);
  Dataset Test = makeGaussianMixture(R, 12, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Steps = 12;
  Opts.Restarts = 2;
  Opts.TargetAllClasses = GetParam();
  // The untargeted leg also covers the CGNE adjoint solve.
  Opts.NeumannTerms = GetParam() ? -1 : 20;
  size_t Found = 0, Missed = 0;
  // A ball radius per outcome: the small one leaves attacks that run
  // every step, the large one refutes.
  for (double Epsilon : {0.02, 0.6}) {
    Opts.Epsilon = Epsilon;
    for (size_t I = 0; I < 6; ++I) {
      const Vector X = Test.input(I);
      const int Label = Test.Labels[I];
      const uint64_t GradientsBefore = Gradients.value();
      const uint64_t ProductsBefore = Products.value();
      PgdResult Got = pgdAttack(Model, Solver, X, Label, Opts);
      const uint64_t Taken = Gradients.value() - GradientsBefore;
      const uint64_t Formed = Products.value() - ProductsBefore;
      uint64_t ReferenceTaken = 0;
      PgdResult Want =
          referencePgd(Model, Solver, X, Label, Opts, ReferenceTaken);
      SCOPED_TRACE(I);
      expectSameResult(Got, Want);
      // One U x per gradient, plus at most one per target (the solve
      // that found the logits adversarial, or the closing prediction).
      const size_t Targets = Opts.TargetAllClasses ? Model.outputDim() - 1 : 1;
      EXPECT_GE(Formed, Taken);
      EXPECT_LE(Formed, Taken + Opts.Restarts * Targets);
      (Got.FoundAdversarial ? Found : Missed) += 1;
    }
  }
  EXPECT_GT(Found, 0u);
  EXPECT_GT(Missed, 0u);
}

TEST_P(PgdSharedSolveTest, FixedPointExitSkipsGradients) {
  // Many steps in small balls: the sign steps pin the iterate to a corner
  // of the ball where the gradient keeps pointing outward, so a step
  // leaves it unchanged. The attack stops there and the reference runs on;
  // the results must still match bitwise.
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  const telemetry::Counter Gradients =
      telemetry::counterMetric("pgd.gradients");
  Rng R(27);
  Dataset Test = makeGaussianMixture(R, 6, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Epsilon = 0.02;
  Opts.Steps = 30;
  Opts.Restarts = 2;
  Opts.TargetAllClasses = GetParam();
  Opts.NeumannTerms = GetParam() ? -1 : 20;
  uint64_t Taken = 0, ReferenceTaken = 0;
  for (size_t I = 0; I < Test.size(); ++I) {
    const Vector X = Test.input(I);
    const int Label = Solver.predict(X);
    const uint64_t Before = Gradients.value();
    PgdResult Got = pgdAttack(Model, Solver, X, Label, Opts);
    Taken += Gradients.value() - Before;
    PgdResult Want =
        referencePgd(Model, Solver, X, Label, Opts, ReferenceTaken);
    SCOPED_TRACE(I);
    EXPECT_FALSE(Want.FoundAdversarial) << "every step should run";
    expectSameResult(Got, Want);
  }
  EXPECT_LT(Taken, ReferenceTaken);
}

INSTANTIATE_TEST_SUITE_P(TargetAllClasses, PgdSharedSolveTest,
                         ::testing::Bool());

TEST(PgdTest, ResumedAttackMatchesOneCall) {
  // Restart 1 now and the rest later (the driver's order around phase 2)
  // must be the one-call attack: same result bytes, same gradient and
  // adjoint factorization counts.
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  const telemetry::Counter Gradients =
      telemetry::counterMetric("pgd.gradients");
  const telemetry::Counter Factorizations =
      telemetry::counterMetric("pgd.adjoint_factorizations");
  Rng R(26);
  Dataset Test = makeGaussianMixture(R, 4, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Steps = 4;
  Opts.OdiSteps = 1;
  Opts.Restarts = 4;
  size_t InFirst = 0, InLater = 0, None = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Opts.Seed = Seed;
    for (double Epsilon : {0.05, 0.2, 0.3}) {
      Opts.Epsilon = Epsilon;
      for (size_t I = 0; I < Test.size(); ++I) {
        const Vector X = Test.input(I);
        const int Label = Solver.predict(X);
        uint64_t Before = Gradients.value();
        uint64_t BeforeLu = Factorizations.value();
        PgdResult Whole = pgdAttack(Model, Solver, X, Label, Opts);
        const uint64_t WholeGradients = Gradients.value() - Before;
        const uint64_t WholeLu = Factorizations.value() - BeforeLu;

        Before = Gradients.value();
        BeforeLu = Factorizations.value();
        PgdAttack Resumed(Model, Solver, X, Label, Opts);
        const bool First = Resumed.run(1).FoundAdversarial;
        PgdResult Got = Resumed.run();
        EXPECT_EQ(Gradients.value() - Before, WholeGradients);
        EXPECT_EQ(Factorizations.value() - BeforeLu, WholeLu);
        expectSameResult(Got, Whole);
        (First ? InFirst : Got.FoundAdversarial ? InLater : None) += 1;
      }
    }
  }
  EXPECT_GT(InFirst, 0u);
  EXPECT_GT(InLater, 0u);
  EXPECT_GT(None, 0u);
}

TEST(PgdTest, HelpedRestartsMatchTheInlineAttack) {
  // The attack as item 0 of a Jobs = 4 fan-out whose other items are
  // empty: the three idle threads run later restarts ahead of the fold, past the restart that finds the
  // counterexample too. Result bytes and the gradient and factorization
  // counts must be the inline attack's: only folded restarts count.
  const MonDeq &Model = trainedModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  const telemetry::Counter Gradients =
      telemetry::counterMetric("pgd.gradients");
  const telemetry::Counter Factorizations =
      telemetry::counterMetric("pgd.adjoint_factorizations");
  const telemetry::Counter HelpItems =
      telemetry::counterMetric("pool.help_items");
  Rng R(26);
  Dataset Test = makeGaussianMixture(R, 4, 5, 3, 0.2);
  PgdOptions Opts;
  Opts.Steps = 4;
  Opts.OdiSteps = 1;
  Opts.Restarts = 4;
  const uint64_t HelpedBefore = HelpItems.value();
  size_t InLater = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Opts.Seed = Seed;
    for (double Epsilon : {0.05, 0.2, 0.3}) {
      Opts.Epsilon = Epsilon;
      for (size_t I = 0; I < Test.size(); ++I) {
        const Vector X = Test.input(I);
        const int Label = Solver.predict(X);
        uint64_t Before = Gradients.value();
        uint64_t BeforeLu = Factorizations.value();
        PgdResult Inline = pgdAttack(Model, Solver, X, Label, Opts);
        const uint64_t InlineGradients = Gradients.value() - Before;
        const uint64_t InlineLu = Factorizations.value() - BeforeLu;

        Before = Gradients.value();
        BeforeLu = Factorizations.value();
        PgdResult Helped;
        parallelForIndex(4, 4, [&](size_t Item) {
          if (Item == 0)
            Helped = pgdAttack(Model, Solver, X, Label, Opts);
        });
        EXPECT_EQ(Gradients.value() - Before, InlineGradients);
        EXPECT_EQ(Factorizations.value() - BeforeLu, InlineLu);
        expectSameResult(Helped, Inline);
        PgdAttack First(Model, Solver, X, Label, Opts);
        InLater += Inline.FoundAdversarial && !First.run(1).FoundAdversarial;
      }
    }
  }
  EXPECT_GT(InLater, 0u);
  EXPECT_GT(HelpItems.value() - HelpedBefore, 0u);
}

} // namespace
