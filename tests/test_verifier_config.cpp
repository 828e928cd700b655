//===- tests/test_verifier_config.cpp - Verifier configuration tests ------===//
//
// Behavioral checks for the CraftConfig knobs: ablation flags, containment
// check frequency, expansion schedules, and phase-2 budgets. Complements
// test_core (algorithmic correctness) with configuration-space coverage.
//
//===----------------------------------------------------------------------===//

#include "attack/Pgd.h"
#include "core/Verifier.h"
#include "data/GaussianMixture.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "tool/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

using namespace craft;

namespace {

const MonDeq &model() {
  static const MonDeq M = [] {
    Rng R(90);
    Dataset Train = makeGaussianMixture(R, 400, 5, 3, 0.18);
    MonDeq Net = MonDeq::randomFc(R, 5, 10, 3, 20.0);
    TrainOptions Opts;
    Opts.Epochs = 40;
    Opts.LearningRate = 0.02;
    trainMonDeq(Net, Train, Opts);
    return Net;
  }();
  return M;
}

struct Sample {
  Vector X;
  int Label;
};

std::vector<Sample> samples(size_t N) {
  Rng R(91);
  Dataset Test = makeGaussianMixture(R, N, 5, 3, 0.18);
  FixpointSolver Solver(model(), Splitting::PeacemanRachford);
  std::vector<Sample> Out;
  for (size_t I = 0; I < Test.size(); ++I)
    Out.push_back({Test.input(I), Solver.predict(Test.input(I))});
  return Out;
}

size_t countCertified(const CraftConfig &Config, double Eps = 0.03) {
  CraftVerifier Verifier(model(), Config);
  size_t Certified = 0;
  for (const Sample &S : samples(6))
    Certified += Verifier.verifyRobustness(S.X, S.Label, Eps).Certified;
  return Certified;
}

TEST(ConfigTest, SparserContainmentChecksStillConverge) {
  // Raising ContainmentCheckEvery (the conv-model cost lever) may delay
  // containment detection but must not lose it.
  CraftConfig Every1, Every5;
  Every1.Alpha1 = Every5.Alpha1 = 0.05;
  Every5.ContainmentCheckEvery = 5;
  CraftVerifier V1(model(), Every1), V5(model(), Every5);
  for (const Sample &S : samples(4)) {
    CraftResult R1 = V1.verifyRobustness(S.X, S.Label, 0.03);
    CraftResult R5 = V5.verifyRobustness(S.X, S.Label, 0.03);
    EXPECT_EQ(R1.Containment, R5.Containment);
    if (R1.Containment && R5.Containment) {
      EXPECT_GE(R5.ContainmentIteration, R1.ContainmentIteration);
    }
  }
}

TEST(ConfigTest, SameIterationContainmentNeverBetter) {
  CraftConfig Ref, SameIter;
  Ref.Alpha1 = SameIter.Alpha1 = 0.05;
  SameIter.SameIterationContainment = true;
  EXPECT_LE(countCertified(SameIter), countCertified(Ref));
}

TEST(ConfigTest, ExponentialExpansionStillSoundAndConverges) {
  CraftConfig Exp;
  Exp.Alpha1 = 0.05;
  Exp.Expansion = ExpansionSchedule::Exponential;
  CraftVerifier Verifier(model(), Exp);
  FixpointSolver Solver(model(), Splitting::PeacemanRachford);
  Rng R(92);
  for (const Sample &S : samples(4)) {
    CraftResult Res = Verifier.verifyRobustness(S.X, S.Label, 0.03);
    if (!Res.Containment)
      continue;
    // Soundness: sampled fixpoints stay inside the certified hull.
    for (int Trial = 0; Trial < 10; ++Trial) {
      Vector X = S.X;
      for (size_t J = 0; J < 5; ++J)
        X[J] = std::clamp(X[J] + R.uniform(-0.03, 0.03), 0.0, 1.0);
      Vector Z = Solver.solve(X, 1e-11, 3000).Z;
      for (size_t J = 0; J < Z.size(); ++J) {
        EXPECT_GE(Z[J], Res.FixpointHull.lowerBounds()[J] - 1e-7);
        EXPECT_LE(Z[J], Res.FixpointHull.upperBounds()[J] + 1e-7);
      }
    }
  }
}

TEST(ConfigTest, FixedAlpha2SkipsLineSearch) {
  CraftConfig Fixed;
  Fixed.Alpha1 = 0.05;
  Fixed.Alpha2 = 0.04;
  CraftVerifier Verifier(model(), Fixed);
  for (const Sample &S : samples(3)) {
    CraftResult Res = Verifier.verifyRobustness(S.X, S.Label, 0.03);
    // ChosenAlpha2 stays -1 when certification succeeds at containment
    // (phase 2 never runs); when phase 2 ran, it must be the fixed value.
    if (Res.Containment && Res.ChosenAlpha2 >= 0.0) {
      EXPECT_DOUBLE_EQ(Res.ChosenAlpha2, 0.04);
    }
  }
}

bool sameBytes(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         (A.size() == 0 ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// The line search's candidates, in fold order.
constexpr double Candidates[] = {0.01, 0.02, 0.03, 0.05,
                                 0.08, 0.12, 0.2,  0.35};

TEST(ConfigTest, LineSearchIsTheFirstCertifyingProbeContinued) {
  // For every query that reaches containment, the line-searched result is
  // a fixed-alpha run at the alpha it chose: same verdict, byte-identical
  // margin and hull. No earlier candidate certifies in a 6-step run.
  CraftConfig Search;
  Search.Alpha1 = 0.05;
  CraftVerifier SearchV(model(), Search);
  size_t Phase1Certified = 0, Phase2Certified = 0, Undecided = 0;
  for (double Eps : {0.07, 0.2}) {
    for (const Sample &S : samples(12)) {
      CraftResult Got = SearchV.verifyRobustness(S.X, S.Label, Eps);
      if (!Got.Containment)
        continue;
      // A phase-1 certification never reaches phase 2, so any alpha will do.
      CraftConfig Fixed = Search;
      Fixed.Alpha2 = Got.ChosenAlpha2 >= 0.0 ? Got.ChosenAlpha2 : 0.05;
      CraftResult Want =
          CraftVerifier(model(), Fixed).verifyRobustness(S.X, S.Label, Eps);
      EXPECT_EQ(Got.Certified, Want.Certified) << Eps;
      EXPECT_EQ(0, std::memcmp(&Got.BestMargin, &Want.BestMargin,
                               sizeof(double)))
          << Got.BestMargin << " vs " << Want.BestMargin;
      EXPECT_TRUE(sameBytes(Got.FixpointHull.lowerBounds(),
                            Want.FixpointHull.lowerBounds()));
      EXPECT_TRUE(sameBytes(Got.FixpointHull.upperBounds(),
                            Want.FixpointHull.upperBounds()));
      if (Got.ChosenAlpha2 < 0.0) {
        ++Phase1Certified;
        continue;
      }
      ++(Got.Certified ? Phase2Certified : Undecided);

      CraftConfig Probe = Search;
      Probe.Phase2MaxIterations = 6;
      Probe.LambdaOptLevel = 0;
      for (double Cand : Candidates) {
        if (Cand >= Got.ChosenAlpha2)
          break;
        Probe.Alpha2 = Cand;
        EXPECT_FALSE(CraftVerifier(model(), Probe)
                         .verifyRobustness(S.X, S.Label, Eps)
                         .Certified)
            << "candidate " << Cand << " certifies before "
            << Got.ChosenAlpha2;
      }
    }
  }
  EXPECT_GT(Phase1Certified, 0u);
  EXPECT_GT(Phase2Certified, 0u);
  EXPECT_GT(Undecided, 0u);
}

/// Byte-identical verdict, margin, step size and hull.
void expectSameResult(const CraftResult &A, const CraftResult &B) {
  EXPECT_EQ(A.Certified, B.Certified);
  EXPECT_EQ(0, std::memcmp(&A.BestMargin, &B.BestMargin, sizeof(double)));
  EXPECT_EQ(0,
            std::memcmp(&A.ChosenAlpha2, &B.ChosenAlpha2, sizeof(double)));
  EXPECT_TRUE(sameBytes(A.FixpointHull.lowerBounds(),
                        B.FixpointHull.lowerBounds()));
  EXPECT_TRUE(sameBytes(A.FixpointHull.upperBounds(),
                        B.FixpointHull.upperBounds()));
}

TEST(ConfigTest, ResultDoesNotDependOnErrorTermIdValues) {
  // Each item of a helped section (line-search probe, lambda scale) mints
  // error-term ids from its own range past the owner's counter, so the
  // ids an analysis uses depend on where the counter stood. The result
  // must not.
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.05;
  CraftVerifier Verifier(model(), Cfg);
  size_t Phase2 = 0;
  for (double Eps : {0.07, 0.2}) {
    for (const Sample &S : samples(8)) {
      setErrorTermIdMark(0);
      CraftResult Low = Verifier.verifyRobustness(S.X, S.Label, Eps);
      setErrorTermIdMark(uint64_t(1) << 40);
      CraftResult High = Verifier.verifyRobustness(S.X, S.Label, Eps);
      SCOPED_TRACE(Eps);
      expectSameResult(Low, High);
      Phase2 += Low.ChosenAlpha2 >= 0.0;
    }
  }
  setErrorTermIdMark(0);
  EXPECT_GT(Phase2, 0u);
}

/// The Eps-ball around \p S clamped to [0, 1], and its lower half along
/// dimension 0: a parent region and one of its split children.
void ballAndLowerHalf(const Sample &S, double Eps, Vector &Lo, Vector &Hi,
                      Vector &HalfHi) {
  Lo = Vector(S.X.size());
  Hi = Vector(S.X.size());
  for (size_t J = 0; J < S.X.size(); ++J) {
    Lo[J] = std::max(S.X[J] - Eps, 0.0);
    Hi[J] = std::min(S.X[J] + Eps, 1.0);
  }
  HalfHi = Hi;
  HalfHi[0] = 0.5 * (Lo[0] + Hi[0]);
}

TEST(ConfigTest, InheritedStartDoesNotDependOnErrorTermIdValues) {
  // A split child's phase 2 starts from its parent's Phase2End, whose
  // error-term ids are 1..k. The child mints its own ids above k on its
  // thread: an input id equal to an inherited one would correlate two
  // independent terms (unsound), and the result would then depend on where
  // the thread's counter stood.
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.05;
  CraftVerifier Verifier(model(), Cfg);
  size_t Inherited = 0;
  for (double Eps : {0.07, 0.2}) {
    for (const Sample &S : samples(8)) {
      Vector Lo, Hi, HalfHi;
      ballAndLowerHalf(S, Eps, Lo, Hi, HalfHi);
      CraftResult Parent = Verifier.verifyRegion(Lo, Hi, S.Label);
      if (!Parent.Phase2End)
        continue;
      setErrorTermIdMark(0);
      CraftResult Low = Verifier.verifyRegion(Lo, HalfHi, S.Label, {},
                                              Parent.Phase2End.get());
      setErrorTermIdMark(uint64_t(1) << 40);
      CraftResult High = Verifier.verifyRegion(Lo, HalfHi, S.Label, {},
                                               Parent.Phase2End.get());
      SCOPED_TRACE(Eps);
      expectSameResult(Low, High);
      EXPECT_EQ(Low.ChosenAlpha2, Parent.ChosenAlpha2);
      ++Inherited;
    }
  }
  setErrorTermIdMark(0);
  EXPECT_GT(Inherited, 0u);
}

TEST(ConfigTest, OnlyAnUndecidedFbPhase2LeavesAPhase2End) {
  // FB phase 2 that does not certify hands its last state, ids 1..k, and
  // its alpha to sub-regions; a call starting from it runs no phase 1.
  // Box, PR phase 2 and the same-iteration ablation leave no state and
  // ignore one.
  const telemetry::Counter Starts =
      telemetry::counterMetric("split.inherited_starts");
  const telemetry::Histogram Iterations =
      telemetry::histogramMetric("craft.iterations");
  CraftConfig Fb;
  Fb.Alpha1 = 0.05;
  CraftConfig Box = Fb, Pr = Fb, SameIter = Fb;
  Box.Domain = VerifierDomain::Box;
  Pr.Phase2Method = Splitting::PeacemanRachford;
  SameIter.SameIterationContainment = true;
  CraftVerifier FbV(model(), Fb);
  std::shared_ptr<const Phase2Start> End;
  Vector EndLo, EndHi;
  int EndLabel = -1;
  for (double Eps : {0.07, 0.2}) {
    for (const Sample &S : samples(8)) {
      Vector Lo, Hi, HalfHi;
      ballAndLowerHalf(S, Eps, Lo, Hi, HalfHi);
      CraftResult Res = FbV.verifyRegion(Lo, Hi, S.Label);
      const bool RanPhase2 = Res.ChosenAlpha2 >= 0.0;
      EXPECT_EQ(bool(Res.Phase2End), RanPhase2 && !Res.Certified);
      if (Res.Phase2End) {
        EXPECT_EQ(Res.Phase2End->Alpha2, Res.ChosenAlpha2);
        const std::vector<uint64_t> &Ids = Res.Phase2End->Z.termIds();
        for (size_t J = 0; J < Ids.size(); ++J)
          EXPECT_EQ(Ids[J], J + 1);
        End = Res.Phase2End;
        EndLo = Lo;
        EndHi = HalfHi;
        EndLabel = S.Label;
      }
      for (const CraftConfig *Other : {&Box, &Pr, &SameIter})
        EXPECT_FALSE(CraftVerifier(model(), *Other)
                         .verifyRegion(Lo, Hi, S.Label)
                         .Phase2End);
    }
  }
  ASSERT_TRUE(End) << "no query left a phase-2 end state";

  uint64_t StartsBefore = Starts.value();
  uint64_t IterationsBefore = Iterations.snapshot().Count;
  CraftResult Child = FbV.verifyRegion(EndLo, EndHi, EndLabel, {}, End.get());
  EXPECT_TRUE(Child.Containment);
  EXPECT_EQ(Child.TotalIterations, 0);
  EXPECT_EQ(Starts.value() - StartsBefore, 1u);
  EXPECT_EQ(Iterations.snapshot().Count, IterationsBefore)
      << "an inherited start runs no phase 1";
  for (const CraftConfig *Other : {&Box, &Pr, &SameIter}) {
    StartsBefore = Starts.value();
    IterationsBefore = Iterations.snapshot().Count;
    CraftVerifier(model(), *Other)
        .verifyRegion(EndLo, EndHi, EndLabel, {}, End.get());
    EXPECT_EQ(Starts.value(), StartsBefore);
    EXPECT_EQ(Iterations.snapshot().Count, IterationsBefore + 1);
  }
}

/// A query whose main phase-2 run ends uncertified within the lambda-opt
/// window, so the verifier runs lambda optimization, and that PGD with
/// \p Attack (its Epsilon is set here) does not refute.
std::optional<VerificationSpec> lambdaOptQuery(const CraftConfig &Cfg,
                                               PgdOptions Attack) {
  CraftConfig NoLambda = Cfg;
  NoLambda.LambdaOptLevel = 0;
  FixpointSolver Solver(model(), Splitting::PeacemanRachford);
  for (double Eps : {0.07, 0.1, 0.2}) {
    Attack.Epsilon = Eps;
    for (const Sample &S : samples(12)) {
      CraftResult R =
          CraftVerifier(model(), NoLambda).verifyRobustness(S.X, S.Label, Eps);
      if (R.ChosenAlpha2 < 0.0 || R.Certified ||
          R.BestMargin <= -Cfg.LambdaOptMarginWindow ||
          pgdAttack(model(), Solver, S.X, S.Label, Attack).FoundAdversarial)
        continue;
      VerificationSpec Spec;
      Spec.ModelPath = "<preloaded>";
      Spec.Center = S.X;
      Spec.Epsilon = Eps;
      Spec.TargetClass = S.Label;
      Spec.Alpha1 = Cfg.Alpha1;
      Spec.LambdaOptLevel = Cfg.LambdaOptLevel;
      Spec.Attack = true;
      Spec.AttackSeed = Attack.Seed;
      Spec.InLo = Vector(S.X.size());
      Spec.InHi = Vector(S.X.size());
      for (size_t J = 0; J < S.X.size(); ++J) {
        Spec.InLo[J] = std::max(S.X[J] - Eps, 0.0);
        Spec.InHi[J] = std::min(S.X[J] + Eps, 1.0);
      }
      return Spec;
    }
  }
  return std::nullopt;
}

TEST(ConfigTest, HelpedBatchQueryMatchesItsSerialRun) {
  // The line search, the lambda scales and PGD's remaining restarts all
  // run for this query.
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.05;
  Cfg.LambdaOptLevel = 2;
  PgdOptions Attack;
  Attack.Seed = 7;
  const std::optional<VerificationSpec> Query = lambdaOptQuery(Cfg, Attack);
  ASSERT_TRUE(Query) << "no sample reaches lambda optimization";

  // Work counter deltas over one call (countsOf).
  struct Counts {
    uint64_t Gradients, Factorizations, Helped, Verifies, Iterations,
        Phase2Steps;
  };
  const telemetry::Counter Gradients =
      telemetry::counterMetric("pgd.gradients");
  const telemetry::Counter Factorizations =
      telemetry::counterMetric("pgd.adjoint_factorizations");
  const telemetry::Counter HelpItems =
      telemetry::counterMetric("pool.help_items");
  const telemetry::Histogram Iterations =
      telemetry::histogramMetric("craft.iterations");
  const telemetry::Histogram Phase2Steps =
      telemetry::histogramMetric("craft.phase2_steps");
  auto countsOf = [&](const auto &Fn) {
    const Counts Before{Gradients.value(),         Factorizations.value(),
                        HelpItems.value(),         Iterations.snapshot().Count,
                        Iterations.snapshot().Sum, Phase2Steps.snapshot().Sum};
    Fn();
    return Counts{Gradients.value() - Before.Gradients,
                  Factorizations.value() - Before.Factorizations,
                  HelpItems.value() - Before.Helped,
                  Iterations.snapshot().Count - Before.Verifies,
                  Iterations.snapshot().Sum - Before.Iterations,
                  Phase2Steps.snapshot().Sum - Before.Phase2Steps};
  };

  // The plain loops, on this thread: the verifier and the whole attack.
  CraftResult Direct;
  const Counts Plain = countsOf([&] {
    Direct = CraftVerifier(model(), Cfg)
                 .verifyRegion(Query->InLo, Query->InHi, Query->TargetClass);
    Attack.Epsilon = Query->Epsilon;
    pgdAttack(model(), FixpointSolver(model(), Splitting::PeacemanRachford),
              Query->Center, Query->TargetClass, Attack);
  });

  // The query in slot 0 of a batch whose other slots fail to load and so
  // finish at once: at Jobs = 4 three workers are idle and help it.
  const std::vector<VerificationSpec> Specs(4, *Query);
  const std::vector<const MonDeq *> Models = {&model(), nullptr, nullptr,
                                              nullptr};
  RunOutcome Serial, Helped;
  const Counts SerialCounts =
      countsOf([&] { Serial = runSpecBatchLoaded(Specs, Models, 1)[0]; });
  // The query's sections last about a millisecond in all, which a waking
  // worker can miss; the hook makes each one wait for its first helper.
  struct AwaitHelper {
    AwaitHelper() { setAwaitHelperForTest(true); }
    ~AwaitHelper() { setAwaitHelperForTest(false); }
  };
  const Counts HelpedCounts = countsOf([&] {
    AwaitHelper Await;
    Helped = runSpecBatchLoaded(Specs, Models, 4)[0];
  });

  EXPECT_FALSE(Serial.Certified);
  EXPECT_FALSE(Serial.Refuted);
  EXPECT_EQ(Serial.AttackSeed, Attack.Seed) << "PGD did not run";
  EXPECT_EQ(0, std::memcmp(&Serial.MarginLower, &Direct.BestMargin,
                           sizeof(double)));
  EXPECT_EQ(Serial.Certified, Helped.Certified);
  EXPECT_EQ(Serial.Containment, Helped.Containment);
  EXPECT_EQ(Serial.Refuted, Helped.Refuted);
  EXPECT_EQ(Serial.AttackSeed, Helped.AttackSeed);
  EXPECT_EQ(Serial.Detail, Helped.Detail);
  EXPECT_TRUE(sameBytes(Serial.Counterexample, Helped.Counterexample));
  EXPECT_EQ(0, std::memcmp(&Serial.MarginLower, &Helped.MarginLower,
                           sizeof(double)));

  // Jobs = 1 runs no speculative item: its counts are the plain loops'.
  // Helped items past a stop count nowhere, so Jobs = 4 matches too.
  for (const Counts &C : {SerialCounts, HelpedCounts}) {
    EXPECT_EQ(C.Gradients, Plain.Gradients);
    EXPECT_EQ(C.Factorizations, Plain.Factorizations);
    EXPECT_EQ(C.Verifies, 1u);
    EXPECT_EQ(C.Iterations, Plain.Iterations);
    EXPECT_EQ(C.Phase2Steps, Plain.Phase2Steps);
  }
  EXPECT_EQ(SerialCounts.Helped, 0u);
  EXPECT_GT(HelpedCounts.Helped, 0u);
  if (telemetry::timingEnabled()) {
    EXPECT_GT(Helped.Phases.ConsolidationMs, 0.0);
  }
}

/// Verifies the Eps-ball around \p S and stores the call's
/// craft.phase2_steps observation in \p Steps.
CraftResult verifyCountingSteps(const CraftVerifier &V, const Sample &S,
                                double Eps, uint64_t &Steps) {
  const telemetry::Histogram Hist =
      telemetry::histogramMetric("craft.phase2_steps");
  const telemetry::HistogramSnapshot Before = Hist.snapshot();
  CraftResult Res = V.verifyRobustness(S.X, S.Label, Eps);
  const telemetry::HistogramSnapshot After = Hist.snapshot();
  EXPECT_EQ(After.Count - Before.Count, 1u) << "one observation per call";
  Steps = After.Sum - Before.Sum;
  return Res;
}

/// One line-search probe run on its own: a fixed-alpha run capped at 6
/// steps is byte-identical to the probe at that alpha. Margin is the
/// larger of the probe's best and the contained state's margin.
struct ProbeRun {
  bool Certified = false;
  double Margin = -1e300;
  uint64_t Steps = 0;
};

/// The probe of every candidate for the Eps-ball around \p S under
/// \p Search, and in \p Seed the contained state's margin (the result of
/// a run with no phase-2 steps).
std::vector<ProbeRun> probeSweep(const CraftConfig &Search, const Sample &S,
                                 double Eps, double &Seed) {
  CraftConfig Probe = Search;
  Probe.Phase2MaxIterations = 0;
  Probe.Alpha2 = Candidates[0];
  Seed = CraftVerifier(model(), Probe)
             .verifyRobustness(S.X, S.Label, Eps)
             .BestMargin;
  Probe.Phase2MaxIterations = 6;
  std::vector<ProbeRun> Sweep;
  for (double Cand : Candidates) {
    Probe.Alpha2 = Cand;
    ProbeRun Run;
    CraftResult R =
        verifyCountingSteps(CraftVerifier(model(), Probe), S, Eps, Run.Steps);
    Run.Certified = R.Certified;
    Run.Margin = R.BestMargin;
    Sweep.push_back(Run);
  }
  return Sweep;
}

/// Probes the line search folds: those up to and including the first that
/// certifies or the first whose margin is below the best before it.
size_t foldedProbes(const std::vector<ProbeRun> &Sweep) {
  double Best = -1e300;
  for (size_t I = 0; I < Sweep.size(); ++I) {
    if (Sweep[I].Certified || Sweep[I].Margin < Best)
      return I + 1;
    Best = std::max(Best, Sweep[I].Margin);
  }
  return Sweep.size();
}

/// Whether \p P's margin is the probe's own best. One at or below the
/// contained state's margin \p Seed shows only that the probe's best is no
/// higher; that still places it below every resolved probe.
bool resolved(const ProbeRun &P, double Seed) {
  return P.Certified || P.Margin > Seed;
}

TEST(ConfigTest, Phase2BudgetBoundsIterations) {
  // A tiny phase-2 budget must still be sound (possibly less precise), and
  // it bounds the steps. The line search folds its probes in order, up to
  // and including the first that certifies or the first whose margin is
  // below the best before it, each at most 6 steps; the main run
  // continuing the best one adds none past the cap. With a fixed alpha
  // the main run is all of phase 2, and it stops at the cap unless it
  // certifies first. Each of the six lambda runs stops at the cap too.
  const telemetry::Histogram ProbesHist =
      telemetry::histogramMetric("craft.line_search_probes");
  CraftConfig Tiny, Full;
  Tiny.Alpha1 = Full.Alpha1 = 0.05;
  Tiny.Phase2MaxIterations = 2;
  Tiny.LambdaOptLevel = 0;
  Full.LambdaOptLevel = 0;
  CraftConfig TinyFixed = Tiny, FullFixed = Full;
  TinyFixed.Alpha2 = FullFixed.Alpha2 = 0.05;
  CraftConfig TinyLambda = TinyFixed;
  TinyLambda.LambdaOptLevel = 2;
  TinyLambda.LambdaOptMarginWindow = 1e300; // Every undecided query.
  CraftVerifier TinyV(model(), Tiny), FullV(model(), Full);
  CraftVerifier TinyFixedV(model(), TinyFixed), FullFixedV(model(), FullFixed);
  CraftVerifier TinyLambdaV(model(), TinyLambda);
  size_t Searched = 0, CutShort = 0, Stopped = 0, Capped = 0,
         LambdaStopped = 0;
  for (double Eps : {0.03, 0.1}) {
    for (const Sample &S : samples(6)) {
      uint64_t Steps = 0;
      const telemetry::HistogramSnapshot ProbesBefore = ProbesHist.snapshot();
      CraftResult T = verifyCountingSteps(TinyV, S, Eps, Steps);
      const telemetry::HistogramSnapshot Probes =
          telemetry::diffSnapshots(ProbesBefore, ProbesHist.snapshot());
      CraftResult F = FullV.verifyRobustness(S.X, S.Label, Eps);
      if (T.Containment && F.Containment) {
        EXPECT_LE(T.BestMargin, F.BestMargin + 1e-7)
            << "more tightening cannot hurt the margin";
      }
      EXPECT_LE(Steps, 8u * 6u);
      if (T.ChosenAlpha2 >= 0.0) {
        double Seed = 0.0;
        const std::vector<ProbeRun> Sweep = probeSweep(Tiny, S, Eps, Seed);
        const size_t Folded = foldedProbes(Sweep);
        uint64_t ProbeSteps = 0;
        for (size_t I = 0; I < Folded; ++I) {
          EXPECT_TRUE(resolved(Sweep[I], Seed)) << Eps << " probe " << I;
          EXPECT_LE(Sweep[I].Steps, 6u);
          ProbeSteps += Sweep[I].Steps;
        }
        EXPECT_EQ(Steps, ProbeSteps) << Eps;
        EXPECT_EQ(Probes.Count, 1u) << "one observation per search";
        EXPECT_EQ(Probes.Sum, Folded) << Eps;
        ++Searched;
        CutShort += Folded < Sweep.size() && !Sweep[Folded - 1].Certified;
      } else {
        EXPECT_EQ(Probes.Count, 0u) << "no phase 2, no search";
      }

      T = verifyCountingSteps(TinyFixedV, S, Eps, Steps);
      EXPECT_LE(Steps, 2u);
      if (T.ChosenAlpha2 >= 0.0 && !T.Certified) {
        EXPECT_EQ(Steps, 2u);
        ++Stopped;
      }
      verifyCountingSteps(FullFixedV, S, Eps, Steps);
      Capped += Steps > 2;

      T = verifyCountingSteps(TinyLambdaV, S, Eps, Steps);
      EXPECT_LE(Steps, 2u + 6u * 2u);
      if (T.ChosenAlpha2 >= 0.0 && !T.Certified) {
        EXPECT_EQ(Steps, 2u + 6u * 2u);
        ++LambdaStopped;
      }
    }
  }
  EXPECT_GT(Searched, 0u) << "no query ran the line search";
  EXPECT_GT(CutShort, 0u) << "no search stopped at a worse probe";
  EXPECT_GT(Stopped, 0u) << "no fixed-alpha query ran into the cap";
  EXPECT_GT(LambdaStopped, 0u) << "no lambda run ran into the cap";
  EXPECT_GT(Capped, 0u) << "no query runs past the cap uncapped";
}

TEST(ConfigTest, LineSearchStopMatchesTheFullSweep) {
  // The line search stops at its first worse probe. The full sweep over
  // all eight candidates (the first that certifies, else the first with
  // the best margin) may choose another alpha past that stop, but the
  // verdict must be the same.
  CraftConfig Search;
  Search.Alpha1 = 0.05;
  CraftVerifier SearchV(model(), Search);
  size_t Searched = 0, OtherAlpha = 0;
  for (double Eps : {0.03, 0.07, 0.1}) {
    for (const Sample &S : samples(12)) {
      CraftResult Got = SearchV.verifyRobustness(S.X, S.Label, Eps);
      if (Got.ChosenAlpha2 < 0.0)
        continue;
      ++Searched;
      double Seed = 0.0;
      const std::vector<ProbeRun> Sweep = probeSweep(Search, S, Eps, Seed);
      size_t Choice = 0;
      for (size_t I = 0; I < Sweep.size(); ++I) {
        if (Sweep[I].Certified) {
          Choice = I;
          break;
        }
        if (Sweep[I].Margin > Sweep[Choice].Margin)
          Choice = I;
      }
      EXPECT_TRUE(resolved(Sweep[Choice], Seed)) << Eps;
      CraftConfig Fixed = Search;
      Fixed.Alpha2 = Candidates[Choice];
      CraftResult Want =
          CraftVerifier(model(), Fixed).verifyRobustness(S.X, S.Label, Eps);
      EXPECT_EQ(Got.Certified, Want.Certified)
          << "eps " << Eps << ": alpha " << Got.ChosenAlpha2 << " vs "
          << Candidates[Choice];
      OtherAlpha += Got.ChosenAlpha2 != Candidates[Choice];
    }
  }
  EXPECT_GT(Searched, 0u);
  RecordProperty("searched", std::to_string(Searched));
  RecordProperty("other_alpha", std::to_string(OtherAlpha));
  std::printf("line search: %zu searched, %zu chose another alpha than "
              "the full sweep\n",
              Searched, OtherAlpha);
}

TEST(ConfigTest, Phase2EndCountsWhyTheMainRunStopped) {
  // A call that runs a main phase-2 run counts one craft.phase2_end.*
  // reason, and a call that runs no phase 2 counts none. A fixed-alpha
  // run capped at 2 steps ends capped unless it certifies; uncapped, it
  // ends certified or stalled; cancelled before its first step, stopped.
  const telemetry::Counter Ends[] = {
      telemetry::counterMetric("craft.phase2_end.certified"),
      telemetry::counterMetric("craft.phase2_end.stalled"),
      telemetry::counterMetric("craft.phase2_end.capped"),
      telemetry::counterMetric("craft.phase2_end.width_abort"),
      telemetry::counterMetric("craft.phase2_end.stopped"),
  };
  enum { Certified, Stalled, Capped, WidthAbort, Stopped, NumEnds };
  auto endsOf = [&](const auto &Fn) {
    uint64_t Delta[NumEnds];
    for (int I = 0; I < NumEnds; ++I)
      Delta[I] = Ends[I].value();
    Fn();
    std::vector<uint64_t> Out(NumEnds);
    for (int I = 0; I < NumEnds; ++I)
      Out[I] = Ends[I].value() - Delta[I];
    return Out;
  };
  CraftConfig Capped2, Uncapped, Cancelled;
  Capped2.Alpha1 = Uncapped.Alpha1 = Cancelled.Alpha1 = 0.05;
  Capped2.Alpha2 = Uncapped.Alpha2 = Cancelled.Alpha2 = 0.05;
  Capped2.Phase2MaxIterations = 2;
  size_t Runs = 0, SawStalled = 0;
  for (double Eps : {0.03, 0.1}) {
    for (const Sample &S : samples(6)) {
      CraftResult R;
      std::vector<uint64_t> D = endsOf([&] {
        R = CraftVerifier(model(), Capped2).verifyRobustness(S.X, S.Label, Eps);
      });
      const bool RanPhase2 = R.ChosenAlpha2 >= 0.0;
      std::vector<uint64_t> Want(NumEnds);
      if (RanPhase2)
        ++Want[R.Certified ? Certified : Capped];
      EXPECT_EQ(D, Want) << Eps;

      D = endsOf([&] {
        R = CraftVerifier(model(), Uncapped)
                .verifyRobustness(S.X, S.Label, Eps);
      });
      EXPECT_EQ(D[Certified] + D[Stalled], RanPhase2 ? 1u : 0u) << Eps;
      EXPECT_EQ(D[Certified], RanPhase2 && R.Certified ? 1u : 0u) << Eps;
      SawStalled += D[Stalled];

      Vector Lo, Hi, HalfHi;
      ballAndLowerHalf(S, Eps, Lo, Hi, HalfHi);
      CancelToken Token;
      Cancelled.Control.Cancel = &Token;
      D = endsOf([&] {
        R = CraftVerifier(model(), Cancelled)
                .verifyRegion(Lo, Hi, S.Label, [&] {
                  Token.cancel();
                  return false;
                });
      });
      std::fill(Want.begin(), Want.end(), 0);
      if (RanPhase2)
        ++Want[Stopped];
      EXPECT_EQ(D, Want) << Eps;
      Runs += RanPhase2;
    }
  }
  EXPECT_GT(Runs, 0u);
  EXPECT_GT(SawStalled, 0u);
}

TEST(ConfigTest, BoxPhase2HonoursItsCap) {
  // The Box domain's phase 2 stops at Phase2MaxIterations, as the
  // zonotope domains' main run does.
  CraftConfig Tiny, Full;
  Tiny.Domain = Full.Domain = VerifierDomain::Box;
  Tiny.Alpha1 = Full.Alpha1 = 0.05;
  Tiny.Phase2MaxIterations = 2;
  CraftVerifier TinyV(model(), Tiny), FullV(model(), Full);
  size_t Stopped = 0, Capped = 0;
  for (double Eps : {0.01, 0.03}) {
    for (const Sample &S : samples(8)) {
      uint64_t Steps = 0;
      CraftResult T = verifyCountingSteps(TinyV, S, Eps, Steps);
      EXPECT_LE(Steps, 2u);
      if (T.Containment && !T.Certified) {
        EXPECT_EQ(Steps, 2u);
        ++Stopped;
      }
      verifyCountingSteps(FullV, S, Eps, Steps);
      Capped += Steps > 2;
    }
  }
  EXPECT_GT(Stopped, 0u) << "no Box query ran into the cap";
  EXPECT_GT(Capped, 0u) << "no Box query runs past the cap uncapped";
}

TEST(ConfigTest, DefaultPhase2KeepsAppCVerdicts) {
  // The engine's defaults (a 3-step stall window, no lambda optimization)
  // stop phase 2 far earlier than App. C (150 steps, full lambda
  // optimization), and must reach the same verdict on every query.
  CraftConfig Engine, AppC;
  Engine.Alpha1 = AppC.Alpha1 = 0.05;
  AppC.Phase2Window = 50;
  AppC.LambdaOptLevel = 2;
  CraftVerifier EngineV(model(), Engine), AppCV(model(), AppC);
  size_t Phase2 = 0, Phase2Certified = 0, Undecided = 0;
  for (double Eps : {0.03, 0.06, 0.07, 0.1, 0.15, 0.2}) {
    for (const Sample &S : samples(16)) {
      CraftResult Got = EngineV.verifyRobustness(S.X, S.Label, Eps);
      CraftResult Want = AppCV.verifyRobustness(S.X, S.Label, Eps);
      EXPECT_EQ(Got.Containment, Want.Containment) << Eps;
      EXPECT_EQ(Got.Certified, Want.Certified) << Eps;
      if (Got.ChosenAlpha2 < 0.0)
        continue;
      ++Phase2;
      ++(Got.Certified ? Phase2Certified : Undecided);
    }
  }
  EXPECT_GT(Phase2Certified, 0u);
  EXPECT_GT(Undecided, 0u);
  EXPECT_GE(Phase2, 30u);
}

TEST(ConfigTest, LambdaOptOnlyHelps) {
  CraftConfig NoOpt, Opt;
  NoOpt.Alpha1 = Opt.Alpha1 = 0.05;
  NoOpt.LambdaOptLevel = 0;
  Opt.LambdaOptLevel = 2;
  EXPECT_GE(countCertified(Opt, 0.06), countCertified(NoOpt, 0.06));
}

TEST(ConfigTest, RejectsFbThenPr) {
#ifdef NDEBUG
  GTEST_SKIP() << "constructor guard is an assert (debug builds only)";
#else
  CraftConfig Bad;
  Bad.Phase1Method = Splitting::ForwardBackward;
  Bad.Phase2Method = Splitting::PeacemanRachford;
  EXPECT_DEATH({ CraftVerifier V(model(), Bad); (void)V; }, "unsupported");
#endif
}

} // namespace
