//===- tests/test_integration.cpp - Cross-module integration tests --------===//
//
// End-to-end consistency checks across the full pipeline: training ->
// attack -> verification, verifier-vs-verifier orderings, and the
// interplay of domain splitting with concrete prediction. All models are
// trained ad hoc (small + fast) so the suite is hermetic.
//
//===----------------------------------------------------------------------===//

#include "attack/Pgd.h"
#include "core/KleeneVerifier.h"
#include "core/LipschitzCert.h"
#include "core/SplitEngine.h"
#include "core/Verifier.h"
#include "data/GaussianMixture.h"
#include "data/Hcas.h"
#include "nn/Training.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace craft;

namespace {

/// Shared trained model: 5-d GMM classifier with 8 latent dims.
const MonDeq &model() {
  static const MonDeq M = [] {
    Rng R(60);
    Dataset Train = makeGaussianMixture(R, 400, 5, 3, 0.18);
    MonDeq Net = MonDeq::randomFc(R, 5, 8, 3, 20.0);
    TrainOptions Opts;
    Opts.Epochs = 40;
    Opts.LearningRate = 0.02;
    trainMonDeq(Net, Train, Opts);
    return Net;
  }();
  return M;
}

//===----------------------------------------------------------------------===//
// Certificate vs attack consistency
//===----------------------------------------------------------------------===//

TEST(PipelineTest, CertificateAndAttackNeverBothSucceed) {
  // The fundamental consistency property of the whole system: if Craft
  // certifies the ball, PGD (a concrete search within that ball) can never
  // find an adversarial example.
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  Rng R(61);
  Dataset Test = makeGaussianMixture(R, 20, 5, 3, 0.18);
  CraftConfig Config;
  Config.Alpha1 = 0.05;
  CraftVerifier Verifier(Net, Config);

  size_t Checked = 0;
  for (double Eps : {0.01, 0.05, 0.12}) {
    for (size_t I = 0; I < 6; ++I) {
      Vector X = Test.input(I);
      int Label = Solver.predict(X);
      CraftResult Res = Verifier.verifyRobustness(X, Label, Eps);

      PgdOptions Attack;
      Attack.Epsilon = Eps;
      Attack.Steps = 40;
      Attack.Restarts = 2;
      Attack.Seed = 70 + I;
      PgdResult Adv = pgdAttack(Net, Solver, X, Label, Attack);

      EXPECT_FALSE(Res.Certified && Adv.FoundAdversarial)
          << "certificate and adversarial example at eps " << Eps;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 18u);
}

TEST(PipelineTest, LipschitzAndCraftCertificatesAgreeWithAttack) {
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  LipschitzCertifier Lip(Net);
  Rng R(62);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);

  for (size_t I = 0; I < 5; ++I) {
    Vector X = Test.input(I);
    int Label = Solver.predict(X);
    double Radius = Lip.certifiedRadius(X, Label);
    if (Radius <= 0.0)
      continue;
    PgdOptions Attack;
    Attack.Epsilon = 0.95 * Radius;
    Attack.Seed = 80 + I;
    EXPECT_FALSE(pgdAttack(Net, Solver, X, Label, Attack).FoundAdversarial);
  }
}

//===----------------------------------------------------------------------===//
// Verifier-vs-verifier orderings
//===----------------------------------------------------------------------===//

TEST(VerifierOrderingTest, BothKleeneModesAreSoundMarginBounds) {
  // Both Kleene joins are sound, so their reported margins must lower-bound
  // the true margin of every concrete input in the region. (No tightness
  // ordering holds between the modes: their termination criteria differ.)
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  Rng R(63);
  Dataset Test = makeGaussianMixture(R, 8, 5, 3, 0.18);

  KleeneConfig Hull;
  Hull.Alpha = 0.9 * Net.fbAlphaBound();
  KleeneConfig Quasi = Hull;
  Quasi.Join = KleeneJoin::Quasi;
  KleeneVerifier HullV(Net, Hull), QuasiV(Net, Quasi);

  size_t Compared = 0;
  const double Eps = 0.02;
  for (size_t I = 0; I < 6; ++I) {
    Vector X = Test.input(I);
    int Label = Solver.predict(X);
    KleeneResult H = HullV.verifyRobustness(X, Label, Eps);
    KleeneResult Q = QuasiV.verifyRobustness(X, Label, Eps);
    if (!H.Converged || !Q.Converged)
      continue;
    ++Compared;
    for (int Trial = 0; Trial < 10; ++Trial) {
      Vector P = X;
      for (size_t J = 0; J < 5; ++J)
        P[J] = std::clamp(P[J] + R.uniform(-Eps, Eps), 0.0, 1.0);
      Vector Y = Solver.logits(P);
      double TrueMargin = 1e300;
      for (size_t C = 0; C < Y.size(); ++C)
        if (static_cast<int>(C) != Label)
          TrueMargin = std::min(TrueMargin, Y[Label] - Y[C]);
      EXPECT_GE(TrueMargin, H.BestMargin - 1e-7);
      EXPECT_GE(TrueMargin, Q.BestMargin - 1e-7);
    }
  }
  EXPECT_GE(Compared, 3u);
}

TEST(VerifierOrderingTest, CraftBeatsKleeneOnMargins) {
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  Rng R(64);
  Dataset Test = makeGaussianMixture(R, 8, 5, 3, 0.18);

  CraftConfig CConfig;
  CConfig.Alpha1 = 0.05;
  CraftVerifier Craft(Net, CConfig);
  KleeneConfig KConfig;
  KConfig.Alpha = 0.9 * Net.fbAlphaBound();
  KConfig.Join = KleeneJoin::Quasi;
  KleeneVerifier Kleene(Net, KConfig);

  size_t Compared = 0, CraftWins = 0;
  for (size_t I = 0; I < 6; ++I) {
    Vector X = Test.input(I);
    int Label = Solver.predict(X);
    CraftResult C = Craft.verifyRobustness(X, Label, 0.03);
    KleeneResult K = Kleene.verifyRobustness(X, Label, 0.03);
    if (!C.Containment || !K.Converged)
      continue;
    ++Compared;
    CraftWins += C.BestMargin > K.BestMargin;
  }
  ASSERT_GE(Compared, 3u);
  EXPECT_EQ(CraftWins, Compared)
      << "Craft abstracts only fixpoints; Kleene covers all iterates";
}

TEST(VerifierOrderingTest, Phase2PrAlsoCertifies) {
  // "Only PR" (Table 4) is a supported configuration and still certifies
  // easy samples, just fewer than PR-then-FB overall.
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  Rng R(65);
  Dataset Test = makeGaussianMixture(R, 8, 5, 3, 0.18);

  CraftConfig Config;
  Config.Alpha1 = 0.05;
  Config.Phase2Method = Splitting::PeacemanRachford;
  CraftVerifier Verifier(Net, Config);
  size_t Certified = 0;
  for (size_t I = 0; I < 6; ++I) {
    Vector X = Test.input(I);
    Certified += Verifier.verifyRobustness(X, Solver.predict(X), 0.01)
                     .Certified;
  }
  EXPECT_GT(Certified, 0u);
}

//===----------------------------------------------------------------------===//
// Domain splitting consistency
//===----------------------------------------------------------------------===//

TEST(SplittingIntegrationTest, CertifiedRegionsMatchConcretePredictions) {
  // Every certified region's class must equal the concrete prediction at
  // random points inside it (the certificate is a *global* statement).
  const MonDeq &Net = model();
  FixpointSolver Solver(Net, Splitting::PeacemanRachford);
  CraftConfig Config;
  Config.Alpha1 = 0.05;
  Config.LambdaOptLevel = 0;
  SplitOptions Split;
  Split.MaxDepth = 8;
  SplitResult Res =
      runSplitEngine(Net, Config, Vector(5, 0.4), Vector(5, 0.6), Split);
  ASSERT_GT(Res.NumCertified, 0u);

  Rng R(66);
  size_t PointsChecked = 0;
  for (const SplitRegion &Region : Res.Regions) {
    if (Region.CertifiedClass < 0)
      continue;
    for (int Trial = 0; Trial < 3; ++Trial) {
      Vector P(5);
      for (size_t J = 0; J < 5; ++J)
        P[J] = R.uniform(Region.Lo[J], Region.Hi[J]);
      EXPECT_EQ(Solver.predict(P), Region.CertifiedClass);
      ++PointsChecked;
    }
    if (PointsChecked > 60)
      break;
  }
  EXPECT_GT(PointsChecked, 0u);
}

TEST(SplittingIntegrationTest, DeeperSplittingCertifiesMore) {
  const MonDeq &Net = model();
  CraftConfig Config;
  Config.Alpha1 = 0.05;
  Config.LambdaOptLevel = 0;
  SplitOptions Opts;
  Opts.MaxDepth = 4;
  SplitResult Shallow =
      runSplitEngine(Net, Config, Vector(5, 0.4), Vector(5, 0.6), Opts);
  Opts.MaxDepth = 9;
  SplitResult Deep =
      runSplitEngine(Net, Config, Vector(5, 0.4), Vector(5, 0.6), Opts);
  EXPECT_GE(Deep.CertifiedFraction, Shallow.CertifiedFraction - 1e-12);
}

//===----------------------------------------------------------------------===//
// HCAS end-to-end (miniature)
//===----------------------------------------------------------------------===//

TEST(HcasIntegrationTest, TrainedAdvisoryNetworkIsCertifiable) {
  // Miniature version of the Section 6.2 pipeline: MDP table -> monDEQ ->
  // region certification.
  static const HcasMdp Mdp;
  Rng R(67);
  Dataset Train = Mdp.makeDataset(R, 1500);
  MonDeq Net = MonDeq::randomFc(R, 3, 24, HcasMdp::NumActions, 20.0);
  TrainOptions Opts;
  Opts.Epochs = 12;
  trainMonDeq(Net, Train, Opts);
  Dataset Test = Mdp.makeDataset(R, 300);
  double Acc = evaluateAccuracy(Net, Test);
  EXPECT_GT(Acc, 0.6) << "advisory net should fit the policy table";

  CraftConfig Config;
  Config.Alpha1 = 0.06;
  Config.LambdaOptLevel = 0;
  constexpr double Deg = 3.14159265358979323846 / 180.0;
  Vector Lo = HcasMdp::normalizeInput(18.0, 14.0, -90.5 * Deg);
  Vector Hi = HcasMdp::normalizeInput(22.0, 18.0, -89.5 * Deg);
  SplitOptions Split;
  Split.MaxDepth = 6;
  SplitResult Res = runSplitEngine(Net, Config, Lo, Hi, Split);
  // Far-away intruder region: should be dominantly certifiable.
  EXPECT_GT(Res.CertifiedFraction, 0.2);
}

} // namespace
