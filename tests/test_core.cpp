//===- tests/test_core.cpp - Craft verifier tests -------------------------===//
//
// End-to-end and property tests for the core contribution: the abstract
// solvers, the Craft verifier (Alg. 1), the Kleene baseline, Lipschitz
// certification, domain splitting, and the Householder case study.
//
//===----------------------------------------------------------------------===//

#include "core/Householder.h"
#include "core/KleeneVerifier.h"
#include "core/LipschitzCert.h"
#include "core/SplitEngine.h"
#include "core/Verifier.h"
#include "data/GaussianMixture.h"
#include "linalg/Lu.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace craft;

namespace {

/// The paper's running example (Eq. 1).
MonDeq runningExample() {
  Matrix W = {{-4.0, -1.0}, {1.0, -4.0}};
  Matrix U = {{1.0, 1.0}, {-1.0, 1.0}};
  // The paper's classifier is the scalar score y = s1 - s2 with class 1 iff
  // y > 0; encode it as two logits (0, y) so margin machinery applies.
  Matrix V = {{0.0, 0.0}, {1.0, -1.0}};
  return MonDeq::fromW(4.0, W, U, Vector(2, 0.0), V, Vector(2, 0.0));
}

/// Small trained GMM classifier shared across verifier tests.
const MonDeq &gmmModel() {
  static const MonDeq Model = [] {
    Rng R(30);
    Dataset Train = makeGaussianMixture(R, 400, 5, 3, 0.18);
    MonDeq M = MonDeq::randomFc(R, 5, 10, 3, 20.0);
    TrainOptions Opts;
    Opts.Epochs = 40;
    Opts.LearningRate = 0.02;
    trainMonDeq(M, Train, Opts);
    return M;
  }();
  return Model;
}

//===----------------------------------------------------------------------===//
// Abstract solver
//===----------------------------------------------------------------------===//

class AbstractSolverExactnessTest
    : public ::testing::TestWithParam<Splitting> {};

TEST_P(AbstractSolverExactnessTest, PointInputMatchesConcreteSolver) {
  // For a degenerate input region the abstract trajectory must equal the
  // concrete one (ReLU is never unstable on points).
  Rng R(40);
  MonDeq Model = MonDeq::randomFc(R, 4, 7, 2, 15.0);
  Vector X(4, 0.4);
  CHZonotope XAbs = CHZonotope::fromBox(X, X);

  double Alpha = 0.08;
  AbstractSolver Abs(Model, GetParam(), Alpha, XAbs);
  FixpointSolver Conc(Model, GetParam(), Alpha);

  CHZonotope S = Abs.initialState(Vector(7, 0.0));
  Vector Z(7, 0.0), U(7, 0.0);
  for (int It = 0; It < 15; ++It) {
    S = Abs.step(S);
    if (GetParam() == Splitting::ForwardBackward) {
      Z = Conc.fbStep(X, Z);
    } else {
      auto [NZ, NU] = Conc.prStep(X, Z, U);
      Z = NZ;
      U = NU;
    }
    CHZonotope ZAbs = Abs.zPart(S);
    EXPECT_LT((ZAbs.center() - Z).normInf(), 1e-9) << "iteration " << It;
    EXPECT_LT(ZAbs.concretizationRadius().normInf(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, AbstractSolverExactnessTest,
                         ::testing::Values(Splitting::ForwardBackward,
                                           Splitting::PeacemanRachford));

bool sameBytes(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

bool sameBytes(const Matrix &A, const Matrix &B) {
  return A.rows() == B.rows() && A.cols() == B.cols() &&
         (A.rows() * A.cols() == 0 ||
          std::memcmp(A.rowData(0), B.rowData(0),
                      A.rows() * A.cols() * sizeof(double)) == 0);
}

/// Sets the error-term id counter so the next fresh id is \p Next.
void rewindErrorTermIds(uint64_t Next) { setErrorTermIdMark(Next - 1); }

TEST(AbstractSolverTest, PrStepMatchesExplicitStackedMap) {
  // The PR step keeps only u_next's p rows and stacks them; the reference
  // applies Eq. 9's full 2p x 2p map [2T, -T; 2T, -T] to the stacked
  // state. Every step must agree bit for bit — centre, generators, ids
  // (fresh ones included) and box — on CH-Zonotope and Zonotope states,
  // at lambda scales 1 and 1.1, and on the Box domain.
  Rng R(44);
  const size_t Q = 4, P = 7;
  MonDeq Model = MonDeq::randomFc(R, Q, P, 2, 15.0);
  const double Alpha = 0.15;
  Vector Lo(Q, 0.35), Hi(Q, 0.45);
  Lo[2] = Hi[2] = 0.4; // A degenerate input dimension.
  const CHZonotope X = CHZonotope::fromBox(Lo, Hi);
  AbstractSolver Abs(Model, Splitting::PeacemanRachford, Alpha, X);
  ASSERT_EQ(Abs.stateDim(), 2 * P);

  Matrix M = Matrix::identity(P) +
             Alpha * (Matrix::identity(P) - Model.weightW());
  Matrix MInv = LuDecomposition(M).inverse();
  Matrix T = 2.0 * MInv - Matrix::identity(P);
  Matrix InputHalf = (2.0 * Alpha) * (MInv * Model.weightU());
  Vector OffsetHalf = (2.0 * Alpha) * (MInv * Model.biasZ());
  Matrix Full(2 * P, 2 * P), Input(2 * P, Q);
  Vector Offset(2 * P);
  for (size_t I = 0; I < 2 * P; ++I) {
    for (size_t J = 0; J < P; ++J) {
      Full(I, J) = 2.0 * T(I % P, J);
      Full(I, P + J) = -T(I % P, J);
    }
    for (size_t J = 0; J < Q; ++J)
      Input(I, J) = InputHalf(I % P, J);
    Offset[I] = OffsetHalf[I % P];
  }
  const CHZonotope InputContrib = X.affine(Input, Vector(2 * P, 0.0));
  const IntervalVector InputContribIv =
      X.intervalHull().affine(Input, Vector(2 * P, 0.0));
  const Vector ZStar =
      FixpointSolver(Model, Splitting::PeacemanRachford).solve(Lo).Z;

  for (bool AbsorbBox : {true, false})
    for (double LambdaScale : {1.0, 1.1}) {
      CHZonotope S = Abs.initialState(ZStar);
      for (int Step = 0; Step < 8; ++Step) {
        const uint64_t Next = freshErrorTermId() + 1;
        CHZonotope Got = Abs.step(S, LambdaScale, AbsorbBox);
        rewindErrorTermIds(Next);
        std::pair<const Matrix *, const CHZonotope *> Terms[] = {
            {&Full, &S}, {nullptr, &InputContrib}};
        CHZonotope Want =
            CHZonotope::linearCombine(Terms, Offset,
                                      BoxPolicy::CastToGenerators,
                                      kernels::DensityHint::Dense)
                .reluPrefix(P, Vector(), AbsorbBox, LambdaScale);
        EXPECT_TRUE(sameBytes(Got.center(), Want.center())) << Step;
        EXPECT_TRUE(sameBytes(Got.generators(), Want.generators())) << Step;
        EXPECT_EQ(Got.termIds(), Want.termIds()) << Step;
        EXPECT_TRUE(sameBytes(Got.boxRadius(), Want.boxRadius())) << Step;
        S = std::move(Got);
      }
      EXPECT_GT(S.numGenerators(), 0u);
    }

  IntervalVector S = Abs.initialStateInterval(ZStar);
  for (int Step = 0; Step < 8; ++Step) {
    IntervalVector Got = Abs.stepInterval(S);
    IntervalVector Want =
        (S.affine(Full, Offset) + InputContribIv).reluPrefix(P);
    EXPECT_TRUE(sameBytes(Got.center(), Want.center())) << Step;
    EXPECT_TRUE(sameBytes(Got.radius(), Want.radius())) << Step;
    S = std::move(Got);
  }
}

class AbstractSolverSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(AbstractSolverSoundnessTest, ConcreteTrajectoriesStayInside) {
  // Sound transformer property: for any x in the region, the concrete
  // iterates (from the same s0) lie inside the abstract state bounds.
  Rng R(41 + GetParam());
  MonDeq Model = MonDeq::randomFc(R, 3, 6, 2, 12.0);
  Vector Center(3, 0.5);
  double Eps = 0.05;
  Vector Lo = Center, Hi = Center;
  for (size_t I = 0; I < 3; ++I) {
    Lo[I] -= Eps;
    Hi[I] += Eps;
  }
  CHZonotope XAbs = CHZonotope::fromBox(Lo, Hi);

  Splitting Method = GetParam() % 2 == 0 ? Splitting::ForwardBackward
                                         : Splitting::PeacemanRachford;
  double Alpha = Method == Splitting::ForwardBackward ? 0.05 : 0.15;
  AbstractSolver Abs(Model, Method, Alpha, XAbs);
  FixpointSolver Conc(Model, Method, Alpha);

  Vector ZStar = FixpointSolver(Model, Splitting::PeacemanRachford)
                     .solve(Center)
                     .Z;
  CHZonotope S = Abs.initialState(ZStar);

  // A few random concrete trajectories.
  const int NumTraj = 5, NumSteps = 12;
  std::vector<Vector> Zs(NumTraj, ZStar), Us(NumTraj, ZStar);
  std::vector<Vector> Xs;
  for (int T = 0; T < NumTraj; ++T) {
    Vector X = Center;
    for (size_t I = 0; I < 3; ++I)
      X[I] += R.uniform(-Eps, Eps);
    Xs.push_back(X);
  }

  for (int Step = 0; Step < NumSteps; ++Step) {
    S = Abs.step(S);
    Vector ZLo = Abs.zPart(S).lowerBounds();
    Vector ZHi = Abs.zPart(S).upperBounds();
    for (int T = 0; T < NumTraj; ++T) {
      if (Method == Splitting::ForwardBackward) {
        Zs[T] = Conc.fbStep(Xs[T], Zs[T]);
      } else {
        auto [NZ, NU] = Conc.prStep(Xs[T], Zs[T], Us[T]);
        Zs[T] = NZ;
        Us[T] = NU;
      }
      for (size_t I = 0; I < 6; ++I) {
        EXPECT_GE(Zs[T][I], ZLo[I] - 1e-9);
        EXPECT_LE(Zs[T][I], ZHi[I] + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbstractSolverSoundnessTest,
                         ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Concrete solver: continuing an earlier solve
//===----------------------------------------------------------------------===//

bool bitEqual(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

void expectSameResult(const FixpointResult &A, const FixpointResult &B) {
  EXPECT_EQ(A.Iterations, B.Iterations);
  EXPECT_EQ(A.Converged, B.Converged);
  EXPECT_EQ(0, std::memcmp(&A.Residual, &B.Residual, sizeof(double)));
  EXPECT_TRUE(bitEqual(A.Z, B.Z));
  EXPECT_TRUE(bitEqual(A.U, B.U));
  EXPECT_TRUE(bitEqual(A.InputProduct, B.InputProduct));
}

class SolveContinuationTest : public ::testing::TestWithParam<Splitting> {
protected:
  MonDeq Model = [] {
    Rng R(45);
    return MonDeq::randomFc(R, 4, 7, 2, 15.0);
  }();
  FixpointSolver Solver{Model, GetParam()};
  Vector X{0.3, 0.8, 0.1, 0.5};
};

TEST_P(SolveContinuationTest, FromConvergedLooserSolve) {
  FixpointResult Res = Solver.solve(X, 1e-6, 2000);
  ASSERT_TRUE(Res.Converged);
  ASSERT_GE(Res.Residual, 1e-11) << "fixture must need more iterations";
  Solver.solve(X, Res, 1e-11, 2000);
  expectSameResult(Res, Solver.solve(X, 1e-11, 2000));
}

TEST_P(SolveContinuationTest, FromIterationCappedSolve) {
  FixpointResult Res = Solver.solve(X, 1e-11, 4);
  ASSERT_FALSE(Res.Converged);
  ASSERT_EQ(Res.Iterations, 4);
  Solver.solve(X, Res, 1e-11, 2000);
  FixpointResult Fresh = Solver.solve(X, 1e-11, 2000);
  ASSERT_TRUE(Fresh.Converged);
  expectSameResult(Res, Fresh);
}

TEST_P(SolveContinuationTest, LastResidualAlreadyMeetsTighterTolerance) {
  const double Loose = 1e-6;
  FixpointResult Res = Solver.solve(X, Loose, 2000);
  ASSERT_TRUE(Res.Converged);
  // Strictly between the last residual and the looser tolerance: a
  // from-zero run at it stops at the very same iterate.
  const double Tight = 0.5 * (Res.Residual + Loose);
  const FixpointResult Before = Res;
  Solver.solve(X, Res, Tight, 2000);
  expectSameResult(Res, Before);
  expectSameResult(Res, Solver.solve(X, Tight, 2000));
}

TEST_P(SolveContinuationTest, ReusesTheCarriedInputProduct) {
  // The continuation computes no second U x, and what it carries is
  // bitwise the product gemv forms with U itself.
  const telemetry::Counter Products =
      telemetry::counterMetric("concrete.input_products");
  uint64_t Before = Products.value();
  FixpointResult Res = Solver.solve(X, 1e-6, 2000);
  EXPECT_EQ(Products.value() - Before, 1u);
  ASSERT_TRUE(Res.Converged);
  ASSERT_GE(Res.Residual, 1e-11) << "fixture must need more iterations";
  EXPECT_TRUE(bitEqual(Res.InputProduct, Model.weightU() * X));
  Before = Products.value();
  Solver.solve(X, Res, 1e-11, 2000);
  EXPECT_EQ(Products.value() - Before, 0u);
  expectSameResult(Res, Solver.solve(X, 1e-11, 2000));
}

INSTANTIATE_TEST_SUITE_P(Methods, SolveContinuationTest,
                         ::testing::Values(Splitting::ForwardBackward,
                                           Splitting::PeacemanRachford));

//===----------------------------------------------------------------------===//
// Running example end-to-end (Section 2)
//===----------------------------------------------------------------------===//

TEST(RunningExampleTest, CraftCertifiesTheOverviewProperty) {
  // X = 0.05-ball around (0.2, 0.5); Craft must certify class 1 (y > 0).
  MonDeq Model = runningExample();
  CraftConfig Config;
  Config.Alpha1 = 0.1;
  Config.InputClampLo = -1.0;
  Config.InputClampHi = 1.0;
  CraftVerifier Verifier(Model, Config);
  CraftResult Res = Verifier.verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);
  EXPECT_TRUE(Res.Containment);
  EXPECT_TRUE(Res.Certified) << "best margin " << Res.BestMargin;

  // The certified fixpoint hull contains the center fixpoint
  // s* ~ (0.1231, 0.0846).
  EXPECT_LE(Res.FixpointHull.lowerBounds()[0], 0.1231);
  EXPECT_GE(Res.FixpointHull.upperBounds()[0], 0.1231);
  EXPECT_LE(Res.FixpointHull.lowerBounds()[1], 0.0846);
  EXPECT_GE(Res.FixpointHull.upperBounds()[1], 0.0846);
}

TEST(RunningExampleTest, KleeneFailsWhereCraftSucceeds) {
  // Kleene's post-fixpoint covers all iteration states after the unrolled
  // prefix, so the output interval contains 0 and the property cannot be
  // certified (Fig. 2c).
  MonDeq Model = runningExample();
  KleeneConfig Config;
  Config.Alpha = 0.1;
  Config.InputClampLo = -1.0;
  Config.InputClampHi = 1.0;
  KleeneVerifier Kleene(Model, Config);
  KleeneResult Res = Kleene.verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);
  ASSERT_TRUE(Res.Converged);
  EXPECT_FALSE(Res.Certified);
  EXPECT_LT(Res.BestMargin, 0.0);
  // With semantic unrolling k = 2 the accumulator starts at the second
  // iterate (paper: "the second state S2 is included in the post-fixpoint"):
  // s2 = (0.102, 0.052) must lie in the hull.
  EXPECT_LE(Res.FixpointHull.lowerBounds()[0], 0.102);
  EXPECT_GE(Res.FixpointHull.upperBounds()[0], 0.102);
  EXPECT_LE(Res.FixpointHull.lowerBounds()[1], 0.052);
  EXPECT_GE(Res.FixpointHull.upperBounds()[1], 0.052);
}

TEST(RunningExampleTest, CraftHullTighterThanKleene) {
  MonDeq Model = runningExample();
  CraftConfig CConfig;
  CConfig.Alpha1 = 0.1;
  CConfig.InputClampLo = -1.0;
  CConfig.InputClampHi = 1.0;
  CraftResult Craft = CraftVerifier(Model, CConfig)
                          .verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);
  KleeneConfig KConfig;
  KConfig.Alpha = 0.1;
  KConfig.InputClampLo = -1.0;
  KConfig.InputClampHi = 1.0;
  KleeneResult Kleene = KleeneVerifier(Model, KConfig)
                            .verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);
  ASSERT_TRUE(Craft.Containment && Kleene.Converged);
  EXPECT_LT(Craft.FixpointHull.meanWidth(), Kleene.FixpointHull.meanWidth());
}

//===----------------------------------------------------------------------===//
// Craft verifier on trained models
//===----------------------------------------------------------------------===//

TEST(CraftVerifierTest, CertifiedSamplesAreActuallyRobust) {
  // Soundness spot check: sample points inside certified balls and confirm
  // the classification never changes.
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(42);
  Dataset Test = makeGaussianMixture(R, 30, 5, 3, 0.18);

  CraftConfig Config;
  Config.Alpha1 = 0.05;
  CraftVerifier Verifier(Model, Config);

  int Certified = 0;
  for (size_t I = 0; I < Test.size() && Certified < 5; ++I) {
    int Label = Solver.predict(Test.input(I));
    CraftResult Res = Verifier.verifyRobustness(Test.input(I), Label, 0.02);
    if (!Res.Certified)
      continue;
    ++Certified;
    for (int Trial = 0; Trial < 30; ++Trial) {
      Vector X = Test.input(I);
      for (size_t J = 0; J < 5; ++J)
        X[J] = std::clamp(X[J] + R.uniform(-0.02, 0.02), 0.0, 1.0);
      EXPECT_EQ(Solver.predict(X), Label);
    }
  }
  EXPECT_GE(Certified, 3) << "verifier should certify small balls";
}

TEST(CraftVerifierTest, FixpointHullContainsSampledFixpoints) {
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(43);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);

  CraftConfig Config;
  Config.Alpha1 = 0.05;
  CraftVerifier Verifier(Model, Config);

  Vector Center = Test.input(0);
  int Label = Solver.predict(Center);
  double Eps = 0.03;
  CraftResult Res = Verifier.verifyRobustness(Center, Label, Eps);
  ASSERT_TRUE(Res.Containment);

  for (int Trial = 0; Trial < 25; ++Trial) {
    Vector X = Center;
    for (size_t J = 0; J < 5; ++J)
      X[J] = std::clamp(X[J] + R.uniform(-Eps, Eps), 0.0, 1.0);
    Vector ZStar = Solver.solve(X, 1e-11, 3000).Z;
    for (size_t J = 0; J < ZStar.size(); ++J) {
      EXPECT_GE(ZStar[J], Res.FixpointHull.lowerBounds()[J] - 1e-7);
      EXPECT_LE(ZStar[J], Res.FixpointHull.upperBounds()[J] + 1e-7);
    }
  }
}

TEST(CraftVerifierTest, LargerEpsilonIsHarder) {
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(44);
  Dataset Test = makeGaussianMixture(R, 8, 5, 3, 0.18);
  CraftConfig Config;
  Config.Alpha1 = 0.05;
  CraftVerifier Verifier(Model, Config);

  // Margins shrink monotonically-ish with epsilon; a certified small ball
  // may become uncertifiable but never the reverse.
  Vector X = Test.input(1);
  int Label = Solver.predict(X);
  CraftResult Small = Verifier.verifyRobustness(X, Label, 0.005);
  CraftResult Large = Verifier.verifyRobustness(X, Label, 0.1);
  if (Large.Certified) {
    EXPECT_TRUE(Small.Certified);
  }
  if (Small.Containment && Large.Containment) {
    EXPECT_GE(Small.BestMargin, Large.BestMargin - 1e-6);
  }
}

TEST(CraftVerifierTest, BoxDomainFindsContainmentButIsImprecise) {
  // "No Zono component" (Table 4): Box converges but certifies nothing at
  // the epsilon where CH-Zonotope succeeds.
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(45);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);

  CraftConfig BoxConfig;
  BoxConfig.Domain = VerifierDomain::Box;
  BoxConfig.Alpha1 = 0.05;
  CraftVerifier BoxVerifier(Model, BoxConfig);
  CraftConfig ChConfig;
  ChConfig.Alpha1 = 0.05;
  CraftVerifier ChVerifier(Model, ChConfig);

  int ChCert = 0, BoxCert = 0, BoxContained = 0;
  double ChMargins = 0.0, BoxMargins = 0.0;
  for (size_t I = 0; I < 6; ++I) {
    int Label = Solver.predict(Test.input(I));
    CraftResult Ch = ChVerifier.verifyRobustness(Test.input(I), Label, 0.06);
    CraftResult Box = BoxVerifier.verifyRobustness(Test.input(I), Label,
                                                   0.06);
    ChCert += Ch.Certified;
    BoxCert += Box.Certified;
    BoxContained += Box.Containment;
    if (Ch.Containment && Box.Containment) {
      ChMargins += Ch.BestMargin;
      BoxMargins += Box.BestMargin;
      // CH-Zonotope is at least as precise per sample.
      EXPECT_GE(Ch.BestMargin, Box.BestMargin - 1e-9);
    }
  }
  EXPECT_GE(ChCert, BoxCert);
  EXPECT_GT(ChMargins, BoxMargins) << "CH-Zonotope must be strictly tighter";
  EXPECT_GT(BoxContained, 0);
}

TEST(CraftVerifierTest, NoExpansionHurtsContainment) {
  // Table 4 "No Expansion": without Eq. 10 expansion containment detection
  // degrades (50% of samples in the paper). We check it never helps.
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Rng R(46);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);

  CraftConfig On, Off;
  On.Alpha1 = Off.Alpha1 = 0.05;
  Off.Expansion = ExpansionSchedule::None;
  CraftVerifier VOn(Model, On), VOff(Model, Off);
  int ContOn = 0, ContOff = 0;
  for (size_t I = 0; I < 6; ++I) {
    int Label = Solver.predict(Test.input(I));
    ContOn += VOn.verifyRobustness(Test.input(I), Label, 0.02).Containment;
    ContOff += VOff.verifyRobustness(Test.input(I), Label, 0.02).Containment;
  }
  EXPECT_GE(ContOn, ContOff);
  EXPECT_GT(ContOn, 0);
}

//===----------------------------------------------------------------------===//
// Lipschitz certification
//===----------------------------------------------------------------------===//

TEST(LipschitzTest, CertifiesTinyBallsOnly) {
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  LipschitzCertifier Lip(Model);
  EXPECT_GT(Lip.latentLipschitz2(), 0.0);

  Rng R(47);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);
  Vector X = Test.input(0);
  int Label = Solver.predict(X);
  double Radius = Lip.certifiedRadius(X, Label);
  EXPECT_GT(Radius, 0.0);
  EXPECT_TRUE(Lip.certify(X, Label, Radius * 0.99));
  EXPECT_FALSE(Lip.certify(X, Label, Radius * 1.01));

  // A misclassified-style query (wrong target) certifies nothing.
  EXPECT_EQ(Lip.certifiedRadius(X, (Label + 1) % 3), 0.0);
}

TEST(LipschitzTest, CertificateIsSound) {
  // Soundness of the Lipschitz certificate: sampled perturbations inside a
  // certified ball never change the prediction. (The paper's precision gap
  // vs Craft is a high-input-dimension effect -- the sqrt(q) conversion --
  // and is reproduced at paper scale by bench_table3_baselines.)
  const MonDeq &Model = gmmModel();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  LipschitzCertifier Lip(Model);
  Rng R(48);
  Dataset Test = makeGaussianMixture(R, 10, 5, 3, 0.18);
  for (size_t I = 0; I < 5; ++I) {
    Vector X = Test.input(I);
    int Label = Solver.predict(X);
    double Radius = Lip.certifiedRadius(X, Label);
    if (Radius <= 0.0)
      continue;
    for (int Trial = 0; Trial < 20; ++Trial) {
      Vector Pert = X;
      for (size_t J = 0; J < 5; ++J)
        Pert[J] += R.uniform(-0.95 * Radius, 0.95 * Radius);
      EXPECT_EQ(Solver.predict(Pert), Label);
    }
  }
}

//===----------------------------------------------------------------------===//
// Domain splitting
//===----------------------------------------------------------------------===//

TEST(DomainSplittingTest, CertifiesMostOfTheGmmSpace) {
  const MonDeq &Model = gmmModel();
  CraftConfig Config;
  Config.Alpha1 = 0.05;
  Config.LambdaOptLevel = 0; // Speed: many small regions.
  // Depth 13 in 5-d splits each dimension ~2.6 times; deep enough for the
  // within-cluster bulk to certify while boundary shells stay uncertified.
  SplitOptions Opts;
  Opts.MaxDepth = 13;
  SplitResult Res =
      runSplitEngine(Model, Config, Vector(5, 0.3), Vector(5, 0.7), Opts);
  EXPECT_GT(Res.CertifiedFraction, 0.3);
  EXPECT_GT(Res.NumCertified, 0u);
  // Region volumes partition the query box.
  double Total = 0.0;
  for (const SplitRegion &Region : Res.Regions) {
    double V = 1.0;
    for (size_t I = 0; I < 5; ++I)
      V *= Region.Hi[I] - Region.Lo[I];
    Total += V;
  }
  EXPECT_NEAR(Total, std::pow(0.4, 5), 1e-9);
}

//===----------------------------------------------------------------------===//
// Householder case study (Section 6.5, Table 5, App. A)
//===----------------------------------------------------------------------===//

TEST(AffineFormTest, ArithmeticBounds) {
  AffineForm X = AffineForm::range(2.0, 4.0);
  EXPECT_DOUBLE_EQ(X.lo(), 2.0);
  EXPECT_DOUBLE_EQ(X.hi(), 4.0);
  AffineForm Y = X * 2.0 + 1.0;
  EXPECT_DOUBLE_EQ(Y.lo(), 5.0);
  EXPECT_DOUBLE_EQ(Y.hi(), 9.0);
  // x - x is exactly zero thanks to shared symbols.
  AffineForm Zero = X - X;
  EXPECT_DOUBLE_EQ(Zero.lo(), 0.0);
  EXPECT_DOUBLE_EQ(Zero.hi(), 0.0);
}

TEST(AffineFormTest, ProductSoundAndSquareTighter) {
  Rng R(49);
  for (int Case = 0; Case < 20; ++Case) {
    double Lo = R.uniform(-2.0, 1.0), Hi = Lo + R.uniform(0.1, 2.0);
    AffineForm X = AffineForm::range(Lo, Hi);
    AffineForm Prod = X * X;
    AffineForm Sq = X.square();
    for (int S = 0; S <= 10; ++S) {
      double V = Lo + (Hi - Lo) * S / 10.0;
      EXPECT_LE(V * V, Prod.hi() + 1e-12);
      EXPECT_GE(V * V, Prod.lo() - 1e-12);
      EXPECT_LE(V * V, Sq.hi() + 1e-12);
      EXPECT_GE(V * V, Sq.lo() - 1e-12);
    }
    EXPECT_LE(Sq.width(), Prod.width() + 1e-12);
  }
}

TEST(AffineFormTest, JoinSound) {
  AffineForm A = AffineForm::range(0.0, 1.0);
  AffineForm B = A * 0.5 + 2.0; // Shares A's symbol.
  AffineForm J = AffineForm::join(A, B);
  EXPECT_TRUE(J.contains(A, 1e-12));
  EXPECT_TRUE(J.contains(B, 1e-12));
}

TEST(HouseholderTest, ConcreteConvergesToSqrt) {
  for (double X : {16.0, 18.0, 20.0, 25.0}) {
    double S = householderSqrtConcrete(X);
    EXPECT_NEAR(1.0 / S, std::sqrt(X), 1e-3);
  }
}

TEST(HouseholderTest, CraftMatchesTable5Shape) {
  // X = [16, 20]: exact root interval [4, 4.472]; Craft must converge to a
  // sound, slightly wider interval (paper: [3.983, 4.493]).
  SqrtAnalysis Res = analyzeSqrtCraft(16.0, 20.0);
  ASSERT_TRUE(Res.Converged);
  ASSERT_FALSE(Res.RootInterval.Diverged);
  SqrtInterval Exact = exactSqrtInterval(16.0, 20.0);
  EXPECT_LE(Res.RootInterval.Lo, Exact.Lo + 1e-9);
  EXPECT_GE(Res.RootInterval.Hi, Exact.Hi - 1e-9);
  // Shape: within ~0.3 of exact on both ends.
  EXPECT_GT(Res.RootInterval.Lo, Exact.Lo - 0.3);
  EXPECT_LT(Res.RootInterval.Hi, Exact.Hi + 0.3);
}

TEST(HouseholderTest, CraftHandlesWideInputWhereKleeneDiverges) {
  // X = [16, 25] (Table 5): Craft computes a precise abstraction; Kleene
  // diverges.
  SqrtAnalysis Craft = analyzeSqrtCraft(16.0, 25.0);
  ASSERT_TRUE(Craft.Converged);
  SqrtInterval Exact = exactSqrtInterval(16.0, 25.0);
  EXPECT_LE(Craft.RootInterval.Lo, Exact.Lo + 1e-9);
  EXPECT_GE(Craft.RootInterval.Hi, Exact.Hi - 1e-9);
  EXPECT_GT(Craft.RootInterval.Lo, Exact.Lo - 0.5);
  EXPECT_LT(Craft.RootInterval.Hi, Exact.Hi + 0.5);

  SqrtAnalysis Kleene = analyzeSqrtKleene(16.0, 25.0);
  EXPECT_TRUE(Kleene.RootInterval.Diverged || !Kleene.Converged);
}

TEST(HouseholderTest, KleeneConvergesButLooserOnNarrowInput) {
  SqrtAnalysis Craft = analyzeSqrtCraft(16.0, 20.0);
  SqrtAnalysis Kleene = analyzeSqrtKleene(16.0, 20.0);
  ASSERT_TRUE(Craft.Converged);
  if (!Kleene.Converged || Kleene.RootInterval.Diverged)
    GTEST_SKIP() << "Kleene did not converge on the narrow input";
  double CraftWidth = Craft.RootInterval.Hi - Craft.RootInterval.Lo;
  double KleeneWidth = Kleene.RootInterval.Hi - Kleene.RootInterval.Lo;
  EXPECT_LT(CraftWidth, KleeneWidth);
  // Kleene's result contains the loop's early iterates, so it reaches
  // further down than Craft's fixpoint interval (paper: 3.738 vs 3.983).
  EXPECT_LE(Kleene.RootInterval.Lo, Craft.RootInterval.Lo + 1e-9);
}

TEST(HouseholderTest, ReachableVariantContainsFixpointVariant) {
  SqrtOptions Fix, Reach;
  Reach.Reachable = true;
  SqrtAnalysis F = analyzeSqrtCraft(16.0, 20.0, Fix);
  SqrtAnalysis Rch = analyzeSqrtCraft(16.0, 20.0, Reach);
  ASSERT_TRUE(F.Converged && Rch.Converged);
  EXPECT_LE(Rch.SInterval.Lo, F.SInterval.Lo);
  EXPECT_GE(Rch.SInterval.Hi, F.SInterval.Hi);
  // And the expansion is tiny (sqrt(1e-8) = 1e-4 on s).
  EXPECT_NEAR(Rch.SInterval.Hi - F.SInterval.Hi, 1e-4, 1e-6);
}

TEST(HouseholderTest, ConcreteResultsInsideCraftAbstraction) {
  // Property: concrete sqrt results for sampled x lie inside the abstract
  // root interval (both fixpoint and reachable variants).
  SqrtOptions Opts;
  Opts.Reachable = true;
  SqrtAnalysis Res = analyzeSqrtCraft(16.0, 25.0, Opts);
  ASSERT_TRUE(Res.Converged);
  Rng R(50);
  for (int Trial = 0; Trial < 50; ++Trial) {
    double X = R.uniform(16.0, 25.0);
    double S = householderSqrtConcrete(X);
    EXPECT_GE(1.0 / S, Res.RootInterval.Lo - 1e-9);
    EXPECT_LE(1.0 / S, Res.RootInterval.Hi + 1e-9);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Branch-and-bound local robustness (splitting fallback)
//===----------------------------------------------------------------------===//

namespace {

/// Trained GMM fixture shared by the BnB tests.
struct BnBFixture {
  MonDeq Model;
  Vector Sample;
  int SampleClass = -1;
};

BnBFixture &bnbFixture() {
  static BnBFixture *F = [] {
    auto *Out = new BnBFixture;
    Rng DataRng(91);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Rng InitRng(92);
    Out->Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Out->Model, Train, Opts);
    FixpointSolver Solver(Out->Model, Splitting::PeacemanRachford);
    for (size_t I = 0; I < Train.size(); ++I)
      if (Solver.predict(Train.input(I)) == Train.Labels[I]) {
        Out->Sample = Train.input(I);
        Out->SampleClass = Train.Labels[I];
        break;
      }
    return Out;
  }();
  return *F;
}

craft::CraftConfig bnbConfig() {
  craft::CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  Cfg.LambdaOptLevel = 0;
  return Cfg;
}

/// Refutation-mode split of [Lo, Hi] against the fixture's sample class.
craft::SplitResult bnb(const BnBFixture &Fix, const Vector &Lo,
                       const Vector &Hi, int MaxDepth) {
  craft::SplitOptions Opts;
  Opts.MaxDepth = MaxDepth;
  Opts.TargetClass = Fix.SampleClass;
  return craft::runSplitEngine(Fix.Model, bnbConfig(), Lo, Hi, Opts);
}

} // namespace

TEST(BranchAndBoundTest, CertifiesWhatPlainCraftCertifies) {
  BnBFixture &Fix = bnbFixture();
  ASSERT_GE(Fix.SampleClass, 0);
  Vector Lo = Fix.Sample, Hi = Fix.Sample;
  for (size_t I = 0; I < Lo.size(); ++I) {
    Lo[I] = std::max(Lo[I] - 0.005, 0.0);
    Hi[I] = std::min(Hi[I] + 0.005, 1.0);
  }
  CraftVerifier Plain(Fix.Model, bnbConfig());
  if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
    GTEST_SKIP() << "fixture sample not plainly certifiable";
  SplitResult Res = bnb(Fix, Lo, Hi, /*MaxDepth=*/2);
  EXPECT_TRUE(Res.Certified);
  EXPECT_FALSE(Res.Refuted);
  EXPECT_EQ(Res.NumVerifierCalls, 1u) << "no split should be needed";
}

TEST(BranchAndBoundTest, SplittingExtendsTheCertifiedRadius) {
  // Find a radius plain Craft cannot certify, then show splitting can
  // (or at least certifies a strictly positive volume fraction).
  BnBFixture &Fix = bnbFixture();
  CraftVerifier Plain(Fix.Model, bnbConfig());
  double Eps = 0.02;
  while (Eps < 0.5) {
    Vector Lo = Fix.Sample, Hi = Fix.Sample;
    for (size_t I = 0; I < Lo.size(); ++I) {
      Lo[I] = std::max(Lo[I] - Eps, 0.0);
      Hi[I] = std::min(Hi[I] + Eps, 1.0);
    }
    if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified) {
      SplitResult Res = bnb(Fix, Lo, Hi, /*MaxDepth=*/6);
      if (Res.Refuted) {
        // Definitive: the property is genuinely false at this radius.
        FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
        EXPECT_NE(Solver.predict(Res.Counterexample), Fix.SampleClass);
        return;
      }
      EXPECT_GT(Res.CertifiedFraction, 0.0);
      EXPECT_GT(Res.NumVerifierCalls, 1u);
      return;
    }
    Eps *= 1.5;
  }
  GTEST_SKIP() << "plain Craft certified every radius probed";
}

TEST(BranchAndBoundTest, RefutesWithValidCounterexample) {
  // A huge ball around any sample crosses a decision boundary of a
  // 3-class model; BnB must find a concrete counterexample.
  BnBFixture &Fix = bnbFixture();
  Vector Lo(Fix.Sample.size(), 0.0), Hi(Fix.Sample.size(), 1.0);
  SplitResult Res = bnb(Fix, Lo, Hi, /*MaxDepth=*/8);
  ASSERT_TRUE(Res.Refuted);
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  EXPECT_NE(Solver.predict(Res.Counterexample), Fix.SampleClass);
  EXPECT_FALSE(Res.Certified);
}

TEST(BranchAndBoundTest, DeeperBudgetsCertifyNoLessVolume) {
  BnBFixture &Fix = bnbFixture();
  Vector Lo = Fix.Sample, Hi = Fix.Sample;
  for (size_t I = 0; I < Lo.size(); ++I) {
    Lo[I] = std::max(Lo[I] - 0.03, 0.0);
    Hi[I] = std::min(Hi[I] + 0.03, 1.0);
  }
  SplitResult Shallow = bnb(Fix, Lo, Hi, /*MaxDepth=*/1);
  SplitResult Deep = bnb(Fix, Lo, Hi, /*MaxDepth=*/4);
  if (Shallow.Refuted || Deep.Refuted) {
    // The radius crosses the decision boundary on this seed: the
    // counterexample must be genuine, which is itself the guarantee.
    const SplitResult &R = Shallow.Refuted ? Shallow : Deep;
    FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
    EXPECT_NE(Solver.predict(R.Counterexample), Fix.SampleClass);
    return;
  }
  EXPECT_GE(Deep.CertifiedFraction, Shallow.CertifiedFraction - 1e-12);
}
