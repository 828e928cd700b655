//===- tests/test_nn.cpp - monDEQ substrate tests -------------------------===//
//
// Tests for the monDEQ model, concrete FB/PR solvers (including the paper's
// running example of Section 2), implicit-differentiation gradients, and
// training.
//
//===----------------------------------------------------------------------===//

#include "data/GaussianMixture.h"
#include "linalg/Eig.h"
#include "nn/ModelZoo.h"
#include "nn/Solvers.h"
#include "nn/Training.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace craft;

namespace {

/// The paper's running example (Eq. 1 / Section 5.1):
/// m = 4, W = [[-4, -1], [1, -4]], U = [[1, 1], [-1, 1]], V = (1, -1).
MonDeq runningExample() {
  Matrix W = {{-4.0, -1.0}, {1.0, -4.0}};
  Matrix U = {{1.0, 1.0}, {-1.0, 1.0}};
  // The paper's classifier is the scalar score y = s1 - s2 with class 1 iff
  // y > 0; encode it as two logits (0, y) so margin machinery applies.
  Matrix V = {{0.0, 0.0}, {1.0, -1.0}};
  return MonDeq::fromW(4.0, W, U, Vector(2, 0.0), V, Vector(2, 0.0));
}

TEST(MonDeqTest, ParametrizationIsMonotone) {
  // I - W = m I + P^T P - Q + Q^T has symmetric part m I + P^T P >= m I.
  Rng R(1);
  MonDeq Model = MonDeq::randomFc(R, 6, 8, 3, /*M=*/5.0);
  Matrix ImW = Matrix::identity(8) - Model.weightW();
  Matrix Sym = 0.5 * (ImW + ImW.transpose());
  SymmetricEig E = symmetricEig(Sym);
  EXPECT_GE(E.Values[0], 5.0 - 1e-9);
}

TEST(MonDeqTest, RunningExampleFbStepMatchesPaper) {
  // Section 2: with alpha = 1/10 and x = (0.2, 0.5),
  //   s1 = (0.07, 0.03), s2 = (0.102, 0.052), s* ~ (0.1231, 0.0846).
  MonDeq Model = runningExample();
  FixpointSolver Fb(Model, Splitting::ForwardBackward, 0.1);
  Vector X = {0.2, 0.5};

  Vector S1 = Fb.fbStep(X, Vector(2, 0.0));
  EXPECT_NEAR(S1[0], 0.07, 1e-12);
  EXPECT_NEAR(S1[1], 0.03, 1e-12);

  Vector S2 = Fb.fbStep(X, S1);
  EXPECT_NEAR(S2[0], 0.102, 1e-12);
  EXPECT_NEAR(S2[1], 0.052, 1e-12);

  FixpointResult Fix = Fb.solve(X, 1e-12, 500);
  ASSERT_TRUE(Fix.Converged);
  EXPECT_NEAR(Fix.Z[0], 0.1231, 1e-4);
  EXPECT_NEAR(Fix.Z[1], 0.0846, 1e-4);

  // Score y(s*) = s1 - s2 ~ 0.0385 > 0: class 1 (the second logit).
  Vector Y = Model.output(Fix.Z);
  EXPECT_NEAR(Y[1], 0.0385, 1e-4);
  EXPECT_DOUBLE_EQ(Y[0], 0.0);
}

TEST(MonDeqTest, RunningExampleAlphaBound) {
  // I - W = [[5, 1], [-1, 5]] has (I-W)^T (I-W) = 26 I, so
  // 2m / ||I - W||_2^2 = 8/26 ~ 0.3077. (Section 5.1 prints ~0.1538, which
  // is m/||I-W||_2^2 -- the paper's example alpha = 0.1 satisfies both.)
  MonDeq Model = runningExample();
  EXPECT_NEAR(Model.fbAlphaBound(), 8.0 / 26.0, 1e-9);
}

TEST(MonDeqTest, NaiveIterationDivergesOnRunningExample) {
  // The paper notes that directly iterating f(x, z) diverges for Eq. (1):
  // the iterates oscillate between (0.7, 0.3) and (0, 0) and never
  // converge, while FB splitting reaches the fixpoint (previous test).
  MonDeq Model = runningExample();
  Vector X = {0.2, 0.5};
  Vector Z(2, 0.0);
  double Residual = 0.0;
  for (int I = 0; I < 60; ++I) {
    Vector Next = Model.iterateF(X, Z);
    Residual = (Next - Z).normInf();
    Z = Next;
  }
  EXPECT_GT(Residual, 0.1) << "naive iteration must not converge";
}

TEST(SolverTest, FbAndPrAgreeOnFixpoint) {
  Rng R(2);
  MonDeq Model = MonDeq::randomFc(R, 5, 12, 3, 20.0);
  Vector X(5);
  for (size_t I = 0; I < 5; ++I)
    X[I] = R.uniform();

  FixpointSolver Fb(Model, Splitting::ForwardBackward);
  FixpointSolver Pr(Model, Splitting::PeacemanRachford);
  FixpointResult FbRes = Fb.solve(X, 1e-12, 5000);
  FixpointResult PrRes = Pr.solve(X, 1e-12, 5000);
  ASSERT_TRUE(FbRes.Converged);
  ASSERT_TRUE(PrRes.Converged);
  EXPECT_LT((FbRes.Z - PrRes.Z).normInf(), 1e-8);

  // The fixpoint satisfies z* = f(x, z*).
  Vector FZ = Model.iterateF(X, PrRes.Z);
  EXPECT_LT((FZ - PrRes.Z).normInf(), 1e-8);
}

TEST(SolverTest, PrConvergesFasterThanFb) {
  // Winston & Kolter observe PR contracts faster; check iteration counts.
  Rng R(3);
  MonDeq Model = MonDeq::randomFc(R, 4, 20, 2, 20.0);
  Vector X(4, 0.5);
  FixpointResult FbRes =
      FixpointSolver(Model, Splitting::ForwardBackward).solve(X, 1e-10, 5000);
  FixpointResult PrRes =
      FixpointSolver(Model, Splitting::PeacemanRachford).solve(X, 1e-10, 5000);
  ASSERT_TRUE(FbRes.Converged && PrRes.Converged);
  EXPECT_LT(PrRes.Iterations, FbRes.Iterations);
}

class SolverAlphaTest : public ::testing::TestWithParam<double> {};

TEST_P(SolverAlphaTest, PrConvergesForAnyPositiveAlpha) {
  Rng R(4);
  MonDeq Model = MonDeq::randomFc(R, 3, 10, 2, 10.0);
  Vector X(3, 0.3);
  FixpointSolver Pr(Model, Splitting::PeacemanRachford, GetParam());
  FixpointResult Res = Pr.solve(X, 1e-10, 5000);
  EXPECT_TRUE(Res.Converged) << "alpha " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Alphas, SolverAlphaTest,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0, 2.0, 5.0));

TEST(SolverTest, FixpointIsUnique) {
  // Different solvers/alphas all land on the same z* (uniqueness).
  Rng R(5);
  MonDeq Model = MonDeq::randomFc(R, 4, 8, 2, 20.0);
  Vector X(4, 0.7);
  Vector Ref =
      FixpointSolver(Model, Splitting::PeacemanRachford, 1.0).solve(X).Z;
  for (double Alpha : {0.1, 0.5, 2.0}) {
    Vector Z =
        FixpointSolver(Model, Splitting::PeacemanRachford, Alpha).solve(X).Z;
    EXPECT_LT((Z - Ref).normInf(), 1e-7);
  }
  Vector ZFb = FixpointSolver(Model, Splitting::ForwardBackward)
                   .solve(X, 1e-10, 5000)
                   .Z;
  EXPECT_LT((ZFb - Ref).normInf(), 1e-7);
}

TEST(SerializationTest, SaveLoadRoundTrip) {
  Rng R(6);
  MonDeq Model = MonDeq::randomFc(R, 5, 7, 3, 20.0);
  std::string Path = ::testing::TempDir() + "/mondeq_roundtrip.bin";
  ASSERT_TRUE(Model.save(Path));
  std::optional<MonDeq> Loaded = MonDeq::load(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_LT((Model.weightW() - Loaded->weightW()).maxAbs(), 1e-15);
  EXPECT_LT((Model.weightU() - Loaded->weightU()).maxAbs(), 1e-15);
  EXPECT_LT((Model.weightV() - Loaded->weightV()).maxAbs(), 1e-15);
  EXPECT_DOUBLE_EQ(Model.monotonicity(), Loaded->monotonicity());
  // Same predictions.
  Vector X(5, 0.4);
  EXPECT_LT((forwardLogits(Model, X) - forwardLogits(*Loaded, X)).normInf(),
            1e-12);
}

TEST(SerializationTest, LoadRejectsGarbage) {
  std::string Path = ::testing::TempDir() + "/mondeq_garbage.bin";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("not a model", F);
  std::fclose(F);
  EXPECT_FALSE(MonDeq::load(Path).has_value());
  EXPECT_FALSE(MonDeq::load("/nonexistent/path.bin").has_value());
}

TEST(ConvTest, ConvLatentSizesMatchPaper) {
  Rng R(7);
  // MNIST ConvSmall: latent 648; CIFAR ConvSmall: latent 800 (Table 2).
  MonDeq MnistConv = MonDeq::randomConv(R, 1, 28, 28, 8, 4, 3, 10);
  EXPECT_EQ(MnistConv.latentDim(), 648u);
  EXPECT_EQ(MnistConv.inputDim(), 784u);
  MonDeq CifarConv = MonDeq::randomConv(R, 3, 32, 32, 8, 4, 3, 10);
  EXPECT_EQ(CifarConv.latentDim(), 800u);
  EXPECT_EQ(CifarConv.inputDim(), 3072u);
}

TEST(ConvTest, ConvInputMapHasLocalSparsity) {
  Rng R(8);
  MonDeq Conv = MonDeq::randomConv(R, 1, 12, 12, 2, 3, 3, 4);
  // Each output unit sees exactly kernel^2 input pixels.
  const Matrix &U = Conv.weightU();
  for (size_t Row = 0; Row < U.rows(); ++Row) {
    size_t NonZero = 0;
    for (size_t Col = 0; Col < U.cols(); ++Col)
      if (U(Row, Col) != 0.0)
        ++NonZero;
    EXPECT_EQ(NonZero, 9u);
  }
}

//===----------------------------------------------------------------------===//
// Implicit differentiation
//===----------------------------------------------------------------------===//

TEST(ImplicitGradTest, MatchesFiniteDifferences) {
  Rng R(9);
  MonDeq Model = MonDeq::randomFc(R, 4, 9, 3, 20.0);
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Vector X(4);
  for (size_t I = 0; I < 4; ++I)
    X[I] = R.uniform(0.2, 0.8);
  Vector Coef = {1.0, -1.0, 0.5};

  Vector Grad = inputGradient(Model, Solver, X, Coef);

  const double H = 1e-6;
  for (size_t I = 0; I < 4; ++I) {
    Vector XP = X, XM = X;
    XP[I] += H;
    XM[I] -= H;
    double FP = dot(Coef, Solver.logits(XP, 1e-12));
    double FM = dot(Coef, Solver.logits(XM, 1e-12));
    double Fd = (FP - FM) / (2.0 * H);
    EXPECT_NEAR(Grad[I], Fd, 1e-4) << "dim " << I;
  }
}

TEST(ImplicitGradTest, NeumannApproximatesExact) {
  Rng R(10);
  MonDeq Model = MonDeq::randomFc(R, 4, 9, 3, 20.0);
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Vector X(4, 0.5);
  Vector Coef = {1.0, 0.0, -1.0};
  Vector Exact = inputGradient(Model, Solver, X, Coef, -1);
  Vector Approx = inputGradient(Model, Solver, X, Coef, 40);
  EXPECT_LT((Exact - Approx).normInf(), 1e-6);
}

TEST(ImplicitGradTest, CarriedInputProductMatchesRecomputed) {
  // The gradient at a solve's carried U x (the transposed kernel over
  // U^T) is bitwise the gradient at U x recomputed by gemv over U, and
  // the one the solver-taking overload forms itself.
  Rng R(13);
  MonDeq Model = MonDeq::randomFc(R, 11, 9, 3, 20.0);
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  Vector X(11);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = R.uniform(0.0, 1.0);
  const Vector Coef = {0.5, -1.0, 1.0};
  const FixpointResult Fix =
      Solver.solve(X, InputGradientTol, InputGradientMaxIter);
  const Vector Carried = inputGradient(Model, Fix.Z, Fix.InputProduct, Coef);
  const Vector Recomputed =
      inputGradient(Model, Fix.Z, Model.weightU() * X, Coef);
  const Vector Whole = inputGradient(Model, Solver, X, Coef);
  ASSERT_EQ(Carried.size(), X.size());
  ASSERT_EQ(Recomputed.size(), X.size());
  ASSERT_EQ(Whole.size(), X.size());
  EXPECT_EQ(0, std::memcmp(Carried.data(), Recomputed.data(),
                           X.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Carried.data(), Whole.data(),
                           X.size() * sizeof(double)));
}

TEST(ImplicitGradTest, AdjointReuseMatchesFreshLuBytes) {
  // Masks A, A, B, A (ReLU 0/1), then a non-binary tanh derivative: every
  // solve is bitwise a fresh LU of I - W^T D, and only the repeated A
  // reuses the kept factorization.
  Rng R(12);
  MonDeq Model = MonDeq::randomFc(R, 4, 9, 3, 20.0);
  const Matrix &W = Model.weightW();
  const size_t P = W.rows();
  Vector MaskA(P), MaskB(P), TanhD(P), DeltaZ(P);
  for (size_t I = 0; I < P; ++I) {
    MaskA[I] = I % 3 == 0 ? 0.0 : 1.0;
    MaskB[I] = I % 2 == 0 ? 0.0 : 1.0;
    TanhD[I] = 1.0 - std::pow(std::tanh(R.uniform(-2.0, 2.0)), 2);
    DeltaZ[I] = R.uniform(-1.0, 1.0);
  }

  AdjointSolver Adjoint(W);
  const Vector *Sequence[] = {&MaskA, &MaskA, &MaskB, &MaskA, &TanhD};
  for (const Vector *D : Sequence) {
    Matrix A = Matrix::identity(P);
    for (size_t I = 0; I < P; ++I)
      for (size_t J = 0; J < P; ++J)
        A(I, J) -= W(J, I) * (*D)[J];
    const Vector Want = LuDecomposition(A).solve(DeltaZ);
    const Vector Got = Adjoint.solve(*D, DeltaZ);
    ASSERT_EQ(Got.size(), P);
    EXPECT_EQ(0, std::memcmp(Got.data(), Want.data(), P * sizeof(double)));
  }
  EXPECT_EQ(Adjoint.factorizations(), 4u) << "five solves, one reuse";
}

//===----------------------------------------------------------------------===//
// Training
//===----------------------------------------------------------------------===//

TEST(TrainingTest, LossDecreasesAndSeparatesGmm) {
  Rng R(11);
  Dataset Train = makeGaussianMixture(R, 300, 5, 3, 0.2);
  MonDeq Model = MonDeq::randomFc(R, 5, 6, 3, 20.0);
  TrainOptions Opts;
  Opts.Epochs = 40;
  Opts.LearningRate = 0.02;
  TrainStats Stats = trainMonDeq(Model, Train, Opts);

  EXPECT_LT(Stats.EpochLoss.back(), Stats.EpochLoss.front());
  EXPECT_GT(Stats.FinalTrainAccuracy, 0.85);

  // Generalization to a fresh sample of the same mixture.
  Dataset Test = makeGaussianMixture(R, 200, 5, 3, 0.2);
  EXPECT_GT(evaluateAccuracy(Model, Test), 0.8);
}

TEST(TrainingTest, JacobianFreeAlsoLearns) {
  Rng R(12);
  Dataset Train = makeGaussianMixture(R, 300, 5, 3, 0.2);
  MonDeq Model = MonDeq::randomFc(R, 5, 6, 3, 20.0);
  TrainOptions Opts;
  Opts.Epochs = 40;
  Opts.LearningRate = 0.02;
  Opts.JacobianFree = true;
  TrainStats Stats = trainMonDeq(Model, Train, Opts);
  EXPECT_GT(Stats.FinalTrainAccuracy, 0.8);
}

TEST(TrainingTest, MonotonicityPreservedAcrossTraining) {
  // The (P, Q) parametrization guarantees monotonicity for any weights;
  // training must not break it.
  Rng R(13);
  Dataset Train = makeGaussianMixture(R, 200, 5, 3, 0.3);
  MonDeq Model = MonDeq::randomFc(R, 5, 6, 3, 20.0);
  TrainOptions Opts;
  Opts.Epochs = 10;
  trainMonDeq(Model, Train, Opts);
  Matrix ImW = Matrix::identity(6) - Model.weightW();
  Matrix Sym = 0.5 * (ImW + ImW.transpose());
  EXPECT_GE(symmetricEig(Sym).Values[0], 20.0 - 1e-9);
}

//===----------------------------------------------------------------------===//
// Model zoo
//===----------------------------------------------------------------------===//

TEST(ModelZooTest, SpecsCoverPaperGrid) {
  EXPECT_NE(findModelSpec("mnist_fc40"), nullptr);
  EXPECT_NE(findModelSpec("mnist_fc87"), nullptr);
  EXPECT_NE(findModelSpec("mnist_fc100"), nullptr);
  EXPECT_NE(findModelSpec("mnist_fc200"), nullptr);
  EXPECT_NE(findModelSpec("mnist_conv"), nullptr);
  EXPECT_NE(findModelSpec("cifar_fc200"), nullptr);
  EXPECT_NE(findModelSpec("cifar_conv"), nullptr);
  EXPECT_NE(findModelSpec("hcas_fc100"), nullptr);
  EXPECT_EQ(findModelSpec("nope"), nullptr);
  EXPECT_NEAR(findModelSpec("cifar_fc200")->Epsilon, 2.0 / 255.0, 1e-12);
}

TEST(ModelZooTest, TrainAndTestSetsAreDisjointStreams) {
  const ModelSpec *Spec = findModelSpec("gmm_p2");
  ASSERT_NE(Spec, nullptr);
  Dataset Train = makeTrainSet(*Spec);
  Dataset Test = makeTestSet(*Spec, 50);
  ASSERT_GT(Train.size(), 0u);
  ASSERT_EQ(Test.size(), 50u);
  // Deterministic regeneration.
  Dataset Test2 = makeTestSet(*Spec, 50);
  EXPECT_LT((Test.Inputs - Test2.Inputs).maxAbs(), 1e-15);
  EXPECT_EQ(Test.Labels, Test2.Labels);
  // First inputs differ across the two streams.
  EXPECT_GT((Train.Inputs.row(0) - Test.Inputs.row(0)).normInf(), 1e-6);
}

} // namespace
