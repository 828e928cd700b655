//===- tests/test_domains.cpp - Abstract domain tests ---------------------===//
//
// Unit and property tests for the Interval and CH-Zonotope domains:
// transformer exactness/soundness, consolidation (Thm 4.1), containment
// (Thm 4.2), quasi-join, volume, and the LP containment baseline.
//
//===----------------------------------------------------------------------===//

#include "domains/CHZonotope.h"
#include "domains/Interval.h"
#include "domains/OrderReduction.h"
#include "domains/Volume.h"
#include "domains/ZonotopeContainmentLP.h"
#include "linalg/Kernels.h"
#include "linalg/Lu.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

using namespace craft;

namespace {

Matrix randomMatrix(Rng &R, size_t Rows, size_t Cols, double Scale = 1.0) {
  Matrix M(Rows, Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      M(I, J) = R.gaussian(0.0, Scale);
  return M;
}

Vector randomVector(Rng &R, size_t N, double Scale = 1.0) {
  Vector V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = R.gaussian(0.0, Scale);
  return V;
}

/// Random point of gamma(Z): evaluates center + A nu + diag(b) eta for
/// uniformly sampled nu, eta in [-1,1].
Vector samplePoint(Rng &R, const CHZonotope &Z) {
  Vector Nu(Z.numGenerators());
  for (double &V : Nu)
    V = R.uniform(-1.0, 1.0);
  Vector X = Z.center() + Z.generators() * Nu;
  for (size_t I = 0; I < Z.dim(); ++I)
    X[I] += Z.boxRadius()[I] * R.uniform(-1.0, 1.0);
  return X;
}

/// Random CH-Zonotope with K generators and a (possibly zero) box.
CHZonotope randomZonotope(Rng &R, size_t P, size_t K, bool WithBox) {
  Vector Center = randomVector(R, P, 2.0);
  Matrix Gens = randomMatrix(R, P, K, 0.5);
  std::vector<uint64_t> Ids(K);
  for (auto &Id : Ids)
    Id = freshErrorTermId();
  Vector Box(P, 0.0);
  if (WithBox)
    for (size_t I = 0; I < P; ++I)
      Box[I] = std::fabs(R.gaussian(0.0, 0.3));
  return CHZonotope(Center, Gens, Ids, Box);
}

/// Membership in a box-free zonotope with square invertible generators:
/// x in gamma(Z) iff ||A^{-1}(x - a)||_inf <= 1.
bool insideProper(const CHZonotope &Z, const Matrix &InvGens, const Vector &X,
                  double Tol = 1e-9) {
  Vector Nu = InvGens * (X - Z.center());
  // Any box slack can absorb per-dimension remainder; handle b = 0 exactly
  // and b > 0 conservatively by requiring the generator part alone to fit.
  return Nu.normInf() <= 1.0 + Tol;
}

//===----------------------------------------------------------------------===//
// IntervalVector
//===----------------------------------------------------------------------===//

TEST(IntervalTest, FromBoundsRoundTrip) {
  IntervalVector B = IntervalVector::fromBounds(Vector{-1.0, 2.0},
                                                Vector{3.0, 2.0});
  EXPECT_DOUBLE_EQ(B.lowerBounds()[0], -1.0);
  EXPECT_DOUBLE_EQ(B.upperBounds()[0], 3.0);
  EXPECT_DOUBLE_EQ(B.radius()[1], 0.0);
  EXPECT_DOUBLE_EQ(B.meanWidth(), 2.0);
}

TEST(IntervalTest, AffineIsExactHull) {
  IntervalVector B = IntervalVector::fromBounds(Vector{-1.0, 0.0},
                                                Vector{1.0, 2.0});
  Matrix M = {{1.0, -1.0}, {2.0, 0.0}};
  IntervalVector Y = B.affine(M, Vector{0.5, 0.0});
  // dim0: x0 - x1 + 0.5 in [-3, 1] + 0.5.
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[0], -2.5);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[0], 1.5);
  // dim1: 2 x0 in [-2, 2].
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[1], -2.0);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[1], 2.0);
}

TEST(IntervalTest, ReluPrefix) {
  IntervalVector B = IntervalVector::fromBounds(Vector{-2.0, -3.0, 1.0},
                                                Vector{-1.0, 4.0, 2.0});
  IntervalVector Y = B.reluPrefix(2);
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[0], 0.0);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[0], 0.0);
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[1], 0.0);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[1], 4.0);
  // Dimension 2 is beyond the prefix: untouched.
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[2], 1.0);
}

TEST(IntervalTest, JoinAndContains) {
  IntervalVector A = IntervalVector::fromBounds(Vector{0.0}, Vector{1.0});
  IntervalVector B = IntervalVector::fromBounds(Vector{2.0}, Vector{3.0});
  IntervalVector J = IntervalVector::join(A, B);
  EXPECT_TRUE(J.contains(A));
  EXPECT_TRUE(J.contains(B));
  EXPECT_FALSE(A.contains(J));
}

TEST(IntervalTest, StackAndSlice) {
  IntervalVector A = IntervalVector::fromBounds(Vector{0.0}, Vector{1.0});
  IntervalVector B = IntervalVector::fromBounds(Vector{-1.0, 5.0},
                                                Vector{1.0, 6.0});
  IntervalVector S = IntervalVector::stack(A, B);
  EXPECT_EQ(S.dim(), 3u);
  EXPECT_DOUBLE_EQ(S.upperBounds()[2], 6.0);
  IntervalVector Back = S.slice(1, 2);
  EXPECT_TRUE(Back.contains(B));
  EXPECT_TRUE(B.contains(Back));
}

//===----------------------------------------------------------------------===//
// CH-Zonotope basics
//===----------------------------------------------------------------------===//

TEST(CHZonotopeTest, FromBoxBounds) {
  CHZonotope Z = CHZonotope::fromBox(Vector{-1.0, 2.0}, Vector{3.0, 2.0});
  EXPECT_EQ(Z.numGenerators(), 1u); // Zero-width dims get no column.
  EXPECT_DOUBLE_EQ(Z.lowerBounds()[0], -1.0);
  EXPECT_DOUBLE_EQ(Z.upperBounds()[0], 3.0);
  EXPECT_DOUBLE_EQ(Z.lowerBounds()[1], 2.0);
}

TEST(CHZonotopeTest, PointAbstraction) {
  CHZonotope Z = CHZonotope::point(Vector{1.0, -2.0});
  EXPECT_EQ(Z.numGenerators(), 0u);
  EXPECT_DOUBLE_EQ(Z.meanWidth(), 0.0);
}

TEST(CHZonotopeTest, AffineIsExactOnErrorTerms) {
  // Affine transformers on zonotopes are exact: evaluating the output
  // abstraction at the same error values must reproduce the mapped point.
  Rng R(1);
  CHZonotope Z = randomZonotope(R, 3, 5, /*WithBox=*/false);
  Matrix M = randomMatrix(R, 2, 3);
  Vector T = randomVector(R, 2);
  CHZonotope Y = Z.affine(M, T);
  ASSERT_EQ(Y.numGenerators(), Z.numGenerators());

  for (int Trial = 0; Trial < 20; ++Trial) {
    Vector Nu(Z.numGenerators());
    for (double &V : Nu)
      V = R.uniform(-1.0, 1.0);
    Vector X = Z.center() + Z.generators() * Nu;
    Vector Mapped = M * X + T;
    Vector YEval = Y.center() + Y.generators() * Nu;
    EXPECT_LT((Mapped - YEval).normInf(), 1e-10);
  }
}

TEST(CHZonotopeTest, AffineBoxCastKeepsBounds) {
  Rng R(2);
  CHZonotope Z = randomZonotope(R, 3, 4, /*WithBox=*/true);
  Matrix M = randomMatrix(R, 3, 3);
  Vector T = randomVector(R, 3);

  CHZonotope Cast = Z.affine(M, T, BoxPolicy::CastToGenerators);
  CHZonotope Ivl = Z.affine(M, T, BoxPolicy::IntervalMap);

  // Both are sound; sampled images must lie within both interval hulls, and
  // the cast variant is at least as tight.
  for (int Trial = 0; Trial < 50; ++Trial) {
    Vector X = samplePoint(R, Z);
    Vector Y = M * X + T;
    for (size_t I = 0; I < 3; ++I) {
      EXPECT_LE(Y[I], Cast.upperBounds()[I] + 1e-9);
      EXPECT_GE(Y[I], Cast.lowerBounds()[I] - 1e-9);
      EXPECT_LE(Y[I], Ivl.upperBounds()[I] + 1e-9);
      EXPECT_GE(Y[I], Ivl.lowerBounds()[I] - 1e-9);
    }
  }
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_LE(Cast.upperBounds()[I], Ivl.upperBounds()[I] + 1e-9);
    EXPECT_GE(Cast.lowerBounds()[I], Ivl.lowerBounds()[I] - 1e-9);
  }
}

/// Z.affine(M) against kernels::gemm(M, Z's generators) byte for byte,
/// with the gemm's exactly-zero columns dropped as affine drops them.
void expectAffineMatchesGemm(const Matrix &M, const CHZonotope &Z) {
  const CHZonotope Got = Z.affine(M, Vector(M.rows(), 0.0));
  Matrix Want(M.rows(), Z.numGenerators());
  if (Z.numGenerators() > 0)
    kernels::gemm(Want, M, Z.generators());
  size_t Col = 0;
  for (size_t J = 0; J < Z.numGenerators(); ++J) {
    bool Zero = true;
    for (size_t R = 0; R < M.rows(); ++R)
      Zero = Zero && Want(R, J) == 0.0;
    if (Zero)
      continue;
    ASSERT_LT(Col, Got.numGenerators());
    EXPECT_EQ(Got.termIds()[Col], Z.termIds()[J]);
    for (size_t R = 0; R < M.rows(); ++R) {
      const double G = Got.generators()(R, Col), W = Want(R, J);
      EXPECT_EQ(0, std::memcmp(&G, &W, sizeof(double)))
          << "row " << R << " column " << J << ": " << G << " vs " << W;
    }
    ++Col;
  }
  EXPECT_EQ(Col, Got.numGenerators());
}

TEST(CHZonotopeTest, BoxAffineMatchesGemmBytes) {
  Rng R(77);
  // A box: dimension 1 has zero width (no generator), M has negative
  // entries, and M(1, 0) = -0.0 makes a -0.0 product that the gemm, which
  // sums from +0.0, stores as +0.0. M's last column is zero, so dimension
  // 4's generator maps to a zero column that affine drops.
  Vector Lo = {0.1, 0.5, -1.0, 0.3, 0.0}, Hi = {0.4, 0.5, 2.0, 0.7, 1e-3};
  const CHZonotope Box = CHZonotope::fromBox(Lo, Hi);
  ASSERT_EQ(Box.numGenerators(), 4u);
  Matrix M = randomMatrix(R, 4, 5);
  M(1, 0) = -0.0;
  M(2, 2) = -3.5;
  for (size_t I = 0; I < 4; ++I)
    M(I, 4) = 0.0;
  expectAffineMatchesGemm(M, Box);
  EXPECT_FALSE(
      std::signbit(Box.affine(M, Vector(4, 0.0)).generators()(1, 0)));

  // A wide random box with a quarter of its dimensions degenerate.
  Vector WideLo = randomVector(R, 60), WideHi = WideLo;
  for (size_t I = 0; I < 60; ++I)
    if (I % 4 != 0)
      WideHi[I] += std::abs(R.gaussian());
  expectAffineMatchesGemm(randomMatrix(R, 30, 60),
                          CHZonotope::fromBox(WideLo, WideHi));

  // Empty generator matrix: a point box.
  const CHZonotope Point = CHZonotope::fromBox(Lo, Lo);
  ASSERT_EQ(Point.numGenerators(), 0u);
  expectAffineMatchesGemm(M, Point);

  // Two nonzeros in one (the last) column: the gemm path.
  Matrix G(5, 3);
  G(0, 0) = 0.2;
  G(2, 1) = -0.7;
  G(1, 2) = 0.3;
  G(4, 2) = 0.9;
  const CHZonotope Mixed(Vector(5, 0.0), G,
                         {freshErrorTermId(), freshErrorTermId(),
                          freshErrorTermId()},
                         Vector(5, 0.0));
  expectAffineMatchesGemm(randomMatrix(R, 4, 5), Mixed);
}

TEST(CHZonotopeTest, LinearCombineMergesSharedIds) {
  // y = Z - Z must be exactly {0} when ids are shared.
  Rng R(3);
  CHZonotope Z = randomZonotope(R, 3, 6, /*WithBox=*/false);
  Matrix I3 = Matrix::identity(3);
  Matrix NegI3 = -1.0 * Matrix::identity(3);
  std::pair<const Matrix *, const CHZonotope *> Terms[] = {{&I3, &Z},
                                                           {&NegI3, &Z}};
  CHZonotope Y = CHZonotope::linearCombine(Terms, Vector(3, 0.0));
  EXPECT_DOUBLE_EQ(Y.meanWidth(), 0.0);
  EXPECT_EQ(Y.numGenerators(), 0u); // Cancelled columns are pruned.
}

TEST(CHZonotopeTest, LinearCombineIndependentIdsConcatenate) {
  Rng R(4);
  CHZonotope A = randomZonotope(R, 2, 3, false);
  CHZonotope B = randomZonotope(R, 2, 4, false);
  Matrix I2 = Matrix::identity(2);
  std::pair<const Matrix *, const CHZonotope *> Terms[] = {{&I2, &A},
                                                           {&I2, &B}};
  CHZonotope Y = CHZonotope::linearCombine(Terms, Vector(2, 0.0));
  EXPECT_EQ(Y.numGenerators(), 7u);
  // Minkowski sum: interval hull adds radii.
  Vector Expect = A.concretizationRadius() + B.concretizationRadius();
  EXPECT_LT((Y.concretizationRadius() - Expect).normInf(), 1e-12);
}

//===----------------------------------------------------------------------===//
// ReLU transformer
//===----------------------------------------------------------------------===//

class ReluSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(ReluSoundnessTest, SampledPointsStayInsideHull) {
  Rng R(600 + GetParam());
  bool Absorb = GetParam() % 2 == 0;
  CHZonotope Z = randomZonotope(R, 4, 6, /*WithBox=*/GetParam() % 3 == 0);
  CHZonotope Y = Z.reluPrefix(4, Vector(), Absorb);

  for (int Trial = 0; Trial < 100; ++Trial) {
    Vector Nu(Z.numGenerators());
    for (double &V : Nu)
      V = R.uniform(-1.0, 1.0);
    Vector X = Z.center() + Z.generators() * Nu;
    for (size_t I = 0; I < Z.dim(); ++I)
      X[I] += Z.boxRadius()[I] * R.uniform(-1.0, 1.0);
    // The relaxation is per-error-term affine, so membership of the image
    // is certain within the interval hull; additionally the generator part
    // must track the same nu for stable dimensions.
    for (size_t I = 0; I < Z.dim(); ++I) {
      double Relu = std::max(0.0, X[I]);
      EXPECT_LE(Relu, Y.upperBounds()[I] + 1e-9);
      EXPECT_GE(Relu, Y.lowerBounds()[I] - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReluSoundnessTest, ::testing::Range(0, 12));

TEST(ReluTest, StableDimensionsExact) {
  // Strictly positive and strictly negative dims map exactly.
  Vector Center = {5.0, -5.0};
  Matrix Gens(2, 1);
  Gens(0, 0) = 1.0;
  Gens(1, 0) = 1.0;
  CHZonotope Z(Center, Gens, {freshErrorTermId()}, Vector(2, 0.0));
  CHZonotope Y = Z.reluPrefix(2);
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[0], 4.0);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[0], 6.0);
  EXPECT_DOUBLE_EQ(Y.lowerBounds()[1], 0.0);
  EXPECT_DOUBLE_EQ(Y.upperBounds()[1], 0.0);
}

TEST(ReluTest, UnstableDimensionMinimalAreaBounds) {
  // x in [-1, 3]: lambda = 3/4, y in [3/4 x, 3/4 x + 3/4].
  Vector Center = {1.0};
  Matrix Gens(1, 1);
  Gens(0, 0) = 2.0;
  CHZonotope Z(Center, Gens, {freshErrorTermId()}, Vector(1, 0.0));
  CHZonotope Y = Z.reluPrefix(1);
  // Upper bound: 3/4 * 3 + 3/4 = 3; lower: 3/4 * (-1) + 3/8 - 3/8 = -3/4.
  EXPECT_NEAR(Y.upperBounds()[0], 3.0, 1e-12);
  EXPECT_NEAR(Y.lowerBounds()[0], -0.75, 1e-12);
  // New error lands in the Box component (CH transformer default).
  EXPECT_GT(Y.boxRadius()[0], 0.0);
  EXPECT_EQ(Y.numGenerators(), 1u);
}

TEST(ReluTest, ZonotopeModeAppendsColumns) {
  Vector Center = {1.0};
  Matrix Gens(1, 1);
  Gens(0, 0) = 2.0;
  CHZonotope Z(Center, Gens, {freshErrorTermId()}, Vector(1, 0.0));
  CHZonotope Y = Z.reluPrefix(1, Vector(), /*AbsorbIntoBox=*/false);
  EXPECT_EQ(Y.numGenerators(), 2u);
  EXPECT_DOUBLE_EQ(Y.boxRadius()[0], 0.0);
  EXPECT_NEAR(Y.upperBounds()[0], 3.0, 1e-12);
}

TEST(ReluTest, LambdaOverrideSoundAcrossRange) {
  // Any lambda in [0, 1] gives a sound relaxation; scan a few.
  Rng R(77);
  CHZonotope Z = randomZonotope(R, 3, 4, false);
  for (double Lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    CHZonotope Y = Z.reluPrefix(3, Vector(3, Lambda));
    for (int Trial = 0; Trial < 40; ++Trial) {
      Vector X = samplePoint(R, Z);
      for (size_t I = 0; I < 3; ++I) {
        double Relu = std::max(0.0, X[I]);
        EXPECT_LE(Relu, Y.upperBounds()[I] + 1e-9) << "lambda " << Lambda;
        EXPECT_GE(Relu, Y.lowerBounds()[I] - 1e-9) << "lambda " << Lambda;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Consolidation (Thm 4.1) and containment (Thm 4.2)
//===----------------------------------------------------------------------===//

class ConsolidationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConsolidationTest, ConsolidatedContainsOriginal) {
  Rng R(700 + GetParam());
  const size_t P = 4;
  CHZonotope Z = randomZonotope(R, P, 9, /*WithBox=*/GetParam() % 2 == 0);
  ConsolidationBasis Basis(P, 1);
  Basis.refresh(Z.generators());
  CHZonotope C = Z.consolidate(Basis.basis(), Basis.basisInv());
  ASSERT_EQ(C.numGenerators(), P);

  // Thm 4.1 argument: any generator point A nu must satisfy
  // ||A'^{-1} A nu||_inf <= 1 (the box part carries over unchanged).
  LuDecomposition Lu(C.generators());
  ASSERT_FALSE(Lu.isSingular());
  Matrix Inv = Lu.inverse();
  for (int Trial = 0; Trial < 50; ++Trial) {
    Vector Nu(Z.numGenerators());
    for (double &V : Nu)
      V = R.uniform(-1.0, 1.0);
    Vector GenPart = Z.generators() * Nu;
    Vector NuNew = Inv * GenPart;
    EXPECT_LE(NuNew.normInf(), 1.0 + 1e-9);
  }
  // Center and box are untouched.
  EXPECT_LT((C.center() - Z.center()).normInf(), 1e-15);
  EXPECT_LT((C.boxRadius() - Z.boxRadius()).normInf(), 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsolidationTest, ::testing::Range(0, 10));

TEST(ConsolidationTest, ExpansionEnlarges) {
  Rng R(71);
  CHZonotope Z = randomZonotope(R, 3, 7, false);
  ConsolidationBasis Basis(3, 1);
  Basis.refresh(Z.generators());
  CHZonotope Plain = Z.consolidate(Basis.basis(), Basis.basisInv());
  CHZonotope Expanded =
      Z.consolidate(Basis.basis(), Basis.basisInv(), 0.1, 0.05);
  for (size_t I = 0; I < 3; ++I)
    EXPECT_GT(Expanded.concretizationRadius()[I],
              Plain.concretizationRadius()[I]);
}

TEST(ConsolidationTest, RankDeficientGeneratorsStayProper) {
  // A single generator in R^3: consolidation must still produce an
  // invertible (floored) generator matrix.
  Matrix Gens(3, 1);
  Gens(0, 0) = 1.0;
  CHZonotope Z(Vector(3, 0.0), Gens, {freshErrorTermId()}, Vector(3, 0.0));
  ConsolidationBasis Basis(3, 1);
  Basis.refresh(Z.generators());
  CHZonotope C = Z.consolidate(Basis.basis(), Basis.basisInv());
  EXPECT_FALSE(LuDecomposition(C.generators()).isSingular());
}

TEST(ContainmentTest, DetectsContainedAndNot) {
  Rng R(73);
  const size_t P = 3;
  CHZonotope Inner = randomZonotope(R, P, 5, /*WithBox=*/true);
  ConsolidationBasis Basis(P, 1);
  Basis.refresh(Inner.generators());
  // The consolidation of Inner scaled up strictly contains Inner.
  CHZonotope Outer = Inner.consolidate(Basis.basis(), Basis.basisInv(),
                                       /*WMul=*/0.2, /*WAdd=*/0.1);
  Matrix OuterInv = LuDecomposition(Outer.generators()).inverse();
  ContainmentResult Res = containsCH(Outer, OuterInv, Inner);
  EXPECT_TRUE(Res.Contained);
  EXPECT_LE(Res.Slack, 1.0);

  // Shifting the inner far away must break containment.
  Vector ShiftedCenter = Inner.center();
  ShiftedCenter[0] += 100.0;
  CHZonotope Shifted(ShiftedCenter, Inner.generators(), Inner.termIds(),
                     Inner.boxRadius());
  EXPECT_FALSE(containsCH(Outer, OuterInv, Shifted).Contained);
}

/// The Thm 4.2 slack the dense way: gemm, then rowAbsSumsInto, then
/// gemvAbs for the centre/box term — the reference containsCH must match
/// byte for byte whichever path it takes.
double denseContainmentSlack(const CHZonotope &Outer, const Matrix &Inv,
                             const CHZonotope &Inner) {
  const size_t P = Outer.dim();
  Vector Lhs(P, 0.0);
  if (Inner.numGenerators() > 0) {
    Matrix Mapped(P, Inner.numGenerators());
    kernels::gemm(Mapped, Inv, Inner.generators());
    kernels::rowAbsSumsInto(Lhs, Mapped);
  }
  Vector D(P);
  for (size_t I = 0; I < P; ++I)
    D[I] = std::max(std::fabs(Inner.center()[I] - Outer.center()[I]) +
                        Inner.boxRadius()[I] - Outer.boxRadius()[I],
                    0.0);
  kernels::gemvAbs(Lhs, Inv, D, 1.0, 1.0);
  return kernels::normInf(Lhs);
}

void expectSameSlackBytes(const CHZonotope &Outer, const Matrix &Inv,
                          const CHZonotope &Inner) {
  const double Got = containsCH(Outer, Inv, Inner).Slack;
  const double Want = denseContainmentSlack(Outer, Inv, Inner);
  EXPECT_EQ(0, std::memcmp(&Got, &Want, sizeof(double)))
      << Got << " vs " << Want;
}

TEST(ContainmentTest, DiagonalInverseMatchesDenseGemmBytes) {
  Rng R(74);
  const size_t P = 9;
  // A diagonal inverse with negative entries and -0.0 off the diagonal
  // (still diagonal: -0.0 is a zero), against an inner zonotope whose
  // generators carry negative entries and -0.0s.
  Matrix Inv(P, P);
  Matrix Gens(P, P);
  for (size_t I = 0; I < P; ++I) {
    Inv(I, I) = (I % 2 ? -1.0 : 1.0) * (0.5 + R.uniform(0.0, 2.0));
    Gens(I, I) = 1.0 / Inv(I, I);
  }
  Inv(0, 3) = -0.0;
  Inv(5, 2) = -0.0;
  std::vector<uint64_t> Ids(P);
  for (uint64_t &Id : Ids)
    Id = freshErrorTermId();
  const CHZonotope Outer(randomVector(R, P), Gens, Ids, Vector(P, 0.05));
  CHZonotope Inner = randomZonotope(R, P, 23, /*WithBox=*/true);
  Matrix InnerGens = Inner.generators();
  InnerGens(2, 4) = -0.0;
  InnerGens(7, 0) = -0.0;
  InnerGens(1, 22) = 0.0;
  Inner = CHZonotope(Inner.center(), InnerGens, Inner.termIds(),
                     Inner.boxRadius());
  expectSameSlackBytes(Outer, Inv, Inner);

  // An inner zonotope with no generators: only the centre/box term.
  expectSameSlackBytes(Outer, Inv,
                       CHZonotope(Inner.center(), Matrix(P, 0), {},
                                  Inner.boxRadius()));

  // Diagonal in row 0 only: the scan must fall through to the gemm.
  Matrix RowZeroDiagonal = randomMatrix(R, P, P);
  for (size_t J = 1; J < P; ++J)
    RowZeroDiagonal(0, J) = 0.0;
  expectSameSlackBytes(Outer, RowZeroDiagonal, Inner);
}

TEST(ContainmentTest, SoundOnSampledPoints) {
  // When the check succeeds, every sampled inner point must lie in the
  // outer set (verified exactly via the proper representation, b = 0).
  Rng R(74);
  const size_t P = 4;
  for (int Case = 0; Case < 10; ++Case) {
    CHZonotope Inner = randomZonotope(R, P, 6, /*WithBox=*/true);
    ConsolidationBasis Basis(P, 1);
    Basis.refresh(Inner.generators());
    CHZonotope Outer =
        Inner.consolidate(Basis.basis(), Basis.basisInv(), 0.3, 0.2);
    // Fold the outer box into generators to allow exact membership testing.
    Vector NoBox(P, 0.0);
    Matrix FullGens = Matrix::hcat(
        Outer.generators(),
        Matrix::diagonal(Outer.boxRadius())); // p x (p + p): improper.
    // Re-consolidate to proper with zero expansion.
    std::vector<uint64_t> Ids(FullGens.cols());
    for (auto &Id : Ids)
      Id = freshErrorTermId();
    CHZonotope OuterFull(Outer.center(), FullGens, Ids, NoBox);
    ConsolidationBasis B2(P, 1);
    B2.refresh(FullGens);
    CHZonotope OuterProper = OuterFull.consolidate(B2.basis(), B2.basisInv());
    Matrix OuterInv = LuDecomposition(OuterProper.generators()).inverse();

    ContainmentResult Res = containsCH(OuterProper, OuterInv, Inner);
    if (!Res.Contained)
      continue;
    for (int Trial = 0; Trial < 30; ++Trial) {
      Vector X = samplePoint(R, Inner);
      EXPECT_TRUE(insideProper(OuterProper, OuterInv, X));
    }
  }
}

TEST(ContainmentTest, CompleteForProperPair) {
  // For two aligned boxes the check is exact: containment iff geometric
  // containment.
  CHZonotope Small = CHZonotope::fromBox(Vector{-1.0, -1.0}, Vector{1.0, 1.0});
  CHZonotope Big = CHZonotope::fromBox(Vector{-2.0, -2.0}, Vector{2.0, 2.0});
  Matrix BigInv = LuDecomposition(Big.generators()).inverse();
  EXPECT_TRUE(containsCH(Big, BigInv, Small).Contained);
  Matrix SmallInv = LuDecomposition(Small.generators()).inverse();
  EXPECT_FALSE(containsCH(Small, SmallInv, Big).Contained);
  // Slack is the exact ratio 2 for the reversed query.
  EXPECT_NEAR(containsCH(Small, SmallInv, Big).Slack, 2.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Stack / slice / join
//===----------------------------------------------------------------------===//

TEST(CHZonotopeTest, StackPreservesSharedIds) {
  Rng R(75);
  CHZonotope Z = randomZonotope(R, 2, 3, false);
  CHZonotope S = CHZonotope::stack(Z, Z);
  EXPECT_EQ(S.dim(), 4u);
  EXPECT_EQ(S.numGenerators(), 3u); // Shared ids merge, not duplicate.
  // Slicing back yields the original bounds.
  CHZonotope Back = S.slice(2, 2);
  EXPECT_LT((Back.lowerBounds() - Z.lowerBounds()).normInf(), 1e-12);
}

TEST(CHZonotopeTest, JoinIsSound) {
  Rng R(76);
  for (int Case = 0; Case < 8; ++Case) {
    CHZonotope A = randomZonotope(R, 3, 4, true);
    // B shares A's error terms partially (mimics one more solver iteration).
    Matrix M = randomMatrix(R, 3, 3, 0.4);
    CHZonotope B = A.affine(M, randomVector(R, 3, 0.5));
    CHZonotope J = CHZonotope::join(A, B);
    for (int Trial = 0; Trial < 40; ++Trial) {
      Vector XA = samplePoint(R, A);
      Vector XB = samplePoint(R, B);
      for (size_t I = 0; I < 3; ++I) {
        EXPECT_LE(XA[I], J.upperBounds()[I] + 1e-9);
        EXPECT_GE(XA[I], J.lowerBounds()[I] - 1e-9);
        EXPECT_LE(XB[I], J.upperBounds()[I] + 1e-9);
        EXPECT_GE(XB[I], J.lowerBounds()[I] - 1e-9);
      }
    }
  }
}

TEST(CHZonotopeTest, JoinOfIdenticalIsIdentity) {
  Rng R(78);
  CHZonotope A = randomZonotope(R, 3, 5, true);
  CHZonotope J = CHZonotope::join(A, A);
  EXPECT_LT((J.lowerBounds() - A.lowerBounds()).normInf(), 1e-12);
  EXPECT_LT((J.upperBounds() - A.upperBounds()).normInf(), 1e-12);
}

//===----------------------------------------------------------------------===//
// Volume
//===----------------------------------------------------------------------===//

TEST(VolumeTest, UnitBoxAndParallelogram) {
  CHZonotope Box = CHZonotope::fromBox(Vector{-1.0, -1.0}, Vector{1.0, 1.0});
  EXPECT_NEAR(zonotopeVolume(Box), 4.0, 1e-12);

  // Generators (1,0) and (1,1): area = 4 * |det| = 4.
  Matrix Gens = {{1.0, 1.0}, {0.0, 1.0}};
  CHZonotope Par(Vector(2, 0.0), Gens,
                 {freshErrorTermId(), freshErrorTermId()}, Vector(2, 0.0));
  EXPECT_NEAR(zonotopeVolume(Par), 4.0, 1e-12);
}

TEST(VolumeTest, BoxComponentCounts) {
  // Zonotope {0} + box [-1,1]^2: volume 4.
  CHZonotope Z(Vector(2, 0.0), Matrix(2, 0), {}, Vector(2, 1.0));
  EXPECT_NEAR(zonotopeVolume(Z), 4.0, 1e-12);
}

TEST(VolumeTest, DegenerateIsZero) {
  Matrix Gens(2, 1);
  Gens(0, 0) = 1.0;
  CHZonotope Z(Vector(2, 0.0), Gens, {freshErrorTermId()}, Vector(2, 0.0));
  EXPECT_DOUBLE_EQ(zonotopeVolume(Z), 0.0);
}

TEST(VolumeTest, MinkowskiSumGrowsVolume) {
  Rng R(79);
  CHZonotope A = randomZonotope(R, 2, 3, false);
  CHZonotope B = randomZonotope(R, 2, 2, false);
  Matrix I2 = Matrix::identity(2);
  std::pair<const Matrix *, const CHZonotope *> Terms[] = {{&I2, &A},
                                                           {&I2, &B}};
  CHZonotope Sum = CHZonotope::linearCombine(Terms, Vector(2, 0.0));
  EXPECT_GE(zonotopeVolume(Sum), zonotopeVolume(A) - 1e-12);
  EXPECT_GE(zonotopeVolume(Sum), zonotopeVolume(B) - 1e-12);
}

//===----------------------------------------------------------------------===//
// LP containment baseline (Sadraddini-Tedrake)
//===----------------------------------------------------------------------===//

TEST(LpContainmentTest, BoxesExact) {
  CHZonotope Small = CHZonotope::fromBox(Vector{-1.0, -1.0}, Vector{1.0, 1.0});
  CHZonotope Big = CHZonotope::fromBox(Vector{-1.5, -2.0}, Vector{1.5, 2.0});
  EXPECT_TRUE(containsZonotopeLP(Big, Small));
  EXPECT_FALSE(containsZonotopeLP(Small, Big));
}

TEST(LpContainmentTest, RotatedZonotope) {
  // Diamond (generators (1,1), (1,-1)) contains the box [-0.9, 0.9]^2
  // scaled by 0.5... check both directions on a known pair.
  Matrix DiamondGens = {{1.0, 1.0}, {1.0, -1.0}};
  CHZonotope Diamond(Vector(2, 0.0), DiamondGens,
                     {freshErrorTermId(), freshErrorTermId()},
                     Vector(2, 0.0));
  CHZonotope SmallBox =
      CHZonotope::fromBox(Vector{-0.9, -0.9}, Vector{0.9, 0.9});
  EXPECT_TRUE(containsZonotopeLP(Diamond, SmallBox));
  CHZonotope BigBox = CHZonotope::fromBox(Vector{-1.9, -1.9},
                                          Vector{1.9, 1.9});
  EXPECT_FALSE(containsZonotopeLP(Diamond, BigBox));
}

TEST(LpContainmentTest, AgreesWithCHCheckWhenCHSucceeds) {
  // The CH check is sound, the LP check is (near) complete: whenever CH says
  // contained, LP must agree.
  Rng R(80);
  for (int Case = 0; Case < 5; ++Case) {
    CHZonotope Inner = randomZonotope(R, 3, 4, false);
    ConsolidationBasis Basis(3, 1);
    Basis.refresh(Inner.generators());
    CHZonotope Outer =
        Inner.consolidate(Basis.basis(), Basis.basisInv(), 0.1, 0.05);
    Matrix OuterInv = LuDecomposition(Outer.generators()).inverse();
    if (containsCH(Outer, OuterInv, Inner).Contained) {
      EXPECT_TRUE(containsZonotopeLP(Outer, Inner));
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Additional property sweeps
//===----------------------------------------------------------------------===//

namespace {

class LambdaScaleSweepTest : public ::testing::TestWithParam<double> {};

// Property: the ReLU transformer stays sound for any slope scaling factor
// (the knob lambda optimization turns, App. C).
TEST_P(LambdaScaleSweepTest, ScaledReluSound) {
  Rng R(900 + static_cast<int>(GetParam() * 100));
  CHZonotope Z = randomZonotope(R, 4, 5, /*WithBox=*/true);
  CHZonotope Y = Z.reluPrefix(4, Vector(), true, GetParam());
  for (int Trial = 0; Trial < 60; ++Trial) {
    Vector X = samplePoint(R, Z);
    for (size_t I = 0; I < 4; ++I) {
      double Relu = std::max(0.0, X[I]);
      EXPECT_LE(Relu, Y.upperBounds()[I] + 1e-9);
      EXPECT_GE(Relu, Y.lowerBounds()[I] - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, LambdaScaleSweepTest,
                         ::testing::Values(0.0, 0.3, 0.7, 0.9, 1.0, 1.1,
                                           1.5, 3.0));

TEST(CHZonotopeTest, BoxCastToGeneratorsIsExact) {
  Rng R(901);
  CHZonotope Z = randomZonotope(R, 3, 4, /*WithBox=*/true);
  CHZonotope Cast = Z.boxCastToGenerators();
  EXPECT_DOUBLE_EQ(Cast.boxRadius().normInf(), 0.0);
  // Interval hulls agree exactly.
  EXPECT_LT((Cast.lowerBounds() - Z.lowerBounds()).normInf(), 1e-14);
  EXPECT_LT((Cast.upperBounds() - Z.upperBounds()).normInf(), 1e-14);
  // Idempotent on box-free inputs.
  CHZonotope Twice = Cast.boxCastToGenerators();
  EXPECT_EQ(Twice.numGenerators(), Cast.numGenerators());
}

TEST(ContainmentTest, SlackScalesLinearlyWithInner) {
  // For a box-free inner, the Thm 4.2 slack is 1-homogeneous in the inner
  // generators: scaling the inner scales the generator part of the slack.
  Rng R(902);
  CHZonotope Inner = randomZonotope(R, 3, 5, /*WithBox=*/false);
  ConsolidationBasis Basis(3, 1);
  Basis.refresh(Inner.generators());
  CHZonotope Outer = Inner.consolidate(Basis.basis(), Basis.basisInv(), 0.5,
                                       0.0);
  Matrix OuterInv = LuDecomposition(Outer.generators()).inverse();

  // Center the inner on the outer so the d-term vanishes.
  CHZonotope Centered(Outer.center(), Inner.generators(), Inner.termIds(),
                      Inner.boxRadius());
  double Slack1 = containsCH(Outer, OuterInv, Centered).Slack;
  Matrix Scaled = Centered.generators();
  Scaled *= 0.5;
  CHZonotope Half(Outer.center(), std::move(Scaled), Centered.termIds(),
                  Centered.boxRadius());
  double SlackHalf = containsCH(Outer, OuterInv, Half).Slack;
  EXPECT_NEAR(SlackHalf, 0.5 * Slack1, 1e-9);
}

TEST(ContainmentTest, ShrunkInnerAlwaysContained) {
  // If the check accepts the inner, it must accept any center-preserving
  // shrinking of it (monotonicity of Thm 4.2 in the inner size).
  Rng R(903);
  for (int Case = 0; Case < 6; ++Case) {
    CHZonotope Inner = randomZonotope(R, 4, 6, /*WithBox=*/true);
    ConsolidationBasis Basis(4, 1);
    Basis.refresh(Inner.generators());
    CHZonotope Outer =
        Inner.consolidate(Basis.basis(), Basis.basisInv(), 0.2, 0.1);
    Matrix OuterInv = LuDecomposition(Outer.generators()).inverse();
    if (!containsCH(Outer, OuterInv, Inner).Contained)
      continue;
    for (double Scale : {0.75, 0.5, 0.1}) {
      Matrix Gens = Inner.generators();
      Gens *= Scale;
      Vector Box = Inner.boxRadius();
      Box *= Scale;
      CHZonotope Shrunk(Inner.center(), std::move(Gens), Inner.termIds(),
                        std::move(Box));
      EXPECT_TRUE(containsCH(Outer, OuterInv, Shrunk).Contained)
          << "scale " << Scale;
    }
  }
}

TEST(CHZonotopeTest, SliceStackRoundTripWithBox) {
  Rng R(904);
  CHZonotope Top = randomZonotope(R, 2, 3, true);
  CHZonotope Bottom = randomZonotope(R, 3, 2, true);
  CHZonotope S = CHZonotope::stack(Top, Bottom);
  ASSERT_EQ(S.dim(), 5u);
  CHZonotope T2 = S.slice(0, 2), B2 = S.slice(2, 3);
  EXPECT_LT((T2.lowerBounds() - Top.lowerBounds()).normInf(), 1e-13);
  EXPECT_LT((T2.upperBounds() - Top.upperBounds()).normInf(), 1e-13);
  EXPECT_LT((B2.lowerBounds() - Bottom.lowerBounds()).normInf(), 1e-13);
  EXPECT_LT((B2.upperBounds() - Bottom.upperBounds()).normInf(), 1e-13);
}

TEST(VolumeTest, VolumeInvariantUnderRotation) {
  // Rotating a 2-d zonotope preserves its volume (|det R| = 1).
  Rng R(905);
  CHZonotope Z = randomZonotope(R, 2, 4, false);
  double Angle = 0.7;
  Matrix Rot = {{std::cos(Angle), -std::sin(Angle)},
                {std::sin(Angle), std::cos(Angle)}};
  CHZonotope Rotated = Z.affine(Rot, Vector(2, 0.0));
  EXPECT_NEAR(zonotopeVolume(Rotated), zonotopeVolume(Z), 1e-9);
}

TEST(OrderReductionTest, BasisRefreshScheduleHonored) {
  Rng R(906);
  ConsolidationBasis Basis(3, /*RefreshEvery=*/3);
  Matrix A1 = randomMatrix(R, 3, 6);
  Basis.refresh(A1);
  Matrix First = Basis.basis();
  // Two more refreshes reuse the cached basis even for new generators.
  Basis.refresh(randomMatrix(R, 3, 6));
  EXPECT_LT((Basis.basis() - First).maxAbs(), 1e-15);
  Basis.refresh(randomMatrix(R, 3, 6));
  EXPECT_LT((Basis.basis() - First).maxAbs(), 1e-15);
  // The fourth call recomputes.
  Matrix A2 = randomMatrix(R, 3, 6);
  Basis.refresh(A2);
  EXPECT_GT((Basis.basis() - First).maxAbs(), 1e-12);
  // invalidate() forces an immediate recomputation.
  Basis.invalidate();
  Basis.refresh(A1);
  EXPECT_LT((Basis.basis() - First).maxAbs(), 1e-12);
}

TEST(OrderReductionTest, IdentityBasisConsolidationMatchesGemmBytes) {
  // Phase 1 starts from a point: the first refresh sees no generators and
  // keeps the identity basis, which the next consolidations reuse.
  Rng R(907);
  const size_t P = 8;
  ConsolidationBasis Basis(P, /*RefreshEvery=*/30);
  consolidateProper(CHZonotope::point(randomVector(R, P)), Basis);
  ASSERT_EQ((Basis.basisInv() - Matrix::identity(P)).maxAbs(), 0.0);

  CHZonotope Z = randomZonotope(R, P, 31, /*WithBox=*/true);
  Matrix G = Z.generators();
  G(3, 5) = -0.0;
  Z = CHZonotope(Z.center(), G, Z.termIds(), Z.boxRadius());
  const double WMul = 0.1, WAdd = 0.01;
  ProperState Got = consolidateProper(Z, Basis, WMul, WAdd);

  // The gemm path: c = (1 + WMul) |B^{-1} A| 1 + WAdd, floored.
  Matrix Mapped(P, Z.numGenerators());
  kernels::gemm(Mapped, Basis.basisInv(), Z.generators());
  Vector C(P);
  kernels::rowAbsSumsInto(C, Mapped);
  for (size_t I = 0; I < P; ++I)
    C[I] = std::max((1.0 + WMul) * C[I] + WAdd, 1e-12);
  for (size_t I = 0; I < P; ++I)
    for (size_t J = 0; J < P; ++J) {
      const double GotGen = Got.Z.generators()(I, J);
      const double WantGen = Basis.basis()(I, J) * C[J];
      const double GotInv = Got.InvGens(J, I);
      const double WantInv = Basis.basisInv()(J, I) / C[J];
      EXPECT_EQ(0, std::memcmp(&GotGen, &WantGen, sizeof(double)))
          << I << "," << J;
      EXPECT_EQ(0, std::memcmp(&GotInv, &WantInv, sizeof(double)))
          << J << "," << I;
    }
}

//===----------------------------------------------------------------------===//
// Byte identity of the solver step's layout: linearCombine, ReLU, stack
//===----------------------------------------------------------------------===//

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

void expectSameBytes(const CHZonotope &Got, const CHZonotope &Want) {
  EXPECT_TRUE(sameBytes(Got.center(), Want.center()));
  EXPECT_TRUE(sameBytes(Got.generators(), Want.generators()));
  EXPECT_EQ(Got.termIds(), Want.termIds());
  EXPECT_TRUE(sameBytes(Got.boxRadius(), Want.boxRadius()));
}

/// Sets the error-term id counter so the next fresh id is \p Next.
void rewindErrorTermIds(uint64_t Next) { setErrorTermIdMark(Next - 1); }

using Term = std::pair<const Matrix *, const CHZonotope *>;

/// linearCombine spelled out naively: each mapped term is a gemm into
/// scratch whose columns are added one at a time into the column of their
/// id (columns in first-occurrence order), then the cast Box columns, then
/// the exactly-zero columns are pruned.
CHZonotope naiveLinearCombine(std::span<const Term> Terms,
                              const Vector &Offset, BoxPolicy Policy) {
  const size_t POut = Terms.front().first ? Terms.front().first->rows()
                                          : Terms.front().second->dim();
  std::vector<uint64_t> Ids;
  for (const auto &[M, Z] : Terms)
    for (uint64_t Id : Z->termIds())
      if (std::find(Ids.begin(), Ids.end(), Id) == Ids.end())
        Ids.push_back(Id);
  size_t NumBox = 0;
  if (Policy == BoxPolicy::CastToGenerators)
    for (const auto &[M, Z] : Terms)
      for (double B : Z->boxRadius())
        NumBox += B > 0.0;
  const size_t NumShared = Ids.size();
  Matrix Gens(POut, NumShared + NumBox);
  Vector Center = Offset, Box(POut, 0.0);
  size_t NextBox = NumShared;
  for (const auto &[M, Z] : Terms) {
    const size_t K = Z->numGenerators();
    Matrix Mapped = Z->generators();
    if (M) {
      kernels::gemv(Center, *M, Z->center(), 1.0, 1.0);
      Mapped = Matrix(POut, K);
      if (K > 0)
        kernels::gemm(Mapped, *M, Z->generators());
    } else {
      kernels::axpy(Center, 1.0, Z->center());
    }
    for (size_t J = 0; J < K; ++J) {
      const size_t Col =
          std::find(Ids.begin(), Ids.end(), Z->termIds()[J]) - Ids.begin();
      for (size_t R = 0; R < POut; ++R)
        Gens(R, Col) += Mapped(R, J);
    }
    if (Policy == BoxPolicy::IntervalMap) {
      if (M)
        kernels::gemvAbs(Box, *M, Z->boxRadius(), 1.0, 1.0);
      else
        kernels::axpy(Box, 1.0, Z->boxRadius());
      continue;
    }
    for (size_t I = 0; I < Z->dim(); ++I) {
      const double B = Z->boxRadius()[I];
      if (B <= 0.0)
        continue;
      for (size_t R = 0; R < POut; ++R)
        Gens(R, NextBox) = M ? B * (*M)(R, I) : (R == I ? B : 0.0);
      Ids.push_back(freshErrorTermId());
      ++NextBox;
    }
  }
  std::vector<size_t> Kept;
  for (size_t J = 0; J < Gens.cols(); ++J)
    for (size_t R = 0; R < POut; ++R)
      if (Gens(R, J) != 0.0) {
        Kept.push_back(J);
        break;
      }
  Matrix Pruned(POut, Kept.size());
  std::vector<uint64_t> PrunedIds;
  for (size_t J = 0; J < Kept.size(); ++J) {
    PrunedIds.push_back(Ids[Kept[J]]);
    for (size_t R = 0; R < POut; ++R)
      Pruned(R, J) = Gens(R, Kept[J]);
  }
  return CHZonotope(std::move(Center), std::move(Pruned), std::move(PrunedIds),
                    std::move(Box));
}

/// linearCombine against the naive reference, bit for bit, under both Box
/// policies (fresh ids included: the id counter is rewound in between).
void expectCombineMatchesNaive(std::span<const Term> Terms,
                               const Vector &Offset) {
  for (BoxPolicy Policy :
       {BoxPolicy::CastToGenerators, BoxPolicy::IntervalMap}) {
    const uint64_t Next = freshErrorTermId() + 1;
    const CHZonotope Got = CHZonotope::linearCombine(
        Terms, Offset, Policy, kernels::DensityHint::Dense);
    rewindErrorTermIds(Next);
    const CHZonotope Want = naiveLinearCombine(Terms, Offset, Policy);
    SCOPED_TRACE(Policy == BoxPolicy::CastToGenerators ? "cast" : "interval");
    expectSameBytes(Got, Want);
  }
}

/// A zonotope of dimension \p P over the ids \p Ids, with a box.
CHZonotope zonotopeOverIds(Rng &R, size_t P, std::vector<uint64_t> Ids) {
  Vector Center = randomVector(R, P);
  Matrix Gens = randomMatrix(R, P, Ids.size(), 0.5);
  Vector Box = randomVector(R, P, 0.3).abs();
  return CHZonotope(std::move(Center), std::move(Gens), std::move(Ids),
                    std::move(Box));
}

TEST(CHZonotopeTest, LinearCombineLayoutMatchesNaiveScatterBytes) {
  Rng R(910);
  const size_t Q = 5, P = 6;
  Matrix M = randomMatrix(R, P, Q);
  const CHZonotope First = randomZonotope(R, Q, 9, /*WithBox=*/true);
  const std::vector<uint64_t> &FirstIds = First.termIds();
  const Vector Offset = randomVector(R, P);

  // An identity second term over a contiguous run of the first's ids (one
  // axpy per row).
  {
    const CHZonotope Input = zonotopeOverIds(
        R, P, std::vector<uint64_t>(FirstIds.begin() + 2, FirstIds.end() - 3));
    const Term Terms[] = {{&M, &First}, {nullptr, &Input}};
    SCOPED_TRACE("contiguous run");
    expectCombineMatchesNaive(Terms, Offset);
  }
  // The same ids permuted and interleaved with fresh ones (indexed add).
  {
    const CHZonotope Input = zonotopeOverIds(
        R, P,
        {FirstIds[5], freshErrorTermId(), FirstIds[2], FirstIds[4],
         freshErrorTermId(), FirstIds[3]});
    const Term Terms[] = {{&M, &First}, {nullptr, &Input}};
    SCOPED_TRACE("permuted and interleaved");
    expectCombineMatchesNaive(Terms, Offset);
  }
  // Three terms: two mapped operands sharing ids, then an identity term.
  {
    Matrix M2 = randomMatrix(R, P, P);
    const CHZonotope Second = zonotopeOverIds(
        R, P, {freshErrorTermId(), FirstIds[1], FirstIds[0]});
    const CHZonotope Third = zonotopeOverIds(
        R, P, {FirstIds[8], freshErrorTermId(), FirstIds[7]});
    const Term Terms[] = {{&M, &First}, {&M2, &Second}, {nullptr, &Third}};
    SCOPED_TRACE("three terms");
    expectCombineMatchesNaive(Terms, Offset);
  }
}

TEST(CHZonotopeTest, LinearCombineNegativeZerosMatchNaiveScatterBytes) {
  Rng R(911);
  const size_t Q = 4, P = 5;
  // The first operand holds -0.0 (a whole column of it, too) under a map
  // with negative entries: -0.0 products that the gemm, summing from
  // +0.0, stores as +0.0, and a zero column that is pruned.
  Matrix M = randomMatrix(R, P, Q);
  M(0, 1) = -2.0;
  M(3, 1) = -0.5;
  CHZonotope First = randomZonotope(R, Q, 6, /*WithBox=*/true);
  Matrix G = First.generators();
  G(1, 0) = -0.0;
  for (size_t I = 0; I < Q; ++I)
    G(I, 3) = -0.0;
  First = CHZonotope(First.center(), G, First.termIds(), First.boxRadius());
  const CHZonotope Input = zonotopeOverIds(
      R, P, {First.termIds()[4], First.termIds()[5], freshErrorTermId()});
  const Vector Offset = randomVector(R, P);
  {
    const Term Terms[] = {{&M, &First}, {nullptr, &Input}};
    SCOPED_TRACE("mapped first term");
    expectCombineMatchesNaive(Terms, Offset);
    const CHZonotope Got = CHZonotope::linearCombine(Terms, Offset);
    const std::vector<uint64_t> &GotIds = Got.termIds();
    EXPECT_EQ(std::find(GotIds.begin(), GotIds.end(), First.termIds()[3]),
              GotIds.end()); // The -0.0 column maps to zeros and is pruned.
  }

  // An identity first term holding -0.0 still stores 0.0 + -0.0 = +0.0
  // (column 2, a fresh id, receives nothing from the mapped term).
  Matrix IG = Input.generators();
  IG(2, 2) = -0.0;
  const CHZonotope IdentityFirst(Input.center(), IG, Input.termIds(),
                                 Input.boxRadius());
  {
    const Term Terms[] = {{nullptr, &IdentityFirst}, {&M, &First}};
    SCOPED_TRACE("identity first term");
    expectCombineMatchesNaive(Terms, Offset);
    const CHZonotope Got = CHZonotope::linearCombine(Terms, Offset);
    EXPECT_EQ(Got.termIds()[2], Input.termIds()[2]);
    EXPECT_EQ(Got.generators()(2, 2), 0.0);
    EXPECT_FALSE(std::signbit(Got.generators()(2, 2)));
  }
}

/// Rvalue reluPrefix against the const & overload, which must also leave
/// its operand untouched.
void expectReluOverloadsAgree(const CHZonotope &Z, size_t Count,
                              const Vector &Override, bool Absorb,
                              double Scale) {
  const CHZonotope Before = Z;
  const uint64_t Next = freshErrorTermId() + 1;
  const CHZonotope Want = Z.reluPrefix(Count, Override, Absorb, Scale);
  expectSameBytes(Z, Before);
  rewindErrorTermIds(Next);
  CHZonotope Moved = Z;
  const CHZonotope Got =
      std::move(Moved).reluPrefix(Count, Override, Absorb, Scale);
  expectSameBytes(Got, Want);
}

TEST(CHZonotopeTest, RvalueReluMatchesConstReluBytes) {
  Rng R(912);
  const size_t P = 7;
  CHZonotope Z = randomZonotope(R, P, 5, /*WithBox=*/true);
  // Row 0 dead, row 1 stable, rows 2..5 unstable, row 6 passes through.
  Vector C = Z.center();
  C[0] = -50.0;
  C[1] = 50.0;
  for (size_t I = 2; I < P; ++I)
    C[I] = 0.1 * static_cast<double>(I) - 0.3;
  Z = CHZonotope(C, Z.generators(), Z.termIds(), Z.boxRadius());
  Vector Override(P - 1);
  for (size_t I = 0; I < P - 1; ++I)
    Override[I] = 0.2 * static_cast<double>(I) - 0.1;
  for (bool Absorb : {true, false}) {
    SCOPED_TRACE(Absorb ? "chzono" : "zono");
    expectReluOverloadsAgree(Z, P - 1, Vector(), Absorb, 1.0);
    expectReluOverloadsAgree(Z, P - 1, Override, Absorb, 1.0);
    expectReluOverloadsAgree(Z, P - 1, Vector(), Absorb, 1.1);
  }
  // The zono transformer appends a fresh column per unstable row.
  EXPECT_GT(Z.reluPrefix(P - 1, Vector(), false).numGenerators(),
            Z.numGenerators());
}

TEST(CHZonotopeTest, StackOnItselfMatchesBlockCopyBytes) {
  Rng R(913);
  const CHZonotope Z = randomZonotope(R, 4, 6, /*WithBox=*/true);
  const CHZonotope S = CHZonotope::stack(Z, Z);
  const size_t P = Z.dim(), K = Z.numGenerators();
  Matrix G(2 * P, K);
  Vector C(2 * P), B(2 * P);
  for (size_t I = 0; I < 2 * P; ++I) {
    C[I] = Z.center()[I % P];
    B[I] = Z.boxRadius()[I % P];
    for (size_t J = 0; J < K; ++J)
      G(I, J) = Z.generators()(I % P, J);
  }
  expectSameBytes(S, CHZonotope(C, G, Z.termIds(), B));

  // Different id lists still merge by id, in first-occurrence order.
  const std::vector<uint64_t> &Ids = Z.termIds();
  const CHZonotope Bottom =
      zonotopeOverIds(R, 3, {Ids[2], freshErrorTermId(), Ids[0]});
  const CHZonotope Merged = CHZonotope::stack(Z, Bottom);
  ASSERT_EQ(Merged.numGenerators(), K + 1);
  std::vector<uint64_t> WantIds = Ids;
  WantIds.push_back(Bottom.termIds()[1]);
  Matrix WantG(P + 3, K + 1);
  Vector WantC(P + 3), WantB(P + 3);
  for (size_t I = 0; I < P; ++I) {
    WantC[I] = Z.center()[I];
    WantB[I] = Z.boxRadius()[I];
    for (size_t J = 0; J < K; ++J)
      WantG(I, J) = Z.generators()(I, J);
  }
  const size_t BottomCol[] = {2, K, 0};
  for (size_t I = 0; I < 3; ++I) {
    WantC[P + I] = Bottom.center()[I];
    WantB[P + I] = Bottom.boxRadius()[I];
    for (size_t J = 0; J < 3; ++J)
      WantG(P + I, BottomCol[J]) = Bottom.generators()(I, J);
  }
  expectSameBytes(Merged, CHZonotope(WantC, WantG, WantIds, WantB));
}

} // namespace
