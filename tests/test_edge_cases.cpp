//===- tests/test_edge_cases.cpp - Edge cases and failure injection -------===//
//
// Cross-module robustness tests: degenerate linear algebra inputs,
// infeasible/unbounded LPs, corrupted model files, degenerate abstract
// values, extreme affine-form inputs, and randomized serialization fuzz.
// These exercise the failure paths a downstream user will hit first.
//
//===----------------------------------------------------------------------===//

#include "domains/AffineForm.h"
#include "domains/CHZonotope.h"
#include "linalg/Lu.h"
#include "linalg/Qr.h"
#include "lp/Simplex.h"
#include "nn/ModelZoo.h"
#include "nn/Solvers.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <unistd.h>

using namespace craft;

//===----------------------------------------------------------------------===//
// Linear algebra degeneracies
//===----------------------------------------------------------------------===//

TEST(EdgeLinalgTest, SingularMatrixIsFlagged) {
  Matrix A = {{1.0, 2.0}, {2.0, 4.0}}; // Rank 1.
  LuDecomposition Lu(A);
  EXPECT_TRUE(Lu.isSingular());
}

TEST(EdgeLinalgTest, ZeroMatrixIsFlaggedSingular) {
  LuDecomposition Lu(Matrix(3, 3, 0.0));
  EXPECT_TRUE(Lu.isSingular());
}

TEST(EdgeLinalgTest, NearSingularDeterminantIsTiny) {
  Matrix A = {{1.0, 1.0}, {1.0, 1.0 + 1e-13}};
  LuDecomposition Lu(A);
  if (!Lu.isSingular()) {
    EXPECT_LT(std::fabs(Lu.determinant()), 1e-12);
  }
}

TEST(EdgeLinalgTest, IdentitySolveIsExact) {
  LuDecomposition Lu(Matrix::identity(5));
  Vector B = {1.0, -2.0, 3.0, -4.0, 5.0};
  Vector X = Lu.solve(B);
  EXPECT_LT((X - B).normInf(), 1e-15);
  EXPECT_DOUBLE_EQ(Lu.determinant(), 1.0);
}

TEST(EdgeLinalgTest, OneByOneMatrices) {
  Matrix A = {{-2.5}};
  LuDecomposition Lu(A);
  ASSERT_FALSE(Lu.isSingular());
  EXPECT_DOUBLE_EQ(Lu.determinant(), -2.5);
  EXPECT_DOUBLE_EQ(Lu.inverse()(0, 0), -0.4);
}

TEST(EdgeLinalgTest, RankOfDegenerateMatrices) {
  EXPECT_EQ(matrixRank(Matrix(4, 4, 0.0)), 0u);
  EXPECT_EQ(matrixRank(Matrix::identity(4)), 4u);
  Matrix RankTwo(4, 4);
  for (size_t I = 0; I < 4; ++I) {
    RankTwo(I, 0) = 1.0 + (double)I;
    RankTwo(I, 1) = 2.0 * (1.0 + (double)I);
    RankTwo(I, 2) = (double)I * I;
  }
  EXPECT_EQ(matrixRank(RankTwo), 2u);
}

TEST(EdgeLinalgTest, EmptyAndZeroColumnMatrixOps) {
  Matrix Empty;
  EXPECT_TRUE(Empty.empty());
  Matrix Tall(3, 0);
  Matrix Wide(0, 3);
  Matrix Product = Tall * Wide; // 3 x 3 of zeros.
  EXPECT_EQ(Product.rows(), 3u);
  EXPECT_EQ(Product.cols(), 3u);
  EXPECT_DOUBLE_EQ(Product.maxAbs(), 0.0);
  Matrix Cat = Matrix::hcat(Matrix(2, 0), Matrix(2, 2, 1.0));
  EXPECT_EQ(Cat.cols(), 2u);
}

//===----------------------------------------------------------------------===//
// Simplex failure modes
//===----------------------------------------------------------------------===//

TEST(EdgeLpTest, InfeasibleSystemIsDetected) {
  // x1 + x2 = 1 and x1 + x2 = 3 with x >= 0: contradictory.
  LpProblem P;
  P.A = {{1.0, 1.0}, {1.0, 1.0}};
  P.B = {1.0, 3.0};
  P.C = {1.0, 1.0};
  EXPECT_EQ(solveLp(P).Status, LpStatus::Infeasible);
  EXPECT_FALSE(isFeasible(P.A, P.B));
}

TEST(EdgeLpTest, NegativeRhsFeasibility) {
  // x1 - x2 = -5, x >= 0 is feasible (x2 = 5).
  Matrix A = {{1.0, -1.0}};
  Vector B = {-5.0};
  EXPECT_TRUE(isFeasible(A, B));
}

TEST(EdgeLpTest, UnboundedObjectiveIsDetected) {
  // minimize -x1 with x1 - x2 = 0: x1 can grow without bound.
  LpProblem P;
  P.A = {{1.0, -1.0}};
  P.B = {0.0};
  P.C = {-1.0, 0.0};
  EXPECT_EQ(solveLp(P).Status, LpStatus::Unbounded);
}

TEST(EdgeLpTest, DegenerateVerticesTerminate) {
  // Multiple constraints meeting at the origin (classic cycling bait).
  LpProblem P;
  P.A = {{1.0, 1.0, 1.0, 0.0}, {1.0, 2.0, 0.0, 1.0}};
  P.B = {0.0, 0.0};
  P.C = {-1.0, -2.0, 0.0, 0.0};
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, 0.0, 1e-12);
}

TEST(EdgeLpTest, SingleVariableExactSolve) {
  LpProblem P;
  P.A = {{2.0}};
  P.B = {6.0};
  P.C = {5.0};
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_DOUBLE_EQ(S.X[0], 3.0);
  EXPECT_DOUBLE_EQ(S.Objective, 15.0);
}

//===----------------------------------------------------------------------===//
// Model-file corruption
//===----------------------------------------------------------------------===//

namespace {

MonDeq smallModel() {
  Rng R(81);
  return MonDeq::randomFc(R, 4, 3, 2);
}

} // namespace

TEST(EdgeSerializationTest, GarbageFileIsRejected) {
  const char *Path = "/tmp/craft_garbage.bin";
  std::FILE *F = std::fopen(Path, "wb");
  std::fputs("this is not a model file at all", F);
  std::fclose(F);
  EXPECT_FALSE(MonDeq::load(Path).has_value());
  std::remove(Path);
}

TEST(EdgeSerializationTest, EmptyFileIsRejected) {
  const char *Path = "/tmp/craft_empty.bin";
  std::fclose(std::fopen(Path, "wb"));
  EXPECT_FALSE(MonDeq::load(Path).has_value());
  std::remove(Path);
}

TEST(EdgeSerializationTest, MissingFileIsRejected) {
  EXPECT_FALSE(MonDeq::load("/nonexistent/dir/model.bin").has_value());
}

TEST(EdgeSerializationTest, TruncationFuzzNeverCrashes) {
  // Every prefix of a valid model file must be rejected cleanly.
  const char *Path = "/tmp/craft_truncfuzz.bin";
  MonDeq Model = smallModel();
  ASSERT_TRUE(Model.save(Path));
  std::FILE *F = std::fopen(Path, "rb");
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  for (long Keep : {0L, 4L, 8L, 16L, 17L, Size / 4, Size / 2, Size - 1}) {
    ASSERT_EQ(truncate(Path, Keep), 0);
    EXPECT_FALSE(MonDeq::load(Path).has_value()) << "kept " << Keep;
    // Restore for the next round.
    ASSERT_TRUE(Model.save(Path));
  }
  std::remove(Path);
}

TEST(EdgeSerializationTest, BitFlipInHeaderIsRejected) {
  const char *Path = "/tmp/craft_bitflip.bin";
  MonDeq Model = smallModel();
  ASSERT_TRUE(Model.save(Path));
  std::FILE *F = std::fopen(Path, "rb+");
  unsigned char Byte = 0;
  ASSERT_EQ(std::fread(&Byte, 1, 1, F), 1u);
  Byte ^= 0xFF;
  std::fseek(F, 0, SEEK_SET);
  std::fwrite(&Byte, 1, 1, F);
  std::fclose(F);
  EXPECT_FALSE(MonDeq::load(Path).has_value());
  std::remove(Path);
}

TEST(EdgeSerializationTest, HugeHeaderDimIsRejected) {
  // A dimension of 2^40 must be refused before it sizes an allocation.
  const char *Path = "/tmp/craft_hugedim.bin";
  const uint64_t Huge = uint64_t{1} << 40;
  // P's dimensions follow the 17-byte header (magic, version, m, act).
  const uint64_t Patches[][2] = {{Huge, 3}, {3, Huge}, {Huge, Huge}, {Huge, 0}};
  MonDeq Model = smallModel();
  for (const auto &Dims : Patches) {
    ASSERT_TRUE(Model.save(Path));
    std::FILE *F = std::fopen(Path, "rb+");
    ASSERT_EQ(std::fseek(F, 17, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(Dims, sizeof(Dims), 1, F), 1u);
    std::fclose(F);
    EXPECT_FALSE(MonDeq::load(Path).has_value())
        << Dims[0] << " x " << Dims[1];
  }
  std::remove(Path);
}

namespace {

/// Writes a version-2 ReLU model file from raw parts, consistent or not.
void writeRawModel(const char *Path, double M, const Matrix &P,
                   const Matrix &Q, const Matrix &W, const Matrix &U,
                   const Vector &BZ, const Matrix &V, const Vector &BY) {
  std::FILE *F = std::fopen(Path, "wb");
  ASSERT_NE(F, nullptr);
  auto Put = [&](const void *Data, size_t Bytes) {
    if (Bytes > 0)
      std::fwrite(Data, 1, Bytes, F);
  };
  auto PutMatrix = [&](const Matrix &A) {
    const uint64_t Dims[2] = {A.rows(), A.cols()};
    Put(Dims, sizeof(Dims));
    Put(A.rowData(0), A.rows() * A.cols() * sizeof(double));
  };
  auto PutVector = [&](const Vector &A) {
    const uint64_t N = A.size();
    Put(&N, sizeof(N));
    Put(A.data(), N * sizeof(double));
  };
  const uint32_t Header[2] = {0x43524654, 2}; // "CRFT", version 2.
  const uint8_t Act = 0;
  Put(Header, sizeof(Header));
  Put(&M, sizeof(M));
  Put(&Act, sizeof(Act));
  PutMatrix(P);
  PutMatrix(Q);
  PutMatrix(W);
  PutMatrix(U);
  PutVector(BZ);
  PutMatrix(V);
  PutVector(BY);
  std::fclose(F);
}

} // namespace

TEST(EdgeSerializationTest, InconsistentShapesAreRejected) {
  const char *Path = "/tmp/craft_shapes.bin";
  const Matrix P(3, 3, 0.1), Q(3, 3, 0.2), W(3, 3, -0.5), U(3, 4, 1.0);
  const Matrix V(2, 3, 1.0);
  const Vector BZ(3, 0.0), BY(2, 0.0);
  // The well-formed file loads, so each rejection below is its one defect.
  writeRawModel(Path, 1.0, P, Q, W, U, BZ, V, BY);
  auto Loaded = MonDeq::load(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->latentDim(), 3u);
  writeRawModel(Path, 1.0, Matrix(), Matrix(), W, U, BZ, V, BY);
  EXPECT_TRUE(MonDeq::load(Path).has_value()) << "a fromW model";

  writeRawModel(Path, 1.0, P, Q, Matrix(3, 4, -0.5), U, BZ, V, BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "3x4 W";
  writeRawModel(Path, 1.0, P, Q, W, Matrix(2, 4, 1.0), BZ, V, BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "U rows";
  writeRawModel(Path, 1.0, P, Q, W, U, Vector(2, 0.0), V, BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "b_z length";
  writeRawModel(Path, 1.0, P, Q, W, U, BZ, Matrix(2, 4, 1.0), BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "V cols";
  writeRawModel(Path, 1.0, P, Q, W, U, BZ, V, Vector(3, 0.0));
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "b_y length";
  writeRawModel(Path, 1.0, Matrix(2, 2, 0.1), Q, W, U, BZ, V, BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "P shape";
  writeRawModel(Path, 1.0, P, Matrix(), W, U, BZ, V, BY);
  EXPECT_FALSE(MonDeq::load(Path).has_value()) << "Q alone empty";
  for (double M : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    writeRawModel(Path, M, P, Q, W, U, BZ, V, BY);
    EXPECT_FALSE(MonDeq::load(Path).has_value()) << "m = " << M;
  }
  std::remove(Path);
}

//===----------------------------------------------------------------------===//
// Degenerate abstract values
//===----------------------------------------------------------------------===//

TEST(EdgeDomainTest, PointZonotopeHasZeroRadius) {
  CHZonotope Z = CHZonotope::point(Vector{1.0, -2.0});
  EXPECT_EQ(Z.numGenerators(), 0u);
  EXPECT_DOUBLE_EQ(Z.concretizationRadius().normInf(), 0.0);
  EXPECT_DOUBLE_EQ(Z.meanWidth(), 0.0);
}

TEST(EdgeDomainTest, DegenerateBoxProducesNoGenerators) {
  // Dimensions with zero radius must not mint error terms.
  CHZonotope Z =
      CHZonotope::fromBox(Vector{0.0, 1.0, 2.0}, Vector{0.0, 1.0, 3.0});
  EXPECT_EQ(Z.numGenerators(), 1u);
  EXPECT_DOUBLE_EQ(Z.lowerBounds()[2], 2.0);
  EXPECT_DOUBLE_EQ(Z.upperBounds()[2], 3.0);
}

TEST(EdgeDomainTest, AffineOfPointIsExact) {
  CHZonotope Z = CHZonotope::point(Vector{1.0, 2.0});
  Matrix M = {{2.0, 0.0}, {1.0, -1.0}};
  CHZonotope Y = Z.affine(M, Vector{0.5, 0.0});
  EXPECT_DOUBLE_EQ(Y.center()[0], 2.5);
  EXPECT_DOUBLE_EQ(Y.center()[1], -1.0);
  EXPECT_DOUBLE_EQ(Y.concretizationRadius().normInf(), 0.0);
}

TEST(EdgeDomainTest, ReluOnAllNegativePointCollapsesToZero) {
  CHZonotope Z = CHZonotope::point(Vector{-3.0, -1.0});
  CHZonotope Y = Z.reluPrefix(2);
  EXPECT_DOUBLE_EQ(Y.center()[0], 0.0);
  EXPECT_DOUBLE_EQ(Y.center()[1], 0.0);
}

TEST(EdgeDomainTest, SliceAndStackRoundTrip) {
  CHZonotope Z =
      CHZonotope::fromBox(Vector{0.0, 1.0, 2.0}, Vector{1.0, 2.0, 3.0});
  CHZonotope Top = Z.slice(0, 1);
  CHZonotope Rest = Z.slice(1, 2);
  CHZonotope Back = CHZonotope::stack(Top, Rest);
  EXPECT_EQ(Back.dim(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_DOUBLE_EQ(Back.lowerBounds()[I], Z.lowerBounds()[I]);
    EXPECT_DOUBLE_EQ(Back.upperBounds()[I], Z.upperBounds()[I]);
  }
}

//===----------------------------------------------------------------------===//
// Affine-form extremes
//===----------------------------------------------------------------------===//

TEST(EdgeAffineTest, HugeMagnitudesStayFinite) {
  AffineForm X = AffineForm::range(1e150, 2e150);
  AffineForm Y = X * 2.0 + 1e150;
  EXPECT_TRUE(std::isfinite(Y.lo()));
  EXPECT_TRUE(std::isfinite(Y.hi()));
  EXPECT_GE(Y.hi(), 4.9e150);
}

TEST(EdgeAffineTest, TinyWidthsSurviveNonlinearOps) {
  AffineForm X = AffineForm::range(2.0, 2.0 + 1e-14);
  AffineForm Y = X.sqrt();
  EXPECT_NEAR(Y.center(), std::sqrt(2.0), 1e-9);
  EXPECT_LT(Y.width(), 1e-10);
}

TEST(EdgeAffineTest, TanhSaturatesGracefully) {
  AffineForm X = AffineForm::range(50.0, 700.0);
  AffineForm Y = X.tanh();
  EXPECT_LE(Y.hi(), 1.0 + 1e-9);
  EXPECT_GE(Y.lo(), 1.0 - 1e-9);
}

TEST(EdgeAffineTest, SigmoidAtExtremeNegativeInputs) {
  AffineForm X = AffineForm::range(-700.0, -50.0);
  AffineForm Y = X.sigmoid();
  EXPECT_GE(Y.lo(), -1e-9);
  EXPECT_LE(Y.hi(), 1e-9);
}

//===----------------------------------------------------------------------===//
// Randomized round-trip fuzz
//===----------------------------------------------------------------------===//

class SerializationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationFuzzTest, RandomModelsRoundTripExactly) {
  Rng R(900 + GetParam());
  size_t Q = 1 + (size_t)R.uniformInt(1, 8);
  size_t P = 1 + (size_t)R.uniformInt(1, 8);
  size_t C = 2 + (size_t)R.uniformInt(0, 3);
  MonDeq Model = MonDeq::randomFc(R, Q, P, C,
                                  R.uniform(0.5, 30.0));
  if (GetParam() % 3 == 1)
    Model.setActivation(ActivationKind::Tanh);
  if (GetParam() % 3 == 2)
    Model.setActivation(ActivationKind::Sigmoid);

  std::string Path =
      "/tmp/craft_fuzz_" + std::to_string(GetParam()) + ".bin";
  ASSERT_TRUE(Model.save(Path));
  auto Loaded = MonDeq::load(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->inputDim(), Q);
  EXPECT_EQ(Loaded->latentDim(), P);
  EXPECT_EQ(Loaded->activation(), Model.activation());
  // Bitwise-equal parameters: identical predictions everywhere.
  Vector X(Q);
  for (double &V : X)
    V = R.uniform(0.0, 1.0);
  EXPECT_EQ(predictClass(*Loaded, X), predictClass(Model, X));
  EXPECT_DOUBLE_EQ((Loaded->weightW() - Model.weightW()).maxAbs(), 0.0);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Range(0, 12));
