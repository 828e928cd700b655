//===- tests/test_linalg_kernels.cpp - Kernel/view/workspace tests --------===//
//
// Coverage for the allocation-free linalg kernel layer: destination-passing
// kernels against reference loops, LU's per-pivot elimination kernel
// against the per-row axpy loop and the scalar loops before it, zero-copy
// view slicing against whole-matrix results,
// zero-dimension edge cases, aliasing contracts (asserted in debug
// builds), and workspace reuse across repeated calls.
//
//===----------------------------------------------------------------------===//

#include "linalg/KernelBackends.h"
#include "linalg/Kernels.h"
#include "linalg/Lu.h"
#include "linalg/Views.h"
#include "linalg/Workspace.h"

#include "domains/CHZonotope.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

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

/// Reference j-i-k triple loop, deliberately different from the kernel's
/// blocked i-k-j order.
Matrix refMatmul(const Matrix &A, const Matrix &B) {
  Matrix Out(A.rows(), B.cols());
  for (size_t J = 0; J < B.cols(); ++J)
    for (size_t I = 0; I < A.rows(); ++I) {
      double Sum = 0.0;
      for (size_t K = 0; K < A.cols(); ++K)
        Sum += A(I, K) * B(K, J);
      Out(I, J) = Sum;
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// gemm
//===----------------------------------------------------------------------===//

TEST(Gemm, MatchesReferenceProduct) {
  Rng R(7);
  // Odd extents on purpose: 33 rows exercise the microtile row remainder
  // and 41 columns the lane remainder of the packed panel.
  Matrix A = randomMatrix(R, 33, 150);
  Matrix B = randomMatrix(R, 150, 41);
  Matrix Out(33, 41);
  kernels::gemm(Out, A, B);
  EXPECT_LT((Out - refMatmul(A, B)).maxAbs(), 1e-12);
}

TEST(Gemm, AlphaBetaSemantics) {
  Rng R(8);
  Matrix A = randomMatrix(R, 9, 11);
  Matrix B = randomMatrix(R, 11, 6);
  Matrix Prior = randomMatrix(R, 9, 6);
  Matrix Out = Prior;
  kernels::gemm(Out, A, B, 2.0, 0.5);
  Matrix Expect = 2.0 * (A * B) + 0.5 * Prior;
  EXPECT_LT((Out - Expect).maxAbs(), 1e-12);
}

TEST(Gemm, BetaZeroIgnoresGarbageOutput) {
  Rng R(9);
  Matrix A = randomMatrix(R, 5, 5);
  Matrix B = randomMatrix(R, 5, 5);
  Matrix Out(5, 5, 1e300); // Poisoned: beta = 0 must overwrite, not read.
  kernels::gemm(Out, A, B);
  EXPECT_LT((Out - refMatmul(A, B)).maxAbs(), 1e-12);
}

TEST(Gemm, SparseAwareIsBitwiseIdenticalToDense) {
  Rng R(10);
  Matrix A = randomMatrix(R, 20, 30);
  // Realistic structural sparsity: zero out most entries exactly.
  for (size_t I = 0; I < A.rows(); ++I)
    for (size_t J = 0; J < A.cols(); ++J)
      if ((I + J) % 3 != 0)
        A(I, J) = 0.0;
  Matrix B = randomMatrix(R, 30, 17);
  Matrix Dense(20, 17), Sparse(20, 17);
  kernels::gemm(Dense, A, B);
  kernels::gemmSparseAware(Sparse, A, B);
  for (size_t I = 0; I < Dense.rows(); ++I)
    for (size_t J = 0; J < Dense.cols(); ++J)
      EXPECT_EQ(Dense(I, J), Sparse(I, J));
}

TEST(Gemm, ZeroDimensions) {
  // Inner dimension zero: the product is the zero matrix.
  Matrix A(4, 0), B(0, 3);
  Matrix Out(4, 3, 7.0);
  kernels::gemm(Out, A, B);
  EXPECT_EQ(Out.maxAbs(), 0.0);
  // Zero-row and zero-column outputs must be accepted.
  Matrix Empty(0, 3);
  kernels::gemm(Empty, Matrix(0, 5), Matrix(5, 3));
  Matrix NoCols(3, 0);
  kernels::gemm(NoCols, Matrix(3, 5), Matrix(5, 0));
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// gemv / gemvAbs / axpy / scale
//===----------------------------------------------------------------------===//

TEST(Gemv, MatchesOperatorAndAccumulates) {
  Rng R(11);
  Matrix M = randomMatrix(R, 13, 21);
  Vector V = randomVector(R, 21);
  Vector Out(13);
  kernels::gemv(Out, M, V);
  Vector Expect = M * V;
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_DOUBLE_EQ(Out[I], Expect[I]);

  Vector Acc = randomVector(R, 13);
  Vector Expect2 = Acc + 3.0 * (M * V);
  kernels::gemv(Acc, M, V, 3.0, 1.0);
  for (size_t I = 0; I < Acc.size(); ++I)
    EXPECT_NEAR(Acc[I], Expect2[I], 1e-12);
}

TEST(Gemv, EmptyDimensions) {
  Vector Out;
  kernels::gemv(Out, Matrix(), Vector());
  Vector Out2(3, 5.0);
  kernels::gemv(Out2, Matrix(3, 0), Vector());
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(Out2[I], 0.0); // Empty sum, beta = 0: overwritten with 0.
}

TEST(GemvAbs, NeverMaterializesAbsMatrix) {
  Rng R(12);
  Matrix M = randomMatrix(R, 10, 14);
  Vector V = randomVector(R, 14);
  Vector Out(10);
  kernels::gemvAbs(Out, M, V);
  Vector Expect = M.abs() * V;
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], Expect[I]); // Bitwise: same reduction order.
}

TEST(GemvTransposed, BitwiseMatchesExplicitTranspose) {
  Rng R(19);
  // Odd extents cover the lane remainders; 1 x N and N x 1 the degenerate
  // sweeps. Widths of 64 columns and more (8 lanes of AVX-512) run the
  // widest register pass, repeatedly from 128 on; 784 x 100 is the
  // concrete solver's U^T on MNIST and 100 x 784 the gradient's U.
  const struct {
    size_t Rows, Cols;
  } Shapes[] = {{1, 1},   {1, 9},    {9, 1},    {5, 3},    {13, 21},
                {100, 87}, {3, 64},  {7, 71},   {17, 128}, {2, 135},
                {784, 100}, {100, 784}};
  for (const auto &S : Shapes) {
    Matrix M = randomMatrix(R, S.Rows, S.Cols);
    Vector V = randomVector(R, S.Rows);
    V[0] = 0.0; // A zero coefficient still takes part in the sweep.
    Vector Out(S.Cols, 1e300); // Poisoned: the kernel must overwrite.
    kernels::gemvTransposed(Out, M, V);
    Vector Expect = M.transpose() * V;
    EXPECT_EQ(0, std::memcmp(Out.data(), Expect.data(),
                             S.Cols * sizeof(double)))
        << S.Rows << "x" << S.Cols;
  }
}

TEST(GemvTransposed, StridedViews) {
  Rng R(20);
  Matrix Parent = randomMatrix(R, 20, 30);
  ConstMatrixView M = ConstMatrixView(Parent).block(2, 3, 17, 23);
  Vector V = randomVector(R, 17);
  Vector Wide(40, -1.0);
  kernels::gemvTransposed(VectorView(Wide).slice(5, 23), M, V);
  Matrix Block(17, 23);
  kernels::copyInto(Block, M);
  Vector Expect = Block.transpose() * V;
  EXPECT_EQ(0, std::memcmp(Wide.data() + 5, Expect.data(),
                           23 * sizeof(double)));
  EXPECT_EQ(Wide[4], -1.0); // Surroundings untouched.
  EXPECT_EQ(Wide[28], -1.0);
}

TEST(GemvTransposed, ZeroDimensions) {
  // No rows: the empty sum, so zeros (like gemv over zero columns).
  Vector Out(3, 7.0);
  kernels::gemvTransposed(Out, Matrix(0, 3), Vector());
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ(Out[I], 0.0);
  Vector Expect = Matrix(0, 3).transpose() * Vector();
  EXPECT_EQ(0, std::memcmp(Out.data(), Expect.data(), 3 * sizeof(double)));
  // No columns: nothing to write.
  Vector Empty;
  kernels::gemvTransposed(Empty, Matrix(4, 0), Vector(4, 1.0));
  kernels::gemvTransposed(Empty, Matrix(), Vector());
  SUCCEED();
}

TEST(AxpyScale, MatchReference) {
  Rng R(13);
  Vector Y = randomVector(R, 17), X = randomVector(R, 17);
  Vector Expect = Y + (-2.5) * X;
  kernels::axpy(Y, -2.5, X);
  for (size_t I = 0; I < Y.size(); ++I)
    EXPECT_EQ(Y[I], Expect[I]);
  Vector Scaled = X;
  kernels::scale(Scaled, 0.25);
  for (size_t I = 0; I < X.size(); ++I)
    EXPECT_EQ(Scaled[I], 0.25 * X[I]);
}

//===----------------------------------------------------------------------===//
// transposeInto / rowAbsSumsInto / copy / fill
//===----------------------------------------------------------------------===//

TEST(TransposeInto, MatchesAllocatingTranspose) {
  Rng R(14);
  Matrix M = randomMatrix(R, 7, 12);
  Matrix Out(12, 7);
  kernels::transposeInto(Out, M);
  EXPECT_EQ((Out - M.transpose()).maxAbs(), 0.0);
}

TEST(RowAbsSums, BetaAccumulates) {
  Rng R(15);
  Matrix M = randomMatrix(R, 6, 9);
  Vector Out(6, 10.0);
  kernels::rowAbsSumsInto(Out, M, 1.0);
  Vector Expect = M.rowAbsSums();
  for (size_t I = 0; I < 6; ++I)
    EXPECT_DOUBLE_EQ(Out[I], Expect[I] + 10.0);
}

//===----------------------------------------------------------------------===//
// LU elimination on axpy
//===----------------------------------------------------------------------===//

/// The scalar elimination loops LuDecomposition ran before they became
/// axpy calls, kept as the bitwise reference (nonsingular inputs only).
struct ScalarLu {
  Matrix F;
  std::vector<size_t> Pivots;
  double Sign = 1.0;

  explicit ScalarLu(const Matrix &A) : F(A), Pivots(A.rows()) {
    const size_t N = A.rows();
    for (size_t K = 0; K < N; ++K) {
      size_t Pivot = K;
      double Best = std::fabs(F(K, K));
      for (size_t R = K + 1; R < N; ++R)
        if (std::fabs(F(R, K)) > Best) {
          Best = std::fabs(F(R, K));
          Pivot = R;
        }
      Pivots[K] = Pivot;
      if (Pivot != K) {
        for (size_t C = 0; C < N; ++C)
          std::swap(F(K, C), F(Pivot, C));
        Sign = -Sign;
      }
      double Inv = 1.0 / F(K, K);
      for (size_t R = K + 1; R < N; ++R) {
        double L = F(R, K) * Inv;
        F(R, K) = L;
        if (L == 0.0)
          continue;
        for (size_t C = K + 1; C < N; ++C)
          F(R, C) -= L * F(K, C);
      }
    }
  }

  Vector solve(const Vector &B) const {
    const size_t N = F.rows();
    Vector X = B;
    for (size_t K = 0; K < N; ++K) {
      std::swap(X[K], X[Pivots[K]]);
      double Sum = X[K];
      for (size_t C = 0; C < K; ++C)
        Sum -= F(K, C) * X[C];
      X[K] = Sum;
    }
    for (size_t K = N; K-- > 0;) {
      double Sum = X[K];
      for (size_t C = K + 1; C < N; ++C)
        Sum -= F(K, C) * X[C];
      X[K] = Sum / F(K, K);
    }
    return X;
  }

  Matrix solve(const Matrix &B) const {
    const size_t N = F.rows(), M = B.cols();
    Matrix X = B;
    for (size_t K = 0; K < N; ++K) {
      if (Pivots[K] != K)
        for (size_t J = 0; J < M; ++J)
          std::swap(X(K, J), X(Pivots[K], J));
      for (size_t C = 0; C < K; ++C) {
        double L = F(K, C);
        if (L == 0.0)
          continue;
        for (size_t J = 0; J < M; ++J)
          X(K, J) -= L * X(C, J);
      }
    }
    for (size_t K = N; K-- > 0;) {
      for (size_t C = K + 1; C < N; ++C) {
        double U = F(K, C);
        if (U == 0.0)
          continue;
        for (size_t J = 0; J < M; ++J)
          X(K, J) -= U * X(C, J);
      }
      double Inv = 1.0 / F(K, K);
      for (size_t J = 0; J < M; ++J)
        X(K, J) *= Inv;
    }
    return X;
  }
};

/// LU factors as the elimination loop ran before it became one
/// luEliminate call per pivot: per row, the multiplier, then one
/// dispatched axpy with its negation.
Matrix perRowAxpyFactors(Matrix F) {
  const size_t N = F.rows();
  for (size_t K = 0; K < N; ++K) {
    size_t Pivot = K;
    double Best = std::fabs(F(K, K));
    for (size_t R = K + 1; R < N; ++R)
      if (std::fabs(F(R, K)) > Best) {
        Best = std::fabs(F(R, K));
        Pivot = R;
      }
    if (Best < 1e-13)
      continue;
    if (Pivot != K)
      for (size_t C = 0; C < N; ++C)
        std::swap(F(K, C), F(Pivot, C));
    double Inv = 1.0 / F(K, K);
    for (size_t R = K + 1; R < N; ++R) {
      double L = F(R, K) * Inv;
      F(R, K) = L;
      if (L == 0.0)
        continue;
      kernels::axpy(VectorView(F.rowData(R) + K + 1, N - K - 1), -L,
                    ConstVectorView(F.rowData(K) + K + 1, N - K - 1));
    }
  }
  return F;
}

TEST(LuEliminate, FactorsMatchPerRowAxpyElimination) {
  Rng R(22);
  for (size_t N : {1u, 2u, 5u, 9u, 37u, 100u}) {
    Matrix A = randomMatrix(R, N, N);
    // Exact zeros exercise the zero-multiplier skips.
    for (size_t I = 0; I < N; ++I)
      A(I, (I * 7) % N) = 0.0;
    const Matrix Want = perRowAxpyFactors(A);
    const LuDecomposition Lu(A);
    ASSERT_EQ(Lu.factors().rows(), N);
    EXPECT_EQ(0, std::memcmp(Lu.factors().rowData(0), Want.rowData(0),
                             N * N * sizeof(double)))
        << N << "x" << N;
  }
  // A zero column skips its pivot: the singular path leaves that step's
  // block as it found it, in both.
  Matrix S = randomMatrix(R, 6, 6);
  for (size_t I = 0; I < 6; ++I)
    S(I, 2) = 0.0;
  const LuDecomposition Lu(S);
  EXPECT_TRUE(Lu.isSingular());
  const Matrix Want = perRowAxpyFactors(S);
  EXPECT_EQ(0, std::memcmp(Lu.factors().rowData(0), Want.rowData(0),
                           36 * sizeof(double)));
}

TEST(LuOnAxpy, BitwiseMatchesScalarElimination) {
  Rng R(21);
  const size_t N = 37;
  Matrix A = randomMatrix(R, N, N);
  // Exact zeros exercise the zero-multiplier skips.
  for (size_t I = 0; I < N; ++I)
    A(I, (I * 7) % N) = 0.0;
  ScalarLu Ref(A);
  size_t Swaps = 0;
  for (size_t K = 0; K < N; ++K)
    Swaps += Ref.Pivots[K] != K;
  ASSERT_GT(Swaps, 0u) << "fixture must exercise partial pivoting";

  LuDecomposition Lu(A);
  ASSERT_FALSE(Lu.isSingular());
  const double Det = Lu.determinant();
  double DetRef = Ref.Sign;
  for (size_t K = 0; K < N; ++K)
    DetRef *= Ref.F(K, K);
  EXPECT_EQ(0, std::memcmp(&Det, &DetRef, sizeof(double)));

  // The vector solve runs the factors through unchanged substitution
  // loops, so matching it on several right-hand sides pins the factors.
  for (int Rhs = 0; Rhs < 4; ++Rhs) {
    Vector B = randomVector(R, N);
    Vector X = Lu.solve(B), XRef = Ref.solve(B);
    EXPECT_EQ(0, std::memcmp(X.data(), XRef.data(), N * sizeof(double)));
  }
  Matrix B = randomMatrix(R, N, 11);
  Matrix X = Lu.solve(B), XRef = Ref.solve(B);
  EXPECT_EQ(0, std::memcmp(X.rowData(0), XRef.rowData(0),
                           N * 11 * sizeof(double)));
  Matrix Inv = Lu.inverse(), InvRef = Ref.solve(Matrix::identity(N));
  EXPECT_EQ(0, std::memcmp(Inv.rowData(0), InvRef.rowData(0),
                           N * N * sizeof(double)));
}

//===----------------------------------------------------------------------===//
// Views: zero-copy slicing
//===----------------------------------------------------------------------===//

TEST(Views, BlockSlicingMatchesWholeMatrixResults) {
  Rng R(16);
  Matrix M = randomMatrix(R, 10, 16);
  // colRange view vs the allocating colRange copy.
  ConstMatrixView View = ConstMatrixView(M).colRange(3, 7);
  Matrix Copy = M.colRange(3, 7);
  ASSERT_EQ(View.rows(), Copy.rows());
  ASSERT_EQ(View.cols(), Copy.cols());
  EXPECT_EQ(View.stride(), M.cols()); // Zero-copy: parent stride.
  EXPECT_EQ(View.data(), M.rowData(0) + 3);
  for (size_t I = 0; I < View.rows(); ++I)
    for (size_t J = 0; J < View.cols(); ++J)
      EXPECT_EQ(View(I, J), Copy(I, J));
}

TEST(Views, StridedGemmMatchesWholeMatrixGemm) {
  Rng R(17);
  Matrix A = randomMatrix(R, 6, 20);
  Matrix B = randomMatrix(R, 8, 11);
  // Multiply a column slice of A (strided view) against a block of B.
  ConstMatrixView ASlice = ConstMatrixView(A).colRange(5, 8);
  ConstMatrixView BBlock = ConstMatrixView(B).block(0, 2, 8, 9);
  Matrix Out(6, 9);
  kernels::gemm(Out, ASlice, BBlock);
  Matrix Expect = A.colRange(5, 8) * B.colRange(2, 9);
  EXPECT_EQ((Out - Expect).maxAbs(), 0.0);
}

TEST(Views, StridedDestination) {
  Rng R(18);
  Matrix A = randomMatrix(R, 4, 5);
  Matrix B = randomMatrix(R, 5, 3);
  // Write the product into the middle columns of a wider matrix.
  Matrix Wide(4, 9, -1.0);
  kernels::gemm(MatrixView(Wide).colRange(3, 3), A, B);
  Matrix Expect = A * B;
  for (size_t I = 0; I < 4; ++I) {
    for (size_t J = 0; J < 3; ++J)
      EXPECT_EQ(Wide(I, 3 + J), Expect(I, J));
    EXPECT_EQ(Wide(I, 0), -1.0); // Surroundings untouched.
    EXPECT_EQ(Wide(I, 8), -1.0);
  }
}

TEST(Views, VectorSlice) {
  Vector V{1.0, 2.0, 3.0, 4.0, 5.0};
  ConstVectorView S = ConstVectorView(V).slice(1, 3);
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], 2.0);
  EXPECT_EQ(S[2], 4.0);
  EXPECT_EQ(S.data(), V.data() + 1);
}

//===----------------------------------------------------------------------===//
// Aliasing contract
//===----------------------------------------------------------------------===//

// gemm/gemv outputs must not overlap their inputs: the kernels read inputs
// while writing the output, so an aliased call would consume partially
// written data. The contract is enforced by assertions, which only fire in
// debug builds (the ASan/UBSan CI job); release builds document it here.
#ifndef NDEBUG
TEST(AliasingDeathTest, GemmOutputOverlappingInputAsserts) {
  Matrix A(4, 4, 1.0);
  EXPECT_DEATH(kernels::gemm(A, A, A), "alias");
}

TEST(AliasingDeathTest, GemvOutputOverlappingInputAsserts) {
  Matrix M(3, 3, 1.0);
  VectorView Row(M.rowData(0), 3);
  EXPECT_DEATH(kernels::gemv(Row, M, Vector(3, 1.0)), "alias");
}
#endif

//===----------------------------------------------------------------------===//
// Workspace
//===----------------------------------------------------------------------===//

TEST(Workspace, ReuseAcrossRepeatedCalls) {
  Workspace &W = Workspace::threadLocal();
  // Warm up, then verify repeated identical scopes reuse identical storage
  // (pointer-stable, no capacity growth).
  double *FirstPtr = nullptr;
  {
    WorkspaceScope WS(W);
    FirstPtr = WS.alloc(256);
  }
  size_t CapAfterWarmup = W.capacity();
  for (int Round = 0; Round < 10; ++Round) {
    WorkspaceScope WS(W);
    MatrixView M = WS.matrix(8, 16);
    VectorView V = WS.vector(128);
    EXPECT_EQ(M.data(), FirstPtr); // Rewound to the same offset.
    kernels::fill(M, 1.0);
    kernels::fill(V, 2.0);
  }
  EXPECT_EQ(W.capacity(), CapAfterWarmup);
}

TEST(Workspace, NestedScopesAreStackDiscipline) {
  Workspace &W = Workspace::threadLocal();
  WorkspaceScope Outer(W);
  VectorView A = Outer.vector(16);
  kernels::fill(A, 42.0);
  {
    WorkspaceScope Inner(W);
    VectorView B = Inner.vector(1 << 20); // Forces fresh-block growth.
    kernels::fill(B, 7.0);
    // Outer buffer must be untouched even though the arena grew.
    for (size_t I = 0; I < A.size(); ++I)
      EXPECT_EQ(A[I], 42.0);
  }
  // After the inner scope dies, the outer scope can keep allocating.
  VectorView C = Outer.vector(16);
  kernels::fill(C, 3.0);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], 42.0);
}

TEST(Workspace, ZeroInitializedVariants) {
  WorkspaceScope WS;
  // Poison, rewind, and re-request: zeroMatrix must actually clear.
  {
    WorkspaceScope Poison;
    VectorView P = Poison.vector(64);
    kernels::fill(P, 1e300);
  }
  MatrixView M = WS.zeroMatrix(4, 8);
  VectorView V = WS.zeroVector(16);
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 8; ++J)
      EXPECT_EQ(M(I, J), 0.0);
  for (size_t I = 0; I < 16; ++I)
    EXPECT_EQ(V[I], 0.0);
}

TEST(Workspace, ZeroSizedRequests) {
  WorkspaceScope WS;
  EXPECT_EQ(WS.alloc(0), nullptr);
  VectorView V = WS.vector(0);
  EXPECT_TRUE(V.empty());
  MatrixView M = WS.matrix(0, 5);
  EXPECT_TRUE(M.empty());
}

//===----------------------------------------------------------------------===//
// Backend equivalence: scalar vs dispatched SIMD vs pool-tiled
//===----------------------------------------------------------------------===//

// Every compiled-and-runnable backend table must produce byte-identical
// outputs to the scalar reference table — same per-element reduction
// order, no FMA contraction — on random, strided, unaligned-offset, and
// zero-dimension views. Byte-identical means bit patterns, not ==: these
// helpers memcmp, so a -0.0 vs +0.0 divergence fails too.

void expectBitEqual(ConstMatrixView A, ConstMatrixView B) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(A.cols(), B.cols());
  if (A.empty())
    return; // memcmp on empty views would pass null pointers (UB).
  for (size_t R = 0; R < A.rows(); ++R)
    EXPECT_EQ(0, std::memcmp(A.row(R), B.row(R), A.cols() * sizeof(double)))
        << "row " << R << " differs";
}

void expectBitEqual(ConstVectorView A, ConstVectorView B) {
  ASSERT_EQ(A.size(), B.size());
  if (A.empty())
    return;
  EXPECT_EQ(0, std::memcmp(A.data(), B.data(), A.size() * sizeof(double)));
}

std::vector<kernels::KernelBackend> availableBackends() {
  std::vector<kernels::KernelBackend> Backends;
  for (auto B : {kernels::KernelBackend::Scalar, kernels::KernelBackend::Avx2,
                 kernels::KernelBackend::Avx512})
    if (kernels::kernelTableFor(B))
      Backends.push_back(B);
  return Backends;
}

class BackendEquivalence
    : public ::testing::TestWithParam<kernels::KernelBackend> {
protected:
  const kernels::KernelTable &Table =
      *kernels::kernelTableFor(GetParam());
  const kernels::KernelTable &Ref =
      *kernels::kernelTableFor(kernels::KernelBackend::Scalar);
};

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendEquivalence, ::testing::ValuesIn(availableBackends()),
    [](const ::testing::TestParamInfo<kernels::KernelBackend> &Info) {
      return kernels::kernelBackendName(Info.param);
    });

TEST_P(BackendEquivalence, GemmBitwiseMatchesScalar) {
  Rng R(101);
  const struct {
    size_t M, K, N;
  } Shapes[] = {{1, 1, 1},   {3, 5, 2},    {7, 13, 5},  {33, 150, 41},
                {64, 64, 64}, {4, 48, 96}, {5, 3, 200}, {87, 87, 174}};
  const struct {
    double Alpha, Beta;
  } Coeffs[] = {{1.0, 0.0}, {2.0, 0.5}, {1.0, 1.0}, {-0.25, 2.0}};
  for (const auto &S : Shapes) {
    Matrix A = randomMatrix(R, S.M, S.K);
    Matrix B = randomMatrix(R, S.K, S.N);
    for (const auto &C : Coeffs) {
      Matrix Prior = randomMatrix(R, S.M, S.N);
      Matrix OutRef = Prior, Out = Prior;
      Ref.Gemm(OutRef, A, B, C.Alpha, C.Beta);
      Table.Gemm(Out, A, B, C.Alpha, C.Beta);
      expectBitEqual(Out, OutRef);
      OutRef = Prior;
      Out = Prior;
      Ref.GemmSparse(OutRef, A, B, C.Alpha, C.Beta);
      Table.GemmSparse(Out, A, B, C.Alpha, C.Beta);
      expectBitEqual(Out, OutRef);
    }
  }
}

TEST_P(BackendEquivalence, GemmStridedUnalignedViews) {
  Rng R(102);
  // Operands and destination carved out of larger parents at column
  // offset 1: every row pointer is 8-byte-aligned but not 16/32/64-byte
  // aligned, and every view is strided.
  Matrix AParent = randomMatrix(R, 30, 60);
  Matrix BParent = randomMatrix(R, 40, 90);
  ConstMatrixView A = ConstMatrixView(AParent).block(1, 1, 23, 37);
  ConstMatrixView B = ConstMatrixView(BParent).block(2, 1, 37, 83);
  Matrix OutRefParent(25, 90, -7.0), OutParent(25, 90, -7.0);
  Ref.Gemm(MatrixView(OutRefParent).block(1, 1, 23, 83), A, B, 1.5, 0.0);
  Table.Gemm(MatrixView(OutParent).block(1, 1, 23, 83), A, B, 1.5, 0.0);
  // Whole-parent comparison: identical results and untouched surroundings.
  expectBitEqual(OutParent, OutRefParent);
}

TEST_P(BackendEquivalence, GemmZeroDimensions) {
  Matrix Out(4, 3, 7.0), OutRef(4, 3, 7.0);
  Table.Gemm(Out, Matrix(4, 0), Matrix(0, 3), 1.0, 0.0);
  Ref.Gemm(OutRef, Matrix(4, 0), Matrix(0, 3), 1.0, 0.0);
  expectBitEqual(Out, OutRef);
  EXPECT_EQ(Out.maxAbs(), 0.0); // K = 0, beta = 0: zeros, not garbage.
  Matrix Empty(0, 3), EmptyRef(0, 3);
  Table.Gemm(Empty, Matrix(0, 5), Matrix(5, 3), 1.0, 0.0);
  Matrix NoCols(3, 0);
  Table.Gemm(NoCols, Matrix(3, 5), Matrix(5, 0), 1.0, 0.0);
  SUCCEED();
}

TEST_P(BackendEquivalence, GemvFamilyBitwiseMatchesScalar) {
  Rng R(103);
  for (size_t Rows : {1u, 2u, 3u, 5u, 8u, 9u, 31u, 87u})
    for (size_t Cols : {1u, 4u, 17u, 64u}) {
      Matrix M = randomMatrix(R, Rows, Cols);
      Vector V = randomVector(R, Cols);
      Vector Prior = randomVector(R, Rows);
      for (double Beta : {0.0, 1.0, -0.5}) {
        Vector OutRef = Prior, Out = Prior;
        Ref.Gemv(OutRef, M, V, 1.25, Beta);
        Table.Gemv(Out, M, V, 1.25, Beta);
        expectBitEqual(Out, OutRef);
        OutRef = Prior;
        Out = Prior;
        Ref.GemvAbs(OutRef, M, V, 1.25, Beta);
        Table.GemvAbs(Out, M, V, 1.25, Beta);
        expectBitEqual(Out, OutRef);
        OutRef = Prior;
        Out = Prior;
        Ref.RowAbsSums(OutRef, M, Beta);
        Table.RowAbsSums(Out, M, Beta);
        expectBitEqual(Out, OutRef);
      }
      // Strided matrix operand (column sub-range of a wider parent).
      if (Cols >= 4) {
        ConstMatrixView MV = ConstMatrixView(M).colRange(1, Cols - 2);
        Vector VS = randomVector(R, Cols - 2);
        Vector OutRef = Prior, Out = Prior;
        Ref.GemvAbs(OutRef, MV, VS, 1.0, 0.0);
        Table.GemvAbs(Out, MV, VS, 1.0, 0.0);
        expectBitEqual(Out, OutRef);
      }
    }
  // Zero-dimension edges.
  Vector Empty, EmptyRef;
  Table.Gemv(Empty, Matrix(), Vector(), 1.0, 0.0);
  Vector Out3(3, 5.0), Out3Ref(3, 5.0);
  Table.Gemv(Out3, Matrix(3, 0), Vector(), 1.0, 0.0);
  Ref.Gemv(Out3Ref, Matrix(3, 0), Vector(), 1.0, 0.0);
  expectBitEqual(Out3, Out3Ref);
}

TEST_P(BackendEquivalence, VectorKernelsBitwiseMatchScalar) {
  Rng R(104);
  for (size_t N : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 64u, 201u}) {
    Vector X = randomVector(R, N);
    Vector YRef = randomVector(R, N);
    Vector Y = YRef;
    Ref.Axpy(YRef, -2.5, X);
    Table.Axpy(Y, -2.5, X);
    expectBitEqual(Y, YRef);

    Vector SRef = X, S = X;
    Ref.Scale(SRef, 0.3);
    Table.Scale(S, 0.3);
    expectBitEqual(S, SRef);

    const double MaxRef = Ref.NormInf(X);
    const double Max = Table.NormInf(X);
    EXPECT_EQ(0, std::memcmp(&Max, &MaxRef, sizeof(double)));
  }
}

TEST_P(BackendEquivalence, GemvTransposedBitwiseMatchesScalar) {
  Rng R(105);
  // 0..135 columns: at lane width 8 every count of full 8-lane passes up
  // to two, each combination of the 4-, 2- and 1-lane passes, and every
  // tail width 0..7 (and so every tail at width 4 too).
  for (size_t Rows : {0u, 1u, 3u, 17u})
    for (size_t Cols = 0; Cols <= 135; ++Cols) {
      Matrix M = randomMatrix(R, Rows, Cols);
      Vector V = randomVector(R, Rows);
      Vector OutRef(Cols, 1e300), Out(Cols, -1e300);
      Ref.GemvTransposed(OutRef, M, V);
      Table.GemvTransposed(Out, M, V);
      SCOPED_TRACE(testing::Message() << Rows << "x" << Cols);
      expectBitEqual(Out, OutRef);
    }
  // Strided and unaligned: a block at column offset 1 of a wider parent,
  // written into the middle of a larger vector.
  Matrix Parent = randomMatrix(R, 40, 120);
  ConstMatrixView M = ConstMatrixView(Parent).block(3, 1, 33, 101);
  Vector V = randomVector(R, 33);
  Vector WideRef(110, -7.0), Wide(110, -7.0);
  Ref.GemvTransposed(VectorView(WideRef).slice(4, 101), M, V);
  Table.GemvTransposed(VectorView(Wide).slice(4, 101), M, V);
  expectBitEqual(Wide, WideRef);
}

TEST_P(BackendEquivalence, LuEliminateBitwiseMatchesScalar) {
  Rng R(106);
  for (size_t N : {1u, 2u, 3u, 8u, 9u, 17u, 64u, 100u}) {
    Matrix A = randomMatrix(R, N, N);
    for (size_t I = 1; I < N; I += 3)
      A(I, 0) = 0.0; // Zero multipliers skip their row.
    Matrix Got = A, Want = A;
    Ref.LuEliminate(Want);
    Table.LuEliminate(Got);
    SCOPED_TRACE(N);
    expectBitEqual(Got, Want);
  }
  // A trailing block of a larger matrix: strided rows, unaligned start,
  // surroundings untouched.
  Matrix Parent = randomMatrix(R, 30, 30);
  Matrix Got = Parent, Want = Parent;
  Ref.LuEliminate(MatrixView(Want).block(5, 5, 25, 25));
  Table.LuEliminate(MatrixView(Got).block(5, 5, 25, 25));
  expectBitEqual(Got, Want);
}

// The pool-tiled paths must be byte-identical to the untiled active
// backend for every tile count — the partition never changes any
// per-element reduction order.
TEST(TiledKernels, GemmTiledBitwiseMatchesUntiled) {
  Rng R(105);
  Matrix A = randomMatrix(R, 33, 70);
  Matrix B = randomMatrix(R, 70, 131);
  Matrix Prior = randomMatrix(R, 33, 131);
  Matrix Untiled = Prior;
  kernels::gemm(Untiled, A, B, 1.5, 0.5);
  for (size_t Tiles : {2u, 3u, 7u, 200u}) { // 200 > cols: empty tails.
    Matrix Out = Prior;
    kernels::detail::gemmTiled(Out, A, B, 1.5, 0.5, Tiles);
    expectBitEqual(Out, Untiled);
  }
}

TEST(TiledKernels, GemvAbsTiledBitwiseMatchesUntiled) {
  Rng R(106);
  Matrix M = randomMatrix(R, 131, 40);
  Vector V = randomVector(R, 40);
  Vector Prior = randomVector(R, 131);
  Vector Untiled = Prior;
  kernels::gemvAbs(Untiled, M, V, 2.0, 1.0);
  for (size_t Tiles : {2u, 5u, 131u, 500u}) {
    Vector Out = Prior;
    kernels::detail::gemvAbsTiled(Out, M, V, 2.0, 1.0, Tiles);
    expectBitEqual(Out, Untiled);
  }
}

TEST(TiledKernels, ConcurrentCallersEachWaitForTheirOwnTiles) {
  // Three threads outside any fan-out tile their gemms over the one pool
  // at once: each call returns with its own output complete and
  // untouched by the others' tiles.
  constexpr int Callers = 3, Rounds = 20;
  std::vector<Matrix> As, Bs, Expect;
  Rng R(109);
  for (int C = 0; C < Callers; ++C) {
    As.push_back(randomMatrix(R, 24, 40));
    Bs.push_back(randomMatrix(R, 40, 96 + 32 * C));
    Expect.emplace_back(24, 96 + 32 * C);
    kernels::gemm(Expect.back(), As.back(), Bs.back());
  }
  std::vector<int> Mismatches(Callers, 0);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Callers; ++C)
    Threads.emplace_back([&, C] {
      for (int Round = 0; Round < Rounds; ++Round) {
        Matrix Out(Expect[C].rows(), Expect[C].cols());
        kernels::detail::gemmTiled(Out, As[C], Bs[C], 1.0, 0.0, 3 + C);
        Mismatches[C] += std::memcmp(Out.rowData(0), Expect[C].rowData(0),
                                     Out.rows() * Out.cols() *
                                         sizeof(double)) != 0;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int C = 0; C < Callers; ++C)
    EXPECT_EQ(Mismatches[C], 0) << "caller " << C;
}

TEST(GemmAuto, AllHintsBitwiseMatchExplicitKernels) {
  Rng R(107);
  // Dense left operand.
  Matrix ADense = randomMatrix(R, 20, 30);
  // Structurally sparse left operand (sign-split-like 2/3 zeros).
  Matrix ASparse = ADense;
  for (size_t I = 0; I < ASparse.rows(); ++I)
    for (size_t J = 0; J < ASparse.cols(); ++J)
      if ((I + J) % 3 != 0)
        ASparse(I, J) = 0.0;
  Matrix B = randomMatrix(R, 30, 17);
  for (const Matrix *A : {&ADense, &ASparse}) {
    Matrix Expect(20, 17);
    kernels::gemm(Expect, *A, B);
    for (auto Hint : {kernels::DensityHint::Probe, kernels::DensityHint::Dense,
                      kernels::DensityHint::Sparse}) {
      Matrix Out(20, 17);
      kernels::gemmAuto(Out, *A, B, 1.0, 0.0, Hint);
      expectBitEqual(Out, Expect);
    }
  }
}

TEST(BackendDispatch, ActiveBackendIsRunnableAndPublicApiUsesIt) {
  const kernels::KernelBackend Active = kernels::activeKernelBackend();
  ASSERT_NE(kernels::kernelTableFor(Active), nullptr);
  EXPECT_STRNE(kernels::kernelBackendName(Active), "unknown");
  EXPECT_GE(kernels::kernelThreadCount(), 1u);
  // The public entry points route through the active table.
  Rng R(108);
  Matrix A = randomMatrix(R, 9, 11), B = randomMatrix(R, 11, 13);
  Matrix ViaPublic(9, 13), ViaTable(9, 13);
  kernels::gemm(ViaPublic, A, B);
  kernels::kernelTableFor(Active)->Gemm(ViaTable, A, B, 1.0, 0.0);
  expectBitEqual(ViaPublic, ViaTable);
}

//===----------------------------------------------------------------------===//
// Kernel-layer integration with the domain layer
//===----------------------------------------------------------------------===//

TEST(LinearCombine, NullMatrixIsIdentity) {
  setErrorTermIdMark(0);
  CHZonotope Z = CHZonotope::fromBox(Vector{0.0, -1.0, 2.0},
                                     Vector{1.0, 1.0, 2.5});
  Matrix I = Matrix::identity(3);
  Vector Offset{0.5, -0.5, 0.0};

  std::pair<const Matrix *, const CHZonotope *> Explicit[] = {{&I, &Z}};
  CHZonotope A = CHZonotope::linearCombine(Explicit, Offset);
  std::pair<const Matrix *, const CHZonotope *> Implicit[] = {{nullptr, &Z}};
  CHZonotope B = CHZonotope::linearCombine(Implicit, Offset);

  ASSERT_EQ(A.dim(), B.dim());
  ASSERT_EQ(A.numGenerators(), B.numGenerators());
  for (size_t I2 = 0; I2 < A.dim(); ++I2) {
    EXPECT_EQ(A.center()[I2], B.center()[I2]);
    EXPECT_EQ(A.boxRadius()[I2], B.boxRadius()[I2]);
    for (size_t J = 0; J < A.numGenerators(); ++J)
      EXPECT_EQ(A.generators()(I2, J), B.generators()(I2, J));
  }
  EXPECT_EQ(A.termIds(), B.termIds());
}

TEST(CHZonotope, WithBoxRadiusReplacesBoxOnly) {
  setErrorTermIdMark(0);
  CHZonotope Z = CHZonotope::fromBox(Vector{0.0, 0.0}, Vector{1.0, 2.0});
  Vector Center = Z.center();
  Matrix Gens = Z.generators();
  CHZonotope W = std::move(Z).withBoxRadius(Vector{0.25, 0.75});
  EXPECT_EQ(W.boxRadius()[0], 0.25);
  EXPECT_EQ(W.boxRadius()[1], 0.75);
  for (size_t I = 0; I < 2; ++I) {
    EXPECT_EQ(W.center()[I], Center[I]);
    for (size_t J = 0; J < W.numGenerators(); ++J)
      EXPECT_EQ(W.generators()(I, J), Gens(I, J));
  }
}

} // namespace
