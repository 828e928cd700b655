//===- linalg/Lu.cpp ------------------------------------------------------===//

#include "linalg/Lu.h"

#include "linalg/Kernels.h"

#include <cmath>

using namespace craft;

LuDecomposition::LuDecomposition(const Matrix &A) : Factors(A) {
  assert(A.rows() == A.cols() && "LU requires a square matrix");
  const size_t N = A.rows();
  Pivots.resize(N);

  for (size_t K = 0; K < N; ++K) {
    // Partial pivoting: pick the largest magnitude entry in column K.
    size_t Pivot = K;
    double Best = std::fabs(Factors(K, K));
    for (size_t R = K + 1; R < N; ++R) {
      double Mag = std::fabs(Factors(R, K));
      if (Mag > Best) {
        Best = Mag;
        Pivot = R;
      }
    }
    Pivots[K] = static_cast<int>(Pivot);
    if (Best < 1e-13) {
      Singular = true;
      continue;
    }
    if (Pivot != K) {
      for (size_t C = 0; C < N; ++C)
        std::swap(Factors(K, C), Factors(Pivot, C));
      PermutationSign = -PermutationSign;
    }
    kernels::luEliminate(MatrixView(Factors).block(K, K, N - K, N - K));
  }
}

Vector LuDecomposition::solve(const Vector &B) const {
  assert(!Singular && "solve on singular matrix");
  const size_t N = dim();
  assert(B.size() == N && "rhs size mismatch");
  Vector X = B;
  // Apply the row permutation, then forward substitution (L has unit diag).
  for (size_t K = 0; K < N; ++K) {
    std::swap(X[K], X[static_cast<size_t>(Pivots[K])]);
    const double *Row = Factors.rowData(K);
    double Sum = X[K];
    for (size_t C = 0; C < K; ++C)
      Sum -= Row[C] * X[C];
    X[K] = Sum;
  }
  // Back substitution with U.
  for (size_t K = N; K-- > 0;) {
    const double *Row = Factors.rowData(K);
    double Sum = X[K];
    for (size_t C = K + 1; C < N; ++C)
      Sum -= Row[C] * X[C];
    X[K] = Sum / Row[K];
  }
  return X;
}

Matrix LuDecomposition::solve(const Matrix &B) const {
  assert(!Singular && "solve on singular matrix");
  const size_t N = dim();
  assert(B.rows() == N && "rhs rows mismatch");
  // Solve all right-hand sides simultaneously, sweeping rows of B in the
  // inner loop for cache friendliness.
  Matrix X = B;
  const size_t M = B.cols();
  for (size_t K = 0; K < N; ++K) {
    size_t P = static_cast<size_t>(Pivots[K]);
    if (P != K)
      for (size_t J = 0; J < M; ++J)
        std::swap(X(K, J), X(P, J));
    const double *Row = Factors.rowData(K);
    VectorView XK(X.rowData(K), M);
    for (size_t C = 0; C < K; ++C) {
      double L = Row[C];
      if (L == 0.0)
        continue;
      kernels::axpy(XK, -L, ConstVectorView(X.rowData(C), M));
    }
  }
  for (size_t K = N; K-- > 0;) {
    const double *Row = Factors.rowData(K);
    VectorView XK(X.rowData(K), M);
    for (size_t C = K + 1; C < N; ++C) {
      double U = Row[C];
      if (U == 0.0)
        continue;
      kernels::axpy(XK, -U, ConstVectorView(X.rowData(C), M));
    }
    kernels::scale(XK, 1.0 / Row[K]);
  }
  return X;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(dim()));
}

double LuDecomposition::determinant() const {
  if (Singular)
    return 0.0;
  double Det = PermutationSign;
  for (size_t K = 0, N = dim(); K < N; ++K)
    Det *= Factors(K, K);
  return Det;
}
