//===- linalg/Lu.h - LU decomposition with partial pivoting -----*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LU decomposition with partial pivoting. Used for the CH-Zonotope
/// containment check (A^{-1}A' in Thm 4.2), for the Peaceman-Rachford solve
/// step (I + alpha (I - W))^{-1}, and for implicit-function-theorem gradients
/// in PGD / training.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_LU_H
#define CRAFT_LINALG_LU_H

#include "linalg/Matrix.h"

namespace craft {

/// LU factorization PA = LU of a square matrix with partial pivoting.
/// The factorization is computed once; solves against vectors and matrices
/// reuse it.
class LuDecomposition {
public:
  /// Factorizes \p A. \p A must be square.
  explicit LuDecomposition(const Matrix &A);

  /// True if a zero (or numerically negligible) pivot was encountered.
  bool isSingular() const { return Singular; }

  size_t dim() const { return Factors.rows(); }

  /// The combined factors: L below the diagonal (unit diagonal implied),
  /// U on and above it, rows in pivot order.
  const Matrix &factors() const { return Factors; }

  /// Solves A x = b. Asserts that the matrix is non-singular.
  Vector solve(const Vector &B) const;

  /// Solves A X = B column-by-column.
  Matrix solve(const Matrix &B) const;

  /// A^{-1} (solve against the identity).
  Matrix inverse() const;

  /// det(A), including the pivoting sign.
  double determinant() const;

private:
  Matrix Factors;          ///< Combined L (unit diagonal) and U factors.
  std::vector<int> Pivots; ///< Row permutation.
  bool Singular = false;
  int PermutationSign = 1;
};

} // namespace craft

#endif // CRAFT_LINALG_LU_H
