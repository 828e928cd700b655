//===- linalg/Matrix.h - Dense matrix and vector types ----------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense double-precision Vector and Matrix types plus the arithmetic needed
/// by the abstract domains and monDEQ substrate. This project runs in an
/// offline environment without Eigen/BLAS, so the linear algebra layer is
/// implemented from scratch; matrices are row-major.
///
/// The owning types here are the convenience surface: every allocating
/// operator is a thin wrapper over the destination-passing kernel layer
/// (linalg/Kernels.h over linalg/Views.h), which the hot paths call
/// directly with WorkspaceScope scratch to avoid per-call heap traffic.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_MATRIX_H
#define CRAFT_LINALG_MATRIX_H

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace craft {

/// Dense double-precision vector with elementwise arithmetic and the norms
/// used throughout the verifier (l1, l2, l-infinity).
class Vector {
public:
  Vector() = default;
  explicit Vector(size_t N, double Value = 0.0) : Data(N, Value) {}
  Vector(std::initializer_list<double> Init) : Data(Init) {}
  explicit Vector(std::vector<double> Values) : Data(std::move(Values)) {}

  size_t size() const { return Data.size(); }
  bool empty() const { return Data.empty(); }

  double &operator[](size_t I) {
    assert(I < Data.size() && "vector index out of range");
    return Data[I];
  }
  double operator[](size_t I) const {
    assert(I < Data.size() && "vector index out of range");
    return Data[I];
  }

  double *data() { return Data.data(); }
  const double *data() const { return Data.data(); }

  std::vector<double>::iterator begin() { return Data.begin(); }
  std::vector<double>::iterator end() { return Data.end(); }
  std::vector<double>::const_iterator begin() const { return Data.begin(); }
  std::vector<double>::const_iterator end() const { return Data.end(); }

  Vector &operator+=(const Vector &Rhs);
  Vector &operator-=(const Vector &Rhs);
  Vector &operator*=(double Scale);

  /// Largest absolute entry (l-infinity norm); 0 for the empty vector.
  double normInf() const;
  /// Euclidean norm.
  double norm2() const;
  /// Sum of absolute entries.
  double norm1() const;

  /// Elementwise absolute value.
  Vector abs() const;

  /// Elementwise max with \p Floor (used for max(0, .) operations).
  Vector cwiseMax(double Floor) const;

private:
  std::vector<double> Data;
};

Vector operator+(Vector Lhs, const Vector &Rhs);
Vector operator-(Vector Lhs, const Vector &Rhs);
Vector operator*(double Scale, Vector V);
double dot(const Vector &A, const Vector &B);

/// Elementwise maximum of two equally sized vectors.
Vector cwiseMax(const Vector &A, const Vector &B);
/// Elementwise minimum of two equally sized vectors.
Vector cwiseMin(const Vector &A, const Vector &B);

/// Dense row-major double-precision matrix.
class Matrix {
public:
  Matrix() = default;
  Matrix(size_t Rows, size_t Cols, double Value = 0.0)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Value) {}

  /// Builds a matrix from a nested initializer list (row by row).
  Matrix(std::initializer_list<std::initializer_list<double>> Init);

  static Matrix identity(size_t N);
  /// Diagonal matrix with \p Diag on the main diagonal.
  static Matrix diagonal(const Vector &Diag);
  /// Horizontal concatenation [A B]; row counts must match. Either side may
  /// have zero columns.
  static Matrix hcat(const Matrix &A, const Matrix &B);

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }
  bool empty() const { return Data.empty(); }

  double &operator()(size_t R, size_t C) {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }
  double operator()(size_t R, size_t C) const {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }

  double *rowData(size_t R) { return Data.data() + R * NumCols; }
  const double *rowData(size_t R) const { return Data.data() + R * NumCols; }

  Matrix &operator+=(const Matrix &Rhs);
  Matrix &operator-=(const Matrix &Rhs);
  Matrix &operator*=(double Scale);

  Matrix transpose() const;

  /// Elementwise absolute value.
  Matrix abs() const;

  /// Copy of row \p R as a vector.
  Vector row(size_t R) const;
  /// Copy of column \p C as a vector.
  Vector col(size_t C) const;
  void setRow(size_t R, const Vector &V);
  void setCol(size_t C, const Vector &V);

  /// Keeps columns [First, First+Count) only.
  Matrix colRange(size_t First, size_t Count) const;

  /// Per-row sum of absolute entries, i.e. |M| * 1. This is the workhorse of
  /// zonotope concretization and the CH-Zonotope containment check (Thm 4.2).
  Vector rowAbsSums() const;

  /// Largest absolute entry.
  double maxAbs() const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double> Data;
};

Matrix operator+(Matrix Lhs, const Matrix &Rhs);
Matrix operator-(Matrix Lhs, const Matrix &Rhs);
Matrix operator*(double Scale, Matrix M);
Matrix operator*(const Matrix &A, const Matrix &B);
Vector operator*(const Matrix &M, const Vector &V);

} // namespace craft

#endif // CRAFT_LINALG_MATRIX_H
