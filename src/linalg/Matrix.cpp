//===- linalg/Matrix.cpp --------------------------------------------------===//

#include "linalg/Matrix.h"

#include "linalg/Kernels.h"

#include <algorithm>
#include <cmath>

using namespace craft;

//===----------------------------------------------------------------------===//
// Vector
//===----------------------------------------------------------------------===//

Vector &Vector::operator+=(const Vector &Rhs) {
  assert(size() == Rhs.size() && "vector size mismatch");
  for (size_t I = 0, E = size(); I < E; ++I)
    Data[I] += Rhs.Data[I];
  return *this;
}

Vector &Vector::operator-=(const Vector &Rhs) {
  assert(size() == Rhs.size() && "vector size mismatch");
  for (size_t I = 0, E = size(); I < E; ++I)
    Data[I] -= Rhs.Data[I];
  return *this;
}

Vector &Vector::operator*=(double Scale) {
  for (double &V : Data)
    V *= Scale;
  return *this;
}

double Vector::normInf() const {
  double Max = 0.0;
  for (double V : Data)
    Max = std::max(Max, std::fabs(V));
  return Max;
}

double Vector::norm2() const {
  double Sum = 0.0;
  for (double V : Data)
    Sum += V * V;
  return std::sqrt(Sum);
}

double Vector::norm1() const {
  double Sum = 0.0;
  for (double V : Data)
    Sum += std::fabs(V);
  return Sum;
}

Vector Vector::abs() const {
  Vector Out(size());
  for (size_t I = 0, E = size(); I < E; ++I)
    Out[I] = std::fabs(Data[I]);
  return Out;
}

Vector Vector::cwiseMax(double Floor) const {
  Vector Out(size());
  for (size_t I = 0, E = size(); I < E; ++I)
    Out[I] = std::max(Data[I], Floor);
  return Out;
}

Vector craft::operator+(Vector Lhs, const Vector &Rhs) {
  Lhs += Rhs;
  return Lhs;
}

Vector craft::operator-(Vector Lhs, const Vector &Rhs) {
  Lhs -= Rhs;
  return Lhs;
}

Vector craft::operator*(double Scale, Vector V) {
  V *= Scale;
  return V;
}

double craft::dot(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "vector size mismatch");
  double Sum = 0.0;
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Sum += A[I] * B[I];
  return Sum;
}

Vector craft::cwiseMax(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "vector size mismatch");
  Vector Out(A.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = std::max(A[I], B[I]);
  return Out;
}

Vector craft::cwiseMin(const Vector &A, const Vector &B) {
  assert(A.size() == B.size() && "vector size mismatch");
  Vector Out(A.size());
  for (size_t I = 0, E = A.size(); I < E; ++I)
    Out[I] = std::min(A[I], B[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> Init) {
  NumRows = Init.size();
  NumCols = NumRows == 0 ? 0 : Init.begin()->size();
  Data.reserve(NumRows * NumCols);
  for (const auto &Row : Init) {
    assert(Row.size() == NumCols && "ragged initializer list");
    Data.insert(Data.end(), Row.begin(), Row.end());
  }
}

Matrix Matrix::identity(size_t N) {
  Matrix I(N, N);
  for (size_t K = 0; K < N; ++K)
    I(K, K) = 1.0;
  return I;
}

Matrix Matrix::diagonal(const Vector &Diag) {
  Matrix D(Diag.size(), Diag.size());
  for (size_t K = 0, E = Diag.size(); K < E; ++K)
    D(K, K) = Diag[K];
  return D;
}

Matrix Matrix::hcat(const Matrix &A, const Matrix &B) {
  if (A.cols() == 0 && A.rows() == 0)
    return B;
  if (B.cols() == 0 && B.rows() == 0)
    return A;
  assert(A.rows() == B.rows() && "hcat row mismatch");
  Matrix Out(A.rows(), A.cols() + B.cols());
  for (size_t R = 0; R < A.rows(); ++R) {
    double *Dst = Out.rowData(R);
    std::copy(A.rowData(R), A.rowData(R) + A.cols(), Dst);
    std::copy(B.rowData(R), B.rowData(R) + B.cols(), Dst + A.cols());
  }
  return Out;
}

Matrix &Matrix::operator+=(const Matrix &Rhs) {
  assert(NumRows == Rhs.NumRows && NumCols == Rhs.NumCols && "shape mismatch");
  for (size_t I = 0, E = Data.size(); I < E; ++I)
    Data[I] += Rhs.Data[I];
  return *this;
}

Matrix &Matrix::operator-=(const Matrix &Rhs) {
  assert(NumRows == Rhs.NumRows && NumCols == Rhs.NumCols && "shape mismatch");
  for (size_t I = 0, E = Data.size(); I < E; ++I)
    Data[I] -= Rhs.Data[I];
  return *this;
}

Matrix &Matrix::operator*=(double Scale) {
  for (double &V : Data)
    V *= Scale;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix Out(NumCols, NumRows);
  kernels::transposeInto(Out, *this);
  return Out;
}

Matrix Matrix::abs() const {
  Matrix Out(NumRows, NumCols);
  for (size_t I = 0, E = Data.size(); I < E; ++I)
    Out.Data[I] = std::fabs(Data[I]);
  return Out;
}

Vector Matrix::row(size_t R) const {
  assert(R < NumRows && "row index out of range");
  Vector Out(NumCols);
  std::copy(rowData(R), rowData(R) + NumCols, Out.data());
  return Out;
}

Vector Matrix::col(size_t C) const {
  assert(C < NumCols && "column index out of range");
  Vector Out(NumRows);
  for (size_t R = 0; R < NumRows; ++R)
    Out[R] = (*this)(R, C);
  return Out;
}

void Matrix::setRow(size_t R, const Vector &V) {
  assert(V.size() == NumCols && "row size mismatch");
  std::copy(V.data(), V.data() + NumCols, rowData(R));
}

void Matrix::setCol(size_t C, const Vector &V) {
  assert(V.size() == NumRows && "column size mismatch");
  for (size_t R = 0; R < NumRows; ++R)
    (*this)(R, C) = V[R];
}

Matrix Matrix::colRange(size_t First, size_t Count) const {
  assert(First + Count <= NumCols && "column range out of bounds");
  Matrix Out(NumRows, Count);
  for (size_t R = 0; R < NumRows; ++R)
    std::copy(rowData(R) + First, rowData(R) + First + Count, Out.rowData(R));
  return Out;
}

Vector Matrix::rowAbsSums() const {
  Vector Out(NumRows);
  kernels::rowAbsSumsInto(Out, *this);
  return Out;
}

double Matrix::maxAbs() const {
  double Max = 0.0;
  for (double V : Data)
    Max = std::max(Max, std::fabs(V));
  return Max;
}

Matrix craft::operator+(Matrix Lhs, const Matrix &Rhs) {
  Lhs += Rhs;
  return Lhs;
}

Matrix craft::operator-(Matrix Lhs, const Matrix &Rhs) {
  Lhs -= Rhs;
  return Lhs;
}

Matrix craft::operator*(double Scale, Matrix M) {
  M *= Scale;
  return M;
}

Matrix craft::operator*(const Matrix &A, const Matrix &B) {
  assert(A.cols() == B.rows() && "matmul shape mismatch");
  // Dense by default: the per-element zero-skip this once carried belongs
  // only in the explicit sparse-aware kernel (kernels::gemmSparseAware) —
  // on dense data the branch costs more than the multiply.
  Matrix Out(A.rows(), B.cols());
  kernels::gemm(Out, A, B);
  return Out;
}

Vector craft::operator*(const Matrix &M, const Vector &V) {
  assert(M.cols() == V.size() && "matvec shape mismatch");
  Vector Out(M.rows());
  kernels::gemv(Out, M, V);
  return Out;
}
