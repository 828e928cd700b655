//===- linalg/KernelsGeneric.h - Lane-generic kernel bodies -----*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of every dispatched kernel, written against the
/// lane abstraction (linalg/Simd.h) and instantiated once per backend TU
/// (KernelsScalar.cpp / KernelsAvx2.cpp / KernelsAvx512.cpp). Vectorization
/// is strictly across *independent output elements* — j-lanes in gemm,
/// row-lanes in the gemv-family reductions, column-lanes in gemvTransposed
/// and luEliminate — so instantiating at a different lane width never
/// reorders any per-element reduction.
///
/// Canonical per-element operation order (identical in every backend, every
/// lane width, every remainder path, and every thread tiling):
///
///   gemm:        acc = (((0 + A(i,0)*B(0,j)) + A(i,1)*B(1,j)) + ...)
///                acc = acc * Alpha
///                Out = Beta == 0 ? acc : acc + Beta * Out   (Beta == 0
///                never reads Out)
///   gemv(Abs):   same shape over columns of row i (|M| applied per load)
///   gemvTransposed: Out[c] = ((0 + V[0]*M(0,c)) + V[1]*M(1,c)) + ...,
///                ascending rows r, no Alpha/Beta step — bitwise gemv
///                (Alpha 1, Beta 0) on the explicit transpose, since
///                products commute exactly and acc * 1 is acc
///   rowAbsSums:  acc over |M(i, c)| ascending c, then the Beta combine
///   axpy:        Y[i] = Y[i] + (A * X[i])
///   luEliminate: one partial-pivot LU step on a trailing block T whose
///                row 0 is the pivot row: per row r >= 1,
///                l = T(r,0) * (1 / T(0,0)), T(r,0) = l, and unless
///                l == 0, T(r,c) = T(r,c) + ((-l) * T(0,c)) for c >= 1
///                (the axpy above with -l; r - l*u rounds like r + (-l)*u)
///   scale:       X[i] = A * X[i]
///   normInf:     max-reduction (exact: max never rounds on finite data)
///
/// Every product is rounded individually (mul then add; no FMA — the TUs
/// are built with -ffp-contract=off), which is what makes scalar, AVX2,
/// AVX-512, and tiled runs byte-identical on finite data.
///
/// gemm packs the B column panel it is working on into workspace scratch
/// (contiguous rows, cache-line-aligned base) and holds a 4-row x 1-lane
/// block of accumulators in registers across the full inner dimension; the
/// packed values are exact copies, so packing never changes results.
/// gemvTransposed holds up to 8 lanes of output columns in registers while
/// it sweeps the rows of M, so every load is a contiguous slice of one row.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_KERNELSGENERIC_H
#define CRAFT_LINALG_KERNELSGENERIC_H

#include "linalg/KernelBackends.h"
#include "linalg/Simd.h"
#include "linalg/Workspace.h"

#include <cassert>
#include <cmath>

namespace craft {
namespace kernels {
namespace generic {

/// Final per-element combine for one register of accumulated dot products:
/// acc * Alpha, then the Beta rule. Beta == 0 must not read Out (it may be
/// uninitialized scratch).
template <class L>
inline void combineStore(double *Out, typename L::Reg Acc, double Alpha,
                         double Beta) {
  Acc = L::mul(Acc, L::set1(Alpha));
  if (Beta == 0.0)
    L::storeu(Out, Acc);
  else
    L::storeu(Out, L::add(Acc, L::mul(L::set1(Beta), L::loadu(Out))));
}

/// Scalar twin of combineStore — the identical operation sequence at lane
/// width one, used by every remainder path.
inline void combineStore1(double *Out, double Acc, double Alpha,
                          double Beta) {
  Acc = Acc * Alpha;
  *Out = Beta == 0.0 ? Acc : Acc + Beta * *Out;
}

/// Out = Alpha * A * B + Beta * Out over a packed B panel. \p Pack holds
/// rows [0, K) x columns [J0, J0 + NP) of B contiguously (stride NP).
template <class L, bool SkipZeros>
void gemmPanel(MatrixView Out, ConstMatrixView A, const double *Pack,
               size_t J0, size_t NP, double Alpha, double Beta) {
  constexpr size_t W = L::Width;
  constexpr size_t MR = 4; // Rows of register accumulators per microtile.
  const size_t M = A.rows(), K = A.cols();
  const size_t NV = NP - NP % W; // Lane-covered columns of this panel.

  size_t I0 = 0;
  for (; I0 + MR <= M; I0 += MR) {
    const double *ARow0 = A.row(I0 + 0);
    const double *ARow1 = A.row(I0 + 1);
    const double *ARow2 = A.row(I0 + 2);
    const double *ARow3 = A.row(I0 + 3);
    for (size_t JV = 0; JV < NV; JV += W) {
      typename L::Reg Acc0 = L::zero(), Acc1 = L::zero(), Acc2 = L::zero(),
                      Acc3 = L::zero();
      const double *BP = Pack + JV;
      for (size_t Kk = 0; Kk < K; ++Kk, BP += NP) {
        const typename L::Reg Bv = L::loadu(BP);
        const double A0 = ARow0[Kk], A1 = ARow1[Kk], A2 = ARow2[Kk],
                     A3 = ARow3[Kk];
        if (!SkipZeros || A0 != 0.0)
          Acc0 = L::add(Acc0, L::mul(L::set1(A0), Bv));
        if (!SkipZeros || A1 != 0.0)
          Acc1 = L::add(Acc1, L::mul(L::set1(A1), Bv));
        if (!SkipZeros || A2 != 0.0)
          Acc2 = L::add(Acc2, L::mul(L::set1(A2), Bv));
        if (!SkipZeros || A3 != 0.0)
          Acc3 = L::add(Acc3, L::mul(L::set1(A3), Bv));
      }
      combineStore<L>(Out.row(I0 + 0) + J0 + JV, Acc0, Alpha, Beta);
      combineStore<L>(Out.row(I0 + 1) + J0 + JV, Acc1, Alpha, Beta);
      combineStore<L>(Out.row(I0 + 2) + J0 + JV, Acc2, Alpha, Beta);
      combineStore<L>(Out.row(I0 + 3) + J0 + JV, Acc3, Alpha, Beta);
    }
    // Panel columns not covered by a full lane: same ops at width one.
    for (size_t J = NV; J < NP; ++J) {
      const double *Rows[MR] = {ARow0, ARow1, ARow2, ARow3};
      for (size_t R = 0; R < MR; ++R) {
        double Acc = 0.0;
        const double *BP = Pack + J;
        for (size_t Kk = 0; Kk < K; ++Kk, BP += NP) {
          const double Av = Rows[R][Kk];
          if (!SkipZeros || Av != 0.0)
            Acc = Acc + Av * BP[0];
        }
        combineStore1(Out.row(I0 + R) + J0 + J, Acc, Alpha, Beta);
      }
    }
  }
  // Remainder rows, one at a time (1 x W microtile + width-one tail).
  for (; I0 < M; ++I0) {
    const double *ARow = A.row(I0);
    for (size_t JV = 0; JV < NV; JV += W) {
      typename L::Reg Acc = L::zero();
      const double *BP = Pack + JV;
      for (size_t Kk = 0; Kk < K; ++Kk, BP += NP) {
        const double Av = ARow[Kk];
        if (!SkipZeros || Av != 0.0)
          Acc = L::add(Acc, L::mul(L::set1(Av), L::loadu(BP)));
      }
      combineStore<L>(Out.row(I0) + J0 + JV, Acc, Alpha, Beta);
    }
    for (size_t J = NV; J < NP; ++J) {
      double Acc = 0.0;
      const double *BP = Pack + J;
      for (size_t Kk = 0; Kk < K; ++Kk, BP += NP) {
        const double Av = ARow[Kk];
        if (!SkipZeros || Av != 0.0)
          Acc = Acc + Av * BP[0];
      }
      combineStore1(Out.row(I0) + J0 + J, Acc, Alpha, Beta);
    }
  }
}

template <class L, bool SkipZeros>
void gemmBody(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
              double Alpha, double Beta) {
  assert(A.cols() == B.rows() && "gemm inner dimension mismatch");
  assert(Out.rows() == A.rows() && Out.cols() == B.cols() &&
         "gemm output shape mismatch");
  const size_t M = A.rows(), K = A.cols(), N = B.cols();
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    // Empty reduction: acc = 0, then the same Alpha/Beta combine every
    // other path performs (so e.g. Alpha < 0 yields the same -0.0 here as
    // it would in the lane path). Handled before packing — there is no
    // panel to point into.
    for (size_t R = 0; R < M; ++R)
      for (size_t J = 0; J < N; ++J)
        combineStore1(Out.row(R) + J, 0.0, Alpha, Beta);
    return;
  }

  // Column-panel width: a multiple of the lane width, sized so a full-K
  // packed panel stays cache-resident (K~400 x 48 doubles ~ 150 KiB).
  constexpr size_t NC = L::Width >= 8 ? 64 : 48;
  static_assert(NC % L::Width == 0, "panel width must cover whole lanes");

  WorkspaceScope WS;
  double *Pack = WS.alloc(K * (N < NC ? N : NC));
  for (size_t J0 = 0; J0 < N; J0 += NC) {
    const size_t NP = N - J0 < NC ? N - J0 : NC;
    // Pack the panel: exact copies, rows contiguous at stride NP.
    for (size_t Kk = 0; Kk < K; ++Kk) {
      const double *Src = B.row(Kk) + J0;
      double *Dst = Pack + Kk * NP;
      for (size_t J = 0; J < NP; ++J)
        Dst[J] = Src[J];
    }
    gemmPanel<L, SkipZeros>(Out, A, Pack, J0, NP, Alpha, Beta);
  }
}

/// Row-lane gemv family: lane l accumulates output row R0 + l, each lane a
/// single accumulator over ascending columns — exactly the scalar order.
template <class L, bool Abs>
void gemvBody(VectorView Out, ConstMatrixView M, ConstVectorView V,
              double Alpha, double Beta) {
  assert(M.cols() == V.size() && "gemv inner dimension mismatch");
  assert(Out.size() == M.rows() && "gemv output size mismatch");
  constexpr size_t W = L::Width;
  const size_t Rows = M.rows(), Cols = M.cols(), S = M.stride();
  size_t R0 = 0;
  for (; R0 + W <= Rows; R0 += W) {
    typename L::Reg Acc = L::zero();
    const double *Base = M.row(R0);
    for (size_t C = 0; C < Cols; ++C) {
      typename L::Reg Col = L::loadStrided(Base + C, S);
      if (Abs)
        Col = L::abs(Col);
      Acc = L::add(Acc, L::mul(Col, L::set1(V[C])));
    }
    combineStore<L>(Out.data() + R0, Acc, Alpha, Beta);
  }
  for (; R0 < Rows; ++R0) {
    const double *Row = M.row(R0);
    double Acc = 0.0;
    for (size_t C = 0; C < Cols; ++C)
      Acc = Acc + (Abs ? std::fabs(Row[C]) : Row[C]) * V[C];
    combineStore1(Out.data() + R0, Acc, Alpha, Beta);
  }
}

template <class L>
void rowAbsSumsBody(VectorView Out, ConstMatrixView M, double Beta) {
  assert(Out.size() == M.rows() && "rowAbsSums output size mismatch");
  constexpr size_t W = L::Width;
  const size_t Rows = M.rows(), Cols = M.cols(), S = M.stride();
  size_t R0 = 0;
  for (; R0 + W <= Rows; R0 += W) {
    typename L::Reg Acc = L::zero();
    const double *Base = M.row(R0);
    for (size_t C = 0; C < Cols; ++C)
      Acc = L::add(Acc, L::abs(L::loadStrided(Base + C, S)));
    // No Alpha on this kernel: combine is the Beta rule alone.
    double *O = Out.data() + R0;
    if (Beta == 0.0)
      L::storeu(O, Acc);
    else
      L::storeu(O, L::add(Acc, L::mul(L::set1(Beta), L::loadu(O))));
  }
  for (; R0 < Rows; ++R0) {
    const double *Row = M.row(R0);
    double Acc = 0.0;
    for (size_t C = 0; C < Cols; ++C)
      Acc = Acc + std::fabs(Row[C]);
    Out[R0] = Beta == 0.0 ? Acc : Acc + Beta * Out[R0];
  }
}

/// One register pass of gemvTransposed: output columns [C0, C0 + NB * W)
/// accumulate in NB registers across every row of M.
template <class L, size_t NB>
void gemvTransposedPass(double *Out, ConstMatrixView M, ConstVectorView V,
                        size_t C0) {
  constexpr size_t W = L::Width;
  typename L::Reg Acc[NB];
#pragma GCC unroll 8
  for (size_t B = 0; B < NB; ++B)
    Acc[B] = L::zero();
  for (size_t R = 0, E = M.rows(); R < E; ++R) {
    const typename L::Reg Vr = L::set1(V[R]);
    const double *Row = M.row(R) + C0;
#pragma GCC unroll 8
    for (size_t B = 0; B < NB; ++B)
      Acc[B] = L::add(Acc[B], L::mul(Vr, L::loadu(Row + B * W)));
  }
#pragma GCC unroll 8
  for (size_t B = 0; B < NB; ++B)
    L::storeu(Out + C0 + B * W, Acc[B]);
}

/// Out = M^T V: passes of 8 lanes while they fit, then at most one pass
/// each of 4, 2 and 1 lanes, then the last Cols % W columns at width one
/// in a single sweep.
template <class L>
void gemvTransposedBody(VectorView Out, ConstMatrixView M,
                        ConstVectorView V) {
  assert(M.rows() == V.size() && "gemvTransposed inner dimension mismatch");
  assert(Out.size() == M.cols() && "gemvTransposed output size mismatch");
  constexpr size_t W = L::Width;
  const size_t Cols = M.cols();
  size_t C0 = 0;
  for (; C0 + 8 * W <= Cols; C0 += 8 * W)
    gemvTransposedPass<L, 8>(Out.data(), M, V, C0);
  if (C0 + 4 * W <= Cols) {
    gemvTransposedPass<L, 4>(Out.data(), M, V, C0);
    C0 += 4 * W;
  }
  if (C0 + 2 * W <= Cols) {
    gemvTransposedPass<L, 2>(Out.data(), M, V, C0);
    C0 += 2 * W;
  }
  if (C0 + W <= Cols) {
    gemvTransposedPass<L, 1>(Out.data(), M, V, C0);
    C0 += W;
  }
  const size_t Tail = Cols - C0; // < W.
  if (Tail == 0)
    return;
  double Acc[W] = {};
  for (size_t R = 0, E = M.rows(); R < E; ++R) {
    const double Vr = V[R];
    const double *Row = M.row(R) + C0;
    for (size_t T = 0; T < Tail; ++T)
      Acc[T] = Acc[T] + Vr * Row[T];
  }
  for (size_t T = 0; T < Tail; ++T)
    Out[C0 + T] = Acc[T];
}

template <class L> void axpyBody(VectorView Y, double A, ConstVectorView X) {
  assert(Y.size() == X.size() && "axpy size mismatch");
  constexpr size_t W = L::Width;
  const size_t N = Y.size();
  const typename L::Reg Av = L::set1(A);
  size_t I = 0;
  for (; I + W <= N; I += W) {
    double *P = Y.data() + I;
    L::storeu(P, L::add(L::loadu(P), L::mul(Av, L::loadu(X.data() + I))));
  }
  for (; I < N; ++I)
    Y[I] = Y[I] + A * X[I];
}

/// One elimination step of partial-pivot LU on the trailing block \p T
/// (row 0 the pivot row, already swapped in and nonzero at T(0,0)).
template <class L> void luEliminateBody(MatrixView T) {
  const size_t Rows = T.rows(), Len = T.cols() - 1;
  const double Inv = 1.0 / T(0, 0);
  const ConstVectorView Pivot(T.row(0) + 1, Len);
  for (size_t R = 1; R < Rows; ++R) {
    double *Row = T.row(R);
    const double Lr = Row[0] * Inv;
    Row[0] = Lr;
    if (Lr != 0.0)
      axpyBody<L>(VectorView(Row + 1, Len), -Lr, Pivot);
  }
}

template <class L> void scaleBody(VectorView X, double A) {
  constexpr size_t W = L::Width;
  const size_t N = X.size();
  const typename L::Reg Av = L::set1(A);
  size_t I = 0;
  for (; I + W <= N; I += W) {
    double *P = X.data() + I;
    L::storeu(P, L::mul(Av, L::loadu(P)));
  }
  for (; I < N; ++I)
    X[I] = A * X[I];
}

template <class L> double normInfBody(ConstVectorView X) {
  // max is exact (never rounds), so lane-partitioned reduction order is
  // immaterial on the finite data this runs on.
  constexpr size_t W = L::Width;
  const size_t N = X.size();
  typename L::Reg MaxV = L::zero();
  size_t I = 0;
  for (; I + W <= N; I += W)
    MaxV = L::max(MaxV, L::abs(L::loadu(X.data() + I)));
  double Lanes[W];
  L::storeu(Lanes, MaxV);
  double Max = 0.0;
  for (size_t Ln = 0; Ln < W; ++Ln)
    Max = Max > Lanes[Ln] ? Max : Lanes[Ln];
  for (; I < N; ++I) {
    const double V = std::fabs(X[I]);
    Max = Max > V ? Max : V;
  }
  return Max;
}

/// The per-backend table: one instantiation of every body above.
template <class L> KernelTable makeKernelTable() {
  KernelTable T;
  T.Gemm = &gemmBody<L, false>;
  T.GemmSparse = &gemmBody<L, true>;
  T.Gemv = &gemvBody<L, false>;
  T.GemvAbs = &gemvBody<L, true>;
  T.GemvTransposed = &gemvTransposedBody<L>;
  T.RowAbsSums = &rowAbsSumsBody<L>;
  T.Axpy = &axpyBody<L>;
  T.LuEliminate = &luEliminateBody<L>;
  T.Scale = &scaleBody<L>;
  T.NormInf = &normInfBody<L>;
  return T;
}

} // namespace generic
} // namespace kernels
} // namespace craft

#endif // CRAFT_LINALG_KERNELSGENERIC_H
