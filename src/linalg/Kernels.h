//===- linalg/Kernels.h - Destination-passing linalg kernels ----*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-place, destination-passing dense kernels over the view layer
/// (linalg/Views.h): the allocation-free core the CH-Zonotope and Kleene
/// hot paths run on. The allocating Matrix/Vector operators are thin
/// wrappers over these. LuDecomposition factors with one luEliminate call
/// per pivot; its multi-right-hand-side solve sweeps the dispatched axpy.
///
/// Conventions:
///  - The serial kernel path never heap-allocates. Scratch (e.g. gemm's
///    packed B panels) comes from the per-thread Workspace arena, which is
///    amortized to zero heap traffic after warm-up; every result buffer is
///    caller-owned. The one exception is the tiled large-kernel path,
///    whose fan-out (support/ThreadPool.h) allocates O(tiles) bookkeeping
///    per call.
///  - Out must not alias any input (asserted in debug builds). Aliased
///    updates would read partially written output; use a workspace
///    temporary when an in-place product is needed.
///  - Every kernel has one fixed operation order (per output element the
///    inner dimension is reduced in ascending order with a single
///    accumulator, products rounded individually — no FMA contraction), so
///    results are deterministic and independent of backend, blocking,
///    thread count, and call site — the jobs-1-vs-N byte-identical
///    guarantee of the batch driver rests on this.
///  - gemm is dense: no per-element zero test in the inner loop (a branch
///    per multiply costs more than the multiply on dense data).
///    gemmSparseAware keeps the `A(i,k) == 0` skip for callers whose left
///    operand is *structurally* sparse (identity/diagonal/selection maps,
///    lowered convolutions, sign-split CROWN matrices); gemmAuto picks
///    between the two from a caller hint or a cheap measured-density probe
///    of A.
///
/// Backends: each kernel is dispatched once per process to the widest
/// instruction-set tier the host supports (scalar everywhere, AVX2+FMA,
/// AVX-512F), overridable for testing via CRAFT_KERNEL_BACKEND=
/// scalar|avx2|avx512. Large gemm/gemvAbs calls additionally fan output
/// tiles out over the process-wide pool (CRAFT_KERNEL_THREADS tile
/// threads, the caller included; default one per hardware thread; 1
/// disables), but only when the caller is not inside a fan-out item: a
/// batch, split, or serve fan-out already owns the cores, so its items
/// run every kernel serially. All tiers and
/// tilings produce byte-identical results on finite data — enforced by the
/// equivalence suite in tests/test_linalg_kernels.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_KERNELS_H
#define CRAFT_LINALG_KERNELS_H

#include "linalg/Views.h"

#include <cstddef>

namespace craft {
namespace kernels {

/// The instruction-set tiers a kernel call can dispatch to.
enum class KernelBackend { Scalar, Avx2, Avx512 };

/// The tier selected for this process (CPUID probe at first kernel use,
/// overridable via CRAFT_KERNEL_BACKEND; never changes afterwards).
KernelBackend activeKernelBackend();

/// Stable lower-case name of \p Backend ("scalar", "avx2", "avx512") —
/// what the CLI logs and the bench JSON records carry.
const char *kernelBackendName(KernelBackend Backend);

/// Threads a tiled gemm/gemvAbs fans out over, the caller included
/// (CRAFT_KERNEL_THREADS, capped like every fan-out; 1 = kernel-level
/// parallelism disabled).
size_t kernelThreadCount();

/// Left-operand density hint for gemmAuto.
enum class DensityHint {
  Probe, ///< Measure: sample A and pick the cheaper path.
  Dense, ///< Caller knows A is dense — skip the probe.
  Sparse ///< Caller knows A is structurally sparse (e.g. sign-split maps).
};

/// Out = Alpha * A * B + Beta * Out (row-major gemm; packed cache-blocked
/// column panels, lane-vectorized, column-panel-tiled over the pool above
/// a size threshold). Beta == 0 writes Out without reading it.
void gemm(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
          double Alpha = 1.0, double Beta = 0.0);

/// gemm variant that skips inner-loop work for exactly-zero A(i,k): only
/// profitable when A is structurally sparse; bitwise-identical results to
/// the dense kernel on finite data.
void gemmSparseAware(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
                     double Alpha = 1.0, double Beta = 0.0);

/// gemm that picks the dense or sparse-aware path itself: from \p Hint
/// when the caller knows A's structure, otherwise from a cheap strided
/// sample of A's entries. Results are identical either way on finite
/// data; only throughput differs.
void gemmAuto(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
              double Alpha = 1.0, double Beta = 0.0,
              DensityHint Hint = DensityHint::Probe);

/// Out = Alpha * M * V + Beta * Out. Beta == 0 writes Out without reading
/// it.
void gemv(VectorView Out, ConstMatrixView M, ConstVectorView V,
          double Alpha = 1.0, double Beta = 0.0);

/// Out = Alpha * |M| * V + Beta * Out (elementwise absolute value of M,
/// never materialized). The workhorse of concretization and the Thm 4.2
/// containment check.
void gemvAbs(VectorView Out, ConstMatrixView M, ConstVectorView V,
             double Alpha = 1.0, double Beta = 0.0);

/// Out = M^T * V without materializing M^T: blocks of output columns
/// accumulate in registers while the kernel sweeps the rows of M, so each
/// output element is reduced over ascending r with a single accumulator —
/// bitwise equal to gemv on the explicit transpose. Every load is a
/// contiguous run of one row, so a caller that keeps a matrix's transpose
/// reads it faster through this kernel than gemv reads the matrix.
void gemvTransposed(VectorView Out, ConstMatrixView M, ConstVectorView V);

/// One elimination step of partial-pivot LU on the square trailing block
/// \p T, whose row 0 is the pivot row (swapped in, T(0,0) nonzero): every
/// T(r,0) below it becomes the multiplier l = T(r,0) * (1 / T(0,0)), and a
/// row with l != 0 gets its columns 1.. updated as an axpy with -l.
void luEliminate(MatrixView T);

/// Y += A * X.
void axpy(VectorView Y, double A, ConstVectorView X);

/// X *= A.
void scale(VectorView X, double A);

/// Largest absolute entry (0 for the empty view).
double normInf(ConstVectorView X);

/// Out = In^T. Out must be In.cols() x In.rows().
void transposeInto(MatrixView Out, ConstMatrixView In);

/// Out[r] = sum_c |M(r, c)| + Beta * Out[r] (the |M| 1 of zonotope
/// concretization). Beta == 0 writes Out without reading it.
void rowAbsSumsInto(VectorView Out, ConstMatrixView M, double Beta = 0.0);

/// Out = In (shapes must match; strides may differ).
void copyInto(MatrixView Out, ConstMatrixView In);
void copyInto(VectorView Out, ConstVectorView In);

/// Out(r, c) = Value everywhere.
void fill(MatrixView Out, double Value);
void fill(VectorView Out, double Value);

} // namespace kernels
} // namespace craft

#endif // CRAFT_LINALG_KERNELS_H
