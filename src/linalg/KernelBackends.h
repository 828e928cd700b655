//===- linalg/KernelBackends.h - Kernel backend tables ----------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend seam beneath the public kernel API (linalg/Kernels.h): each
/// instruction-set tier exports one KernelTable of function pointers, and
/// the dispatcher in Kernels.cpp picks a table once per process (CPUID
/// probe, overridable via CRAFT_KERNEL_BACKEND). This header is internal
/// plumbing plus the test surface — the equivalence suite iterates the
/// tables directly to assert that every backend produces byte-identical
/// results.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_LINALG_KERNELBACKENDS_H
#define CRAFT_LINALG_KERNELBACKENDS_H

#include "linalg/Kernels.h"
#include "linalg/Views.h"
#include "support/ThreadPool.h"

#include <functional>

namespace craft {
namespace kernels {

/// One instruction-set tier's kernel entry points. All tables implement
/// the same canonical per-element operation order (see KernelsGeneric.h),
/// so swapping tables never changes results, only throughput.
struct KernelTable {
  void (*Gemm)(MatrixView, ConstMatrixView, ConstMatrixView, double, double);
  void (*GemmSparse)(MatrixView, ConstMatrixView, ConstMatrixView, double,
                     double);
  void (*Gemv)(VectorView, ConstMatrixView, ConstVectorView, double, double);
  void (*GemvAbs)(VectorView, ConstMatrixView, ConstVectorView, double,
                  double);
  void (*GemvTransposed)(VectorView, ConstMatrixView, ConstVectorView);
  void (*RowAbsSums)(VectorView, ConstMatrixView, double);
  void (*Axpy)(VectorView, double, ConstVectorView);
  void (*LuEliminate)(MatrixView);
  void (*Scale)(VectorView, double);
  double (*NormInf)(ConstVectorView);
};

/// The portable fallback table (always present).
const KernelTable &scalarKernelTable();

#if CRAFT_KERNELS_HAVE_AVX2
const KernelTable &avx2KernelTable();
#endif
#if CRAFT_KERNELS_HAVE_AVX512
const KernelTable &avx512KernelTable();
#endif

/// Table for \p Backend, or nullptr when that tier was not compiled in or
/// the running CPU lacks the instructions (test/diagnostic surface; the
/// dispatcher never hands out a table the host cannot execute).
const KernelTable *kernelTableFor(KernelBackend Backend);

namespace detail {

/// The fan-out scaffold of the tiled kernels: partitions [0, N) into
/// \p Tiles contiguous ranges and runs Body(range) for each as one
/// parallelForIndex item (support/ThreadPool.h), the caller running tiles
/// itself. Returns once every tile finished and rethrows the lowest tile's
/// error, so the caller's views stay alive until no tile references them.
/// Exposed for the tests; production calls reach it through gemm/gemvAbs.
void runTiled(size_t N, size_t Tiles,
              const std::function<void(IndexRange)> &Body);

/// Column-panel-tiled gemm over the active backend: output columns are
/// split into \p Tiles contiguous panels fanned out by runTiled. Per-element operation order is independent of the partition, so
/// results are byte-identical to the untiled kernel for every tile count.
/// Exposed for the equivalence tests; production calls size the tile count
/// from the dispatch thresholds.
void gemmTiled(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
               double Alpha, double Beta, size_t Tiles);

/// Row-tiled gemvAbs over the active backend (same determinism argument).
void gemvAbsTiled(VectorView Out, ConstMatrixView M, ConstVectorView V,
                  double Alpha, double Beta, size_t Tiles);

} // namespace detail

} // namespace kernels
} // namespace craft

#endif // CRAFT_LINALG_KERNELBACKENDS_H
