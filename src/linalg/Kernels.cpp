//===- linalg/Kernels.cpp - Backend dispatch + tiling for the kernels -----===//
//
// The public kernel entry points: alias/shape contracts, once-per-process
// backend selection (CPUID probe, CRAFT_KERNEL_BACKEND override), the
// measured-density probe behind gemmAuto, and the tiling of large
// gemm/gemvAbs calls made outside any fan-out item. The arithmetic lives in
// the backend TUs (KernelsScalar/Avx2/Avx512.cpp); everything here is
// structure-preserving, so backend, tiling, and thread count never change
// results.
//
//===----------------------------------------------------------------------===//

#include "linalg/KernelBackends.h"
#include "linalg/Kernels.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace craft;
using namespace craft::kernels;

//===----------------------------------------------------------------------===//
// Alias assertions (debug builds)
//===----------------------------------------------------------------------===//

namespace {

#ifndef NDEBUG
/// Conservative storage-overlap test between two views' address ranges
/// (strided views are covered by their bounding span).
bool overlaps(const double *A, size_t ASpan, const double *B, size_t BSpan) {
  if (!A || !B || ASpan == 0 || BSpan == 0)
    return false;
  std::less<const double *> Lt;
  return !(Lt(A + ASpan - 1, B) || Lt(B + BSpan - 1, A));
}

size_t span(ConstMatrixView M) {
  return M.empty() ? 0 : (M.rows() - 1) * M.stride() + M.cols();
}

bool noAlias(MatrixView Out, ConstMatrixView In) {
  return !overlaps(Out.data(), (Out.empty() ? 0 : (Out.rows() - 1) *
                                                      Out.stride() +
                                                  Out.cols()),
                   In.data(), span(In));
}

bool noAlias(VectorView Out, ConstMatrixView In) {
  return !overlaps(Out.data(), Out.size(), In.data(), span(In));
}

bool noAlias(VectorView Out, ConstVectorView In) {
  return !overlaps(Out.data(), Out.size(), In.data(), In.size());
}
#endif

//===----------------------------------------------------------------------===//
// Backend selection
//===----------------------------------------------------------------------===//

bool cpuSupports(KernelBackend Backend) {
  switch (Backend) {
  case KernelBackend::Scalar:
    return true;
  case KernelBackend::Avx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
  case KernelBackend::Avx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
  }
  return false;
}

/// Widest tier that is both compiled in and executable on this CPU.
KernelBackend widestAvailableBackend() {
  if (kernelTableFor(KernelBackend::Avx512))
    return KernelBackend::Avx512;
  if (kernelTableFor(KernelBackend::Avx2))
    return KernelBackend::Avx2;
  return KernelBackend::Scalar;
}

struct Dispatch {
  const KernelTable *Table;
  KernelBackend Kind;
};

Dispatch selectBackend() {
  KernelBackend Kind = widestAvailableBackend();
  if (const char *Env = std::getenv("CRAFT_KERNEL_BACKEND");
      Env && *Env != '\0') {
    KernelBackend Requested;
    bool Known = true;
    if (std::strcmp(Env, "scalar") == 0)
      Requested = KernelBackend::Scalar;
    else if (std::strcmp(Env, "avx2") == 0)
      Requested = KernelBackend::Avx2;
    else if (std::strcmp(Env, "avx512") == 0)
      Requested = KernelBackend::Avx512;
    else
      Known = false;
    if (!Known)
      std::fprintf(stderr,
                   "craft: unknown CRAFT_KERNEL_BACKEND '%s' "
                   "(expected scalar|avx2|avx512); using %s\n",
                   Env, kernelBackendName(Kind));
    else if (!kernelTableFor(Requested))
      std::fprintf(stderr,
                   "craft: CRAFT_KERNEL_BACKEND=%s unavailable on this "
                   "build/CPU; using %s\n",
                   Env, kernelBackendName(Kind));
    else
      Kind = Requested;
  }
  return {kernelTableFor(Kind), Kind};
}

/// The once-initialized process-wide dispatch decision.
const Dispatch &dispatch() {
  static const Dispatch D = selectBackend();
  return D;
}

//===----------------------------------------------------------------------===//
// Tiled large kernels
//===----------------------------------------------------------------------===//

size_t configuredKernelThreads() {
  long V = 0; // Unset or 0: one tile thread per hardware thread.
  if (const char *Env = std::getenv("CRAFT_KERNEL_THREADS"))
    V = std::strtol(Env, nullptr, 10);
  return fanOutThreads(SIZE_MAX,
                       static_cast<int>(std::clamp(V, 0L, long(INT_MAX))));
}

/// Tile threads available to the calling thread. The cores have one
/// owner: code inside a fan-out item (a batch query, a split wave item, a
/// kernel tile) already holds its core and runs serially; a caller that
/// has not fanned out tiles over the pool.
size_t tileWorkers() { return inFanOutItem() ? 1 : kernelThreadCount(); }

// Tiling thresholds. Tiling only pays when the per-tile work dwarfs the
// submit/wake cost (~10 us): a p=200 CH-Zonotope generator product (~16M
// mul-adds) crosses GemmTileMinFlops, per-iteration p<=200 gemv-family
// calls stay serial, and conv-scale reductions (latent ~1300 x thousands
// of columns) cross GemvAbsTileMinElems.
constexpr size_t GemmTileMinFlops = size_t(1) << 22;
constexpr size_t GemvAbsTileMinElems = size_t(1) << 21;
// Minimum tile extents keep packing efficiency (gemm panels) and lane
// utilization (gemvAbs row blocks) intact.
constexpr size_t GemmMinTileCols = 32;
constexpr size_t GemvAbsMinTileRows = 64;

using GemmFn = void (*)(MatrixView, ConstMatrixView, ConstMatrixView, double,
                        double);

/// Fans \p Fn out over \p Tiles contiguous column panels of Out/B (see
/// detail::runTiled). Column panels (not row tiles) so each tile packs
/// exactly its own B panel — row splits would re-pack the full B once per
/// tile.
/// The partition never changes any per-element operation order.
void runGemmTiled(GemmFn Fn, MatrixView Out, ConstMatrixView A,
                  ConstMatrixView B, double Alpha, double Beta,
                  size_t Tiles) {
  const size_t N = B.cols();
  if (Tiles <= 1 || N == 0) {
    Fn(Out, A, B, Alpha, Beta);
    return;
  }
  detail::runTiled(N, Tiles, [&](IndexRange R) {
    Fn(Out.colRange(R.Begin, R.size()), A, B.colRange(R.Begin, R.size()),
       Alpha, Beta);
  });
}

size_t gemmTileCount(size_t M, size_t N, size_t K) {
  if (M * N * K < GemmTileMinFlops || N < 2 * GemmMinTileCols)
    return 1;
  const size_t Workers = tileWorkers();
  if (Workers <= 1)
    return 1;
  return Workers < N / GemmMinTileCols ? Workers : N / GemmMinTileCols;
}

} // namespace

void kernels::detail::runTiled(size_t N, size_t Tiles,
                               const std::function<void(IndexRange)> &Body) {
  // Parts beyond N would be empty; the non-empty ones are the same ranges.
  const size_t Parts = Tiles < N ? Tiles : N;
  parallelForIndex(Parts, static_cast<int>(Parts), [&](size_t T) {
    Body(staticPartition(N, Parts, T));
  });
}

//===----------------------------------------------------------------------===//
// Backend API
//===----------------------------------------------------------------------===//

const KernelTable *kernels::kernelTableFor(KernelBackend Backend) {
  if (!cpuSupports(Backend))
    return nullptr;
  switch (Backend) {
  case KernelBackend::Scalar:
    return &scalarKernelTable();
  case KernelBackend::Avx2:
#if CRAFT_KERNELS_HAVE_AVX2
    return &avx2KernelTable();
#else
    return nullptr;
#endif
  case KernelBackend::Avx512:
#if CRAFT_KERNELS_HAVE_AVX512
    return &avx512KernelTable();
#else
    return nullptr;
#endif
  }
  return nullptr;
}

KernelBackend kernels::activeKernelBackend() { return dispatch().Kind; }

const char *kernels::kernelBackendName(KernelBackend Backend) {
  switch (Backend) {
  case KernelBackend::Scalar:
    return "scalar";
  case KernelBackend::Avx2:
    return "avx2";
  case KernelBackend::Avx512:
    return "avx512";
  }
  return "unknown";
}

size_t kernels::kernelThreadCount() {
  static const size_t Count = configuredKernelThreads();
  return Count;
}

void kernels::detail::gemmTiled(MatrixView Out, ConstMatrixView A,
                                ConstMatrixView B, double Alpha, double Beta,
                                size_t Tiles) {
  runGemmTiled(dispatch().Table->Gemm, Out, A, B, Alpha, Beta, Tiles);
}

void kernels::detail::gemvAbsTiled(VectorView Out, ConstMatrixView M,
                                   ConstVectorView V, double Alpha,
                                   double Beta, size_t Tiles) {
  const size_t Rows = M.rows();
  const KernelTable &T = *dispatch().Table;
  if (Tiles <= 1 || Rows == 0) {
    T.GemvAbs(Out, M, V, Alpha, Beta);
    return;
  }
  runTiled(Rows, Tiles, [&](IndexRange R) {
    T.GemvAbs(Out.slice(R.Begin, R.size()), M.rowRange(R.Begin, R.size()), V,
              Alpha, Beta);
  });
}

//===----------------------------------------------------------------------===//
// Dispatched kernels
//===----------------------------------------------------------------------===//

void kernels::gemm(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
                   double Alpha, double Beta) {
  assert(A.cols() == B.rows() && "gemm inner dimension mismatch");
  assert(Out.rows() == A.rows() && Out.cols() == B.cols() &&
         "gemm output shape mismatch");
  assert(noAlias(Out, A) && "gemm output aliases A");
  assert(noAlias(Out, B) && "gemm output aliases B");
  runGemmTiled(dispatch().Table->Gemm, Out, A, B, Alpha, Beta,
               gemmTileCount(A.rows(), B.cols(), A.cols()));
}

void kernels::gemmSparseAware(MatrixView Out, ConstMatrixView A,
                              ConstMatrixView B, double Alpha, double Beta) {
  assert(A.cols() == B.rows() && "gemm inner dimension mismatch");
  assert(Out.rows() == A.rows() && Out.cols() == B.cols() &&
         "gemm output shape mismatch");
  assert(noAlias(Out, A) && "gemm output aliases A");
  assert(noAlias(Out, B) && "gemm output aliases B");
  runGemmTiled(dispatch().Table->GemmSparse, Out, A, B, Alpha, Beta,
               gemmTileCount(A.rows(), B.cols(), A.cols()));
}

namespace {

/// Cheap measured-density probe: up to 256 entries sampled at an even
/// stride over A (deterministic — no RNG). The sparse-aware path pays a
/// branch per (row, k), which historically breaks even somewhere around a
/// third of the left operand being exact zeros; probe conservatively.
bool probeSparse(ConstMatrixView A) {
  const size_t Rows = A.rows(), Cols = A.cols();
  const size_t Total = Rows * Cols;
  if (Total == 0)
    return false;
  const size_t Samples = Total < 256 ? Total : 256;
  size_t Zeros = 0;
  for (size_t S = 0; S < Samples; ++S) {
    // Fixed-point stepping so the samples span the whole matrix even when
    // Total / Samples truncates (e.g. Total = 511).
    const size_t Idx = S * Total / Samples;
    if (A(Idx / Cols, Idx % Cols) == 0.0)
      ++Zeros;
  }
  return Zeros * 8 >= Samples * 3; // >= 37.5% sampled zeros.
}

} // namespace

void kernels::gemmAuto(MatrixView Out, ConstMatrixView A, ConstMatrixView B,
                       double Alpha, double Beta, DensityHint Hint) {
  const bool Sparse =
      Hint == DensityHint::Sparse ||
      (Hint == DensityHint::Probe && probeSparse(A));
  if (Sparse)
    gemmSparseAware(Out, A, B, Alpha, Beta);
  else
    gemm(Out, A, B, Alpha, Beta);
}

void kernels::gemv(VectorView Out, ConstMatrixView M, ConstVectorView V,
                   double Alpha, double Beta) {
  assert(M.cols() == V.size() && "gemv inner dimension mismatch");
  assert(Out.size() == M.rows() && "gemv output size mismatch");
  assert(noAlias(Out, M) && "gemv output aliases M");
  assert(noAlias(Out, V) && "gemv output aliases V");
  dispatch().Table->Gemv(Out, M, V, Alpha, Beta);
}

void kernels::gemvAbs(VectorView Out, ConstMatrixView M, ConstVectorView V,
                      double Alpha, double Beta) {
  assert(M.cols() == V.size() && "gemvAbs inner dimension mismatch");
  assert(Out.size() == M.rows() && "gemvAbs output size mismatch");
  assert(noAlias(Out, M) && "gemvAbs output aliases M");
  assert(noAlias(Out, V) && "gemvAbs output aliases V");
  size_t Tiles = 1;
  if (M.rows() >= 2 * GemvAbsMinTileRows &&
      M.rows() * M.cols() >= GemvAbsTileMinElems) {
    const size_t Workers = tileWorkers();
    const size_t MaxTiles = M.rows() / GemvAbsMinTileRows;
    Tiles = Workers < MaxTiles ? Workers : MaxTiles;
  }
  if (Tiles <= 1)
    dispatch().Table->GemvAbs(Out, M, V, Alpha, Beta);
  else
    detail::gemvAbsTiled(Out, M, V, Alpha, Beta, Tiles);
}

void kernels::gemvTransposed(VectorView Out, ConstMatrixView M,
                             ConstVectorView V) {
  assert(M.rows() == V.size() && "gemvTransposed inner dimension mismatch");
  assert(Out.size() == M.cols() && "gemvTransposed output size mismatch");
  assert(noAlias(Out, M) && "gemvTransposed output aliases M");
  assert(noAlias(Out, V) && "gemvTransposed output aliases V");
  dispatch().Table->GemvTransposed(Out, M, V);
}

void kernels::luEliminate(MatrixView T) {
  assert(T.rows() == T.cols() && T.rows() > 0 &&
         "luEliminate needs a non-empty square trailing block");
  dispatch().Table->LuEliminate(T);
}

void kernels::axpy(VectorView Y, double A, ConstVectorView X) {
  assert(Y.size() == X.size() && "axpy size mismatch");
  assert(noAlias(Y, X) && "axpy output aliases input");
  dispatch().Table->Axpy(Y, A, X);
}

void kernels::scale(VectorView X, double A) { dispatch().Table->Scale(X, A); }

double kernels::normInf(ConstVectorView X) {
  return dispatch().Table->NormInf(X);
}

void kernels::rowAbsSumsInto(VectorView Out, ConstMatrixView M, double Beta) {
  assert(Out.size() == M.rows() && "rowAbsSums output size mismatch");
  assert(noAlias(Out, M) && "rowAbsSums output aliases input");
  dispatch().Table->RowAbsSums(Out, M, Beta);
}

//===----------------------------------------------------------------------===//
// Non-dispatched kernels (pure data movement — no arithmetic to vectorize
// beyond what the compiler already does)
//===----------------------------------------------------------------------===//

void kernels::transposeInto(MatrixView Out, ConstMatrixView In) {
  assert(Out.rows() == In.cols() && Out.cols() == In.rows() &&
         "transpose output shape mismatch");
  assert(noAlias(Out, In) && "transpose output aliases input");
  for (size_t R = 0, E = In.rows(); R < E; ++R) {
    const double *Row = In.row(R);
    for (size_t C = 0, CE = In.cols(); C < CE; ++C)
      Out(C, R) = Row[C];
  }
}

void kernels::copyInto(MatrixView Out, ConstMatrixView In) {
  assert(Out.rows() == In.rows() && Out.cols() == In.cols() &&
         "copy shape mismatch");
  assert(noAlias(Out, In) && "copy output aliases input");
  for (size_t R = 0, E = In.rows(); R < E; ++R) {
    const double *Src = In.row(R);
    double *Dst = Out.row(R);
    for (size_t C = 0, CE = In.cols(); C < CE; ++C)
      Dst[C] = Src[C];
  }
}

void kernels::copyInto(VectorView Out, ConstVectorView In) {
  assert(Out.size() == In.size() && "copy size mismatch");
  assert(noAlias(Out, In) && "copy output aliases input");
  for (size_t I = 0, E = In.size(); I < E; ++I)
    Out[I] = In[I];
}

void kernels::fill(MatrixView Out, double Value) {
  for (size_t R = 0, E = Out.rows(); R < E; ++R) {
    double *Row = Out.row(R);
    for (size_t C = 0, CE = Out.cols(); C < CE; ++C)
      Row[C] = Value;
  }
}

void kernels::fill(VectorView Out, double Value) {
  for (size_t I = 0, E = Out.size(); I < E; ++I)
    Out[I] = Value;
}
