//===- tests/test_support.cpp - Support utility tests ---------------------===//

#include "linalg/KernelBackends.h"
#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

using namespace craft;

namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I) {
    double VA = A.uniform(), VB = B.uniform(), VC = C.uniform();
    EXPECT_DOUBLE_EQ(VA, VB);
    if (VA != VC)
      SUCCEED();
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng R(1);
  for (int I = 0; I < 1000; ++I) {
    double V = R.uniform(-2.5, 7.0);
    EXPECT_GE(V, -2.5);
    EXPECT_LT(V, 7.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng R(2);
  std::set<int> Seen;
  for (int I = 0; I < 500; ++I) {
    int V = R.uniformInt(3, 6);
    EXPECT_GE(V, 3);
    EXPECT_LE(V, 6);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u) << "all values in [3,6] should appear";
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng R(3);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double V = R.gaussian(2.0, 3.0);
    Sum += V;
    SumSq += V * V;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 2.0, 0.1);
  EXPECT_NEAR(Var, 9.0, 0.5);
}

TEST(RngTest, GaussianVectorAndShuffle) {
  Rng R(4);
  std::vector<double> V = R.gaussianVector(50, 0.0, 1.0);
  EXPECT_EQ(V.size(), 50u);
  std::vector<int> Order = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> Original = Order;
  R.shuffle(Order);
  std::sort(Order.begin(), Order.end());
  EXPECT_EQ(Order, Original) << "shuffle must be a permutation";
}

TEST(FmtTest, FormatsNumbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt(42L), "42");
  EXPECT_EQ(fmt(-7L), "-7");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer T;
  // craft-lint: allow(conc-volatile) — single-threaded optimization
  // barrier so the loop below isn't folded away; not synchronization.
  volatile double Sink = 0.0;
  for (int I = 0; I < 2000000; ++I)
    Sink = Sink + I * 1e-9; // No compound assignment: volatile += is
                            // deprecated in C++20 (-Wvolatile).
  double S = T.seconds();
  EXPECT_GT(S, 0.0);
  EXPECT_LT(S, 30.0);
  EXPECT_NEAR(T.milliseconds(), T.seconds() * 1e3, T.seconds() * 50);
  T.reset();
  EXPECT_LT(T.seconds(), 1.0);
}

//===----------------------------------------------------------------------===//
// Core ownership: kernels tile only outside fan-out items
//===----------------------------------------------------------------------===//

TEST(CoreOwnershipTest, FlagIsSetOnlyInsideFanOutItems) {
  EXPECT_FALSE(inFanOutItem());

  // Every item of a parallel fan-out, on the caller or on a helper.
  constexpr size_t N = 16;
  std::vector<char> InItem(N, 0);
  parallelForIndex(N, 4, [&](size_t I) { InItem[I] = inFanOutItem(); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_TRUE(InItem[I]) << "parallelForIndex item " << I;

  // Jobs = 1 is the plain loop on the caller, which keeps its cores.
  bool Inline = true;
  parallelForIndex(3, 1, [&](size_t) { Inline = Inline && inFanOutItem(); });
  EXPECT_FALSE(Inline);

  // A kernel tile is a fan-out item too, so it never re-tiles.
  std::vector<char> InTile(N, 0);
  kernels::detail::runTiled(N, 4, [&](IndexRange R) {
    for (size_t I = R.Begin; I < R.End; ++I)
      InTile[I] = inFanOutItem();
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_TRUE(InTile[I]) << "kernel tile element " << I;

  EXPECT_FALSE(inFanOutItem());
}

TEST(CoreOwnershipTest, WorkerGemmMatchesTiledCallerGemmBitwise) {
  // 192^3 multiply-adds clear the kernel layer's 2^22 tiling threshold,
  // so the caller's gemm may fan out while the fan-out item's runs
  // serially.
  constexpr size_t Dim = 192;
  Rng R(11);
  Matrix A(Dim, Dim), B(Dim, Dim);
  for (size_t I = 0; I < Dim; ++I)
    for (size_t J = 0; J < Dim; ++J) {
      A(I, J) = R.uniform(-1.0, 1.0);
      B(I, J) = R.uniform(-1.0, 1.0);
    }

  Matrix OnCaller(Dim, Dim), Tiled(Dim, Dim), OnWorker(Dim, Dim);
  kernels::gemm(OnCaller, A, B);
  // Force a tiled run even where CRAFT_KERNEL_THREADS=1 disables tiling.
  kernels::detail::gemmTiled(Tiled, A, B, 1.0, 0.0, 4);
  parallelForIndex(2, 2, [&](size_t I) {
    if (I == 0)
      kernels::gemm(OnWorker, A, B);
  });

  const size_t Bytes = Dim * Dim * sizeof(double);
  EXPECT_EQ(0, std::memcmp(OnWorker.rowData(0), OnCaller.rowData(0), Bytes));
  EXPECT_EQ(0, std::memcmp(OnWorker.rowData(0), Tiled.rowData(0), Bytes));
}

} // namespace
