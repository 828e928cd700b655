//===- bench/bench_fig2_running_example.cpp -------------------------------===//
//
// Reproduces the overview figures on the paper's running example (Eq. 1):
//   - Fig. 2a: the decision landscape of the 2-d monDEQ over [-1, 1]^2;
//   - Fig. 2b/2c + Fig. 4: abstractions of the fixpoint set and of the
//     output score for the input region X (0.05-box around (0.2, 0.5)),
//     comparing Kleene iteration and Craft (with CH-Zonotope).
//
// Expected shape: the concrete fixpoint s* ~ (0.1231, 0.0846) with score
// y ~ 0.0385; Craft's output interval lies strictly above 0 (certified);
// Kleene's contains 0 (not certifiable).
//
//===----------------------------------------------------------------------===//

#include "core/KleeneVerifier.h"
#include "core/Verifier.h"
#include "nn/Solvers.h"
#include "support/Table.h"

#include <cstdio>

using namespace craft;

static MonDeq runningExample() {
  Matrix W = {{-4.0, -1.0}, {1.0, -4.0}};
  Matrix U = {{1.0, 1.0}, {-1.0, 1.0}};
  Matrix V = {{0.0, 0.0}, {1.0, -1.0}}; // Logits (0, y): class 1 iff y > 0.
  return MonDeq::fromW(4.0, W, U, Vector(2, 0.0), V, Vector(2, 0.0));
}

int main() {
  std::printf("== Fig. 2 / Fig. 4: the running example (Eq. 1) ==\n\n");
  MonDeq Model = runningExample();
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);

  // Fig. 2a: decision landscape over [-1, 1]^2 ('#' = class 1, '.' = 0,
  // 'X' marks the example input).
  std::printf("decision landscape over [-1,1]^2:\n");
  const int Grid = 31;
  for (int Row = 0; Row < Grid; ++Row) {
    double X2 = 1.0 - 2.0 * Row / (Grid - 1);
    std::string Line;
    for (int Col = 0; Col < Grid; ++Col) {
      double X1 = -1.0 + 2.0 * Col / (Grid - 1);
      bool Mark = std::abs(X1 - 0.2) < 0.034 && std::abs(X2 - 0.5) < 0.034;
      Line += Mark ? 'X' : (Solver.predict(Vector{X1, X2}) == 1 ? '#' : '.');
    }
    std::printf("%s\n", Line.c_str());
  }

  // Concrete reference point.
  FixpointResult Fix = Solver.solve(Vector{0.2, 0.5}, 1e-12, 1000);
  Vector Y = Model.output(Fix.Z);
  std::printf("\nconcrete: s* = (%.4f, %.4f), score y = %.4f -> class %d\n\n",
              Fix.Z[0], Fix.Z[1], Y[1], Y[1] > 0 ? 1 : 0);

  // Abstractions of the fixpoint set and the output for the 0.05-box.
  CraftConfig CConfig; // App. C's phase 2: r' = 50, full lambda opt.
  CConfig.Alpha1 = 0.1;
  CConfig.Phase2Window = 50;
  CConfig.LambdaOptLevel = 2;
  CConfig.InputClampLo = -1.0;
  CConfig.InputClampHi = 1.0;
  CraftResult Craft = CraftVerifier(Model, CConfig)
                          .verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);

  KleeneConfig KConfig;
  KConfig.Alpha = 0.1;
  KConfig.InputClampLo = -1.0;
  KConfig.InputClampHi = 1.0;
  KleeneResult Kleene = KleeneVerifier(Model, KConfig)
                            .verifyRobustness(Vector{0.2, 0.5}, 1, 0.05);

  TablePrinter Table({"method", "S* dim1", "S* dim2", "score low bound",
                      "certified"});
  // Each hull label is pre-built in a single snprintf — no std::string
  // concatenation anywhere near the row construction.
  auto hullCell = [](const IntervalVector &H, size_t Dim) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "[%.4f, %.4f]", H.lowerBounds()[Dim],
                  H.upperBounds()[Dim]);
    return std::string(Buf);
  };
  const std::string CraftDim1 = hullCell(Craft.FixpointHull, 0);
  const std::string CraftDim2 = hullCell(Craft.FixpointHull, 1);
  const std::string KleeneDim1 = hullCell(Kleene.FixpointHull, 0);
  const std::string KleeneDim2 = hullCell(Kleene.FixpointHull, 1);
  Table.addRow({"Craft (CH-Zonotope)", CraftDim1, CraftDim2,
                fmt(Craft.BestMargin, 4), Craft.Certified ? "yes" : "no"});
  Table.addRow({"Kleene iteration", KleeneDim1, KleeneDim2,
                fmt(Kleene.BestMargin, 4), Kleene.Certified ? "yes" : "no"});
  Table.print();

  std::printf("\nCraft hull mean width %.4f vs Kleene %.4f "
              "(Craft strictly tighter, Fig. 2b/4)\n",
              Craft.FixpointHull.meanWidth(),
              Kleene.FixpointHull.meanWidth());
  return 0;
}
