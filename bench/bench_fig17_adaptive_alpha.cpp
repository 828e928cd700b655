//===- bench/bench_fig17_adaptive_alpha.cpp -------------------------------===//
//
// Reproduces Fig. 17 (App. E.1): the distribution of line-searched phase-2
// step sizes alpha_2 for FB tightening, depending on the phase-1 PR step
// size alpha_1. Only samples that are not already certified at containment
// reach the line search. The search stops at its first certifying probe,
// so for certified samples alpha_2 is the first candidate that certifies;
// for the others it is the candidate with the best probe margin.
//
// Expected shape: the selected alpha_2 varies per sample and shifts with
// alpha_1 -- the value of choosing alpha_2 adaptively (Thm 5.1 allows any
// alpha in [0, 1]).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <map>

using namespace craft;

int main() {
  std::printf("== Fig. 17: adaptive alpha_2 distributions (FCx87) ==\n\n");

  const ModelSpec *Spec = findModelSpec("mnist_fc87");
  MonDeq Model = getOrTrainModel(*Spec);
  Dataset Test = makeTestSet(*Spec, benchSamples(8));
  FixpointSolver Concrete(Model, Splitting::PeacemanRachford);

  for (double Alpha1 : {0.02, 0.12}) {
    CraftConfig Config = craftConfigFor(*Spec);
    Config.Alpha1 = Alpha1;
    Config.LambdaOptLevel = 0;
    CraftVerifier Verifier(Model, Config);

    std::map<double, std::pair<int, int>> Histogram; // alpha2 -> (cert, not).
    for (size_t I = 0; I < Test.size(); ++I) {
      if (Concrete.predict(Test.input(I)) != Test.Labels[I])
        continue;
      CraftResult Res = Verifier.verifyRobustness(Test.input(I),
                                                  Test.Labels[I],
                                                  Spec->Epsilon);
      if (Res.ChosenAlpha2 < 0.0)
        continue; // Phase 2 never ran (no containment).
      auto &Bucket = Histogram[Res.ChosenAlpha2];
      (Res.Certified ? Bucket.first : Bucket.second) += 1;
    }

    std::printf("alpha_1 = %.2f:\n", Alpha1);
    TablePrinter Table({"alpha_2", "#verified", "#not verified"});
    for (const auto &[Alpha2, Counts] : Histogram)
      Table.addRow({fmt(Alpha2, 3), fmt(static_cast<long>(Counts.first)),
                    fmt(static_cast<long>(Counts.second))});
    Table.print();
    std::printf("\n");
  }
  return 0;
}
