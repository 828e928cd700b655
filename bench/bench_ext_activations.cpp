//===- bench/bench_ext_activations.cpp ------------------------------------===//
//
// Extension experiment (App. B.6): certification across equilibrium
// activations. Trains one monDEQ per activation (ReLU / tanh / sigmoid) on
// the Gaussian mixture dataset under identical budgets, then sweeps l-inf
// radii and reports accuracy, containment, certified counts, and mean
// verification time. Shape to expect: all three activations reach abstract
// containment (PR contraction is an operator property, not an activation
// one); the smooth activations' 1-Lipschitz saturation makes their
// certified radii comparable to ReLU's at matched accuracy.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "data/GaussianMixture.h"

using namespace craft;

int main() {
  std::printf("== Extension: certification across activations (App. B.6) "
              "==\n\n");

  Rng DataRng(7);
  Dataset Train = makeGaussianMixture(DataRng, 300, 5, 3);
  Dataset Test = makeGaussianMixture(DataRng, (size_t)benchSamples(20), 5, 3);

  struct Entry {
    ActivationKind Act;
    MonDeq Model;
  };
  std::vector<Entry> Entries;
  for (ActivationKind Act : {ActivationKind::ReLU, ActivationKind::Sigmoid,
                             ActivationKind::Tanh}) {
    Rng InitRng(11);
    MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, /*M=*/3.0);
    Model.setActivation(Act);
    TrainOptions Opts;
    Opts.Epochs = 12;
    Opts.Verbose = false;
    trainMonDeq(Model, Train, Opts);
    Entries.push_back({Act, std::move(Model)});
  }

  TablePrinter T({"activation", "eps", "#acc", "#cont", "#cert",
                  "time [s]"});
  for (const Entry &E : Entries) {
    CraftConfig Cfg;
    Cfg.Alpha1 = 0.5;
    Cfg.Phase2Window = 50; // App. C.
    Cfg.LambdaOptLevel = E.Act == ActivationKind::ReLU ? 2 : 0;
    CraftVerifier Verifier(E.Model, Cfg);
    FixpointSolver Solver(E.Model, Splitting::PeacemanRachford);
    for (double Eps : {0.02, 0.05, 0.1}) {
      int Accurate = 0, Contained = 0, Certified = 0;
      double Time = 0.0;
      for (size_t I = 0; I < Test.size(); ++I) {
        Vector X = Test.input(I);
        if (Solver.predict(X) != Test.Labels[I])
          continue;
        ++Accurate;
        WallTimer Clock;
        CraftResult Res =
            Verifier.verifyRobustness(X, Test.Labels[I], Eps);
        Time += Clock.seconds();
        Contained += Res.Containment;
        Certified += Res.Certified;
      }
      T.addRow({activationName(E.Act), fmt(Eps, 2), fmt((long)Accurate),
                fmt((long)Contained), fmt((long)Certified),
                fmt(Accurate ? Time / Accurate : 0.0, 3)});
    }
  }
  T.print();
  return 0;
}
