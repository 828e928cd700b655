//===- bench/BenchCommon.h - Shared benchmark harness helpers ---*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/figure harnesses: per-model Craft
/// configurations (Table 7 / App. D.2), PGD configurations (App. D.3), the
/// certification loop that produces Table 2-style rows, and sample-count
/// scaling via the CRAFT_SAMPLES environment variable.
///
/// Absolute runtimes are not comparable to the paper (single-core CPU vs
/// TITAN RTX); the harnesses reproduce the qualitative shape -- who wins,
/// by what rough factor, where crossovers lie.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_BENCH_BENCHCOMMON_H
#define CRAFT_BENCH_BENCHCOMMON_H

#include "attack/Pgd.h"
#include "core/Verifier.h"
#include "nn/ModelZoo.h"
#include "nn/Training.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace craft {

/// Sample count for an experiment: CRAFT_SAMPLES env override or the
/// per-experiment default (the paper uses the first 100 test samples; the
/// defaults here are sized for a single-core run of the whole harness).
inline size_t benchSamples(size_t Default) {
  if (const char *Env = std::getenv("CRAFT_SAMPLES")) {
    long V = std::atol(Env);
    if (V > 0)
      return static_cast<size_t>(V);
  }
  return Default;
}

/// Worker count for the per-sample certification loops: CRAFT_JOBS env
/// override (0 = all hardware threads), default 1. The count columns are
/// identical for every value; the mean-time column measures per-sample
/// wall time, so it is only comparable across runs at CRAFT_JOBS=1
/// (workers contend for cores and inflate each other's timers).
inline int benchJobs() {
  if (const char *Env = std::getenv("CRAFT_JOBS")) {
    long V = std::atol(Env);
    if (V == 0)
      return -1; // parallelForIndex: <= 0 means all hardware threads.
    if (V > 0)
      return static_cast<int>(V);
  }
  return 1;
}

/// Craft verification parameters per model (Table 7 + App. D.2). The
/// engine's defaults stop phase 2 sooner and skip lambda optimization, so
/// every branch pins App. C's stall window r', and the fully connected
/// MNIST/CIFAR branches pin its full lambda optimization.
inline CraftConfig craftConfigFor(const ModelSpec &Spec) {
  CraftConfig Config;
  Config.Phase1Method = Splitting::PeacemanRachford;
  Config.Phase2Method = Splitting::ForwardBackward;
  if (Spec.Name == "mnist_fc40" || Spec.Name == "mnist_fc87") {
    Config.ConsolidateEvery = 3;
    Config.Phase2Window = 50;
    Config.Alpha1 = 0.1;
    Config.LambdaOptLevel = 2;
  } else if (Spec.Name == "mnist_fc100") {
    Config.ConsolidateEvery = 5;
    Config.Phase2Window = 50;
    Config.Alpha1 = 0.06;
    Config.LambdaOptLevel = 2;
  } else if (Spec.Name == "mnist_fc200") {
    Config.ConsolidateEvery = 5;
    Config.Phase2Window = 50;
    Config.Alpha1 = 0.05;
    Config.LambdaOptLevel = 2;
  } else if (Spec.Name == "mnist_conv") {
    Config.ConsolidateEvery = 5;
    Config.Phase2Window = 50;
    Config.Alpha1 = 0.05;
    Config.Expansion = ExpansionSchedule::None; // Table 7: '-'.
    // Per-iteration cost is O(p^3) at state dim ~1300: bound everything.
    Config.MaxIterations = 60;
    Config.Phase2MaxIterations = 10;
    Config.ContainmentCheckEvery = 5;
    Config.LambdaOptLevel = 0;
  } else if (Spec.DatasetKind == "cifar") {
    Config.ConsolidateEvery = 3;
    Config.Phase2Window = 30;
    Config.Alpha1 = 0.06;
    Config.Expansion = ExpansionSchedule::Exponential;
    if (Spec.Conv) {
      Config.MaxIterations = 60;
      Config.Phase2MaxIterations = 10;
      Config.ContainmentCheckEvery = 3;
      Config.LambdaOptLevel = 0;
    } else {
      Config.LambdaOptLevel = 2;
    }
  } else {
    // HCAS / GMM toys (the Fig. 11 bench sets its own lambda level).
    Config.ConsolidateEvery = 3;
    Config.Phase2Window = 50;
    Config.Alpha1 = 0.06;
  }
  return Config;
}

/// PGD attack parameters per model (App. D.3, scaled to this substrate).
inline PgdOptions pgdOptionsFor(const ModelSpec &Spec) {
  PgdOptions Opts;
  Opts.Epsilon = Spec.Epsilon;
  Opts.Steps = 25;
  Opts.Restarts = 2;
  Opts.OdiSteps = 5;
  if (Spec.LatentDim > 300) {
    // Conv-sized latents: untargeted margin attack with iterative adjoint.
    Opts.TargetAllClasses = false;
    Opts.Restarts = 3;
    Opts.NeumannTerms = 60;
  }
  return Opts;
}

/// One Table 2-style row of certification results.
struct CertRow {
  size_t Samples = 0;
  size_t Accurate = 0;  ///< Correctly classified (natural accuracy count).
  size_t Bound = 0;     ///< Empirically robust under PGD (upper bound).
  size_t Contained = 0; ///< Abstract post-fixpoint found.
  size_t Certified = 0;
  double MeanTimeSeconds = 0.0; ///< Mean Craft time per accurate sample.
};

/// Runs accuracy + PGD + Craft over \p NumSamples test samples of \p Spec.
/// \p Config and \p Attack allow per-experiment overrides (ablations).
inline CertRow evaluateCertification(const ModelSpec &Spec,
                                     const MonDeq &Model,
                                     const CraftConfig &Config,
                                     const PgdOptions &Attack, double Epsilon,
                                     size_t NumSamples) {
  Dataset Test = makeTestSet(Spec, NumSamples);
  // Constructing the solver warms MonDeq's lazily cached alpha bound on
  // this thread, so the workers below only ever read the model.
  FixpointSolver Concrete(Model, Splitting::PeacemanRachford);
  CraftVerifier Verifier(Model, Config);

  // The certification loop is embarrassingly parallel across samples
  // (Table 2): fan it out, keep results slotted by sample index and PGD
  // seeds keyed by sample index, so every CRAFT_JOBS value produces the
  // same row.
  struct SampleResult {
    bool Accurate = false;
    bool Bound = false;
    bool Contained = false;
    bool Certified = false;
    double CraftSeconds = 0.0;
  };
  std::vector<SampleResult> Results(Test.size());
  parallelForIndex(Test.size(), benchJobs(), [&](size_t I) {
    SampleResult &R = Results[I];
    Vector X = Test.input(I);
    int Label = Test.Labels[I];
    if (Concrete.predict(X) != Label)
      return; // Paper: times/certificates over correctly classified only.
    R.Accurate = true;

    PgdOptions PerSample = Attack;
    PerSample.Epsilon = Epsilon;
    PerSample.Seed = 1000 + I;
    PgdResult Adv = pgdAttack(Model, Concrete, X, Label, PerSample);
    R.Bound = !Adv.FoundAdversarial;

    WallTimer Timer;
    CraftResult Res = Verifier.verifyRobustness(X, Label, Epsilon);
    R.CraftSeconds = Timer.seconds();
    R.Contained = Res.Containment;
    R.Certified = Res.Certified;
  });

  CertRow Row;
  Row.Samples = Test.size();
  double TotalTime = 0.0;
  for (const SampleResult &R : Results) {
    Row.Accurate += R.Accurate;
    Row.Bound += R.Bound;
    Row.Contained += R.Contained;
    Row.Certified += R.Certified;
    TotalTime += R.CraftSeconds;
  }
  if (Row.Accurate > 0)
    Row.MeanTimeSeconds = TotalTime / static_cast<double>(Row.Accurate);
  return Row;
}

} // namespace craft

#endif // CRAFT_BENCH_BENCHCOMMON_H
