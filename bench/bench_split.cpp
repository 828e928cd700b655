//===- bench/bench_split.cpp - Split-engine scaling -----------------------===//
//
// Measures the parallel work-queue split engine against its serial (jobs=1)
// configuration on a >= 64-region workload, emitting BENCH_split.json:
//
//   split_global_serial / split_global_parallel   global certification
//   split_bnb_serial / split_bnb_parallel         branch-and-bound query
//   split_parallel_speedup                        serial/parallel ratio of
//                                                 the global run (direction
//                                                 "higher": a drop is the
//                                                 regression)
//   split_verifier_calls                          regions processed (gated:
//                                                 a call-count explosion is
//                                                 a regression even when
//                                                 per-call time improves)
//
// ns_per_op is the wall time of one whole split run. The harness
// self-checks two bars by exit code:
//   - determinism: serial and parallel outcomes must be byte-identical;
//   - scaling: on hosts with >= 2 hardware threads, the parallel global
//     run must beat serial by >= 1.1x (skipped on single-core hosts,
//     where the pool can only add overhead).
//
// The speedup RECORD is emitted unconditionally — including on 1-core
// hosts, where only the exit-code bar is skipped. Dropping the record
// there used to make the baseline row silently vanish from the
// comparison, so a real scaling regression on multi-core runners could
// hide behind a 1-core baseline refresh.
//
// CRAFT_SPLIT_DEPTH overrides the split budget (default 9 -> ~hundreds of
// regions on the GMM workload).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "BenchJson.h"

#include "core/SplitEngine.h"
#include "data/GaussianMixture.h"
#include "support/Rng.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace craft;

namespace {

/// Same recipe as the test fixtures: small and fast to train, with real
/// decision boundaries inside [0.3, 0.7]^5 so shallow regions stay
/// uncertified and the tree fans out.
MonDeq trainWorkloadModel(Vector &Sample, int &SampleClass) {
  Rng DataRng(91);
  Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
  Rng InitRng(92);
  MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
  TrainOptions Opts;
  Opts.Epochs = 10;
  Opts.Verbose = false;
  trainMonDeq(Model, Train, Opts);
  FixpointSolver Solver(Model, Splitting::PeacemanRachford);
  for (size_t I = 0; I < Train.size(); ++I)
    if (Solver.predict(Train.input(I)) == Train.Labels[I]) {
      Sample = Train.input(I);
      SampleClass = Train.Labels[I];
      break;
    }
  return Model;
}

CraftConfig workloadConfig() {
  CraftConfig Config;
  Config.Alpha1 = 0.5;
  Config.LambdaOptLevel = 0; // Many small regions; keep each cheap.
  return Config;
}

bool sameSplit(const SplitResult &A, const SplitResult &B) {
  if (std::memcmp(&A.CertifiedFraction, &B.CertifiedFraction,
                  sizeof(double)) != 0 ||
      A.Certified != B.Certified || A.Refuted != B.Refuted ||
      A.NumCertified != B.NumCertified ||
      A.NumVerifierCalls != B.NumVerifierCalls ||
      A.NumWaves != B.NumWaves || A.Regions.size() != B.Regions.size())
    return false;
  for (size_t I = 0; I < A.Regions.size(); ++I)
    if (A.Regions[I].Path != B.Regions[I].Path ||
        A.Regions[I].CertifiedClass != B.Regions[I].CertifiedClass)
      return false;
  return true;
}

} // namespace

int main() {
  std::printf("== bench_split: parallel work-queue split engine ==\n\n");

  int Depth = 9;
  if (const char *Env = std::getenv("CRAFT_SPLIT_DEPTH"))
    Depth = std::max(1, std::atoi(Env));
  const size_t Hardware = hardwareThreads();

  Vector Sample;
  int SampleClass = -1;
  MonDeq Model = trainWorkloadModel(Sample, SampleClass);
  CraftConfig Config = workloadConfig();
  const Vector Lo(5, 0.3), Hi(5, 0.7);

  // Global certification workload (the Fig. 11 shape).
  SplitOptions GlobalOpts;
  GlobalOpts.MaxDepth = Depth;
  GlobalOpts.Jobs = 1;
  WallTimer T1;
  SplitResult GlobalSerial = runSplitEngine(Model, Config, Lo, Hi, GlobalOpts);
  double GlobalSerialSec = T1.seconds();
  GlobalOpts.Jobs = -1;
  WallTimer T2;
  SplitResult GlobalParallel =
      runSplitEngine(Model, Config, Lo, Hi, GlobalOpts);
  double GlobalParallelSec = T2.seconds();

  std::printf("global  depth %d: %zu regions, %zu verifier calls, %zu "
              "waves, %.1f%% certified\n",
              Depth, GlobalSerial.Regions.size(),
              GlobalSerial.NumVerifierCalls, GlobalSerial.NumWaves,
              100.0 * GlobalSerial.CertifiedFraction);
  std::printf("global  serial %.3f s, parallel(%zu) %.3f s  ->  %.2fx\n\n",
              GlobalSerialSec, Hardware, GlobalParallelSec,
              GlobalSerialSec / GlobalParallelSec);

  // Branch-and-bound workload: a ball around a correctly classified
  // training sample, wide enough that the root fails and the tree fans
  // out into a mix of certified and undecided leaves (no refutation, so
  // the whole tree is processed).
  Vector BnbLo = Sample, BnbHi = Sample;
  for (size_t I = 0; I < BnbLo.size(); ++I) {
    BnbLo[I] = std::max(BnbLo[I] - 0.012, 0.0);
    BnbHi[I] = std::min(BnbHi[I] + 0.012, 1.0);
  }
  SplitOptions BnbOpts;
  BnbOpts.MaxDepth = Depth;
  BnbOpts.Jobs = 1;
  BnbOpts.TargetClass = SampleClass;
  WallTimer T3;
  SplitResult BnbA = runSplitEngine(Model, Config, BnbLo, BnbHi, BnbOpts);
  double BnbSerialSec = T3.seconds();
  BnbOpts.Jobs = -1;
  WallTimer T4;
  SplitResult BnbB = runSplitEngine(Model, Config, BnbLo, BnbHi, BnbOpts);
  double BnbParallelSec = T4.seconds();

  std::printf("bnb     depth %d: %s, %zu verifier calls, %zu leaves\n",
              Depth,
              BnbA.Certified  ? "certified"
              : BnbA.Refuted  ? "refuted"
                              : "undecided",
              BnbA.NumVerifierCalls, BnbA.Regions.size());
  std::printf("bnb     serial %.3f s, parallel(%zu) %.3f s  ->  %.2fx\n\n",
              BnbSerialSec, Hardware, BnbParallelSec,
              BnbSerialSec / BnbParallelSec);

  char Dims[16];
  std::snprintf(Dims, sizeof(Dims), "d%d", Depth);
  std::vector<benchjson::Record> Records;
  auto record = [&Records, &Dims](const char *Op, double NsPerOp,
                                  const char *Direction = "") {
    benchjson::Record R;
    R.Op = Op;
    R.Dims = Dims;
    R.NsPerOp = NsPerOp;
    R.Direction = Direction;
    Records.push_back(std::move(R));
  };
  record("split_global_serial", GlobalSerialSec * 1e9);
  record("split_global_parallel", GlobalParallelSec * 1e9);
  record("split_bnb_serial", BnbSerialSec * 1e9);
  record("split_bnb_parallel", BnbParallelSec * 1e9);
  // Always emitted, even when the 1-core host skips the >= 1.1x exit
  // bar below: the record is what lets bench_compare see a scaling
  // regression at all, and a missing row is just a "note", not a gate.
  record("split_parallel_speedup", GlobalSerialSec / GlobalParallelSec,
         "higher");
  // Region counts ride the same gate: ns_per_op holds the call count, so
  // a >1.3x explosion in processed regions fails bench_compare even when
  // each call got faster.
  record("split_verifier_calls",
         static_cast<double>(GlobalSerial.NumVerifierCalls));
  benchjson::write("BENCH_split.json", Records);

  // Acceptance bars.
  bool Ok = true;
  if (GlobalSerial.NumVerifierCalls < 64) {
    std::fprintf(stderr,
                 "FAIL: workload too small (%zu regions < 64) — raise "
                 "CRAFT_SPLIT_DEPTH\n",
                 GlobalSerial.NumVerifierCalls);
    Ok = false;
  }
  if (!sameSplit(GlobalSerial, GlobalParallel) || !sameSplit(BnbA, BnbB)) {
    std::fprintf(stderr, "FAIL: serial and parallel outcomes differ — the "
                         "jobs-1-vs-N determinism contract is broken\n");
    Ok = false;
  }
  if (Hardware >= 2) {
    double Speedup = GlobalSerialSec / GlobalParallelSec;
    if (Speedup < 1.1) {
      std::fprintf(stderr,
                   "FAIL: parallel global split only %.2fx vs serial on "
                   "%zu hardware threads (need >= 1.1x)\n",
                   Speedup, Hardware);
      Ok = false;
    }
  } else {
    std::printf("single hardware thread: scaling bar skipped "
                "(determinism bar still enforced)\n");
  }
  std::printf("%s\n", Ok ? "OK" : "FAILED");
  return Ok ? 0 : 1;
}
