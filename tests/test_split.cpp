//===- tests/test_split.cpp - Parallel split work-queue engine ------------===//
//
// Regression coverage for the branch-and-bound split engine
// (core/SplitEngine.h) and its driver wiring:
//
//  - degenerate boxes (lo[i] == hi[i]) certify through both splitting
//    entry points — the old volume-ratio bookkeeping computed 0/0 and
//    could never report Certified for them;
//  - outcomes are byte-identical for jobs = 1 vs N, on fixtures whose
//    children start phase 2 from their parent's state;
//  - every point of a certified leaf classifies to the leaf's class;
//  - a refutation aborts the remaining expansion deterministically;
//  - PGD probes on undecided leaves refute genuinely false properties;
//  - the driver surfaces counterexamples, flags spec/model mismatches as
//    errors, and diagnoses certificate requests on split runs.
//
//===----------------------------------------------------------------------===//

#include "core/DomainSplitting.h"
#include "data/GaussianMixture.h"
#include "nn/Solvers.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "tool/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace craft;

namespace {

/// Trained GMM fixture shared by every test (same recipe as the BnB
/// fixture in test_core, so certifiability thresholds carry over).
struct SplitFixture {
  MonDeq Model;
  Vector Sample;
  int SampleClass = -1;
  std::string ModelPath = "/tmp/craft_split_model.bin";
};

SplitFixture &fixture() {
  static SplitFixture *F = [] {
    auto *Out = new SplitFixture;
    Rng DataRng(91);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Rng InitRng(92);
    Out->Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Out->Model, Train, Opts);
    Out->Model.save(Out->ModelPath);
    FixpointSolver Solver(Out->Model, Splitting::PeacemanRachford);
    for (size_t I = 0; I < Train.size(); ++I)
      if (Solver.predict(Train.input(I)) == Train.Labels[I]) {
        Out->Sample = Train.input(I);
        Out->SampleClass = Train.Labels[I];
        break;
      }
    return Out;
  }();
  return *F;
}

CraftConfig splitConfig() {
  CraftConfig Cfg;
  Cfg.Alpha1 = 0.5;
  Cfg.LambdaOptLevel = 0;
  return Cfg;
}

/// Box around the fixture sample: the first \p NumWide dimensions are
/// widened by +-Eps (clamped to [0, 1]), the rest stay degenerate
/// (lo == hi == center).
void degenerateBox(const Vector &Center, double Eps, size_t NumWide,
                   Vector &Lo, Vector &Hi) {
  Lo = Center;
  Hi = Center;
  for (size_t I = 0; I < std::min(NumWide, Center.size()); ++I) {
    Lo[I] = std::max(Center[I] - Eps, 0.0);
    Hi[I] = std::min(Center[I] + Eps, 1.0);
  }
}

bool sameVector(const Vector &A, const Vector &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

void expectSameBnB(const BranchAndBoundResult &A,
                   const BranchAndBoundResult &B, const char *What) {
  EXPECT_EQ(A.Certified, B.Certified) << What;
  EXPECT_EQ(A.Refuted, B.Refuted) << What;
  EXPECT_EQ(A.RefutedByPgd, B.RefutedByPgd) << What;
  EXPECT_TRUE(sameVector(A.Counterexample, B.Counterexample)) << What;
  EXPECT_EQ(A.CounterexamplePath, B.CounterexamplePath) << What;
  EXPECT_EQ(A.PgdSeed, B.PgdSeed) << What;
  EXPECT_EQ(A.NumVerifierCalls, B.NumVerifierCalls) << What;
  EXPECT_EQ(A.NumLeaves, B.NumLeaves) << What;
  EXPECT_EQ(A.NumUndecided, B.NumUndecided) << What;
  EXPECT_EQ(A.NumWaves, B.NumWaves) << What;
  EXPECT_EQ(A.NumPgdProbes, B.NumPgdProbes) << What;
  EXPECT_EQ(std::memcmp(&A.CertifiedVolumeFraction,
                        &B.CertifiedVolumeFraction, sizeof(double)),
            0)
      << What << ": fractions differ in some bit ("
      << A.CertifiedVolumeFraction << " vs " << B.CertifiedVolumeFraction
      << ")";
}

void expectSameSplit(const SplitResult &A, const SplitResult &B,
                     const char *What) {
  EXPECT_EQ(std::memcmp(&A.CertifiedFraction, &B.CertifiedFraction,
                        sizeof(double)),
            0)
      << What;
  EXPECT_EQ(A.NumCertified, B.NumCertified) << What;
  EXPECT_EQ(A.NumVerifierCalls, B.NumVerifierCalls) << What;
  EXPECT_EQ(A.NumWaves, B.NumWaves) << What;
  ASSERT_EQ(A.Regions.size(), B.Regions.size()) << What;
  for (size_t I = 0; I < A.Regions.size(); ++I) {
    EXPECT_EQ(A.Regions[I].Path, B.Regions[I].Path) << What << " #" << I;
    EXPECT_EQ(A.Regions[I].CertifiedClass, B.Regions[I].CertifiedClass)
        << What << " #" << I;
    EXPECT_TRUE(sameVector(A.Regions[I].Lo, B.Regions[I].Lo))
        << What << " #" << I;
    EXPECT_TRUE(sameVector(A.Regions[I].Hi, B.Regions[I].Hi))
        << What << " #" << I;
  }
}

/// Verifier calls so far that started phase 2 from a parent's state.
uint64_t inheritedStarts() {
  static const telemetry::Counter C =
      telemetry::counterMetric("split.inherited_starts");
  return C.value();
}

} // namespace

//===----------------------------------------------------------------------===//
// Degenerate boxes (the headline bug)
//===----------------------------------------------------------------------===//

TEST(SplitDegenerateTest, RootCertifiesDegenerateBox) {
  SplitFixture &Fix = fixture();
  ASSERT_GE(Fix.SampleClass, 0);
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.005, 2, Lo, Hi);
  CraftVerifier Plain(Fix.Model, splitConfig());
  if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
    GTEST_SKIP() << "fixture sample not plainly certifiable";

  // The box is degenerate in dimensions 2..4: the old volume bookkeeping
  // reported CertifiedVolumeFraction = 0/0 = 0 and could never certify.
  BranchAndBoundResult Res = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, /*MaxDepth=*/3);
  EXPECT_TRUE(Res.Certified);
  EXPECT_FALSE(Res.Refuted);
  EXPECT_DOUBLE_EQ(Res.CertifiedVolumeFraction, 1.0);
  EXPECT_EQ(Res.NumVerifierCalls, 1u) << "the root region must certify";
}

TEST(SplitDegenerateTest, PointBoxCertifies) {
  SplitFixture &Fix = fixture();
  Vector Lo = Fix.Sample, Hi = Fix.Sample; // Degenerate in every dim.
  CraftVerifier Plain(Fix.Model, splitConfig());
  if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
    GTEST_SKIP() << "point box not plainly certifiable";
  BranchAndBoundResult Res = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, /*MaxDepth=*/2);
  EXPECT_TRUE(Res.Certified);
  EXPECT_DOUBLE_EQ(Res.CertifiedVolumeFraction, 1.0);
}

TEST(SplitDegenerateTest, MustSplitDegenerateBoxCertifiesVolume) {
  // Find a widening plain Craft cannot certify, then show the split path
  // still accounts certified volume on the degenerate box (the old code
  // pinned the fraction to 0 regardless of what certified).
  SplitFixture &Fix = fixture();
  CraftVerifier Plain(Fix.Model, splitConfig());
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  for (double Eps = 0.02; Eps < 0.5; Eps *= 1.5) {
    Vector Lo, Hi;
    degenerateBox(Fix.Sample, Eps, 2, Lo, Hi);
    if (Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
      continue;
    BranchAndBoundResult Res = verifyRobustnessSplit(
        Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, /*MaxDepth=*/6);
    if (Res.Refuted) {
      // Genuinely false at this widening: the witness must be real.
      EXPECT_NE(Solver.predict(Res.Counterexample), Fix.SampleClass);
      return;
    }
    EXPECT_GT(Res.CertifiedVolumeFraction, 0.0);
    EXPECT_GT(Res.NumVerifierCalls, 1u);
    EXPECT_GT(Res.NumWaves, 1u);
    return;
  }
  GTEST_SKIP() << "plain Craft certified every widening probed";
}

TEST(SplitDegenerateTest, GlobalSplittingCertifiesDegenerateBox) {
  SplitFixture &Fix = fixture();
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.005, 2, Lo, Hi);
  SplitResult Res = certifyByDomainSplitting(Fix.Model, splitConfig(), Lo,
                                             Hi, /*MaxDepth=*/4);
  // The old volume ratio reported 0% on any fixed-dimension slice.
  EXPECT_GT(Res.CertifiedFraction, 0.0);
  EXPECT_GT(Res.NumCertified, 0u);
  for (const SplitRegion &Region : Res.Regions)
    EXPECT_GE(Region.Path, 1u) << "leaves must carry their bisection path";
}

TEST(SplitEngineTest, MeasureIgnoresDegenerateDimensions) {
  Vector Lo{0.0, 0.25, 0.5}, Hi{0.5, 0.25, 1.0};
  EXPECT_DOUBLE_EQ(measureOf(Lo, Hi), 0.25);
  // A point box has measure 1 (the empty product), never 0.
  EXPECT_DOUBLE_EQ(measureOf(Vector{0.3, 0.4}, Vector{0.3, 0.4}), 1.0);
}

//===----------------------------------------------------------------------===//
// Determinism: jobs = 1 vs N
//===----------------------------------------------------------------------===//

TEST(SplitDeterminismTest, BnBOutcomesAreByteIdenticalAcrossJobs) {
  // At +-0.08 a wave-2 center refutes after the root's call; at +-0.03 a
  // deeper center refutes, and at +-0.02 nothing does. In the last two,
  // children start phase 2 from their parent's state.
  SplitFixture &Fix = fixture();
  const uint64_t StartsBefore = inheritedStarts();
  for (double Eps : {0.08, 0.03, 0.02}) {
    Vector Lo, Hi;
    degenerateBox(Fix.Sample, Eps, 4, Lo, Hi);
    SplitOptions Serial;
    Serial.MaxDepth = 5;
    Serial.Jobs = 1;
    BranchAndBoundResult Baseline = verifyRobustnessSplit(
        Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, Serial);
    EXPECT_GT(Baseline.NumVerifierCalls + (Baseline.Refuted ? 1u : 0u), 1u)
        << "workload too trivial to exercise the waves";
    for (int Jobs : {2, 4, -1}) {
      SplitOptions Parallel = Serial;
      Parallel.Jobs = Jobs;
      BranchAndBoundResult Res = verifyRobustnessSplit(
          Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, Parallel);
      expectSameBnB(Baseline, Res,
                    ("eps=" + std::to_string(Eps) +
                     " jobs=" + std::to_string(Jobs))
                        .c_str());
    }
  }
  EXPECT_GT(inheritedStarts(), StartsBefore)
      << "no child started from its parent's state";
}

TEST(SplitDeterminismTest, GlobalOutcomesAreByteIdenticalAcrossJobs) {
  SplitFixture &Fix = fixture();
  const uint64_t StartsBefore = inheritedStarts();
  SplitResult Baseline =
      certifyByDomainSplitting(Fix.Model, splitConfig(), Vector(5, 0.35),
                               Vector(5, 0.65), /*MaxDepth=*/6, /*Jobs=*/1);
  EXPECT_GT(Baseline.Regions.size(), 1u);
  EXPECT_GT(inheritedStarts(), StartsBefore)
      << "no child started from its parent's state";
  SplitResult Par =
      certifyByDomainSplitting(Fix.Model, splitConfig(), Vector(5, 0.35),
                               Vector(5, 0.65), /*MaxDepth=*/6, /*Jobs=*/3);
  expectSameSplit(Baseline, Par, "jobs=3");
}

//===----------------------------------------------------------------------===//
// Soundness of inherited starts
//===----------------------------------------------------------------------===//

TEST(SplitSoundnessTest, CertifiedLeavesClassifyConcretelyToTheirClass) {
  // Children start phase 2 from their parent's end state. Every point of
  // a certified leaf must classify to the leaf's class: its corners and
  // seeded interior samples are checked with the concrete solver.
  SplitFixture &Fix = fixture();
  SplitEngineOptions Opts;
  Opts.MaxDepth = 7;
  Opts.Jobs = 4;
  const uint64_t StartsBefore = inheritedStarts();
  SplitEngineResult Run = runSplitEngine(Fix.Model, splitConfig(),
                                         Vector(5, 0.3), Vector(5, 0.7), Opts);
  EXPECT_GT(inheritedStarts(), StartsBefore);
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  Rng R(93);
  size_t Leaves = 0, Points = 0;
  for (const SplitLeaf &L : Run.Leaves) {
    if (L.CertifiedClass < 0)
      continue;
    ++Leaves;
    const size_t D = L.Lo.size();
    Vector X(D);
    for (size_t Corner = 0; Corner < (size_t(1) << D); ++Corner) {
      for (size_t J = 0; J < D; ++J)
        X[J] = (Corner >> J) & 1 ? L.Hi[J] : L.Lo[J];
      EXPECT_EQ(Solver.predict(X), L.CertifiedClass)
          << "corner " << Corner << " of leaf " << L.Path;
      ++Points;
    }
    for (int Sample = 0; Sample < 16; ++Sample) {
      for (size_t J = 0; J < D; ++J)
        X[J] = R.uniform(L.Lo[J], L.Hi[J]);
      EXPECT_EQ(Solver.predict(X), L.CertifiedClass)
          << "interior sample " << Sample << " of leaf " << L.Path;
      ++Points;
    }
  }
  EXPECT_GT(Leaves, 1u);
  RecordProperty("checked_points", std::to_string(Points));
}

TEST(SplitParityTest, ShortStallWindowCertifiesNoLess) {
  // Phase 2 stops 3 steps after its last gain by default; Phase2Window = 4
  // waits 12. The shorter window hands children an earlier state of their
  // parent's main run, and it must not certify fewer units of the box.
  SplitFixture &Fix = fixture();
  SplitEngineOptions Opts;
  Opts.MaxDepth = 7;
  Opts.Jobs = 1;
  CraftConfig Long = splitConfig();
  Long.Phase2Window = 4;
  const Vector Lo(5, 0.3), Hi(5, 0.7);
  SplitEngineResult Short1 =
      runSplitEngine(Fix.Model, splitConfig(), Lo, Hi, Opts);
  SplitEngineResult Long1 = runSplitEngine(Fix.Model, Long, Lo, Hi, Opts);
  Opts.Jobs = 4;
  SplitEngineResult Short4 =
      runSplitEngine(Fix.Model, splitConfig(), Lo, Hi, Opts);
  EXPECT_GE(Short1.CertifiedUnits, Long1.CertifiedUnits);
  EXPECT_GT(Short1.CertifiedUnits, 0u);
  RecordProperty("certified_units", std::to_string(Short1.CertifiedUnits));
  RecordProperty("certified_units_window4",
                 std::to_string(Long1.CertifiedUnits));

  EXPECT_EQ(Short1.CertifiedUnits, Short4.CertifiedUnits);
  EXPECT_EQ(Short1.NumVerifierCalls, Short4.NumVerifierCalls);
  EXPECT_EQ(Short1.NumWaves, Short4.NumWaves);
  ASSERT_EQ(Short1.Leaves.size(), Short4.Leaves.size());
  for (size_t I = 0; I < Short1.Leaves.size(); ++I) {
    const SplitLeaf &A = Short1.Leaves[I], &B = Short4.Leaves[I];
    EXPECT_EQ(A.Path, B.Path) << "#" << I;
    EXPECT_EQ(A.CertifiedClass, B.CertifiedClass) << "#" << I;
    EXPECT_TRUE(sameVector(A.Lo, B.Lo) && sameVector(A.Hi, B.Hi)) << "#" << I;
  }
}

//===----------------------------------------------------------------------===//
// Early abort on refutation
//===----------------------------------------------------------------------===//

TEST(SplitAbortTest, RootProbeRefutesWithoutVerifierCalls) {
  SplitFixture &Fix = fixture();
  Vector Lo(5, 0.0), Hi(5, 1.0);
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  Vector Center = 0.5 * (Lo + Hi);
  int WrongClass = (Solver.predict(Center) + 1) % 3;
  BranchAndBoundResult Res = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, WrongClass, /*MaxDepth=*/6);
  ASSERT_TRUE(Res.Refuted);
  EXPECT_FALSE(Res.RefutedByPgd);
  EXPECT_EQ(Res.NumVerifierCalls, 0u)
      << "a refuting probe wave must abort before any verifier call";
  EXPECT_EQ(Res.CounterexamplePath, 1u);
  EXPECT_TRUE(sameVector(Res.Counterexample, Center));
}

TEST(SplitAbortTest, DeepRefutationIsDeterministicAcrossJobs) {
  SplitFixture &Fix = fixture();
  Vector Lo(5, 0.0), Hi(5, 1.0);
  SplitOptions Serial;
  Serial.MaxDepth = 8;
  Serial.Jobs = 1;
  BranchAndBoundResult Baseline = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, Serial);
  ASSERT_TRUE(Baseline.Refuted)
      << "the whole input cube must cross a decision boundary";
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  EXPECT_NE(Solver.predict(Baseline.Counterexample), Fix.SampleClass);
  SplitOptions Parallel = Serial;
  Parallel.Jobs = 4;
  BranchAndBoundResult Res = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, Fix.SampleClass, Parallel);
  expectSameBnB(Baseline, Res, "refuting run, jobs=4");
}

//===----------------------------------------------------------------------===//
// PGD probes on undecided leaves
//===----------------------------------------------------------------------===//

TEST(SplitPgdProbeTest, ProbesRefuteUndecidedLeaves) {
  SplitFixture &Fix = fixture();
  Vector Lo(5, 0.0), Hi(5, 1.0);
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  int Target = Solver.predict(0.5 * (Lo + Hi));
  // Depth 0: the root is the only region; its center classifies to Target
  // so nothing refutes concretely, the verifier cannot certify the whole
  // cube, and the root becomes an undecided leaf — only the PGD probe can
  // find the (existing) counterexample.
  SplitOptions Opts;
  Opts.MaxDepth = 0;
  Opts.PgdProbes = true;
  Opts.Pgd.InputLo = 0.0;
  Opts.Pgd.InputHi = 1.0;
  BranchAndBoundResult Res = verifyRobustnessSplit(
      Fix.Model, splitConfig(), Lo, Hi, Target, Opts);
  ASSERT_TRUE(Res.Refuted) << "PGD must refute over the whole input cube";
  EXPECT_TRUE(Res.RefutedByPgd);
  EXPECT_EQ(Res.CounterexamplePath, 1u);
  EXPECT_EQ(Res.PgdSeed, taskSeed(Opts.ProbeSeedBase, 1));
  EXPECT_EQ(Res.NumPgdProbes, 1u);
  EXPECT_NE(Solver.predict(Res.Counterexample), Target);
  for (size_t I = 0; I < Res.Counterexample.size(); ++I) {
    EXPECT_GE(Res.Counterexample[I], 0.0);
    EXPECT_LE(Res.Counterexample[I], 1.0);
  }
}

//===----------------------------------------------------------------------===//
// Driver wiring
//===----------------------------------------------------------------------===//

namespace {

std::string specText(const SplitFixture &Fix, const Vector &Lo,
                     const Vector &Hi, int Target,
                     const std::string &Extra) {
  std::string S = "model " + Fix.ModelPath + "\ninput box\nlo";
  char Buf[40];
  for (size_t I = 0; I < Lo.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " %.17g", Lo[I]);
    S += Buf;
  }
  S += "\nhi";
  for (size_t I = 0; I < Hi.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " %.17g", Hi[I]);
    S += Buf;
  }
  S += "\noutput robust " + std::to_string(Target) +
       "\nverifier craft\nalpha1 0.5\nlambda-opt 0\n" + Extra;
  return S;
}

} // namespace

TEST(SplitDriverTest, ParsesSplitJobs) {
  SpecParseResult R = parseSpec("model m.bin\ninput box\nlo 0\nhi 1\n"
                                "output robust 0\nsplit-depth 3\n"
                                "split-jobs 4\n");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Spec->SplitJobs, 4);
  // 0 = all hardware threads; negatives are rejected.
  EXPECT_FALSE(parseSpec("model m.bin\ninput box\nlo 0\nhi 1\n"
                         "output robust 0\nsplit-jobs -2\n")
                   .ok());
}

TEST(SplitDriverTest, DegenerateSplitSpecCertifiesAcrossSplitJobs) {
  SplitFixture &Fix = fixture();
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.005, 2, Lo, Hi);
  CraftVerifier Plain(Fix.Model, splitConfig());
  if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
    GTEST_SKIP() << "fixture sample not plainly certifiable";
  RunOutcome Serial, Parallel;
  for (auto *Pair : {&Serial, &Parallel}) {
    std::string Extra = Pair == &Serial ? "split-depth 2\nsplit-jobs 1\n"
                                        : "split-depth 2\nsplit-jobs 3\n";
    SpecParseResult R =
        parseSpec(specText(Fix, Lo, Hi, Fix.SampleClass, Extra));
    ASSERT_TRUE(R.ok());
    *Pair = runSpec(*R.Spec);
    EXPECT_TRUE(Pair->Certified) << Pair->Detail;
    EXPECT_FALSE(Pair->Error);
  }
  // split-jobs is a pure performance knob.
  EXPECT_EQ(Serial.Certified, Parallel.Certified);
  EXPECT_EQ(Serial.Detail, Parallel.Detail);
}

TEST(SplitDriverTest, SplitSpecsInsideABatchMatchTheirSerialRuns) {
  // Split runs inside a batch that fans out are nested fan-outs on the one
  // pool: their outcomes must equal the all-serial batch's.
  SplitFixture &Fix = fixture();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.005, 2, Lo, Hi);
  Vector CubeLo(5, 0.0), CubeHi(5, 1.0);
  const int WrongClass = (Solver.predict(0.5 * (CubeLo + CubeHi)) + 1) % 3;
  std::vector<VerificationSpec> Specs;
  for (const std::string &Text :
       {specText(Fix, Lo, Hi, Fix.SampleClass,
                 "split-depth 2\nsplit-jobs 4\n"),
        specText(Fix, CubeLo, CubeHi, WrongClass,
                 "split-depth 4\nsplit-jobs 4\n"),
        specText(Fix, CubeLo, CubeHi, Fix.SampleClass,
                 "split-depth 3\nsplit-jobs 0\n")}) {
    SpecParseResult R = parseSpec(Text);
    ASSERT_TRUE(R.ok());
    Specs.push_back(*R.Spec);
  }
  BatchOptions Serial;
  Serial.Jobs = 1;
  std::vector<RunOutcome> Baseline = runSpecBatch(Specs, Serial);
  for (VerificationSpec &Spec : Specs)
    Spec.SplitJobs = 1;
  std::vector<RunOutcome> AllSerial = runSpecBatch(Specs, Serial);
  for (VerificationSpec &Spec : Specs)
    Spec.SplitJobs = 4;
  BatchOptions Parallel;
  Parallel.Jobs = 3;
  std::vector<RunOutcome> Nested = runSpecBatch(Specs, Parallel);
  ASSERT_EQ(Nested.size(), Specs.size());
  EXPECT_TRUE(AllSerial[1].Refuted);
  for (size_t I = 0; I < Specs.size(); ++I)
    for (const RunOutcome *Out : {&Baseline[I], &Nested[I]}) {
      EXPECT_EQ(Out->Certified, AllSerial[I].Certified) << "spec " << I;
      EXPECT_EQ(Out->Refuted, AllSerial[I].Refuted) << "spec " << I;
      EXPECT_EQ(Out->Detail, AllSerial[I].Detail) << "spec " << I;
      ASSERT_EQ(Out->Counterexample.size(),
                AllSerial[I].Counterexample.size());
      for (size_t D = 0; D < Out->Counterexample.size(); ++D)
        EXPECT_EQ(Out->Counterexample[D], AllSerial[I].Counterexample[D]);
      EXPECT_EQ(Out->Phases.SolverIterations,
                AllSerial[I].Phases.SolverIterations)
          << "spec " << I;
    }
}

TEST(SplitDriverTest, RefutedSplitSpecCarriesCounterexample) {
  SplitFixture &Fix = fixture();
  FixpointSolver Solver(Fix.Model, Splitting::PeacemanRachford);
  Vector Lo(5, 0.0), Hi(5, 1.0);
  int WrongClass = (Solver.predict(0.5 * (Lo + Hi)) + 1) % 3;
  SpecParseResult R = parseSpec(
      specText(Fix, Lo, Hi, WrongClass, "split-depth 4\n"));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.Refuted);
  ASSERT_FALSE(Out.Counterexample.empty());
  EXPECT_NE(Solver.predict(Out.Counterexample), WrongClass);
  EXPECT_NE(Out.Detail.find("region path"), std::string::npos);
}

TEST(SplitDriverTest, CertificateOnSplitRunIsDiagnosedWithoutReproving) {
  SplitFixture &Fix = fixture();
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.005, 2, Lo, Hi);
  CraftVerifier Plain(Fix.Model, splitConfig());
  if (!Plain.verifyRegion(Lo, Hi, Fix.SampleClass).Certified)
    GTEST_SKIP() << "fixture sample not plainly certifiable";
  SpecParseResult R = parseSpec(specText(
      Fix, Lo, Hi, Fix.SampleClass,
      "split-depth 2\ncertificate /tmp/craft_split_cert.bin\n"));
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  ASSERT_TRUE(Out.Certified) << Out.Detail;
  EXPECT_FALSE(Out.CertificateWritten);
  EXPECT_NE(Out.Detail.find("certificates are not yet supported for split"),
            std::string::npos)
      << Out.Detail;
  EXPECT_EQ(Out.Detail.find("witness construction failed"),
            std::string::npos)
      << "the misleading failure text must be gone: " << Out.Detail;
}

TEST(SplitDriverTest, SpecModelMismatchesAreErrors) {
  SplitFixture &Fix = fixture();
  // Wrong input dimension.
  SpecParseResult R = parseSpec("model " + Fix.ModelPath +
                                "\ninput box\nlo 0 0\nhi 1 1\n"
                                "output robust 0\n");
  ASSERT_TRUE(R.ok());
  RunOutcome Out = runSpec(*R.Spec);
  EXPECT_TRUE(Out.ModelLoaded);
  EXPECT_TRUE(Out.Error);

  // Target class past the model's output dimension.
  R = parseSpec("model " + Fix.ModelPath +
                "\ninput box\nlo 0 0 0 0 0\nhi 1 1 1 1 1\n"
                "output robust 99\n");
  ASSERT_TRUE(R.ok());
  Out = runSpec(*R.Spec);
  EXPECT_TRUE(Out.ModelLoaded);
  EXPECT_TRUE(Out.Error);
  EXPECT_NE(Out.Detail.find("out of range"), std::string::npos);

  // Negative target class (unreachable through the parser, reachable
  // through the library API and the serve protocol).
  VerificationSpec Spec = *R.Spec;
  Spec.TargetClass = -3;
  Out = runSpec(Spec);
  EXPECT_TRUE(Out.Error);
}

TEST(SplitDriverTest, GlobalSplitCertificationRuns) {
  SplitFixture &Fix = fixture();
  Vector Lo, Hi;
  degenerateBox(Fix.Sample, 0.01, 2, Lo, Hi);
  SpecParseResult R =
      parseSpec(specText(Fix, Lo, Hi, Fix.SampleClass, ""));
  ASSERT_TRUE(R.ok());
  SplitRunOutcome Out = runSplitCertification(*R.Spec, /*Jobs=*/2,
                                              /*MaxDepth=*/3);
  ASSERT_TRUE(Out.ModelLoaded && !Out.Error) << Out.Detail;
  EXPECT_GT(Out.Split.CertifiedFraction, 0.0);
  EXPECT_GT(Out.Split.NumVerifierCalls, 0u);

  // Dimension mismatch surfaces as an error here too.
  VerificationSpec Bad = *R.Spec;
  Bad.InLo = Vector(2, 0.0);
  Bad.InHi = Vector(2, 1.0);
  SplitRunOutcome BadOut = runSplitCertification(Bad, 1, 2);
  EXPECT_TRUE(BadOut.ModelLoaded);
  EXPECT_TRUE(BadOut.Error);
}
