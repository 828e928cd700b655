//===- tests/test_batch_driver.cpp - Batch verification tests -------------===//
//
// Tests for the parallel batch-verification subsystem: the process-wide
// pool's parallelForIndex and helpedForIndex primitives, the deterministic
// per-task seed stream, the multi-input spec form, and the core batch
// contract — runSpecBatch produces byte-identical outcomes for every
// worker count.
//
//===----------------------------------------------------------------------===//

#include "data/GaussianMixture.h"
#include "nn/Solvers.h"
#include "nn/Training.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "tool/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace craft;

//===----------------------------------------------------------------------===//
// The fan-out pool
//===----------------------------------------------------------------------===//

namespace {

const telemetry::Counter ThreadsStarted =
    telemetry::counterMetric("pool.threads_started");

} // namespace

TEST(ThreadPoolTest, RethrowsTheLowestIndexException) {
  // Items 3 and 11 throw; item 11 is quick and item 3 slow, so on four
  // threads 11 usually fails first. Either way the fan-out reports 3, as
  // the plain loop does.
  for (int Jobs : {1, 4}) {
    std::string Caught;
    try {
      parallelForIndex(16, Jobs, [](size_t I) {
        if (I == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("item 3");
        }
        if (I == 11)
          throw std::runtime_error("item 11");
      });
    } catch (const std::runtime_error &E) {
      Caught = E.what();
    }
    EXPECT_EQ(Caught, "item 3") << "jobs " << Jobs;
  }
}

TEST(ThreadPoolTest, ConsecutiveFanOutsStartWorkersOnce) {
  const uint64_t Before = ThreadsStarted.value();
  std::atomic<int> Count{0};
  parallelForIndex(8, 4, [&Count](size_t) { ++Count; });
  const uint64_t AfterFirst = ThreadsStarted.value();
  EXPECT_LE(AfterFirst - Before, 3u) << "Jobs = 4 needs three helpers";
  for (int Round = 1; Round < 100; ++Round)
    parallelForIndex(8, 4, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 800);
  EXPECT_EQ(ThreadsStarted.value(), AfterFirst);
}

TEST(ThreadPoolTest, NestedFanOutGivesTheSerialResult) {
  // The batch-of-split shape: every item of an outer fan-out runs its own
  // inner fan-out, which borrows whatever workers are idle.
  constexpr size_t Outer = 6, Inner = 40;
  auto Work = [](size_t O, size_t I) { return taskSeed(O, I) % 1000003; };
  std::vector<uint64_t> Serial(Outer * Inner), Nested(Outer * Inner);
  for (size_t O = 0; O < Outer; ++O)
    for (size_t I = 0; I < Inner; ++I)
      Serial[O * Inner + I] = Work(O, I);
  const uint64_t Started = ThreadsStarted.value();
  parallelForIndex(Outer, 2, [&](size_t O) {
    EXPECT_TRUE(inFanOutItem());
    // Asks for the pool's bound (64 is capped), more than Outer's helper.
    parallelForIndex(Inner, 64,
                     [&](size_t I) { Nested[O * Inner + I] = Work(O, I); });
  });
  EXPECT_EQ(Nested, Serial);
  EXPECT_LE(ThreadsStarted.value() - Started, 1u)
      << "only the top-level Jobs = 2 fan-out may start a worker";
}

TEST(ThreadPoolTest, FanOutThreadsAreBoundedArithmetic) {
  // Pure arithmetic: nothing here starts a thread.
  const size_t Bound = std::max<size_t>(4, 2 * hardwareThreads());
  EXPECT_EQ(fanOutThreads(SIZE_MAX, 1000000), Bound);
  EXPECT_EQ(fanOutThreads(SIZE_MAX, 65536), Bound);
  EXPECT_EQ(fanOutThreads(SIZE_MAX, 4), 4u) << "Jobs = 4 fits on any host";
  EXPECT_EQ(fanOutThreads(SIZE_MAX, 0), hardwareThreads());
  EXPECT_EQ(fanOutThreads(SIZE_MAX, -3), hardwareThreads());
  EXPECT_EQ(fanOutThreads(3, 8), 3u);
  EXPECT_EQ(fanOutThreads(0, 8), 0u);
  EXPECT_EQ(fanOutThreads(10, 1), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int Jobs : {1, 2, 4, 8}) {
    std::vector<int> Hits(257, 0);
    parallelForIndex(Hits.size(), Jobs, [&Hits](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I < Hits.size(); ++I)
      ASSERT_EQ(Hits[I], 1) << "jobs " << Jobs << " index " << I;
  }
}

TEST(ParallelForTest, HandlesEmptyAndSingleElementRanges) {
  std::atomic<int> Count{0};
  parallelForIndex(0, 4, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 0);
  parallelForIndex(1, 4, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 1);
}

TEST(ParallelForTest, PropagatesTaskExceptions) {
  EXPECT_THROW(parallelForIndex(16, 4,
                                [](size_t I) {
                                  if (I == 7)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> Count{0};
  parallelForIndex(16, 4, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 16);
}

//===----------------------------------------------------------------------===//
// Helped sections
//===----------------------------------------------------------------------===//

namespace {

/// Spins until \p Flag is set, for at most ten seconds. The section tests
/// below hold item 0 on the owner until a helper has started item 1; a
/// section that is never helped fails them instead of hanging.
bool awaitFlag(const std::atomic<bool> &Flag) {
  for (int I = 0; I < 10000 && !Flag.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return Flag.load();
}

const telemetry::Counter HelpItems =
    telemetry::counterMetric("pool.help_items");

} // namespace

TEST(HelpedSectionTest, OffPoolIsThePlainLoop) {
  std::vector<size_t> Ran, Folded;
  helpedForIndex(
      5, [&](size_t I) { Ran.push_back(I); },
      [&](size_t I) {
        Folded.push_back(I);
        return I == 2;
      });
  EXPECT_EQ(Ran, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(Folded, (std::vector<size_t>{0, 1, 2}));
}

TEST(HelpedSectionTest, IdleWorkersRunItemsTheOwnerFoldsInOrder) {
  // Item 0 of a Jobs = 2 fan-out opens the section; the fan-out's other
  // thread is idle after its own (empty) item and takes section item 1
  // while the owner holds item 0. The fold still runs 0, 1, 2 on the
  // owner, and the helper's phase time lands in the owner's totals.
  const uint64_t HelpedBefore = HelpItems.value();
  std::atomic<bool> HelperStarted{false};
  std::vector<std::thread::id> RanOn(3);
  std::thread::id Owner;
  std::vector<size_t> Folded;
  bool Helped = false;
  uint64_t CreditedNs = 0;
  parallelForIndex(2, 2, [&](size_t Item) {
    if (Item != 0)
      return;
    Owner = std::this_thread::get_id();
    const telemetry::PhaseTotals Before = telemetry::phaseTotals();
    helpedForIndex(
        3,
        [&](size_t I) {
          RanOn[I] = std::this_thread::get_id();
          if (I == 0)
            Helped = awaitFlag(HelperStarted);
          if (I == 1) {
            telemetry::PhaseTimer Timed(telemetry::Phase::Consolidation);
            HelperStarted = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        },
        [&](size_t I) {
          EXPECT_EQ(std::this_thread::get_id(), Owner);
          Folded.push_back(I);
          return false;
        });
    CreditedNs = telemetry::phaseTotals().of(telemetry::Phase::Consolidation) -
                 Before.of(telemetry::Phase::Consolidation);
  });
  ASSERT_TRUE(Helped) << "no idle worker took item 1";
  EXPECT_EQ(Folded, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(RanOn[0], Owner);
  EXPECT_NE(RanOn[1], Owner);
  EXPECT_GE(HelpItems.value() - HelpedBefore, 1u);
  if (telemetry::timingEnabled()) {
    EXPECT_GE(CreditedNs, 5000000u);
  }
}

TEST(HelpedSectionTest, HelperExceptionIsRethrownToTheOwner) {
  // Item 1 throws on the helper: the owner's helpedForIndex rethrows it
  // when the fold reaches item 1, and the fan-out around it stays clean.
  std::atomic<bool> HelperStarted{false};
  bool Helped = false, Caught = false;
  std::vector<size_t> Folded;
  auto Item = [&](size_t FanOutItem) {
    if (FanOutItem != 0)
      return;
    try {
      helpedForIndex(
          3,
          [&](size_t I) {
            if (I == 0)
              Helped = awaitFlag(HelperStarted);
            if (I == 1) {
              HelperStarted = true;
              throw std::runtime_error("item 1 failed");
            }
          },
          [&](size_t I) {
            Folded.push_back(I);
            return false;
          });
    } catch (const std::runtime_error &) {
      Caught = true;
    }
  };
  EXPECT_NO_THROW(parallelForIndex(2, 2, Item));
  ASSERT_TRUE(Helped) << "no idle worker took item 1";
  EXPECT_TRUE(Caught);
  EXPECT_EQ(Folded, (std::vector<size_t>{0}));
}

TEST(HelpedSectionTest, StopAfterWaitsOutItemsPastTheStop) {
  // The fold stops at item 0 while a helper runs item 1: item 1 is never
  // folded, and the section returns only once it has finished.
  std::atomic<bool> HelperStarted{false}, Item1Done{false};
  bool Helped = false, Item1DoneAtReturn = false;
  std::vector<size_t> Folded;
  parallelForIndex(2, 2, [&](size_t Item) {
    if (Item != 0)
      return;
    helpedForIndex(
        4,
        [&](size_t I) {
          if (I == 0)
            Helped = awaitFlag(HelperStarted);
          if (I == 1) {
            HelperStarted = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            Item1Done = true;
          }
        },
        [&](size_t I) {
          Folded.push_back(I);
          return true;
        });
    Item1DoneAtReturn = Item1Done;
  });
  ASSERT_TRUE(Helped) << "no idle worker took item 1";
  EXPECT_EQ(Folded, (std::vector<size_t>{0}));
  EXPECT_TRUE(Item1DoneAtReturn);
}

TEST(TaskSeedTest, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(taskSeed(42, 0), taskSeed(42, 0));
  EXPECT_EQ(taskSeed(42, 9), taskSeed(42, 9));
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I < 1000; ++I)
    Seen.insert(taskSeed(42, I));
  EXPECT_EQ(Seen.size(), 1000u) << "seed stream collided";
  EXPECT_NE(taskSeed(42, 0), taskSeed(43, 0));
  // Seeds are usable directly: nonzero for a realistic base.
  EXPECT_NE(taskSeed(20230617, 0), 0u);
}

//===----------------------------------------------------------------------===//
// Multi-input specs
//===----------------------------------------------------------------------===//

TEST(MultiInputSpecTest, EachInputBlockBecomesOneQuery) {
  SpecParseResult R = parseSpec("model m.bin\n"
                                "output robust 1\n"
                                "alpha1 0.25\n"
                                "epsilon 0.1\n"
                                "input linf\n"
                                "  center 0.5 0.5\n"
                                "input linf\n"
                                "  center 0.25 0.75\n"
                                "  epsilon 0.05\n"
                                "input box\n"
                                "  lo 0 0\n"
                                "  hi 1 1\n");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Specs.size(), 3u);
  // Shared directives reach every query.
  for (const VerificationSpec &S : R.Specs) {
    EXPECT_EQ(S.ModelPath, "m.bin");
    EXPECT_EQ(S.TargetClass, 1);
    EXPECT_DOUBLE_EQ(S.Alpha1, 0.25);
  }
  // File-wide epsilon is the default; a block may override it.
  EXPECT_DOUBLE_EQ(R.Specs[0].Epsilon, 0.1);
  EXPECT_DOUBLE_EQ(R.Specs[1].Epsilon, 0.05);
  EXPECT_DOUBLE_EQ(R.Specs[1].InLo[0], 0.2);
  EXPECT_DOUBLE_EQ(R.Specs[2].InHi[1], 1.0);
  // Back-compat: Spec is the first query.
  ASSERT_TRUE(R.Spec.has_value());
  EXPECT_DOUBLE_EQ(R.Spec->Epsilon, 0.1);
}

TEST(MultiInputSpecTest, CertificatePathsGetPerQuerySuffixes) {
  SpecParseResult R = parseSpec("model m.bin\n"
                                "output robust 0\n"
                                "certificate out.cert\n"
                                "epsilon 0.1\n"
                                "input linf\n  center 0.5\n"
                                "input linf\n  center 0.6\n");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Specs.size(), 2u);
  EXPECT_EQ(R.Specs[0].CertificatePath, "out.cert");
  EXPECT_EQ(R.Specs[1].CertificatePath, "out.cert.1");
}

TEST(MultiInputSpecTest, RegionLinesOutsideABlockAreDiagnosed) {
  SpecParseResult R = parseSpec("model m.bin\ncenter 0.5\n"
                                "output robust 0\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Diagnostics[0].Message.find("must follow an 'input' line"),
            std::string::npos)
      << R.Diagnostics[0].Message;
  EXPECT_EQ(R.Diagnostics[0].Line, 2);
}

TEST(MultiInputSpecTest, ParsesAttackAndSeedDirectives) {
  SpecParseResult R = parseSpec("model m.bin\noutput robust 0\n"
                                "attack on\nseed 7\n"
                                "input linf\n  center 0.5\n"
                                "  epsilon 0.1\n");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R.Spec->Attack);
  EXPECT_EQ(R.Spec->AttackSeed, 7u);
  // The full uint64 seed range is accepted (beyond int and double).
  SpecParseResult Wide = parseSpec("model m.bin\noutput robust 0\n"
                                   "seed 18446744073709551615\n"
                                   "input linf\n  center 0.5\n"
                                   "  epsilon 0.1\n");
  ASSERT_TRUE(Wide.ok());
  EXPECT_EQ(Wide.Spec->AttackSeed, 18446744073709551615ull);
  // One past 2^64-1 is diagnosed, not silently clamped.
  SpecParseResult Over = parseSpec("model m.bin\noutput robust 0\n"
                                   "seed 18446744073709551616\n"
                                   "input linf\n  center 0.5\n"
                                   "  epsilon 0.1\n");
  ASSERT_FALSE(Over.ok());
  EXPECT_NE(Over.Diagnostics[0].Message.find("'seed'"), std::string::npos);
  SpecParseResult Bad = parseSpec("model m.bin\noutput robust 0\n"
                                  "attack maybe\n"
                                  "input linf\n  center 0.5\n"
                                  "  epsilon 0.1\n");
  ASSERT_FALSE(Bad.ok());
  EXPECT_NE(Bad.Diagnostics[0].Message.find("'attack'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// runSpecBatch determinism
//===----------------------------------------------------------------------===//

namespace {

/// Tiny trained model shared by the batch tests (same recipe as the
/// test_tool driver fixture, separate file so the suites stay independent).
struct BatchFixture {
  std::string ModelPath = "/tmp/craft_batch_model.bin";
  std::vector<Vector> Samples;
  std::vector<int> Labels;
};

BatchFixture &batchFixture() {
  static BatchFixture *F = [] {
    auto *Out = new BatchFixture;
    Rng DataRng(71);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Rng InitRng(72);
    MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Model, Train, Opts);
    Model.save(Out->ModelPath);
    FixpointSolver Solver(Model, Splitting::PeacemanRachford);
    for (size_t I = 0; I < Train.size() && Out->Samples.size() < 6; ++I)
      if (Solver.predict(Train.input(I)) == Train.Labels[I]) {
        Out->Samples.push_back(Train.input(I));
        Out->Labels.push_back(Train.Labels[I]);
      }
    return Out;
  }();
  return *F;
}

VerificationSpec specFor(const BatchFixture &Fix, size_t Sample,
                         double Epsilon) {
  VerificationSpec Spec;
  Spec.ModelPath = Fix.ModelPath;
  Spec.Center = Fix.Samples[Sample];
  Spec.Epsilon = Epsilon;
  Spec.TargetClass = Fix.Labels[Sample];
  Spec.Alpha1 = 0.5;
  Spec.InLo = Vector(Spec.Center.size());
  Spec.InHi = Vector(Spec.Center.size());
  for (size_t I = 0; I < Spec.Center.size(); ++I) {
    Spec.InLo[I] = std::max(Spec.Center[I] - Epsilon, 0.0);
    Spec.InHi[I] = std::min(Spec.Center[I] + Epsilon, 1.0);
  }
  return Spec;
}

/// Byte-identical outcome check, wall time excluded.
void expectSameOutcome(const RunOutcome &A, const RunOutcome &B,
                       size_t Index) {
  EXPECT_EQ(A.ModelLoaded, B.ModelLoaded) << "query " << Index;
  EXPECT_EQ(A.Certified, B.Certified) << "query " << Index;
  EXPECT_EQ(A.Containment, B.Containment) << "query " << Index;
  EXPECT_EQ(A.Refuted, B.Refuted) << "query " << Index;
  EXPECT_EQ(A.CertificateWritten, B.CertificateWritten) << "query " << Index;
  EXPECT_EQ(A.AttackSeed, B.AttackSeed) << "query " << Index;
  EXPECT_EQ(A.Detail, B.Detail) << "query " << Index;
  EXPECT_EQ(std::memcmp(&A.MarginLower, &B.MarginLower, sizeof(double)), 0)
      << "query " << Index << ": margins differ in some bit ("
      << A.MarginLower << " vs " << B.MarginLower << ")";
}

} // namespace

TEST(BatchDriverTest, OutcomesMatchInputOrder) {
  BatchFixture &Fix = batchFixture();
  ASSERT_GE(Fix.Samples.size(), 2u);
  std::vector<VerificationSpec> Specs;
  Specs.push_back(specFor(Fix, 0, 0.02));
  VerificationSpec Missing = specFor(Fix, 1, 0.02);
  Missing.ModelPath = "/nonexistent/model.bin";
  Specs.push_back(Missing);
  Specs.push_back(specFor(Fix, 1, 0.02));

  BatchOptions Opts;
  Opts.Jobs = 3;
  std::vector<RunOutcome> Outs = runSpecBatch(Specs, Opts);
  ASSERT_EQ(Outs.size(), 3u);
  EXPECT_TRUE(Outs[0].ModelLoaded);
  EXPECT_FALSE(Outs[1].ModelLoaded) << "results are slotted by input index";
  EXPECT_TRUE(Outs[2].ModelLoaded);
}

TEST(BatchDriverTest, JobCountNeverChangesOutcomes) {
  BatchFixture &Fix = batchFixture();
  ASSERT_GE(Fix.Samples.size(), 4u);
  // Mix of easy (small epsilon) and hopeless (huge epsilon, PGD refutation
  // enabled) queries so both code paths cross worker threads.
  std::vector<VerificationSpec> Specs;
  for (size_t I = 0; I < 4; ++I)
    Specs.push_back(specFor(Fix, I, 0.02));
  for (size_t I = 0; I < 2; ++I) {
    VerificationSpec Hard = specFor(Fix, I, 0.5);
    Hard.Attack = true;
    Specs.push_back(Hard);
  }

  BatchOptions Serial;
  Serial.Jobs = 1;
  std::vector<RunOutcome> Baseline = runSpecBatch(Specs, Serial);
  ASSERT_EQ(Baseline.size(), Specs.size());
  for (int Jobs : {2, 4}) {
    BatchOptions Parallel;
    Parallel.Jobs = Jobs;
    std::vector<RunOutcome> Outs = runSpecBatch(Specs, Parallel);
    ASSERT_EQ(Outs.size(), Baseline.size());
    for (size_t I = 0; I < Outs.size(); ++I)
      expectSameOutcome(Baseline[I], Outs[I], I);
  }
}

TEST(BatchDriverTest, RepeatedBatchOnTheSamePoolIsByteIdentical) {
  // Pool workers keep their thread-local state (error-term counters,
  // Workspace arenas, scratch vectors) from one batch to the next; the
  // second run of the same Jobs = 4 batch must not see it.
  BatchFixture &Fix = batchFixture();
  ASSERT_GE(Fix.Samples.size(), 4u);
  std::vector<VerificationSpec> Specs;
  for (size_t I = 0; I < 4; ++I)
    Specs.push_back(specFor(Fix, I, I < 2 ? 0.02 : 0.08));
  VerificationSpec Hard = specFor(Fix, 0, 0.5);
  Hard.Attack = true;
  Specs.push_back(Hard);

  BatchOptions Opts;
  Opts.Jobs = 4;
  std::vector<RunOutcome> First = runSpecBatch(Specs, Opts);
  std::vector<RunOutcome> Second = runSpecBatch(Specs, Opts);
  ASSERT_EQ(First.size(), Specs.size());
  ASSERT_EQ(Second.size(), Specs.size());
  for (size_t I = 0; I < First.size(); ++I)
    expectSameOutcome(First[I], Second[I], I);
}

//===----------------------------------------------------------------------===//
// Preloaded batches: kernels tile on the caller, never in fan-out items
//===----------------------------------------------------------------------===//

namespace {

/// A wider model than batchFixture's: the Peaceman-Rachford state matrix
/// is 192 x 192, so solver-step gemms are large. At Jobs = 1 the batch
/// is the plain loop on the calling thread, which may tile them; at
/// Jobs = 4 every query is a fan-out item and runs them serially. Untrained on
/// purpose — the contract is about arithmetic, not accuracy.
struct WideFixture {
  MonDeq Model;
  std::vector<VerificationSpec> Specs;
};

WideFixture &wideFixture() {
  static WideFixture *F = [] {
    Rng InitRng(91);
    auto *Out = new WideFixture{MonDeq::randomFc(InitRng, 16, 96, 3, 20.0),
                                {}};
    Out->Model.fbAlphaBound(); // Warm the lazy cache before fan-out.
    Rng CenterRng(92);
    for (size_t I = 0; I < 6; ++I) {
      VerificationSpec Spec;
      Spec.ModelPath = "<preloaded>";
      Spec.Center = Vector(16);
      for (size_t J = 0; J < 16; ++J)
        Spec.Center[J] = CenterRng.uniform(0.2, 0.8);
      Spec.Epsilon = 0.01;
      Spec.TargetClass = int(I % 3);
      Spec.InLo = Vector(16);
      Spec.InHi = Vector(16);
      for (size_t J = 0; J < 16; ++J) {
        Spec.InLo[J] = Spec.Center[J] - Spec.Epsilon;
        Spec.InHi[J] = Spec.Center[J] + Spec.Epsilon;
      }
      Spec.Verifier = I == 4 ? SpecVerifier::Crown
                             : (I % 2 ? SpecVerifier::Box
                                      : SpecVerifier::Craft);
      Out->Specs.push_back(std::move(Spec));
    }
    return Out;
  }();
  return *F;
}

} // namespace

TEST(BatchDriverTest, LoadedBatchIsByteIdenticalAcrossJobs) {
  WideFixture &Fix = wideFixture();
  std::vector<const MonDeq *> Models(Fix.Specs.size(), &Fix.Model);
  std::vector<RunOutcome> Sequential =
      runSpecBatchLoaded(Fix.Specs, Models, 1);
  ASSERT_EQ(Sequential.size(), Fix.Specs.size());
  std::vector<RunOutcome> Parallel = runSpecBatchLoaded(Fix.Specs, Models, 4);
  ASSERT_EQ(Parallel.size(), Fix.Specs.size());
  for (size_t I = 0; I < Sequential.size(); ++I)
    expectSameOutcome(Sequential[I], Parallel[I], I);
}

TEST(BatchDriverTest, AttackSeedsAreDerivedFromTaskIndex) {
  BatchFixture &Fix = batchFixture();
  ASSERT_GE(Fix.Samples.size(), 2u);
  std::vector<VerificationSpec> Specs;
  for (size_t I = 0; I < 2; ++I) {
    VerificationSpec Hard = specFor(Fix, I, 0.5);
    Hard.Attack = true;
    Specs.push_back(Hard);
  }
  BatchOptions Opts;
  Opts.Jobs = 2;
  std::vector<RunOutcome> Outs = runSpecBatch(Specs, Opts);
  ASSERT_EQ(Outs.size(), 2u);
  for (size_t I = 0; I < Outs.size(); ++I) {
    ASSERT_FALSE(Outs[I].Certified) << "query " << I
                                    << ": epsilon 0.5 should not certify";
    EXPECT_EQ(Outs[I].AttackSeed, taskSeed(Opts.BaseSeed, I))
        << "query " << I;
  }
  // A spec-pinned seed wins over the derived one.
  Specs[0].AttackSeed = 12345;
  std::vector<RunOutcome> Pinned = runSpecBatch(Specs, Opts);
  EXPECT_EQ(Pinned[0].AttackSeed, 12345u);
}
