//===- tests/test_telemetry.cpp - Observability layer tests ---------------===//
//
// Tests for support/Telemetry and support/TraceJson: histogram bucket
// math and percentile edge cases (zero samples, single bucket, overflow,
// monotonicity), counter/gauge handle semantics, the sorted registry
// snapshot, Chrome-trace export well-formedness (strict JSON, balanced
// and properly nested B/E pairs per thread), per-query phase breakdowns
// and their spans, and the determinism contract: verification outcomes
// are byte-identical with timing enabled or disabled.
//
//===----------------------------------------------------------------------===//

#include "nn/MonDeq.h"
#include "serve/Protocol.h" // json::parse for trace validation.
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/TraceJson.h"
#include "tool/Driver.h"
#include "tool/SpecParser.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace craft;
using namespace craft::telemetry;
using json::Value;

//===----------------------------------------------------------------------===//
// Histogram bucket math
//===----------------------------------------------------------------------===//

TEST(HistogramTest, SmallValuesHaveExactBuckets) {
  // 0..3 get a bucket each, and the first octaves have sub-bucket width
  // 1, so small values report exact percentiles.
  for (uint64_t V = 0; V < 4; ++V)
    EXPECT_EQ(Histogram::bucketFor(V), V);
  for (uint64_t V = 0; V < 8; ++V)
    EXPECT_EQ(Histogram::bucketUpperBound(Histogram::bucketFor(V)), V);
}

TEST(HistogramTest, BucketForIsMonotoneAndBoundedByUpperBound) {
  uint64_t Prev = 0;
  for (uint64_t V = 1; V != 0 && V <= (1ull << 62); V = V * 2 + 1) {
    size_t B = Histogram::bucketFor(V);
    EXPECT_GE(B, Prev) << "bucketFor not monotone at " << V;
    EXPECT_LT(B, Histogram::NumBuckets);
    EXPECT_GE(Histogram::bucketUpperBound(B), V)
        << "value escapes its bucket's upper bound";
    Prev = B;
  }
}

TEST(HistogramTest, UpperBoundLandsInItsOwnBucket) {
  for (size_t I = 0; I < Histogram::NumBuckets; ++I)
    EXPECT_EQ(Histogram::bucketFor(Histogram::bucketUpperBound(I)), I);
}

TEST(HistogramTest, OverflowValuesLandInFinalBucket) {
  EXPECT_EQ(Histogram::bucketFor(UINT64_MAX), Histogram::NumBuckets - 1);
  EXPECT_EQ(Histogram::bucketUpperBound(Histogram::NumBuckets - 1),
            UINT64_MAX);
}

TEST(HistogramTest, ZeroSamplesReadAsZeroEverywhere) {
  HistogramSnapshot Empty;
  EXPECT_EQ(Empty.Count, 0u);
  EXPECT_EQ(Empty.percentile(0.0), 0u);
  EXPECT_EQ(Empty.p50(), 0u);
  EXPECT_EQ(Empty.p99(), 0u);
  EXPECT_EQ(Empty.mean(), 0.0);

  Histogram H = histogramMetric("test.hist.empty");
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.p95(), 0u);
}

TEST(HistogramTest, SingleBucketCollapsesAllPercentiles) {
  Histogram H = histogramMetric("test.hist.single");
  for (int I = 0; I < 5; ++I)
    H.observe(7);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 5u);
  EXPECT_EQ(S.Sum, 35u);
  EXPECT_EQ(S.mean(), 7.0);
  uint64_t Expect = Histogram::bucketUpperBound(Histogram::bucketFor(7));
  EXPECT_EQ(S.p50(), Expect);
  EXPECT_EQ(S.p95(), Expect);
  EXPECT_EQ(S.p99(), Expect);
}

TEST(HistogramTest, PercentilesAreExactForSmallValues) {
  Histogram H = histogramMetric("test.hist.smallvals");
  H.observe(1);
  H.observe(2);
  H.observe(3);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.p50(), 2u); // Rank ceil(1.5) = 2nd sample.
  EXPECT_EQ(S.p99(), 3u);
}

TEST(HistogramTest, PercentilesAreMonotoneInP) {
  Histogram H = histogramMetric("test.hist.monotone");
  for (uint64_t V : {1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull})
    H.observe(V);
  HistogramSnapshot S = H.snapshot();
  uint64_t Prev = 0;
  for (double P : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    uint64_t At = S.percentile(P);
    EXPECT_GE(At, Prev) << "percentile not monotone at P=" << P;
    Prev = At;
  }
  EXPECT_GE(S.percentile(100.0), 100000u);
}

TEST(HistogramTest, OverflowSamplesCountAndReportSaturatedPercentile) {
  Histogram H = histogramMetric("test.hist.overflow");
  H.observe(UINT64_MAX);
  H.observe(UINT64_MAX - 1);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_EQ(S.p99(), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Counters, gauges, and the registry snapshot
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, SameNameAliasesSameSeries) {
  Counter A = counterMetric("test.counter.alias");
  Counter B = counterMetric("test.counter.alias");
  uint64_t Before = B.value();
  A.add(3);
  A.increment();
  EXPECT_EQ(B.value(), Before + 4);
}

TEST(MetricsRegistryTest, CountsSurviveThreadExit) {
  Counter C = counterMetric("test.counter.threaded");
  uint64_t Before = C.value();
  std::thread T([&C] { C.add(10); });
  T.join();
  // The worker's shard retired when it exited; its counts must remain.
  EXPECT_EQ(C.value(), Before + 10);
}

TEST(MetricsRegistryTest, GaugeSetAddAndNoteMax) {
  Gauge G = gaugeMetric("test.gauge.basic");
  G.set(5);
  EXPECT_EQ(G.value(), 5);
  G.noteMax(3); // Below: no effect.
  EXPECT_EQ(G.value(), 5);
  G.noteMax(9);
  EXPECT_EQ(G.value(), 9);
  G.add(-2);
  EXPECT_EQ(G.value(), 7);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndContainsRegisteredSeries) {
  counterMetric("test.snap.counter").increment();
  gaugeMetric("test.snap.gauge").set(1);
  histogramMetric("test.snap.hist").observe(1);
  MetricsSnapshot Snap = snapshotMetrics();

  auto contains = [](const auto &Section, const std::string &Name) {
    for (const auto &Entry : Section)
      if (Entry.first == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(contains(Snap.Counters, "test.snap.counter"));
  EXPECT_TRUE(contains(Snap.Gauges, "test.snap.gauge"));
  EXPECT_TRUE(contains(Snap.Histograms, "test.snap.hist"));

  for (size_t I = 1; I < Snap.Counters.size(); ++I)
    EXPECT_LT(Snap.Counters[I - 1].first, Snap.Counters[I].first);
  for (size_t I = 1; I < Snap.Gauges.size(); ++I)
    EXPECT_LT(Snap.Gauges[I - 1].first, Snap.Gauges[I].first);
  for (size_t I = 1; I < Snap.Histograms.size(); ++I)
    EXPECT_LT(Snap.Histograms[I - 1].first, Snap.Histograms[I].first);
}

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

namespace {

/// Parses \p Doc with the strict JSON parser and fails the test on error.
Value parseTrace(const std::string &Doc) {
  std::string Error;
  std::optional<Value> V = json::parse(Doc, Error);
  EXPECT_TRUE(V.has_value()) << Error << "\n" << Doc;
  return V ? *V : Value();
}

} // namespace

TEST(TraceJsonTest, EmptyRingYieldsValidDocument) {
  clearTrace();
  Value V = parseTrace(tracejson::toChromeTraceJson());
  const Value *Events = V.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  EXPECT_TRUE(Events->elements().empty());
}

TEST(TraceJsonTest, ExportsBalancedProperlyNestedEvents) {
  setTimingEnabledForTest(true);
  setTraceEnabled(true);
  clearTrace();
  {
    TRACE_SPAN("test.outer");
    {
      TRACE_SPAN("test.inner");
    }
    {
      TRACE_SPAN("test.inner2");
    }
  }
  // Control characters in a label survive the export: the one JSON
  // string writer escapes them and json::parse reads them back unchanged.
  const std::string WorkerLabel = "test\b\f\x01 worker";
  std::thread T([&] {
    setCurrentThreadLabel(WorkerLabel);
    TRACE_SPAN("test.thread");
  });
  T.join();
  setTraceEnabled(false);

  Value V = parseTrace(tracejson::toChromeTraceJson());
  const Value *Events = V.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  // Replay the stream: per thread, every E must close the B on top of
  // the stack (balanced, properly nested), and every stack must drain.
  std::map<int, std::vector<std::string>> Stacks;
  size_t Begins = 0;
  bool SawWorkerLabel = false;
  for (const Value &E : Events->elements()) {
    const std::string Ph = E.stringOr("ph", "");
    const int Tid = static_cast<int>(E.numberOr("tid", -1));
    ASSERT_GE(Tid, 0);
    if (Ph == "M") {
      if (E.stringOr("name", "") == "thread_name" && E.find("args") &&
          E.find("args")->stringOr("name", "") == WorkerLabel)
        SawWorkerLabel = true;
      continue;
    }
    if (Ph == "B") {
      Stacks[Tid].push_back(E.stringOr("name", ""));
      ++Begins;
      continue;
    }
    ASSERT_EQ(Ph, "E") << "unexpected event phase";
    ASSERT_FALSE(Stacks[Tid].empty()) << "E without a matching B";
    EXPECT_EQ(Stacks[Tid].back(), E.stringOr("name", ""))
        << "E closes a span other than the innermost open one";
    Stacks[Tid].pop_back();
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty()) << "unclosed span on tid " << Tid;
  EXPECT_GE(Begins, 4u) << "outer, two inner, and the thread span";
  EXPECT_TRUE(SawWorkerLabel);
  clearTrace();
}

TEST(TraceJsonTest, RingHoldsOneSplitCertificationOfSpans) {
  // A traced split-gmm certification records ~20k spans on one thread
  // between drains; none of them may be evicted, live or retired.
  setTimingEnabledForTest(true);
  setTraceEnabled(true);
  clearTrace();
  constexpr size_t Spans = 20000;
  auto record = [] {
    for (size_t I = 0; I < Spans; ++I) {
      TRACE_SPAN("test.ring");
    }
  };
  auto countRecorded = [] {
    size_t N = 0;
    for (const SpanRecord &Rec : traceSpans())
      N += std::strcmp(Rec.Name, "test.ring") == 0;
    return N;
  };
  record();
  EXPECT_EQ(countRecorded(), Spans) << "live ring";
  clearTrace();
  std::thread T(record);
  T.join();
  EXPECT_EQ(countRecorded(), Spans) << "retired ring";
  setTraceEnabled(false);
  clearTrace();
}

TEST(TraceJsonTest, SpansAreInertWhenTracingIsOff) {
  setTraceEnabled(false);
  clearTrace();
  {
    TRACE_SPAN("test.should.not.record");
  }
  EXPECT_TRUE(traceSpans().empty());
}

TEST(TraceJsonTest, MaybeWriteTraceIsANoOpWhenDisarmed) {
  setTraceEnabled(false);
  std::string Error;
  EXPECT_TRUE(tracejson::maybeWriteTrace("/nonexistent/dir/t.json", Error));
  EXPECT_TRUE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Phase breakdown and the determinism contract
//===----------------------------------------------------------------------===//

namespace {

struct TelemetryFixture {
  std::string ModelPath = "/tmp/craft_telemetry_model.bin";
  VerificationSpec Spec;
};

const TelemetryFixture &fixture() {
  static TelemetryFixture *F = [] {
    auto *Out = new TelemetryFixture;
    Rng InitRng(91);
    MonDeq Model = MonDeq::randomFc(InitRng, 4, 8, 3, 3.0);
    Model.save(Out->ModelPath);
    VerificationSpec &S = Out->Spec;
    S.ModelPath = Out->ModelPath;
    S.Center = Vector{0.4, 0.5, 0.6, 0.45};
    S.Epsilon = 0.02;
    S.TargetClass = 0;
    S.Alpha1 = 0.5;
    S.InLo = Vector(S.Center.size());
    S.InHi = Vector(S.Center.size());
    for (size_t I = 0; I < S.Center.size(); ++I) {
      S.InLo[I] = S.Center[I] - S.Epsilon;
      S.InHi[I] = S.Center[I] + S.Epsilon;
    }
    return Out;
  }();
  return *F;
}

} // namespace

TEST(PhaseBreakdownTest, PopulatedWithTimingOnAndAttributesSolverTime) {
  setTimingEnabledForTest(true);
  RunOutcome Out = runSpec(fixture().Spec);
  ASSERT_TRUE(Out.ModelLoaded) << Out.Detail;
  ASSERT_FALSE(Out.Error) << Out.Detail;
  EXPECT_TRUE(Out.Phases.Populated);
  EXPECT_GE(Out.Phases.SolverMs, 0.0);
  EXPECT_GT(Out.Phases.SolverIterations, 0u);
  // Consolidation is a slice of the solver phase, never more than it.
  EXPECT_LE(Out.Phases.ConsolidationMs, Out.Phases.SolverMs);
}

TEST(PhaseBreakdownTest, OutcomesByteIdenticalWithTimingOnOrOff) {
  setTimingEnabledForTest(true);
  RunOutcome On = runSpec(fixture().Spec);
  setTimingEnabledForTest(false);
  EXPECT_EQ(monotonicNanos(), 0u) << "disabled timing must not read clocks";
  RunOutcome Off = runSpec(fixture().Spec);
  setTimingEnabledForTest(true);

  EXPECT_TRUE(On.Phases.Populated);
  EXPECT_FALSE(Off.Phases.Populated);
  EXPECT_EQ(Off.Phases.SolverMs, 0.0);
  EXPECT_EQ(Off.Phases.SolverIterations, 0u);

  // Everything except wall time and the breakdown is byte-identical.
  EXPECT_EQ(On.ModelLoaded, Off.ModelLoaded);
  EXPECT_EQ(On.Error, Off.Error);
  EXPECT_EQ(On.DeadlineExceeded, Off.DeadlineExceeded);
  EXPECT_EQ(On.Certified, Off.Certified);
  EXPECT_EQ(On.Containment, Off.Containment);
  EXPECT_EQ(On.Refuted, Off.Refuted);
  EXPECT_EQ(On.CertificateWritten, Off.CertificateWritten);
  EXPECT_EQ(On.AttackSeed, Off.AttackSeed);
  EXPECT_EQ(On.Detail, Off.Detail);
  EXPECT_EQ(std::memcmp(&On.MarginLower, &Off.MarginLower, sizeof(double)),
            0)
      << "margins differ in some bit (" << On.MarginLower << " vs "
      << Off.MarginLower << ")";
  ASSERT_EQ(On.Counterexample.size(), Off.Counterexample.size());
  if (!On.Counterexample.empty()) {
    EXPECT_EQ(std::memcmp(On.Counterexample.data(),
                          Off.Counterexample.data(),
                          On.Counterexample.size() * sizeof(double)),
              0);
  }
}

TEST(PhaseBreakdownTest, ConsolidateSpansMatchTheConsolidationPhaseExactly) {
  // The fixture query reaches phase 2 and runs past its first phase-2
  // consolidation (step 3), so both phases' consolidations are traced.
  setTimingEnabledForTest(true);
  setTraceEnabled(true);
  clearTrace();
  const PhaseTotals Before = phaseTotals();
  RunOutcome Out = runSpec(fixture().Spec);
  const PhaseTotals After = phaseTotals();
  const std::vector<SpanRecord> Spans = traceSpans();
  setTraceEnabled(false);
  clearTrace();
  ASSERT_TRUE(Out.ModelLoaded) << Out.Detail;
  ASSERT_FALSE(Out.Error) << Out.Detail;

  auto Named = [](const SpanRecord &S, const char *Name) {
    return std::strcmp(S.Name, Name) == 0;
  };
  uint64_t SpanNs = 0;
  size_t UnderPhase2 = 0;
  for (const SpanRecord &S : Spans) {
    if (!Named(S, "craft.consolidate"))
      continue;
    SpanNs += S.DurNs;
    for (const SpanRecord &P : Spans)
      if (Named(P, "craft.phase2") && P.Tid == S.Tid && P.Depth < S.Depth &&
          P.StartNs <= S.StartNs &&
          S.StartNs + S.DurNs <= P.StartNs + P.DurNs) {
        ++UnderPhase2;
        break;
      }
  }
  // One PhaseTimer feeds both the span and the phase total, so the two
  // agree to the nanosecond.
  EXPECT_EQ(SpanNs, After.of(Phase::Consolidation) -
                        Before.of(Phase::Consolidation));
  EXPECT_GT(UnderPhase2, 0u) << "no phase-2 consolidation was traced";
}
