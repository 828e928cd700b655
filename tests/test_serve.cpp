//===- tests/test_serve.cpp - Serve subsystem tests -----------------------===//
//
// Tests for the persistent verification service (src/serve/): JSON and
// protocol round-trips, canonical spec keys, the bounded MPMC admission
// queue, the pinned model registry, ResultCache hit/miss/eviction
// determinism, the admission scheduler's caching/coalescing/jobs-1-vs-N
// contracts, and the server's request handling through handleLine (the
// socket transports are covered by the process-level test_serve_e2e).
//
//===----------------------------------------------------------------------===//

#include "cert/Certificate.h"
#include "cert/Checker.h"
#include "data/GaussianMixture.h"
#include "nn/Solvers.h"
#include "nn/Training.h"
#include "serve/Client.h"
#include "serve/ModelRegistry.h"
#include "serve/Protocol.h"
#include "serve/ResultCache.h"
#include "serve/Scheduler.h"
#include "serve/Server.h"
#include "support/MpmcQueue.h"
#include "tool/SpecCanon.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

using namespace craft;
using namespace craft::serve;
using json::Value;

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

namespace {

Value parseOk(const std::string &Text) {
  std::string Error;
  std::optional<Value> V = json::parse(Text, Error);
  EXPECT_TRUE(V.has_value()) << Text << " -> " << Error;
  return V ? *V : Value();
}

void expectParseError(const std::string &Text) {
  std::string Error;
  EXPECT_FALSE(json::parse(Text, Error).has_value()) << Text;
  EXPECT_FALSE(Error.empty());
}

} // namespace

TEST(JsonTest, RoundTripsScalarsAndContainers) {
  for (const char *Doc :
       {"null", "true", "false", "0", "-1.5", "1e-3",
        "\"hi\"", "[]", "[1,2,3]", "{}",
        "{\"a\":[{\"b\":null}],\"c\":\"d\"}"}) {
    Value V = parseOk(Doc);
    // Serialize -> reparse -> serialize is a fixpoint.
    std::string S1 = V.serialize();
    std::string S2 = parseOk(S1).serialize();
    EXPECT_EQ(S1, S2) << Doc;
  }
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string Raw = "line1\nline2\t\"quoted\"\\slash\x01end";
  std::string Encoded = Value::string(Raw).serialize();
  // NDJSON framing: no raw newline may survive serialization.
  EXPECT_EQ(Encoded.find('\n'), std::string::npos);
  Value Back = parseOk(Encoded);
  EXPECT_EQ(Back.asString(), Raw);
}

TEST(JsonTest, UnicodeEscapesDecode) {
  EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9"); // é
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsPathologicalNesting) {
  // Recursion depth is bounded: a hostile million-bracket line must be
  // a parse error, not a stack overflow of the connection thread.
  expectParseError(std::string(100000, '['));
  std::string Deep;
  for (int I = 0; I < 300; ++I)
    Deep += "{\"a\":";
  Deep += "1";
  for (int I = 0; I < 300; ++I)
    Deep += "}";
  expectParseError(Deep);
  // 200 levels is fine.
  std::string Ok(200, '[');
  Ok += "1";
  Ok += std::string(200, ']');
  parseOk(Ok);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  expectParseError("");
  expectParseError("{");
  expectParseError("[1,]");
  expectParseError("{\"a\":1,}");
  expectParseError("{\"a\" 1}");
  expectParseError("nul");
  expectParseError("01");
  expectParseError("1. ");
  expectParseError("\"unterminated");
  expectParseError("\"bad \\x escape\"");
  expectParseError("\"\\ud800 lone surrogate\"");
  expectParseError("\"raw \x01 control\"");
  expectParseError("{} trailing");
  expectParseError("Infinity");
}

TEST(JsonTest, NumbersKeepFullDoublePrecision) {
  const double Pi = 3.141592653589793;
  Value V = parseOk(Value::number(Pi).serialize());
  double Back = V.asNumber();
  EXPECT_EQ(std::memcmp(&Pi, &Back, sizeof(double)), 0);
  EXPECT_DOUBLE_EQ(parseOk("-1e300").asNumber(), -1e300);
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RequestRoundTrips) {
  Request Req;
  Req.Id = 42;
  Req.Method = "verify";
  Req.SpecText = "model m.bin\ninput linf\n  center 0.5\n"
                 "  epsilon 0.1\noutput robust 1\n";
  Req.UseCache = false;
  std::string Error;
  std::optional<Request> Back = decodeRequest(encodeRequest(Req), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Id, 42);
  EXPECT_EQ(Back->Method, "verify");
  EXPECT_EQ(Back->SpecText, Req.SpecText);
  EXPECT_FALSE(Back->UseCache);

  Request Info;
  Info.Id = 7;
  Info.Method = "info";
  Info.Model = "path/to/model.bin";
  Back = decodeRequest(encodeRequest(Info), Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Model, "path/to/model.bin");
}

TEST(ProtocolTest, OutOfRangeIdsClampToZero) {
  // Client-controlled ids outside int64 range must not hit UB in the
  // double->int64 conversion.
  std::string Error;
  for (const char *Line :
       {"{\"id\":1e300,\"method\":\"ping\"}",
        "{\"id\":-1e300,\"method\":\"ping\"}"}) {
    std::optional<Request> Req = decodeRequest(Line, Error);
    ASSERT_TRUE(Req.has_value()) << Line << " -> " << Error;
    EXPECT_EQ(Req->Id, 0) << Line;
  }
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  std::string Error;
  EXPECT_FALSE(decodeRequest("not json", Error).has_value());
  EXPECT_FALSE(decodeRequest("[1,2]", Error).has_value());
  EXPECT_FALSE(decodeRequest("{\"id\":1}", Error).has_value());
  EXPECT_FALSE(
      decodeRequest("{\"method\":\"explode\"}", Error).has_value());
  EXPECT_FALSE(decodeRequest("{\"method\":\"verify\"}", Error)
                   .has_value()); // Missing spec.
  EXPECT_FALSE(decodeRequest("{\"method\":\"info\"}", Error)
                   .has_value()); // Missing model.
}

TEST(ProtocolTest, ResultRoundTripsLosslessly) {
  WireResult W;
  W.Outcome.ModelLoaded = true;
  W.Outcome.Error = true;
  W.Outcome.Certified = true;
  W.Outcome.Containment = true;
  W.Outcome.Refuted = true;
  W.Outcome.Counterexample =
      Vector{0.1, -0.12345678901234567, 1.0 / 3.0};
  W.Outcome.MarginLower = -0.12345678901234567;
  W.Outcome.TimeSeconds = 1.25;
  W.Outcome.CertificateWritten = true;
  W.Outcome.AttackSeed = 18446744073709551615ull; // > 2^53: needs string.
  W.Outcome.Detail = "detail with \"quotes\" and\nnewline";
  W.Cached = true;

  std::optional<WireResult> Back = decodeResult(encodeResult(W));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Outcome.ModelLoaded, W.Outcome.ModelLoaded);
  EXPECT_EQ(Back->Outcome.Error, W.Outcome.Error);
  EXPECT_EQ(Back->Outcome.Certified, W.Outcome.Certified);
  EXPECT_EQ(Back->Outcome.Containment, W.Outcome.Containment);
  EXPECT_EQ(Back->Outcome.Refuted, W.Outcome.Refuted);
  ASSERT_EQ(Back->Outcome.Counterexample.size(),
            W.Outcome.Counterexample.size());
  EXPECT_EQ(std::memcmp(Back->Outcome.Counterexample.data(),
                        W.Outcome.Counterexample.data(),
                        W.Outcome.Counterexample.size() * sizeof(double)),
            0)
      << "the witness must round-trip bit-exactly";
  EXPECT_EQ(std::memcmp(&Back->Outcome.MarginLower, &W.Outcome.MarginLower,
                        sizeof(double)),
            0);
  EXPECT_EQ(Back->Outcome.AttackSeed, W.Outcome.AttackSeed);
  EXPECT_EQ(Back->Outcome.Detail, W.Outcome.Detail);
  EXPECT_TRUE(Back->Cached);

  // Absent counterexample stays absent (legacy producers).
  WireResult Plain;
  Plain.Outcome.ModelLoaded = true;
  std::optional<WireResult> PlainBack = decodeResult(encodeResult(Plain));
  ASSERT_TRUE(PlainBack.has_value());
  EXPECT_TRUE(PlainBack->Outcome.Counterexample.empty());
  EXPECT_FALSE(PlainBack->Outcome.Error);
}

TEST(ProtocolTest, TimingsStayOptionalAndRoundTrip) {
  // Unpopulated breakdown: no "timings" member at all, so telemetry-off
  // envelopes are byte-identical to pre-telemetry releases.
  WireResult Plain;
  Plain.Outcome.ModelLoaded = true;
  EXPECT_EQ(encodeResult(Plain).find("timings"), nullptr);
  std::optional<WireResult> PlainBack = decodeResult(encodeResult(Plain));
  ASSERT_TRUE(PlainBack.has_value());
  EXPECT_FALSE(PlainBack->Outcome.Phases.Populated);

  // Populated breakdown round-trips every row of the table.
  WireResult W;
  W.Outcome.ModelLoaded = true;
  PhaseBreakdown &Ph = W.Outcome.Phases;
  Ph.Populated = true;
  double Ms = 0.125;
  for (const PhaseRow &Row : PhaseRows) {
    Ph.*Row.Ms = Ms;
    Ms *= 2.0;
  }
  Ph.SolverIterations = 123;
  std::optional<WireResult> Back = decodeResult(encodeResult(W));
  ASSERT_TRUE(Back.has_value());
  const PhaseBreakdown &B = Back->Outcome.Phases;
  EXPECT_TRUE(B.Populated);
  for (const PhaseRow &Row : PhaseRows)
    EXPECT_EQ(B.*Row.Ms, Ph.*Row.Ms) << Row.Key;
  EXPECT_EQ(B.SolverIterations, 123u);

  // Wire pin: key order and number format stay byte-identical to what
  // earlier releases sent.
  Ph = PhaseBreakdown();
  Ph.Populated = true;
  Ph.QueueWaitMs = 1.5;
  Ph.CacheProbeMs = 0.25;
  Ph.ModelLoadMs = 12.0;
  Ph.SolverMs = 40.0;
  Ph.ConsolidationMs = 8.0;
  Ph.SplitMs = 3.0;
  Ph.PgdMs = 2.0;
  Ph.CertificateMs = 0.5;
  Ph.SolverIterations = 123;
  EXPECT_EQ(encodeResult(W).find("timings")->serialize(),
            "{\"queue_wait_ms\":1.5,\"cache_probe_ms\":0.25,"
            "\"model_load_ms\":12,\"solver_ms\":40,\"consolidation_ms\":8,"
            "\"split_ms\":3,\"pgd_ms\":2,\"certificate_ms\":0.5,"
            "\"solver_iterations\":123}");
  // Replies from daemons that still ran the domain cascade carry its
  // fields; they decode, and are ignored.
  Value Old = encodeResult(W);
  Old.set("cascade_rung", Value::string("box"));
  Old.set("cascade_escalations", Value::number(2.0));
  std::optional<WireResult> OldBack = decodeResult(Old);
  ASSERT_TRUE(OldBack.has_value());
  EXPECT_TRUE(OldBack->Outcome.CascadeRung.empty());
  EXPECT_EQ(OldBack->Outcome.CascadeEscalations, 0);
  EXPECT_EQ(encodeResult(*OldBack).serialize(), encodeResult(W).serialize());

  // A non-object "timings" member is a malformed result.
  Value Bad = encodeResult(Plain);
  Bad.set("timings", Value::number(7.0));
  EXPECT_FALSE(decodeResult(Bad).has_value());
}

TEST(ProtocolTest, OutOfRangeTimingsAndCountsAreMalformed) {
  WireResult W;
  W.Outcome.ModelLoaded = true;
  W.Outcome.Phases.Populated = true;
  const Value Good = encodeResult(W);
  ASSERT_TRUE(decodeResult(Good).has_value());

  // Each value would be undefined behaviour to cast to its integer field
  // (or is a negative or infinite duration): the result is rejected.
  for (const char *Bad : {"-1", "1e300", "1e999"}) {
    std::string Error;
    std::optional<Value> N = json::parse(Bad, Error);
    ASSERT_TRUE(N.has_value()) << Error;

    Value Iterations = Good;
    Value T = *Good.find("timings");
    T.set(SolverIterationsKey, *N);
    Iterations.set("timings", T);
    EXPECT_FALSE(decodeResult(Iterations).has_value()) << Bad;
  }
  for (const char *Bad : {"-1", "1e999"}) {
    std::string Error;
    std::optional<Value> N = json::parse(Bad, Error);
    ASSERT_TRUE(N.has_value()) << Error;
    for (const PhaseRow &Row : PhaseRows) {
      Value Timings = Good;
      Value T = *Good.find("timings");
      T.set(Row.Key, *N);
      Timings.set("timings", T);
      EXPECT_FALSE(decodeResult(Timings).has_value()) << Row.Key << Bad;
    }
  }
}

//===----------------------------------------------------------------------===//
// Canonical keys
//===----------------------------------------------------------------------===//

namespace {

VerificationSpec canonSpec() {
  VerificationSpec S;
  S.ModelPath = "m.bin";
  S.InLo = Vector({0.1, 0.2});
  S.InHi = Vector({0.3, 0.4});
  S.Center = Vector({0.2, 0.3});
  S.Epsilon = 0.1;
  S.TargetClass = 1;
  S.Alpha1 = 0.5;
  return S;
}

} // namespace

TEST(SpecCanonTest, IdenticalSpecsShareKeysDifferentSpecsDoNot) {
  VerificationSpec A = canonSpec(), B = canonSpec();
  EXPECT_EQ(serveCacheKey(A, 7), serveCacheKey(B, 7));
  // Model identity is part of the key.
  EXPECT_NE(serveCacheKey(A, 7), serveCacheKey(B, 8));
  // Every knob separates keys.
  B.Alpha1 = 0.25;
  EXPECT_NE(serveCacheKey(A, 7), serveCacheKey(B, 7));
  B = canonSpec();
  B.InHi[1] = std::nextafter(B.InHi[1], 1.0); // One ulp must separate.
  EXPECT_NE(canonicalSpec(A), canonicalSpec(B));
  B = canonSpec();
  B.Attack = true;
  EXPECT_NE(canonicalSpec(A), canonicalSpec(B));
  // ModelPath and CertificatePath are deliberately NOT part of the key.
  B = canonSpec();
  B.ModelPath = "other/path/same/content.bin";
  B.CertificatePath = "w.cert";
  EXPECT_EQ(canonicalSpec(A), canonicalSpec(B));
}

TEST(SpecCanonTest, DomainSeparatesKeysCascadeDoesNot) {
  VerificationSpec A = canonSpec();
  // The engine's abstract domain changes the computation, so it must
  // change the key.
  VerificationSpec B = canonSpec();
  B.Domain = VerifierDomain::Box;
  EXPECT_NE(canonicalSpec(A), canonicalSpec(B));
  B.Domain = VerifierDomain::Zono;
  EXPECT_NE(canonicalSpec(A), canonicalSpec(B));

  // Through the parser: `domain` reaches the spec, and the ignored
  // `cascade` directive leaves the cache key as it is without it.
  const std::string Body = "model m.bin\n"
                           "output robust 1\n"
                           "input box\n"
                           "lo 0.1 0.2\n"
                           "hi 0.3 0.4\n";
  auto keyOf = [](const std::string &Source) {
    SpecParseResult Parsed = parseSpec(Source);
    EXPECT_TRUE(Parsed.ok()) << Source;
    return Parsed.ok() ? serveCacheKey(*Parsed.Spec, 7) : std::string();
  };
  SpecParseResult Zono = parseSpec("domain zono\n" + Body);
  ASSERT_TRUE(Zono.ok());
  EXPECT_EQ(Zono.Spec->Domain, VerifierDomain::Zono);
  const std::string Plain = keyOf(Body);
  EXPECT_NE(keyOf("domain zono\n" + Body), Plain);
  for (const char *Policy : {"off", "adapt", "full"}) {
    EXPECT_EQ(keyOf("cascade " + std::string(Policy) + "\n" + Body), Plain)
        << Policy;
    EXPECT_EQ(keyOf("domain zono\ncascade " + std::string(Policy) + "\n" +
                    Body),
              keyOf("domain zono\n" + Body))
        << Policy;
  }
}

TEST(SpecCanonTest, AttackSeedDerivesFromContentOnly) {
  VerificationSpec A = canonSpec();
  std::string KeyA = serveCacheKey(A, 7);
  EXPECT_EQ(serveAttackSeed(1, KeyA), serveAttackSeed(1, KeyA));
  EXPECT_NE(serveAttackSeed(1, KeyA), serveAttackSeed(2, KeyA));
  VerificationSpec B = canonSpec();
  B.Epsilon = 0.2;
  EXPECT_NE(serveAttackSeed(1, KeyA),
            serveAttackSeed(1, serveCacheKey(B, 7)));
  EXPECT_NE(serveAttackSeed(1, KeyA), 0u);
}

//===----------------------------------------------------------------------===//
// MpmcQueue
//===----------------------------------------------------------------------===//

TEST(MpmcQueueTest, FifoAcrossProducersAndConsumers) {
  MpmcQueue<int> Q(128);
  for (int I = 0; I < 5; ++I)
    EXPECT_TRUE(Q.push(int(I)));
  for (int I = 0; I < 5; ++I) {
    std::optional<int> V = Q.pop();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_EQ(Q.size(), 0u);
}

TEST(MpmcQueueTest, BoundedPushBlocksUntilPopped) {
  MpmcQueue<int> Q(1);
  EXPECT_TRUE(Q.push(1));
  std::atomic<bool> Pushed{false};
  std::thread Producer([&] {
    EXPECT_TRUE(Q.push(2)); // Blocks: capacity 1.
    Pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Pushed.load()) << "push must block while full";
  EXPECT_EQ(Q.pop().value(), 1);
  Producer.join();
  EXPECT_TRUE(Pushed.load());
  EXPECT_EQ(Q.pop().value(), 2);
}

TEST(MpmcQueueTest, CloseDrainsThenEndsStream) {
  MpmcQueue<int> Q(8);
  EXPECT_TRUE(Q.push(1));
  EXPECT_TRUE(Q.push(2));
  Q.close();
  EXPECT_FALSE(Q.push(3)) << "push after close must fail";
  EXPECT_EQ(Q.pop().value(), 1);
  EXPECT_EQ(Q.pop().value(), 2);
  EXPECT_FALSE(Q.pop().has_value()) << "drained + closed = end of stream";
}

TEST(MpmcQueueTest, CloseUnblocksWaitingConsumer) {
  MpmcQueue<int> Q(8);
  std::thread Consumer([&] { EXPECT_FALSE(Q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Q.close();
  Consumer.join();
}

TEST(MpmcQueueTest, FailedPushLeavesItemWithCaller) {
  MpmcQueue<std::unique_ptr<int>> Q(1);
  Q.close();
  std::unique_ptr<int> Item = std::make_unique<int>(7);
  EXPECT_FALSE(Q.push(std::move(Item)));
  ASSERT_TRUE(Item != nullptr) << "failed push must not consume the item";
  EXPECT_EQ(*Item, 7);
}

//===----------------------------------------------------------------------===//
// Model fixture (same recipe as the tool/batch fixtures)
//===----------------------------------------------------------------------===//

namespace {

struct ServeFixture {
  std::string ModelPath = "/tmp/craft_serve_model.bin";
  std::vector<Vector> Samples;
  std::vector<int> Labels;
  uint64_t ModelHash = 0;
};

ServeFixture &serveFixture() {
  static ServeFixture *F = [] {
    auto *Out = new ServeFixture;
    Rng DataRng(71);
    Dataset Train = makeGaussianMixture(DataRng, 250, 5, 3);
    Rng InitRng(72);
    MonDeq Model = MonDeq::randomFc(InitRng, 5, 10, 3, 3.0);
    TrainOptions Opts;
    Opts.Epochs = 10;
    Opts.Verbose = false;
    trainMonDeq(Model, Train, Opts);
    Model.save(Out->ModelPath);
    Out->ModelHash = hashModel(Model);
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

VerificationSpec serveSpec(size_t Sample, double Epsilon) {
  ServeFixture &Fix = serveFixture();
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
                       const std::string &What) {
  EXPECT_EQ(A.ModelLoaded, B.ModelLoaded) << What;
  EXPECT_EQ(A.Certified, B.Certified) << What;
  EXPECT_EQ(A.Containment, B.Containment) << What;
  EXPECT_EQ(A.Refuted, B.Refuted) << What;
  EXPECT_EQ(A.CertificateWritten, B.CertificateWritten) << What;
  EXPECT_EQ(A.AttackSeed, B.AttackSeed) << What;
  EXPECT_EQ(A.Detail, B.Detail) << What;
  EXPECT_EQ(std::memcmp(&A.MarginLower, &B.MarginLower, sizeof(double)), 0)
      << What << ": margins differ in some bit (" << A.MarginLower
      << " vs " << B.MarginLower << ")";
}

} // namespace

//===----------------------------------------------------------------------===//
// ModelRegistry
//===----------------------------------------------------------------------===//

TEST(ModelRegistryTest, LoadsOncePinsAndHashes) {
  ServeFixture &Fix = serveFixture();
  ModelRegistry Reg;
  ModelRegistry::Entry A = Reg.get(Fix.ModelPath);
  ASSERT_NE(A.Model, nullptr) << A.Error;
  EXPECT_EQ(A.Hash, Fix.ModelHash);
  ModelRegistry::Entry B = Reg.get(Fix.ModelPath);
  EXPECT_EQ(A.Model, B.Model) << "second get must reuse the pinned model";
  EXPECT_EQ(Reg.size(), 1u);
  EXPECT_EQ(Reg.loadedCount(), 1u);
}

TEST(ModelRegistryTest, NegativeCachesMissingModels) {
  ModelRegistry Reg;
  ModelRegistry::Entry E = Reg.get("/nonexistent/model.bin");
  EXPECT_EQ(E.Model, nullptr);
  EXPECT_NE(E.Error.find("cannot load model"), std::string::npos);
  EXPECT_EQ(Reg.size(), 1u);
  EXPECT_EQ(Reg.loadedCount(), 0u);
}

TEST(ModelRegistryTest, ConcurrentFirstRequestsLoadOnce) {
  ServeFixture &Fix = serveFixture();
  ModelRegistry Reg;
  constexpr int N = 8;
  std::vector<const MonDeq *> Seen(N, nullptr);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I] { Seen[I] = Reg.get(Fix.ModelPath).Model; });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(Seen[I], Seen[0]);
  EXPECT_EQ(Reg.loadedCount(), 1u);
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

namespace {

RunOutcome markedOutcome(double Margin) {
  RunOutcome Out;
  Out.ModelLoaded = true;
  Out.Certified = true;
  Out.MarginLower = Margin;
  return Out;
}

} // namespace

TEST(ResultCacheTest, HitMissAndStats) {
  ResultCache Cache(16, 4);
  EXPECT_FALSE(Cache.lookup("a").has_value());
  Cache.insert("a", markedOutcome(1.0));
  std::optional<RunOutcome> Hit = Cache.lookup("a");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->MarginLower, 1.0);
  ResultCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Insertions, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(ResultCacheTest, EvictionIsLruAndDeterministic) {
  // One shard, capacity 3: full control over the LRU order.
  ResultCache Cache(3, 1);
  Cache.insert("a", markedOutcome(1));
  Cache.insert("b", markedOutcome(2));
  Cache.insert("c", markedOutcome(3));
  // Touch "a": order (most->least recent) is now a, c, b.
  EXPECT_TRUE(Cache.lookup("a").has_value());
  Cache.insert("d", markedOutcome(4)); // Evicts "b".
  EXPECT_FALSE(Cache.lookup("b").has_value()) << "LRU entry must go first";
  EXPECT_TRUE(Cache.lookup("a").has_value());
  EXPECT_TRUE(Cache.lookup("c").has_value());
  EXPECT_TRUE(Cache.lookup("d").has_value());
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Entries, 3u);

  // The same insertion sequence reproduces the same eviction pattern.
  ResultCache Cache2(3, 1);
  Cache2.insert("a", markedOutcome(1));
  Cache2.insert("b", markedOutcome(2));
  Cache2.insert("c", markedOutcome(3));
  EXPECT_TRUE(Cache2.lookup("a").has_value());
  Cache2.insert("d", markedOutcome(4));
  EXPECT_FALSE(Cache2.lookup("b").has_value());
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache Cache(2, 1);
  Cache.insert("a", markedOutcome(1));
  Cache.insert("a", markedOutcome(9));
  EXPECT_EQ(Cache.stats().Entries, 1u);
  EXPECT_DOUBLE_EQ(Cache.lookup("a")->MarginLower, 9.0);
}

TEST(ResultCacheTest, ShardsBoundTotalCapacity) {
  ResultCache Cache(8, 4);
  for (int I = 0; I < 100; ++I)
    Cache.insert("key" + std::to_string(I), markedOutcome(I));
  // Per-shard cap is ceil(8/4) = 2 -> at most 8 entries total.
  EXPECT_LE(Cache.stats().Entries, 8u);
  EXPECT_GE(Cache.stats().Evictions, 92u);
}

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, SecondIdenticalQueryIsAByteIdenticalCacheHit) {
  Scheduler::Options Opts;
  Opts.Jobs = 2;
  Scheduler Sched(Opts);
  VerificationSpec Spec = serveSpec(0, 0.02);

  ServeResult First = Sched.submit(Spec).get();
  ASSERT_TRUE(First.Outcome.ModelLoaded) << First.Outcome.Detail;
  EXPECT_TRUE(First.Outcome.Certified);
  EXPECT_FALSE(First.Cached);

  ServeResult Second = Sched.submit(Spec).get();
  EXPECT_TRUE(Second.Cached);
  // Byte-identical INCLUDING the stored wall time: a hit returns the
  // memoized outcome verbatim.
  expectSameOutcome(First.Outcome, Second.Outcome, "cache hit");
  EXPECT_EQ(std::memcmp(&First.Outcome.TimeSeconds,
                        &Second.Outcome.TimeSeconds, sizeof(double)),
            0);
  EXPECT_EQ(Sched.stats().CacheHits, 1u);
  EXPECT_EQ(Sched.stats().Executed, 1u);
}

TEST(SchedulerTest, MissingModelFailsFastWithoutExecution) {
  Scheduler::Options Opts;
  Scheduler Sched(Opts);
  VerificationSpec Spec = serveSpec(0, 0.02);
  Spec.ModelPath = "/nonexistent/model.bin";
  ServeResult R = Sched.submit(Spec).get();
  EXPECT_FALSE(R.Outcome.ModelLoaded);
  EXPECT_NE(R.Outcome.Detail.find("cannot load model"), std::string::npos);
  EXPECT_EQ(Sched.stats().Executed, 0u);
}

TEST(SchedulerTest, JobsAndBatchingNeverChangeOutcomes) {
  // Mix of certifiable and hopeless+attack queries, as in the batch
  // driver's equivalence test.
  std::vector<VerificationSpec> Specs;
  for (size_t I = 0; I < 4; ++I)
    Specs.push_back(serveSpec(I, 0.02));
  for (size_t I = 0; I < 2; ++I) {
    VerificationSpec Hard = serveSpec(I, 0.5);
    Hard.Attack = true;
    Specs.push_back(Hard);
  }

  // Reference: jobs=1, sequential submission (every batch is singleton).
  std::vector<RunOutcome> Baseline;
  {
    Scheduler::Options Opts;
    Opts.Jobs = 1;
    Scheduler Sched(Opts);
    for (const VerificationSpec &S : Specs)
      Baseline.push_back(Sched.submit(S).get().Outcome);
  }
  ASSERT_EQ(Baseline.size(), Specs.size());

  // jobs=4, concurrent submission: admission batching coalesces these
  // into multi-query batches, and the pool fans each batch out.
  for (int Round = 0; Round < 2; ++Round) {
    Scheduler::Options Opts;
    Opts.Jobs = 4;
    Scheduler Sched(Opts);
    std::vector<std::future<ServeResult>> Futures;
    Futures.reserve(Specs.size());
    for (const VerificationSpec &S : Specs)
      Futures.push_back(Sched.submit(S));
    for (size_t I = 0; I < Futures.size(); ++I) {
      ServeResult R = Futures[I].get();
      EXPECT_FALSE(R.Cached) << "distinct queries cannot hit";
      expectSameOutcome(Baseline[I], R.Outcome,
                        "query " + std::to_string(I) + " round " +
                            std::to_string(Round));
    }
  }
}

TEST(SchedulerTest, ConcurrentIdenticalQueriesExecuteOnce) {
  Scheduler::Options Opts;
  Opts.Jobs = 2;
  Scheduler Sched(Opts);
  VerificationSpec Spec = serveSpec(1, 0.02);

  constexpr int N = 16;
  std::vector<std::future<ServeResult>> Futures;
  for (int I = 0; I < N; ++I)
    Futures.push_back(Sched.submit(Spec));
  std::vector<ServeResult> Results;
  for (std::future<ServeResult> &F : Futures)
    Results.push_back(F.get());
  for (int I = 1; I < N; ++I)
    expectSameOutcome(Results[0].Outcome, Results[I].Outcome,
                      "identical query " + std::to_string(I));
  Scheduler::Stats S = Sched.stats();
  EXPECT_EQ(S.Submitted, (uint64_t)N);
  EXPECT_EQ(S.Executed, 1u)
      << "coalescing + cache must collapse identical queries into one "
         "execution";
  EXPECT_EQ(S.CacheHits + S.Coalesced, (uint64_t)(N - 1));
}

TEST(SchedulerTest, UncachedSubmissionsBypassTheCache) {
  Scheduler::Options Opts;
  Scheduler Sched(Opts);
  VerificationSpec Spec = serveSpec(2, 0.02);
  ServeResult A = Sched.submit(Spec, /*UseCache=*/false).get();
  ServeResult B = Sched.submit(Spec, /*UseCache=*/false).get();
  EXPECT_FALSE(A.Cached);
  EXPECT_FALSE(B.Cached);
  EXPECT_EQ(Sched.stats().Executed, 2u);
  expectSameOutcome(A.Outcome, B.Outcome, "uncached determinism");
}

TEST(SchedulerTest, SameCertificatePathQueriesSerializeSafely) {
  // Certificate queries bypass cache and coalescing, so N concurrent
  // submissions all execute — but two of them must never share a batch
  // (saveCertificate would race on the file). The dispatcher defers
  // duplicates to later batches; afterwards the witness must be intact.
  const char *CertPath = "/tmp/craft_serve_cert.bin";
  std::remove(CertPath);
  Scheduler::Options Opts;
  Opts.Jobs = 4;
  Scheduler Sched(Opts);
  VerificationSpec Spec = serveSpec(0, 0.02);
  Spec.CertificatePath = CertPath;

  constexpr int N = 6;
  std::vector<std::future<ServeResult>> Futures;
  for (int I = 0; I < N; ++I)
    Futures.push_back(Sched.submit(Spec));
  for (std::future<ServeResult> &F : Futures) {
    ServeResult R = F.get();
    EXPECT_TRUE(R.Outcome.Certified) << R.Outcome.Detail;
    EXPECT_TRUE(R.Outcome.CertificateWritten) << R.Outcome.Detail;
    EXPECT_FALSE(R.Cached) << "certificate queries are never memoized";
  }
  EXPECT_EQ(Sched.stats().Executed, (uint64_t)N);

  auto Model = MonDeq::load(serveFixture().ModelPath);
  auto Cert = loadCertificate(CertPath);
  ASSERT_TRUE(Model && Cert) << "witness file must survive N writers";
  EXPECT_TRUE(checkCertificate(*Model, *Cert).Ok);
  std::remove(CertPath);
}

TEST(SchedulerTest, SubmitAfterStopFailsFast) {
  Scheduler::Options Opts;
  Scheduler Sched(Opts);
  Sched.stop();
  ServeResult R = Sched.submit(serveSpec(0, 0.02)).get();
  EXPECT_FALSE(R.Outcome.ModelLoaded);
  EXPECT_NE(R.Outcome.Detail.find("shutting down"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Server request handling (transport-free)
//===----------------------------------------------------------------------===//

namespace {

/// A serve daemon with no transports; requests go through handleLine.
struct InProcessServer {
  InProcessServer() : Daemon(options()) {}
  static ServerOptions options() {
    ServerOptions Opts;
    Opts.Port = -1;
    Opts.Sched.Jobs = 2;
    return Opts;
  }
  Value handle(const std::string &Line, bool *WasShutdown = nullptr) {
    bool Flag = false;
    std::string Response = Daemon.handleLine(Line, Flag);
    if (WasShutdown)
      *WasShutdown = Flag;
    std::string Error;
    std::optional<Value> Doc = json::parse(Response, Error);
    EXPECT_TRUE(Doc.has_value()) << Response << " -> " << Error;
    return Doc ? *Doc : Value();
  }
  Server Daemon;
};

std::string smokeSpecText(double Epsilon) {
  ServeFixture &Fix = serveFixture();
  std::string S = "model " + Fix.ModelPath + "\noutput robust " +
                  std::to_string(Fix.Labels[0]) +
                  "\nalpha1 0.5\nepsilon " + std::to_string(Epsilon) +
                  "\ninput linf\n  center";
  char Buf[32];
  for (size_t I = 0; I < Fix.Samples[0].size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " %.17g", Fix.Samples[0][I]);
    S += Buf;
  }
  S += "\ninput linf\n  center";
  for (size_t I = 0; I < Fix.Samples[1].size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " %.17g", Fix.Samples[1][I]);
    S += Buf;
  }
  S += "\n";
  return S;
}

} // namespace

TEST(ServerTest, AnswersPingStatsAndInfo) {
  ServeFixture &Fix = serveFixture();
  InProcessServer S;
  Value Pong = S.handle("{\"id\":1,\"method\":\"ping\"}");
  EXPECT_TRUE(Pong.boolOr("ok", false));
  EXPECT_TRUE(Pong.boolOr("pong", false));
  EXPECT_EQ(Pong.numberOr("id", -1), 1.0);

  Request Info;
  Info.Id = 2;
  Info.Method = "info";
  Info.Model = Fix.ModelPath;
  Value InfoDoc = S.handle(encodeRequest(Info));
  EXPECT_TRUE(InfoDoc.boolOr("ok", false));
  EXPECT_EQ(InfoDoc.numberOr("input_dim", 0), 5.0);
  EXPECT_EQ(InfoDoc.numberOr("latent_dim", 0), 10.0);
  EXPECT_EQ(InfoDoc.numberOr("classes", 0), 3.0);
  char HashHex[24];
  std::snprintf(HashHex, sizeof(HashHex), "%016llx",
                (unsigned long long)Fix.ModelHash);
  EXPECT_EQ(InfoDoc.stringOr("hash", ""), HashHex);

  Value Stats = S.handle("{\"id\":3,\"method\":\"stats\"}");
  EXPECT_TRUE(Stats.boolOr("ok", false));
  ASSERT_NE(Stats.find("cache"), nullptr);
  ASSERT_NE(Stats.find("scheduler"), nullptr);
  EXPECT_EQ(Stats.find("models")->numberOr("loaded", -1), 1.0);
}

TEST(ServerTest, MetricsEnvelopeExposesRegistry) {
  InProcessServer S;
  Request Req;
  Req.Id = 11;
  Req.Method = "verify";
  Req.SpecText = smokeSpecText(0.015);
  Value Verify = S.handle(encodeRequest(Req));
  ASSERT_TRUE(Verify.boolOr("ok", false)) << Verify.serialize();

  Value M = S.handle("{\"id\":12,\"method\":\"metrics\"}");
  ASSERT_TRUE(M.boolOr("ok", false)) << M.serialize();
  EXPECT_EQ(M.numberOr("id", -1), 12.0);

  // Counters are process-wide totals: this daemon just served a verify,
  // so the serve series must have registered traffic.
  const Value *Counters = M.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_TRUE(Counters->isObject());
  EXPECT_GE(Counters->numberOr("serve.submitted", 0.0), 1.0);
  EXPECT_GE(Counters->numberOr("serve.executed", 0.0), 1.0);
  EXPECT_GE(Counters->numberOr("serve.batches", 0.0), 1.0);

  const Value *Gauges = M.find("gauges");
  ASSERT_NE(Gauges, nullptr);
  ASSERT_TRUE(Gauges->isObject());
  EXPECT_NE(Gauges->find("serve.max_batch"), nullptr);

  // Each histogram entry reports the full percentile readout.
  const Value *Hists = M.find("histograms");
  ASSERT_NE(Hists, nullptr);
  ASSERT_TRUE(Hists->isObject());
  const Value *QueueWait = Hists->find("serve.queue_wait_ns");
  ASSERT_NE(QueueWait, nullptr);
  for (const char *Key :
       {"count", "sum", "mean", "p50", "p95", "p99"})
    EXPECT_NE(QueueWait->find(Key), nullptr) << Key;

  // snapshotMetrics() sorts by name, so the envelope is deterministic.
  const auto &Names = Counters->members();
  for (size_t I = 1; I < Names.size(); ++I)
    EXPECT_LT(Names[I - 1].first, Names[I].first);
}

TEST(ServerTest, VerifyRequestRunsAndCachesBothQueries) {
  InProcessServer S;
  Request Req;
  Req.Id = 5;
  Req.Method = "verify";
  Req.SpecText = smokeSpecText(0.02);

  Value First = S.handle(encodeRequest(Req));
  ASSERT_TRUE(First.boolOr("ok", false)) << First.serialize();
  const Value *Results = First.find("results");
  ASSERT_NE(Results, nullptr);
  ASSERT_EQ(Results->elements().size(), 2u) << "two input blocks";
  for (const Value &R : Results->elements()) {
    EXPECT_TRUE(R.boolOr("certified", false)) << R.serialize();
    EXPECT_FALSE(R.boolOr("cached", true));
  }

  Value Second = S.handle(encodeRequest(Req));
  const Value *Results2 = Second.find("results");
  ASSERT_NE(Results2, nullptr);
  ASSERT_EQ(Results2->elements().size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    const Value &A = Results->elements()[I];
    const Value &B = Results2->elements()[I];
    EXPECT_TRUE(B.boolOr("cached", false)) << "second pass must hit";
    // Byte-identical payloads: every field except the transport-level
    // cached flag serializes identically.
    std::optional<WireResult> WA = decodeResult(A);
    std::optional<WireResult> WB = decodeResult(B);
    ASSERT_TRUE(WA && WB);
    WA->Cached = WB->Cached = false;
    EXPECT_EQ(encodeResult(*WA).serialize(), encodeResult(*WB).serialize());
  }
}

TEST(ServerTest, ReportsSpecDiagnosticsAndBadJson) {
  InProcessServer S;
  Value Bad = S.handle("this is not json");
  EXPECT_FALSE(Bad.boolOr("ok", true));
  EXPECT_NE(Bad.stringOr("error", "").find("json"), std::string::npos);

  Request Req;
  Req.Id = 9;
  Req.Method = "verify";
  Req.SpecText = "model m.bin\nbogus directive\n";
  Value Diag = S.handle(encodeRequest(Req));
  EXPECT_FALSE(Diag.boolOr("ok", true));
  const Value *Diags = Diag.find("diagnostics");
  ASSERT_NE(Diags, nullptr);
  EXPECT_GE(Diags->elements().size(), 1u);
}

TEST(ServerTest, ShutdownRequestSetsFlagAndAcks) {
  InProcessServer S;
  bool WasShutdown = false;
  Value Ack = S.handle("{\"id\":4,\"method\":\"shutdown\"}", &WasShutdown);
  EXPECT_TRUE(WasShutdown);
  EXPECT_TRUE(Ack.boolOr("ok", false));
  S.Daemon.shutdown();
  EXPECT_TRUE(S.Daemon.shuttingDown());
}
