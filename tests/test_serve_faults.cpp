//===- tests/test_serve_faults.cpp - Overload/failure hardening tests -----===//
//
// Drives every serve degradation path through the real in-process stack
// (scheduler, server, sockets, client): deterministic fault injection
// (CRAFT_FAULT sites), load shedding when the admission queue is full,
// per-request deadlines and their never-cached contract, graceful drain,
// client retry/reconnect, the stdio transport's shutdown responsiveness,
// id echo on malformed requests, and the connection cap.
//
//===----------------------------------------------------------------------===//

#include "nn/MonDeq.h"
#include "serve/Client.h"
#include "serve/ModelRegistry.h"
#include "serve/Protocol.h"
#include "serve/Scheduler.h"
#include "serve/Server.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/Socket.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace craft;
using namespace craft::serve;
using json::Value;

// This suite arms its own fault specs; an inherited CRAFT_FAULT (the CI
// chaos matrix exports one for the e2e daemons) must not pre-arm this
// process. Spend the env once-flag before any test runs.
static const bool FaultEnvNeutralized = [] {
  craft::fault::configure("");
  return true;
}();

namespace {

/// Movement of registry counter \p Name since \p Before. The serve series
/// are process-wide, so every count a test asserts is a delta.
uint64_t counterDelta(const telemetry::MetricsSnapshot &Before,
                      const std::string &Name) {
  auto Read = [&Name](const telemetry::MetricsSnapshot &S) -> uint64_t {
    for (const auto &[N, V] : S.Counters)
      if (N == Name)
        return V;
    return 0;
  };
  return Read(telemetry::snapshotMetrics()) - Read(Before);
}

/// Arms a fault spec for one test scope and always disarms on exit, so a
/// failing assertion cannot leak faults into the next test.
struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    std::string Error;
    Armed = fault::configure(Spec, &Error);
    EXPECT_TRUE(Armed) << Spec << " -> " << Error;
  }
  ~FaultGuard() { fault::configure(""); }
  bool Armed = false;
};

/// Tiny fixture model (untrained — verdicts are irrelevant here, only
/// determinism and plumbing are under test).
struct FaultFixture {
  std::string ModelPath = "/tmp/craft_faults_model.bin";
};

FaultFixture &faultFixture() {
  static FaultFixture *F = [] {
    auto *Out = new FaultFixture;
    Rng InitRng(41);
    MonDeq Model = MonDeq::randomFc(InitRng, 5, 8, 3, 3.0);
    Model.save(Out->ModelPath);
    return Out;
  }();
  return *F;
}

/// One in-memory verification query against the fixture model. Distinct
/// \p Salt values give distinct cache keys.
VerificationSpec faultSpec(double Epsilon, double Salt = 0.0,
                           bool Attack = false) {
  FaultFixture &Fix = faultFixture();
  VerificationSpec Spec;
  Spec.ModelPath = Fix.ModelPath;
  Spec.Center = Vector(5);
  for (size_t I = 0; I < 5; ++I)
    Spec.Center[I] = 0.2 + 0.1 * double(I) + Salt;
  Spec.Epsilon = Epsilon;
  Spec.TargetClass = 0;
  Spec.Alpha1 = 0.5;
  Spec.Attack = Attack;
  Spec.InLo = Vector(5);
  Spec.InHi = Vector(5);
  for (size_t I = 0; I < 5; ++I) {
    Spec.InLo[I] = Spec.Center[I] - Epsilon;
    Spec.InHi[I] = Spec.Center[I] + Epsilon;
  }
  return Spec;
}

/// Spec text form of faultSpec for the wire-level tests. \p Inputs adds
/// that many input blocks (distinct centers, one query each).
std::string faultSpecText(double Epsilon, bool Attack, int Inputs = 1,
                          double Salt = 0.0) {
  FaultFixture &Fix = faultFixture();
  std::string S = "model " + Fix.ModelPath +
                  "\noutput robust 0\nalpha1 0.5\nepsilon " +
                  std::to_string(Epsilon) + "\nattack " +
                  (Attack ? "on" : "off") + "\n";
  char Buf[32];
  for (int B = 0; B < Inputs; ++B) {
    S += "input linf\n  center";
    for (int I = 0; I < 5; ++I) {
      std::snprintf(Buf, sizeof(Buf), " %.17g",
                    0.2 + 0.1 * double(I) + 0.01 * double(B) + Salt);
      S += Buf;
    }
    S += "\n";
  }
  return S;
}

/// Everything test-visible about an outcome except wall time.
std::string outcomeSignature(const ServeResult &R) {
  const RunOutcome &O = R.Outcome;
  return "loaded=" + std::to_string(O.ModelLoaded) +
         ",err=" + std::to_string(O.Error) +
         ",dle=" + std::to_string(O.DeadlineExceeded) +
         ",cert=" + std::to_string(O.Certified) +
         ",ref=" + std::to_string(O.Refuted) +
         ",cached=" + std::to_string(R.Cached) +
         ",over=" + std::to_string(R.Overloaded) +
         ",drain=" + std::to_string(R.Draining) + ",detail=" + O.Detail;
}

/// An in-process daemon on an ephemeral TCP port.
struct TcpServer {
  explicit TcpServer(ServerOptions Opts) : Daemon((Opts.Port = 0, Opts)) {
    std::string Error;
    Started = Daemon.start(Error);
    EXPECT_TRUE(Started) << Error;
  }
  Server Daemon;
  bool Started = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Fault injection machinery
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, ConfigureValidatesSpecs) {
  std::string Error;
  EXPECT_TRUE(fault::configure(
      "socket.read:fail:every=3;model.load:fail:every=2,seed=7", &Error))
      << Error;
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::configure("bogus", &Error));
  EXPECT_FALSE(fault::configure("socket.read:fail", &Error));
  EXPECT_FALSE(fault::configure("nosite:fail:every=1", &Error));
  EXPECT_FALSE(fault::configure("socket.read:nokind:every=1", &Error));
  EXPECT_FALSE(fault::configure("socket.read:fail:every=0", &Error));
  EXPECT_FALSE(fault::configure("socket.read:fail:every=x", &Error));
  EXPECT_TRUE(fault::configure("", &Error)) << Error;
  EXPECT_FALSE(fault::armed());
}

TEST(FaultInjectionTest, CountersFireEveryNthDeterministically) {
  FaultGuard Guard("model.load:fail:every=3");
  // Unmatched sites never fire and disarmed processes pay only an atomic
  // load.
  EXPECT_EQ(fault::at("socket.read"), fault::Action::None);
  std::string Pattern;
  for (int I = 0; I < 9; ++I)
    Pattern += fault::at("model.load") == fault::Action::Fail ? 'F' : '.';
  EXPECT_EQ(Pattern, "..F..F..F");
  // Reconfiguring resets the counters: the pattern replays exactly.
  std::string Error;
  ASSERT_TRUE(fault::configure("model.load:fail:every=3", &Error)) << Error;
  std::string Replay;
  for (int I = 0; I < 9; ++I)
    Replay += fault::at("model.load") == fault::Action::Fail ? 'F' : '.';
  EXPECT_EQ(Replay, Pattern);
}

TEST(FaultInjectionTest, SeedShiftsTheFiringPhase) {
  FaultGuard Guard("model.load:fail:every=3,seed=1");
  std::string Pattern;
  for (int I = 0; I < 6; ++I)
    Pattern += fault::at("model.load") == fault::Action::Fail ? 'F' : '.';
  EXPECT_EQ(Pattern, ".F..F.");
}

TEST(FaultInjectionTest, ModelLoadFaultIsTransientNotPinned) {
  FaultGuard Guard("model.load:fail:every=2");
  ModelRegistry Reg;
  const std::string &Path = faultFixture().ModelPath;
  ModelRegistry::Entry A = Reg.get(Path); // Hit 1: passes.
  ASSERT_NE(A.Model, nullptr) << A.Error;
  ModelRegistry::Entry B = Reg.get(Path); // Hit 2: injected failure.
  EXPECT_EQ(B.Model, nullptr);
  EXPECT_NE(B.Error.find("injected fault"), std::string::npos) << B.Error;
  ModelRegistry::Entry C = Reg.get(Path); // Hit 3: heals.
  EXPECT_EQ(C.Model, A.Model)
      << "an injected load failure must not be negative-cached";
}

//===----------------------------------------------------------------------===//
// Scheduler: shedding, deadlines, dispatch faults
//===----------------------------------------------------------------------===//

TEST(SchedulerFaultTest, SubmitShedsWhenQueueFullWithoutBlocking) {
  const telemetry::MetricsSnapshot Before = telemetry::snapshotMetrics();
  Scheduler::Options Opts;
  Opts.Jobs = 1;
  Opts.MaxBatch = 1;
  Opts.QueueCapacity = 1;
  Scheduler Sched(Opts);

  // Occupy the dispatcher: a slow attack query plus a 25 ms dispatch
  // stall. The queue is then ours to fill while it runs.
  FaultGuard Guard("sched.dispatch:stall:every=1");
  std::future<ServeResult> Busy =
      Sched.submit(faultSpec(0.4, 0.0, /*Attack=*/true), false);
  // Wait until the dispatcher has popped it (the queue drains to 0);
  // from here it is busy for the stall + the verification.
  while (Sched.queueDepth() != 0 &&
         Busy.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready)
    std::this_thread::yield();

  std::future<ServeResult> Queued = Sched.submit(faultSpec(0.1, 1.0), false);
  std::future<ServeResult> Shed = Sched.submit(faultSpec(0.1, 2.0), false);
  // The shed future is ready IMMEDIATELY — while the queue still holds
  // the queued job — which is exactly what "submit never blocks on a
  // full queue" means.
  ASSERT_EQ(Shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "a shed submission must resolve without waiting on the queue";
  ServeResult ShedResult = Shed.get();
  EXPECT_TRUE(ShedResult.Overloaded);
  EXPECT_NE(ShedResult.Outcome.Detail.find("admission queue"),
            std::string::npos)
      << ShedResult.Outcome.Detail;
  EXPECT_GE(counterDelta(Before, "serve.shed"), 1u);

  ServeResult BusyResult = Busy.get();
  ServeResult QueuedResult = Queued.get();
  EXPECT_FALSE(BusyResult.Overloaded);
  EXPECT_FALSE(QueuedResult.Overloaded);
  EXPECT_TRUE(QueuedResult.Outcome.ModelLoaded)
      << "admitted work must still complete normally";
}

TEST(SchedulerFaultTest, DeadlineOutcomeIsNeverCached) {
  const telemetry::MetricsSnapshot Before = telemetry::snapshotMetrics();
  Scheduler::Options Opts;
  Opts.Jobs = 1;
  Scheduler Sched(Opts);
  VerificationSpec Spec = faultSpec(0.05);

  // Budget 0 ms: expired before dispatch, resolves DeadlineExceeded.
  ServeResult Expired = Sched.submit(Spec, true, 0.0).get();
  EXPECT_TRUE(Expired.Outcome.DeadlineExceeded)
      << Expired.Outcome.Detail;
  EXPECT_FALSE(Expired.Outcome.Certified);
  EXPECT_FALSE(Expired.Cached);
  EXPECT_GE(counterDelta(Before, "serve.deadline_expired"), 1u);

  // The SAME query without a deadline must execute fresh — a cache hit
  // here would mean the deadline outcome was memoized.
  ServeResult Fresh = Sched.submit(Spec).get();
  EXPECT_FALSE(Fresh.Cached)
      << "deadline outcomes must never be inserted into the cache";
  EXPECT_FALSE(Fresh.Outcome.DeadlineExceeded);
  ASSERT_TRUE(Fresh.Outcome.ModelLoaded) << Fresh.Outcome.Detail;

  // And the fresh outcome is cacheable as usual.
  ServeResult Hit = Sched.submit(Spec).get();
  EXPECT_TRUE(Hit.Cached);

  // A deadline query MAY be answered from the cache (instant and
  // deterministic) — only insertion is forbidden.
  ServeResult DeadlineHit = Sched.submit(Spec, true, 0.0).get();
  EXPECT_TRUE(DeadlineHit.Cached);
  EXPECT_FALSE(DeadlineHit.Outcome.DeadlineExceeded);
}

TEST(SchedulerFaultTest, DispatchFaultFailsTheBatchUncached) {
  VerificationSpec Spec = faultSpec(0.05, 3.0);
  {
    FaultGuard Guard("sched.dispatch:fail:every=1");
    Scheduler::Options Opts;
    Scheduler Sched(Opts);
    ServeResult R = Sched.submit(Spec).get();
    EXPECT_TRUE(R.Outcome.Error);
    EXPECT_NE(R.Outcome.Detail.find("injected fault"), std::string::npos)
        << R.Outcome.Detail;
  }
  // Faults disarmed: the same query on a fresh scheduler executes for
  // real — and on THIS scheduler the failure was not cached either.
  Scheduler::Options Opts;
  Scheduler Sched(Opts);
  ServeResult R = Sched.submit(Spec).get();
  EXPECT_FALSE(R.Cached);
  EXPECT_FALSE(R.Outcome.Error) << R.Outcome.Detail;
  ASSERT_TRUE(R.Outcome.ModelLoaded);
}

TEST(SchedulerFaultTest, DispatchStallDelaysButNeverChangesOutcomes) {
  VerificationSpec Spec = faultSpec(0.05, 4.0);
  ServeResult Baseline;
  {
    Scheduler::Options Opts;
    Scheduler Sched(Opts);
    Baseline = Sched.submit(Spec, false).get();
  }
  FaultGuard Guard("sched.dispatch:stall:every=1");
  Scheduler::Options Opts;
  Scheduler Sched(Opts);
  ServeResult Stalled = Sched.submit(Spec, false).get();
  EXPECT_EQ(outcomeSignature(Baseline), outcomeSignature(Stalled))
      << "a stall may cost wall time but must not change any outcome";
}

TEST(SchedulerFaultTest, ChaosScheduleIsDeterministic) {
  // A fixed operation sequence under a fixed fault spec must produce
  // identical test-visible outcomes on every run: per-rule counters are
  // the only fault state, and they reset on configure().
  auto runOnce = [] {
    std::string Error;
    EXPECT_TRUE(fault::configure(
        "model.load:fail:every=2;sched.dispatch:fail:every=3", &Error))
        << Error;
    Scheduler::Options Opts;
    Opts.Jobs = 1;
    Scheduler Sched(Opts);
    std::vector<std::string> Signatures;
    for (int I = 0; I < 6; ++I) {
      ServeResult R =
          Sched.submit(faultSpec(0.05, 10.0 + double(I)), false).get();
      Signatures.push_back(outcomeSignature(R));
    }
    return Signatures;
  };
  std::vector<std::string> First = runOnce();
  std::vector<std::string> Second = runOnce();
  fault::configure("");
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I], Second[I]) << "op " << I;
  // The spec actually bit: some ops failed, some survived.
  bool AnyInjected = false, AnySurvived = false;
  for (const std::string &S : First) {
    AnyInjected |= S.find("injected fault") != std::string::npos;
    AnySurvived |= S.find("err=0") != std::string::npos &&
                   S.find("loaded=1") != std::string::npos;
  }
  EXPECT_TRUE(AnyInjected) << "fault spec never fired";
  EXPECT_TRUE(AnySurvived) << "fault spec killed every op";
}

//===----------------------------------------------------------------------===//
// Wire level: deadlines, drain, socket faults, retries
//===----------------------------------------------------------------------===//

TEST(ServeFaultsTest, DeadlineExceededEndToEndOverTcp) {
  ServerOptions SO;
  SO.Sched.Jobs = 1;
  TcpServer S(SO);
  ASSERT_TRUE(S.Started);

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect(S.Daemon.boundPort(), Error)) << Error;

  const std::string Spec = faultSpecText(0.05, false);
  // Budget 0 ms: the deadline travels the wire, expires at the
  // scheduler, and the DeadlineExceeded outcome travels back losslessly.
  std::optional<VerifyReply> Expired =
      Client.verify(Spec, Error, true, /*DeadlineMs=*/0.0);
  ASSERT_TRUE(Expired.has_value()) << Error;
  ASSERT_EQ(Expired->Results.size(), 1u);
  EXPECT_TRUE(Expired->Results[0].Outcome.DeadlineExceeded)
      << Expired->Results[0].Outcome.Detail;
  EXPECT_FALSE(Expired->Results[0].Cached);

  // Identical query, no deadline: executes fresh (nothing was cached).
  std::optional<VerifyReply> Fresh = Client.verify(Spec, Error);
  ASSERT_TRUE(Fresh.has_value()) << Error;
  EXPECT_FALSE(Fresh->Results[0].Cached)
      << "the deadline outcome must not have been cached";
  EXPECT_FALSE(Fresh->Results[0].Outcome.DeadlineExceeded);

  std::optional<VerifyReply> Hit = Client.verify(Spec, Error);
  ASSERT_TRUE(Hit.has_value()) << Error;
  EXPECT_TRUE(Hit->Results[0].Cached);

  ASSERT_TRUE(Client.requestShutdown(Error)) << Error;
}

TEST(ServeFaultsTest, DrainFinishesAdmittedWorkAndRejectsNew) {
  ServerOptions SO;
  SO.Sched.Jobs = 1;
  TcpServer S(SO);
  ASSERT_TRUE(S.Started);
  const int Port = S.Daemon.boundPort();

  // Client A: a slow multi-query attack request, handled on its own
  // connection thread. Its queries are refuted by PGD's first restart,
  // before phase 2, in well under a millisecond each, so a 25 ms
  // dispatch stall keeps it in flight while B drains and submits.
  FaultGuard Guard("sched.dispatch:stall:every=1");
  const telemetry::MetricsSnapshot Before = telemetry::snapshotMetrics();
  std::string SlowError;
  std::optional<VerifyReply> SlowReply;
  std::thread A([&] {
    ServeClient Client;
    if (!Client.connect(Port, SlowError))
      return;
    SlowReply = Client.verify(faultSpecText(0.4, true, /*Inputs=*/4),
                              SlowError, false);
  });

  // Client B: wait until ALL of A's queries are admitted (draining
  // between two of A's submissions would reject the stragglers), then
  // drain.
  ServeClient B;
  std::string Error;
  ASSERT_TRUE(B.connect(Port, Error)) << Error;
  while (counterDelta(Before, "serve.submitted") < 4)
    std::this_thread::yield();
  ASSERT_TRUE(B.requestDrain(Error)) << Error;
  // The ack is written before the transport applies the drain (the
  // response must escape the socket first), so wait for the flag.
  while (!S.Daemon.draining() || !S.Daemon.scheduler().draining())
    std::this_thread::yield();

  // New work on the still-open connection is rejected with the
  // machine-readable draining code.
  std::optional<VerifyReply> Rejected =
      B.verify(faultSpecText(0.05, false, 1, 50.0), Error);
  EXPECT_FALSE(Rejected.has_value());
  EXPECT_EQ(B.lastErrorCode(), "draining") << Error;

  // A's in-flight request still finishes with a full reply.
  A.join();
  ASSERT_TRUE(SlowReply.has_value()) << SlowError;
  EXPECT_EQ(SlowReply->Results.size(), 4u);
  for (const WireResult &R : SlowReply->Results)
    EXPECT_FALSE(R.Outcome.Error) << R.Outcome.Detail;

  // And the daemon then shuts itself down (drain completes).
  for (int Waited = 0; Waited < 10000 && !S.Daemon.shuttingDown();
       Waited += 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(S.Daemon.shuttingDown())
      << "drain must end in a clean shutdown once in-flight work is done";
}

TEST(ServeFaultsTest, SocketFaultsSurfaceAsTransportErrors) {
  ServerOptions SO;
  TcpServer S(SO);
  ASSERT_TRUE(S.Started);

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connect(S.Daemon.boundPort(), Error)) << Error;

  {
    FaultGuard Guard("socket.write:fail:every=1");
    std::optional<Value> Doc =
        Client.roundTrip("{\"id\":1,\"method\":\"ping\"}", Error);
    EXPECT_FALSE(Doc.has_value());
    EXPECT_NE(Error.find("connection lost while sending"),
              std::string::npos)
        << Error;
  }
  {
    FaultGuard Guard("socket.read:fail:every=1");
    std::optional<Value> Doc =
        Client.roundTrip("{\"id\":2,\"method\":\"ping\"}", Error);
    EXPECT_FALSE(Doc.has_value());
    EXPECT_NE(Error.find("connection closed"), std::string::npos) << Error;
  }
  // Disarmed: a fresh connection works again (the failures were
  // injected, not real).
  ASSERT_TRUE(Client.reconnect(Error)) << Error;
  EXPECT_TRUE(Client.ping(Error)) << Error;
}

TEST(ServeFaultsTest, AcceptFaultsAreRetriedTransparently) {
  // Every other accept fails; pending connections survive in the backlog
  // and the accept loop's retry picks them up — clients never notice.
  FaultGuard Guard("socket.accept:fail:every=2");
  ServerOptions SO;
  TcpServer S(SO);
  ASSERT_TRUE(S.Started);
  for (int I = 0; I < 3; ++I) {
    ServeClient Client;
    std::string Error;
    ASSERT_TRUE(Client.connect(S.Daemon.boundPort(), Error)) << Error;
    EXPECT_TRUE(Client.ping(Error)) << "connection " << I << ": " << Error;
  }
}

TEST(ServeFaultsTest, ClientRetriesReconnectAndClassifiedRejections) {
  // A hand-rolled "flaky daemon": drops the first connection without
  // answering, answers the second with an overloaded rejection, then
  // serves a real pong. The retry layer must walk through all three.
  int Port = 0;
  std::string Error;
  SocketFd Listener = listenLocalhost(0, Port, Error);
  ASSERT_TRUE(Listener.valid()) << Error;

  std::atomic<int> Served{0};
  std::thread Fake([&] {
    // Connection 1: read the request, say nothing, hang up.
    {
      LineChannel Chan(acceptConnection(Listener));
      std::string Line;
      Chan.readLine(Line);
      Served.store(1);
    }
    // Connections 2..3 arrive on the reconnects.
    {
      LineChannel Chan(acceptConnection(Listener));
      std::string Line;
      if (Chan.readLine(Line))
        Chan.writeLine(makeErrorResponse(0, "try later", {}, "overloaded")
                           .serialize());
      // Same healthy connection: the overloaded retry does NOT
      // reconnect, so the next request arrives right here.
      if (Chan.readLine(Line)) {
        std::string E;
        std::optional<Value> Doc = json::parse(Line, E);
        Value Pong = Value::object();
        Pong.set("id", Value::number(
                           Doc ? Doc->numberOr("id", 0.0) : 0.0));
        Pong.set("ok", Value::boolean(true));
        Pong.set("pong", Value::boolean(true));
        Chan.writeLine(Pong.serialize());
        Served.store(2);
      }
    }
  });

  ServeClient Client;
  RetryPolicy Policy;
  Policy.MaxAttempts = 4;
  Policy.BackoffBaseMs = 1; // Keep the test fast; schedule still seeded.
  Client.setRetryPolicy(Policy);
  ASSERT_TRUE(Client.connect(Port, Error)) << Error;
  EXPECT_TRUE(Client.ping(Error))
      << "retry layer must survive a dropped connection and an "
         "overloaded rejection: "
      << Error;
  // Join before reading Served: the pong reaches the client a moment
  // before the fake server records having sent it.
  Fake.join();
  EXPECT_EQ(Served.load(), 2);
}

TEST(ServeFaultsTest, BackoffScheduleIsSeedDeterministic) {
  // Same seed, same jittered schedule — the client's sleeps derive from
  // taskSeed(Seed, attempt), never from wall time or global RNG state.
  auto schedule = [](uint64_t Seed) {
    std::vector<double> Out;
    for (int Attempt = 2; Attempt <= 5; ++Attempt) {
      Rng Jitter(taskSeed(Seed, static_cast<uint64_t>(Attempt)));
      Out.push_back(Jitter.uniform());
    }
    return Out;
  };
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_NE(schedule(7), schedule(8));
}

//===----------------------------------------------------------------------===//
// Transports: stdio shutdown, id echo, connection cap
//===----------------------------------------------------------------------===//

TEST(ServeFaultsTest, RunStdioUnblocksOnConcurrentShutdown) {
  int InPipe[2], OutPipe[2];
  ASSERT_EQ(::pipe(InPipe), 0);
  ASSERT_EQ(::pipe(OutPipe), 0);
  std::FILE *In = ::fdopen(InPipe[0], "r");
  std::FILE *Out = ::fdopen(OutPipe[1], "w");
  ASSERT_NE(In, nullptr);
  ASSERT_NE(Out, nullptr);

  ServerOptions SO;
  SO.Port = -1;
  Server Daemon(SO);
  std::thread T([&] { Daemon.runStdio(In, Out); });

  // Prove the loop is serving: ping over the pipe, read the pong.
  const char *Ping = "{\"id\":1,\"method\":\"ping\"}\n";
  ASSERT_EQ(::write(InPipe[1], Ping, std::strlen(Ping)),
            (ssize_t)std::strlen(Ping));
  std::string Response;
  char C;
  while (::read(OutPipe[0], &C, 1) == 1 && C != '\n')
    Response += C;
  EXPECT_NE(Response.find("\"pong\""), std::string::npos) << Response;

  // No EOF, no further input: a getline-based loop would now block
  // forever. The polling loop must notice the shutdown and return.
  Daemon.shutdown();
  T.join(); // Hangs (and times out the test) on regression.

  std::fclose(In);
  std::fclose(Out);
  ::close(InPipe[1]);
  ::close(OutPipe[0]);
}

TEST(ServeFaultsTest, ErrorEnvelopesEchoTheRequestId) {
  ServerOptions SO;
  SO.Port = -1;
  Server Daemon(SO);
  Server::LineOutcome Act;

  // Unknown method: well-formed JSON, undecodable request — the id must
  // come back so a pipelining client can correlate the failure.
  std::string Error;
  std::optional<Value> Doc = json::parse(
      Daemon.handleLine("{\"id\":42,\"method\":\"bogus\"}", Act), Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_FALSE(Doc->boolOr("ok", true));
  EXPECT_EQ(Doc->numberOr("id", -1.0), 42.0);

  // Missing method, id present: still echoed.
  Doc = json::parse(Daemon.handleLine("{\"id\":7,\"spec\":\"x\"}", Act),
                    Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->numberOr("id", -1.0), 7.0);

  // Unparseable line: no id to echo, 0 stands in.
  Doc = json::parse(Daemon.handleLine("not json at all", Act), Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  EXPECT_EQ(Doc->numberOr("id", -1.0), 0.0);
}

TEST(ServeFaultsTest, ConnectionCapAnswersOverloadedInsteadOfGrowing) {
  ServerOptions SO;
  SO.MaxConnections = 1;
  TcpServer S(SO);
  ASSERT_TRUE(S.Started);

  // First connection occupies the only slot (ping proves it is fully
  // registered before the second connect races in).
  ServeClient First;
  std::string Error;
  ASSERT_TRUE(First.connect(S.Daemon.boundPort(), Error)) << Error;
  ASSERT_TRUE(First.ping(Error)) << Error;

  // Second connection: accepted just long enough to be told why not.
  SocketFd Fd = connectLocalhost(S.Daemon.boundPort(), Error);
  ASSERT_TRUE(Fd.valid()) << Error;
  LineChannel Chan(std::move(Fd));
  std::string Line;
  ASSERT_TRUE(Chan.readLine(Line)) << "cap rejection must be answered";
  std::optional<Value> Doc = json::parse(Line, Error);
  ASSERT_TRUE(Doc.has_value()) << Line << " -> " << Error;
  EXPECT_FALSE(Doc->boolOr("ok", true));
  EXPECT_EQ(Doc->stringOr("code", ""), "overloaded");
  EXPECT_NE(Doc->stringOr("error", "").find("connection limit"),
            std::string::npos);

  // The first connection still works.
  EXPECT_TRUE(First.ping(Error)) << Error;
}
