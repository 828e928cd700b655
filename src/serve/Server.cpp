//===- serve/Server.cpp ---------------------------------------------------===//

// craft-lint: allow-file(conc-thread) — the daemon owns one accepter, one
// reader thread per connection, a drain finisher, and a signal watcher by
// design; every one is joined in ~Server, and the tsan CI job runs this
// lifecycle under -fsanitize=thread.

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "support/Telemetry.h"
#include "support/Timer.h"
#include "support/TraceJson.h"
#include "tool/SpecParser.h"

// craft-lint: allow(det-time) — backoff sleep duration only; wall-clock
// values never reach seeds, iteration order, or result payloads.
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <poll.h>
#include <unistd.h>

using namespace craft;
using namespace craft::serve;
using json::Value;

namespace {

/// Write end of the live Server's signal pipe. The SIGTERM handler may
/// only touch async-signal-safe state, so it reads this atomic and
/// writes one byte; everything else happens on the watcher thread.
std::atomic<int> GSignalPipeW{-1};

extern "C" void craftOnSigterm(int) {
  int Fd = GSignalPipeW.load(std::memory_order_relaxed);
  if (Fd >= 0) {
    ssize_t Ignored = ::write(Fd, "T", 1);
    (void)Ignored;
  }
}

} // namespace

Server::Server(const ServerOptions &Opts) : Opts(Opts), Sched(Opts.Sched) {}

Server::~Server() {
  shutdown();
  if (Accepter.joinable())
    Accepter.join();
  // Connection threads and the signal watcher can both spawn the drain
  // finisher, so they are joined before it.
  std::list<Conn> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Threads.splice(Threads.end(), Conns);
  }
  for (Conn &C : Threads)
    if (C.T.joinable())
      C.T.join();
  if (SigWatcher.joinable())
    SigWatcher.join();
  if (DrainFinisher.joinable())
    DrainFinisher.join();
  if (SignalInstalled) {
    GSignalPipeW.store(-1);
    std::signal(SIGTERM, SIG_DFL);
  }
  for (int &Fd : SigPipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

bool Server::start(std::string &Error) {
  if (Opts.Port < 0)
    return true;
  Listener = listenLocalhost(Opts.Port, PortBound, Error);
  if (!Listener.valid())
    return false;
  Accepter = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::shutdown() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true))
    return;
  // Unblock the accept loop, then every connection reader.
  Listener.shutdownBoth();
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (SocketFd *Conn : OpenConns)
      Conn->shutdownBoth();
  }
  // Drain queued verification work; futures held by connection threads
  // resolve here, letting those threads run to completion.
  Sched.stop();
  // Every worker's spans are final now: dump the trace ring (no-op
  // unless tracing is armed). Stopping's compare-exchange above makes
  // this once-per-process even when shutdown races itself.
  {
    std::string TraceError;
    if (!tracejson::maybeWriteTrace(Opts.TraceOutPath, TraceError))
      std::fprintf(stderr, "craft-serve: %s\n", TraceError.c_str());
  }
  // Wake the drain finisher (waits on DrainCv) and the signal watcher
  // (blocks reading the pipe). The empty critical section orders the
  // notify after any in-progress predicate evaluation.
  { std::lock_guard<std::mutex> Lock(DrainMutex); }
  DrainCv.notify_all();
  if (SigPipe[1] >= 0) {
    ssize_t Ignored = ::write(SigPipe[1], "Q", 1);
    (void)Ignored;
  }
  ShutdownCv.notify_all();
}

void Server::beginDrain() {
  bool Expected = false;
  if (!DrainStarted.compare_exchange_strong(Expected, true))
    return;
  if (Stopping.load())
    return; // Already past graceful: shutdown won the race.
  // From here on new verify submissions answer "draining"; requests
  // already admitted keep running.
  Sched.beginDrain();
  // Stop accepting. Existing connections stay open so in-flight
  // responses (and "draining" rejections) can still go out.
  Listener.shutdownBoth();
  // The caller is typically a connection thread that still has to write
  // its own drain acknowledgement, so the wait happens on a helper.
  DrainFinisher = std::thread([this] {
    std::unique_lock<std::mutex> Lock(DrainMutex);
    DrainCv.wait(Lock, [this] {
      return ActiveRequests.load() == 0 || Stopping.load();
    });
    Lock.unlock();
    shutdown();
  });
}

bool Server::installSignalDrain() {
  if (SignalInstalled)
    return true;
  if (::pipe(SigPipe) != 0)
    return false;
  GSignalPipeW.store(SigPipe[1]);
  std::signal(SIGTERM, craftOnSigterm);
  SignalInstalled = true;
  SigWatcher = std::thread([this] {
    for (;;) {
      char C = 0;
      ssize_t N = ::read(SigPipe[0], &C, 1);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0 || C == 'Q')
        return; // shutdown() says stop (or the pipe died).
      if (C == 'T')
        beginDrain();
    }
  });
  return true;
}

void Server::waitForShutdown() {
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  ShutdownCv.wait(Lock, [this] { return Stopping.load(); });
}

void Server::reapConnections() {
  std::list<Conn> Finished;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto It = Conns.begin(); It != Conns.end();) {
      auto Next = std::next(It);
      if (It->Done.load())
        Finished.splice(Finished.end(), Conns, It);
      It = Next;
    }
  }
  for (Conn &C : Finished)
    if (C.T.joinable())
      C.T.join();
}

void Server::acceptLoop() {
  for (;;) {
    reapConnections();
    SocketFd Sock = acceptConnection(Listener);
    if (!Sock.valid()) {
      if (Stopping.load() || DrainStarted.load())
        return;
      // Back off before retrying: persistent failures (EMFILE under fd
      // exhaustion) would otherwise busy-spin this thread at 100% CPU.
      // craft-lint: allow(det-time) — retry backoff, not a timing source.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    size_t Live;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      if (Stopping.load() || DrainStarted.load())
        return; // Raced shutdown/drain: drop the connection.
      Live = Conns.size();
    }
    if (Live >= Opts.MaxConnections) {
      // Answer before closing so the client sees a classified rejection
      // instead of a silent reset.
      LineChannel Tmp(std::move(Sock));
      Tmp.writeLine(makeErrorResponse(0,
                                      "connection limit reached (" +
                                          std::to_string(
                                              Opts.MaxConnections) +
                                          ")",
                                      {}, "overloaded")
                        .serialize());
      continue;
    }
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (Stopping.load())
      return;
    Conns.emplace_back();
    Conn &C = Conns.back();
    // &C stays valid: list nodes never move, and this node is only
    // erased after Done is set (reap) or in ~Server (join first).
    C.T = std::thread(
        [this, &C](SocketFd S) {
          connectionLoop(std::move(S));
          C.Done.store(true);
        },
        std::move(Sock));
  }
}

void Server::connectionLoop(SocketFd Socket) {
  LineChannel Chan(std::move(Socket));
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    OpenConns.push_back(&Chan.socket());
  }
  std::string Line;
  while (!Stopping.load() && Chan.readLine(Line)) {
    if (Line.empty())
      continue; // Tolerate blank keep-alive lines.
    ActiveRequests.fetch_add(1);
    LineOutcome Act;
    std::string Response = handleLine(Line, Act);
    bool Wrote = Chan.writeLine(Response);
    {
      // Decrement under the mutex: otherwise the drain finisher could
      // evaluate its predicate between the decrement and the notify and
      // sleep through the final wakeup.
      std::lock_guard<std::mutex> Lock(DrainMutex);
      ActiveRequests.fetch_sub(1);
    }
    DrainCv.notify_all();
    if (Act.DrainRequested)
      beginDrain();
    if (Act.ShutdownRequested) {
      shutdown();
      break;
    }
    if (!Wrote)
      break;
  }
  std::lock_guard<std::mutex> Lock(ConnMutex);
  OpenConns.remove(&Chan.socket());
}

void Server::runStdio(std::FILE *In, std::FILE *Out) {
  // Raw-fd reads with poll, not stdio getline: a blocking getline would
  // ignore a concurrent shutdown/drain (TCP request, SIGTERM) until the
  // next input line arrived — possibly forever. The 100 ms poll tick
  // bounds how long a quiescent stdio transport outlives shutdown().
  const int Fd = ::fileno(In);
  std::string Pending;
  std::string Line;
  bool Eof = false;
  for (;;) {
    size_t Nl;
    while ((Nl = Pending.find('\n')) != std::string::npos) {
      Line.assign(Pending, 0, Nl);
      Pending.erase(0, Nl + 1);
      while (!Line.empty() &&
             (Line.back() == '\n' || Line.back() == '\r'))
        Line.pop_back();
      if (Line.empty())
        continue;
      LineOutcome Act;
      std::string Response = handleLine(Line, Act);
      std::fprintf(Out, "%s\n", Response.c_str());
      std::fflush(Out);
      if (Act.DrainRequested)
        beginDrain();
      if (Act.ShutdownRequested) {
        shutdown();
        return;
      }
      if (Stopping.load())
        return;
    }
    if (Eof || Stopping.load())
      return;
    struct pollfd Pfd;
    Pfd.fd = Fd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int Ready = ::poll(&Pfd, 1, /*timeout_ms=*/100);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (Ready == 0)
      continue; // Tick: recheck Stopping.
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Eof = true;
      // A final unterminated line still gets served (getline parity).
      if (!Pending.empty() && Pending.back() != '\n')
        Pending += '\n';
      continue;
    }
    Pending.append(Chunk, static_cast<size_t>(N));
  }
}

std::string Server::handleLine(const std::string &Line, LineOutcome &Act) {
  Act = LineOutcome();
  std::string Error;
  std::optional<Request> Req = decodeRequest(Line, Error);
  if (!Req) {
    // Echo the client's id when the line was well-formed JSON carrying
    // one, even though the request itself did not decode — a pipelining
    // client can then correlate the failure instead of seeing id 0.
    int64_t Id = 0;
    std::string ParseError;
    std::optional<Value> Doc = json::parse(Line, ParseError);
    if (Doc && Doc->isObject()) {
      const Value *IdV = Doc->find("id");
      if (IdV && IdV->isNumber()) {
        double D = IdV->asNumber();
        if (D >= -9.0e18 && D <= 9.0e18)
          Id = static_cast<int64_t>(D);
      }
    }
    return makeErrorResponse(Id, Error).serialize();
  }

  if (Req->Method == "ping") {
    Value Doc = Value::object();
    Doc.set("id", Value::number(static_cast<double>(Req->Id)));
    Doc.set("ok", Value::boolean(true));
    Doc.set("pong", Value::boolean(true));
    return Doc.serialize();
  }

  if (Req->Method == "shutdown") {
    Act.ShutdownRequested = true;
    Value Doc = Value::object();
    Doc.set("id", Value::number(static_cast<double>(Req->Id)));
    Doc.set("ok", Value::boolean(true));
    Doc.set("shutting_down", Value::boolean(true));
    return Doc.serialize();
  }

  if (Req->Method == "drain") {
    Act.DrainRequested = true;
    Value Doc = Value::object();
    Doc.set("id", Value::number(static_cast<double>(Req->Id)));
    Doc.set("ok", Value::boolean(true));
    Doc.set("draining", Value::boolean(true));
    return Doc.serialize();
  }

  if (Req->Method == "metrics") {
    // Full registry readout: every counter, gauge, and histogram in the
    // process, sorted by name (snapshotMetrics() orders them), so the
    // envelope is deterministic for a fixed traffic history.
    telemetry::MetricsSnapshot Snap = telemetry::snapshotMetrics();
    Value Doc = Value::object();
    Doc.set("id", Value::number(static_cast<double>(Req->Id)));
    Doc.set("ok", Value::boolean(true));
    Value Counters = Value::object();
    for (const auto &[Name, Total] : Snap.Counters)
      Counters.set(Name, Value::number(static_cast<double>(Total)));
    Doc.set("counters", std::move(Counters));
    Value Gauges = Value::object();
    for (const auto &[Name, V] : Snap.Gauges)
      Gauges.set(Name, Value::number(static_cast<double>(V)));
    Doc.set("gauges", std::move(Gauges));
    Value Hists = Value::object();
    for (const auto &[Name, H] : Snap.Histograms) {
      Value HV = Value::object();
      HV.set("count", Value::number(static_cast<double>(H.Count)));
      HV.set("sum", Value::number(static_cast<double>(H.Sum)));
      HV.set("mean", Value::number(H.mean()));
      HV.set("p50", Value::number(static_cast<double>(H.p50())));
      HV.set("p95", Value::number(static_cast<double>(H.p95())));
      HV.set("p99", Value::number(static_cast<double>(H.p99())));
      Hists.set(Name, std::move(HV));
    }
    Doc.set("histograms", std::move(Hists));
    return Doc.serialize();
  }

  if (Req->Method == "info") {
    ModelRegistry::Entry E = Sched.registry().get(Req->Model);
    if (!E.Model)
      return makeErrorResponse(Req->Id, E.Error).serialize();
    char HashHex[24];
    std::snprintf(HashHex, sizeof(HashHex), "%016llx",
                  static_cast<unsigned long long>(E.Hash));
    Value Doc = Value::object();
    Doc.set("id", Value::number(static_cast<double>(Req->Id)));
    Doc.set("ok", Value::boolean(true));
    Doc.set("model", Value::string(Req->Model));
    Doc.set("hash", Value::string(HashHex));
    Doc.set("input_dim",
            Value::number(static_cast<double>(E.Model->inputDim())));
    Doc.set("latent_dim",
            Value::number(static_cast<double>(E.Model->latentDim())));
    Doc.set("classes",
            Value::number(static_cast<double>(E.Model->outputDim())));
    Doc.set("activation",
            Value::string(activationName(E.Model->activation())));
    Doc.set("monotonicity", Value::number(E.Model->monotonicity()));
    return Doc.serialize();
  }

  // verify.
  WallTimer Clock;
  SpecParseResult Parsed = parseSpec(Req->SpecText, "<request>");
  if (!Parsed.ok()) {
    std::vector<std::string> Diags;
    for (const SpecDiagnostic &D : Parsed.Diagnostics)
      Diags.push_back(D.render("<request>"));
    return makeErrorResponse(Req->Id, "spec parse failed", Diags)
        .serialize();
  }
  // Submit every query before waiting on any: queries of one request are
  // admitted together and batch with whatever else is in flight.
  std::vector<std::future<ServeResult>> Futures;
  Futures.reserve(Parsed.Specs.size());
  for (const VerificationSpec &Spec : Parsed.Specs)
    Futures.push_back(Sched.submit(Spec, Req->UseCache, Req->DeadlineMs));
  std::vector<WireResult> Results;
  Results.reserve(Futures.size());
  bool AnyOverloaded = false;
  bool AnyDraining = false;
  for (std::future<ServeResult> &F : Futures) {
    ServeResult R = F.get();
    AnyOverloaded |= R.Overloaded;
    AnyDraining |= R.Draining;
    WireResult W;
    W.Outcome = std::move(R.Outcome);
    W.Cached = R.Cached;
    Results.push_back(std::move(W));
  }
  // Every future is consumed before answering: a partial request must
  // not leave orphaned futures behind. Shed/drain outrank any partial
  // results — the client retries the whole request.
  if (AnyOverloaded)
    return makeErrorResponse(Req->Id, "admission queue is full", {},
                             "overloaded")
        .serialize();
  if (AnyDraining)
    return makeErrorResponse(Req->Id, "server is draining", {}, "draining")
        .serialize();
  return makeVerifyResponse(Req->Id, Results, Clock.milliseconds())
      .serialize();
}
