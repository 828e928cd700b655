//===- serve/Server.h - The craft serve daemon ------------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running verification service behind `craft serve`: accepts
/// newline-delimited JSON requests (serve/Protocol.h) over stdio and/or a
/// loopback TCP socket, and answers them through the admission scheduler
/// (model registry + result cache + batched dispatch). Each TCP
/// connection gets one reader thread that handles its requests in order;
/// concurrency across connections is what the scheduler gathers into
/// batches. Finished connection threads are reaped by the accept loop so
/// a long-lived daemon does not accumulate dead threads, and a
/// max-connections cap turns further connects into an immediate
/// "overloaded" envelope rather than unbounded thread growth.
///
/// Two ways down:
///
///  - A `shutdown` request (from any transport) stops the accept loop,
///    unblocks every connection, drains in-flight work, and lets
///    `craft serve` exit 0 — the clean-shutdown contract the e2e test
///    pins.
///  - A `drain` request or SIGTERM (after installSignalDrain()) is the
///    graceful variant: stop accepting, answer new verify requests with
///    an ok:false "draining" envelope, let in-flight requests finish and
///    their responses go out, then shut down exactly as above.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SERVE_SERVER_H
#define CRAFT_SERVE_SERVER_H

#include "serve/Scheduler.h"
#include "support/Socket.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <list>
#include <mutex>
#include <thread>

namespace craft {
namespace serve {

/// Daemon configuration (the `craft serve` flags map 1:1 onto this).
struct ServerOptions {
  /// TCP listen port on 127.0.0.1; -1 = no TCP transport, 0 = pick an
  /// ephemeral port (read it back via boundPort()).
  int Port = -1;
  /// Accepted-connection cap. A connect past the cap is answered with an
  /// ok:false "overloaded" envelope and closed instead of spawning a
  /// reader thread.
  size_t MaxConnections = 256;
  /// When tracing is armed (`craft serve --trace-out`, CRAFT_TRACE=1),
  /// shutdown() dumps the span ring as Chrome trace JSON here. Empty
  /// falls back to $CRAFT_TRACE_OUT, then "craft_trace.json".
  std::string TraceOutPath;
  Scheduler::Options Sched;
};

/// The serve daemon. Construct, start() (TCP) and/or runStdio(), then
/// waitForShutdown(); destruction joins everything.
class Server {
public:
  explicit Server(const ServerOptions &Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the TCP transport and starts the accept loop. Returns false
  /// with a message in \p Error when the port cannot be bound. No-op
  /// when Options.Port is -1.
  bool start(std::string &Error);

  /// The bound TCP port (valid after a successful start()).
  int boundPort() const { return PortBound; }

  /// Serves newline-delimited requests from \p In to \p Out until EOF or
  /// a shutdown request. Blocking; call from the main thread. Polls for
  /// input so a concurrent shutdown()/drain (TCP request, SIGTERM) also
  /// ends the loop — it never sits in a blocking read ignoring them.
  void runStdio(std::FILE *In, std::FILE *Out);

  /// Blocks until a shutdown request arrives (any transport) or
  /// shutdown() is called.
  void waitForShutdown();

  /// Initiates shutdown: stops accepting, unblocks connections, drains
  /// the scheduler. Idempotent, callable from any thread.
  void shutdown();

  /// Initiates a graceful drain: stops accepting connections, makes the
  /// scheduler answer new verify submissions with "draining", waits (on
  /// a helper thread) for in-flight requests to finish writing their
  /// responses, then calls shutdown(). Idempotent, callable from any
  /// thread, including concurrently with shutdown().
  void beginDrain();

  /// True once a drain was requested (possibly still finishing).
  bool draining() const { return DrainStarted.load(); }

  /// True once shutdown was requested.
  bool shuttingDown() const { return Stopping.load(); }

  /// Routes SIGTERM to beginDrain() via a self-pipe: the handler only
  /// writes one byte (async-signal-safe); a watcher thread does the
  /// actual drain. Returns false when the pipe cannot be created.
  /// Process-wide — install from at most one live Server.
  bool installSignalDrain();

  Scheduler &scheduler() { return Sched; }

  /// What a handled line asks the transport to do next. The transport
  /// must write the response first and only then act — shutdown() closes
  /// the very socket the response goes out on.
  struct LineOutcome {
    bool ShutdownRequested = false;
    bool DrainRequested = false;
  };

  /// Handles one request line and returns the one response line (no
  /// trailing newline). Public: the transports, the tests, and any
  /// embedded caller use the same entry point.
  std::string handleLine(const std::string &Line, LineOutcome &Out);

private:
  void acceptLoop();
  void connectionLoop(SocketFd Socket);
  /// Joins connection threads whose loops have finished (called from the
  /// accept loop, so a long-lived daemon never accumulates dead
  /// threads). Joins outside ConnMutex: connectionLoop's final
  /// deregistration needs that mutex.
  void reapConnections();

  ServerOptions Opts;
  Scheduler Sched;

  SocketFd Listener;
  int PortBound = -1;
  // craft-lint: allow(conc-thread) — accepter is joined in ~Server.
  std::thread Accepter;

  /// Live connection sockets, so shutdown can unblock their readers.
  std::mutex ConnMutex;
  std::list<SocketFd *> OpenConns;
  /// One entry per connection reader; Done flips when its loop returns,
  /// making the thread reapable.
  struct Conn {
    // craft-lint: allow(conc-thread) — reaped by the accept loop or
    // joined in ~Server.
    std::thread T;
    std::atomic<bool> Done{false};
  };
  std::list<Conn> Conns;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> DrainStarted{false};
  std::mutex ShutdownMutex;
  std::condition_variable ShutdownCv;

  /// Requests currently between decode and response write; drain waits
  /// for this to hit zero. Decremented under DrainMutex so the finisher
  /// cannot miss the final wakeup.
  std::atomic<int> ActiveRequests{0};
  std::mutex DrainMutex;
  std::condition_variable DrainCv;
  // craft-lint: allow(conc-thread) — joined in ~Server after every
  // thread that could spawn it.
  std::thread DrainFinisher;

  /// SIGTERM self-pipe ([0] read end for the watcher, [1] write end for
  /// the handler) and the watcher thread that turns 'T' bytes into
  /// beginDrain().
  int SigPipe[2] = {-1, -1};
  bool SignalInstalled = false;
  // craft-lint: allow(conc-thread) — joined in ~Server.
  std::thread SigWatcher;
};

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_SERVER_H
