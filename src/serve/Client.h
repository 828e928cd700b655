//===- serve/Client.h - Serve protocol client library -----------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Client side of the serve protocol: connects to a `craft serve` daemon
/// on localhost, sends one newline-delimited JSON request per call, and
/// decodes the response. One connection per client; requests on a
/// connection are answered in order. The `craft client` subcommand, the
/// e2e test, and the bench_serve load generator all drive the daemon
/// through this class, so wire handling exists exactly once.
///
/// Resilience layer (opt-in via setRetryPolicy): per-request receive
/// timeouts, transparent reconnect, and deterministic jittered
/// exponential backoff. Retry classification:
///
///   | failure                          | retried?  | reconnects? |
///   |----------------------------------|-----------|-------------|
///   | connection lost / closed         | yes       | yes         |
///   | receive timeout                  | yes       | yes         |
///   | ok:false code "overloaded"       | yes       | no          |
///   | ok:false code "draining"         | yes       | yes         |
///   | any other ok:false               | no        | —           |
///
/// Only idempotent methods (verify, ping, metrics) go through the retry
/// wrapper; shutdown and drain are sent exactly once. Backoff jitter is
/// seeded from RetryPolicy::Seed through taskSeed, so a fixed seed gives
/// a byte-identical retry schedule — chaos tests rely on this.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SERVE_CLIENT_H
#define CRAFT_SERVE_CLIENT_H

#include "serve/Protocol.h"
#include "support/Socket.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace craft {
namespace serve {

/// A decoded verify response (the per-query results in request order).
struct VerifyReply {
  std::vector<WireResult> Results;
  double ServerMs = 0.0;
};

/// How hard the client tries before reporting a failure.
struct RetryPolicy {
  /// Total attempts per idempotent request (1 = no retries).
  int MaxAttempts = 1;
  /// Receive timeout per attempt in ms (0 = wait forever).
  int TimeoutMs = 0;
  /// First backoff delay; doubles per retry, capped at 2 s.
  int BackoffBaseMs = 10;
  /// Jitter stream seed (deterministic: same seed, same schedule).
  uint64_t Seed = 20230617;
};

/// Blocking localhost client for one serve connection.
class ServeClient {
public:
  /// Connects to 127.0.0.1:\p Port. False + \p Error on failure. The
  /// port is remembered for reconnects.
  bool connect(int Port, std::string &Error);

  /// Drops the current connection (if any) and dials the remembered
  /// port again. False + \p Error when no port is known or the dial
  /// fails.
  bool reconnect(std::string &Error);

  bool connected() const { return Chan != nullptr; }

  /// Installs the retry/timeout policy for subsequent idempotent
  /// requests. Applies the receive timeout to the live connection too.
  void setRetryPolicy(const RetryPolicy &Policy);

  /// Sends one raw request line and returns the parsed response
  /// envelope, or nullopt with \p Error set (transport or JSON failure).
  /// Single-shot: no retries at this layer.
  std::optional<json::Value> roundTrip(const std::string &RequestLine,
                                       std::string &Error);

  /// Verifies one spec text. On an ok:false envelope, returns nullopt
  /// with the server's error (and rendered diagnostics) in \p Error and
  /// the machine code (if any) in lastErrorCode(). \p DeadlineMs >= 0
  /// attaches a per-request wall-clock budget.
  std::optional<VerifyReply> verify(const std::string &SpecText,
                                    std::string &Error,
                                    bool UseCache = true,
                                    double DeadlineMs = -1.0);

  /// True when the daemon answers a ping.
  bool ping(std::string &Error);

  /// Fetches the full telemetry-registry snapshot (counters, gauges,
  /// histogram percentiles) as the `metrics` envelope.
  std::optional<json::Value> metrics(std::string &Error);

  /// Asks the daemon to shut down. True once the ack arrives. Never
  /// retried (a retry could kill a freshly restarted daemon).
  bool requestShutdown(std::string &Error);

  /// Asks the daemon to drain gracefully. True once the ack arrives.
  /// Never retried.
  bool requestDrain(std::string &Error);

  /// Machine-readable "code" from the last ok:false envelope ("",
  /// "overloaded", "draining"). Valid after a failed verify/ping/metrics.
  const std::string &lastErrorCode() const { return LastErrorCode; }

  void close() { Chan.reset(); }

private:
  /// Retry wrapper for idempotent requests: classifies each failure,
  /// reconnects when the transport broke, sleeps the jittered backoff,
  /// and re-sends until success or attempts run out.
  std::optional<json::Value> idempotentRoundTrip(const Request &Req,
                                                 std::string &Error);

  int64_t NextId = 1;
  int PortUsed = -1;
  RetryPolicy Policy;
  std::string LastErrorCode;
  std::unique_ptr<LineChannel> Chan;
};

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_CLIENT_H
