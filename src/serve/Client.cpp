//===- serve/Client.cpp ---------------------------------------------------===//

#include "serve/Client.h"

#include "support/Rng.h"
#include "support/ThreadPool.h"

// craft-lint: allow(det-time) — retry backoff sleep only; wall time never
// reaches seeds, request payloads, or results.
#include <chrono>
#include <thread>

#include <algorithm>

using namespace craft;
using namespace craft::serve;
using json::Value;

bool ServeClient::connect(int Port, std::string &Error) {
  SocketFd Fd = connectLocalhost(Port, Error);
  if (!Fd.valid())
    return false;
  Chan = std::make_unique<LineChannel>(std::move(Fd));
  PortUsed = Port;
  if (Policy.TimeoutMs > 0)
    Chan->setRecvTimeoutMs(Policy.TimeoutMs);
  return true;
}

bool ServeClient::reconnect(std::string &Error) {
  Chan.reset();
  if (PortUsed < 0) {
    Error = "no previous connection to re-establish";
    return false;
  }
  return connect(PortUsed, Error);
}

void ServeClient::setRetryPolicy(const RetryPolicy &NewPolicy) {
  Policy = NewPolicy;
  if (Chan && Policy.TimeoutMs > 0)
    Chan->setRecvTimeoutMs(Policy.TimeoutMs);
}

std::optional<Value> ServeClient::roundTrip(const std::string &RequestLine,
                                            std::string &Error) {
  if (!Chan) {
    Error = "not connected";
    return std::nullopt;
  }
  if (!Chan->writeLine(RequestLine)) {
    Error = "connection lost while sending";
    return std::nullopt;
  }
  std::string Line;
  if (!Chan->readLine(Line)) {
    Error = Chan->timedOut() ? "request timed out"
                             : "connection closed before a response arrived";
    return std::nullopt;
  }
  std::optional<Value> Doc = json::parse(Line, Error);
  if (!Doc)
    return std::nullopt;
  if (!Doc->isObject()) {
    Error = "response is not a JSON object";
    return std::nullopt;
  }
  return Doc;
}

namespace {

/// Extracts the server's error (+ diagnostics) from an ok:false envelope.
std::string envelopeError(const Value &Doc) {
  std::string Message = Doc.stringOr("error", "unspecified server error");
  if (const Value *Diags = Doc.find("diagnostics"))
    if (Diags->isArray())
      for (const Value &D : Diags->elements())
        if (D.isString())
          Message += "\n  " + D.asString();
  return Message;
}

} // namespace

std::optional<Value>
ServeClient::idempotentRoundTrip(const Request &Req, std::string &Error) {
  LastErrorCode.clear();
  const std::string Line = encodeRequest(Req);
  const int Attempts = std::max(1, Policy.MaxAttempts);
  std::string LastError = "not connected";
  for (int Attempt = 1; Attempt <= Attempts; ++Attempt) {
    if (Attempt > 1) {
      // Deterministic jittered exponential backoff: base * 2^(n-1),
      // capped, scaled by a [0.5, 1.5) factor drawn from a per-attempt
      // seed — a fixed RetryPolicy::Seed replays the exact schedule.
      int Shift = std::min(Attempt - 2, 20);
      double BaseMs = std::min<double>(
          static_cast<double>(Policy.BackoffBaseMs) *
              static_cast<double>(1u << Shift),
          2000.0);
      Rng Jitter(taskSeed(Policy.Seed, static_cast<uint64_t>(Attempt)));
      double SleepMs = BaseMs * (0.5 + Jitter.uniform());
      // craft-lint: allow(det-time) — backoff sleep, not a timing source.
      std::chrono::microseconds Delay(static_cast<long>(SleepMs * 1e3));
      std::this_thread::sleep_for(Delay);
    }
    // A broken (or never-opened) transport is re-dialed before the
    // attempt; an unknown port fails the attempt without retrying the
    // dial storm.
    if (!Chan && !reconnect(LastError)) {
      LastErrorCode = "";
      continue;
    }
    std::optional<Value> Doc = roundTrip(Line, LastError);
    if (!Doc) {
      // Transport failure or timeout: the connection state is unknown
      // (a late response could desynchronize the stream), so drop it
      // and reconnect on the next attempt.
      Chan.reset();
      continue;
    }
    if (!Doc->boolOr("ok", false)) {
      LastErrorCode = Doc->stringOr("code", "");
      if (LastErrorCode == "overloaded") {
        // Shed at admission; the connection is healthy — back off and
        // re-send on the same transport.
        LastError = envelopeError(*Doc);
        continue;
      }
      if (LastErrorCode == "draining") {
        // This daemon is going away; reconnect (a supervisor may have
        // a replacement on the same port) and retry.
        LastError = envelopeError(*Doc);
        Chan.reset();
        continue;
      }
      // Non-retryable server error: hand the envelope to the caller.
      return Doc;
    }
    return Doc;
  }
  Error = LastError;
  return std::nullopt;
}

std::optional<VerifyReply> ServeClient::verify(const std::string &SpecText,
                                               std::string &Error,
                                               bool UseCache,
                                               double DeadlineMs) {
  Request Req;
  Req.Id = NextId++;
  Req.Method = "verify";
  Req.SpecText = SpecText;
  Req.UseCache = UseCache;
  Req.DeadlineMs = DeadlineMs;
  std::optional<Value> Doc = idempotentRoundTrip(Req, Error);
  if (!Doc)
    return std::nullopt;
  if (!Doc->boolOr("ok", false)) {
    Error = envelopeError(*Doc);
    return std::nullopt;
  }
  const Value *Results = Doc->find("results");
  if (!Results || !Results->isArray()) {
    Error = "verify response lacks a results array";
    return std::nullopt;
  }
  VerifyReply Reply;
  Reply.ServerMs = Doc->numberOr("server_ms", 0.0);
  for (const Value &R : Results->elements()) {
    std::optional<WireResult> W = decodeResult(R);
    if (!W) {
      Error = "malformed result object in verify response";
      return std::nullopt;
    }
    Reply.Results.push_back(std::move(*W));
  }
  return Reply;
}

bool ServeClient::ping(std::string &Error) {
  Request Req;
  Req.Id = NextId++;
  Req.Method = "ping";
  std::optional<Value> Doc = idempotentRoundTrip(Req, Error);
  if (Doc && !Doc->boolOr("ok", false))
    Error = envelopeError(*Doc);
  return Doc && Doc->boolOr("ok", false) && Doc->boolOr("pong", false);
}

std::optional<Value> ServeClient::metrics(std::string &Error) {
  Request Req;
  Req.Id = NextId++;
  Req.Method = "metrics";
  std::optional<Value> Doc = idempotentRoundTrip(Req, Error);
  if (!Doc)
    return std::nullopt;
  if (!Doc->boolOr("ok", false)) {
    Error = envelopeError(*Doc);
    return std::nullopt;
  }
  return Doc;
}

bool ServeClient::requestShutdown(std::string &Error) {
  Request Req;
  Req.Id = NextId++;
  Req.Method = "shutdown";
  std::optional<Value> Doc = roundTrip(encodeRequest(Req), Error);
  return Doc && Doc->boolOr("ok", false);
}

bool ServeClient::requestDrain(std::string &Error) {
  Request Req;
  Req.Id = NextId++;
  Req.Method = "drain";
  std::optional<Value> Doc = roundTrip(encodeRequest(Req), Error);
  if (Doc && !Doc->boolOr("ok", false)) {
    Error = envelopeError(*Doc);
    return false;
  }
  return Doc && Doc->boolOr("ok", false);
}
