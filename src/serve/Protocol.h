//===- serve/Protocol.h - Newline-delimited JSON protocol -------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the `craft serve` daemon: one JSON object per
/// line, over stdio or a localhost TCP connection. This header holds the
/// protocol's three pieces:
///
///  - a minimal self-contained JSON value type with a strict parser and a
///    single-line writer (NDJSON framing forbids raw newlines; the writer
///    escapes them);
///  - the request schema:
///      {"id": <n>, "method": "verify", "spec": "<spec text>",
///       "cache": <bool, default true>,
///       "deadline_ms": <ms, optional: per-request wall-clock budget>}
///      {"id": <n>, "method": "info", "model": "<path>"}
///      {"id": <n>, "method": "stats" | "metrics" | "ping" | "drain" |
///       "shutdown"}
///  - the response schema:
///      {"id": <n>, "ok": true, "results": [<result>...],
///       "server_ms": <t>}           (verify)
///      {"id": <n>, "ok": true, ...method-specific fields...}
///      {"id": <n>, "ok": false, "error": "<message>",
///       "code": "<machine code, optional>",
///       "diagnostics": ["<spec errors>"...]}
///    where "code" (when present) classifies the failure for retry logic:
///    "overloaded" (shed at admission, retryable) or "draining" (daemon
///    drains, retryable against a replacement);
///    and each verify <result> mirrors RunOutcome plus a "cached" flag:
///      {"model_loaded", "deadline_exceeded", "certified", "containment",
///       "refuted", "margin_lower", "time_s", "certificate_written",
///       "attack_seed" (decimal string: uint64 exceeds double),
///       "detail", "cached",
///       "timings" (optional: the PhaseBreakdown, one number per
///        PhaseRows row of tool/Driver.h in that order, then
///        "solver_iterations"; absent when the server runs with
///        CRAFT_TELEMETRY=0)}
///
/// Encoding and decoding live here so the server, the client library, and
/// the tests round-trip through exactly one implementation.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SERVE_PROTOCOL_H
#define CRAFT_SERVE_PROTOCOL_H

#include "tool/Driver.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace craft {
namespace json {

/// A parsed JSON value. Object member order is preserved (the writer
/// emits members in insertion order, keeping encodings deterministic).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool B);
  static Value number(double N);
  static Value string(std::string S);
  static Value array();
  static Value object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  const std::string &asString() const { return Str; }
  const std::vector<Value> &elements() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Object lookup; null when absent or not an object.
  const Value *find(const std::string &Key) const;

  /// Typed member accessors with defaults (object receivers only).
  std::string stringOr(const std::string &Key,
                       const std::string &Default) const;
  double numberOr(const std::string &Key, double Default) const;
  bool boolOr(const std::string &Key, bool Default) const;

  /// Appends to an array value.
  void push(Value V) { Arr.push_back(std::move(V)); }
  /// Sets an object member (appends; last set wins on lookup ties).
  void set(const std::string &Key, Value V);

  /// Serializes onto one line (no raw newlines anywhere in the output).
  std::string serialize() const;

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Strict parse of one JSON document. Trailing non-whitespace, trailing
/// commas, comments, NaN/Infinity literals, and unpaired surrogates are
/// all rejected; \p Error gets a byte-offset diagnostic on failure.
std::optional<Value> parse(const std::string &Text, std::string &Error);

} // namespace json

namespace serve {

/// One decoded request line.
struct Request {
  /// Client-chosen correlation id, echoed on the response (0 if absent).
  int64_t Id = 0;
  /// "verify", "info", "stats", "metrics", "ping", "drain", "shutdown".
  std::string Method;
  std::string SpecText; ///< verify: the spec file contents.
  std::string Model;    ///< info: the model path.
  bool UseCache = true; ///< verify: false bypasses lookup and insertion.
  /// verify: wall-clock budget in ms (< 0 = none). Queries still
  /// unresolved when it expires answer deadline_exceeded.
  double DeadlineMs = -1.0;
};

/// Decodes one request line. On failure returns nullopt and fills
/// \p Error (the server answers with an ok:false envelope either way).
std::optional<Request> decodeRequest(const std::string &Line,
                                     std::string &Error);

/// Encodes \p Req as one request line (the client library's writer).
std::string encodeRequest(const Request &Req);

/// One per-query verify result as it crosses the wire.
struct WireResult {
  RunOutcome Outcome;
  bool Cached = false;
};

/// RunOutcome <-> JSON result object. Lossless for every field:
/// doubles travel as %.17g, the uint64 attack seed as a decimal string.
/// decodeResult rejects (nullopt) a negative, non-finite or out-of-range
/// timing or solver_iterations.
json::Value encodeResult(const WireResult &Result);
std::optional<WireResult> decodeResult(const json::Value &V);

/// Response envelope builders (all single-line serializable). \p Code,
/// when non-empty, is emitted as the machine-readable "code" member
/// ("overloaded" / "draining") that retry logic classifies on.
json::Value makeErrorResponse(int64_t Id, const std::string &Message,
                              const std::vector<std::string> &Diagnostics =
                                  {},
                              const std::string &Code = "");
json::Value makeVerifyResponse(int64_t Id,
                               const std::vector<WireResult> &Results,
                               double ServerMs);

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_PROTOCOL_H
