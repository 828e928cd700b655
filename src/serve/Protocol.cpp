//===- serve/Protocol.cpp -------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/TraceJson.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace craft;
using json::Value;

//===----------------------------------------------------------------------===//
// JSON value
//===----------------------------------------------------------------------===//

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

Value Value::number(double N) {
  Value V;
  V.K = Kind::Number;
  V.Num = N;
  return V;
}

Value Value::string(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

const Value *Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  // Last set wins: scan from the back.
  for (auto It = Obj.rbegin(); It != Obj.rend(); ++It)
    if (It->first == Key)
      return &It->second;
  return nullptr;
}

std::string Value::stringOr(const std::string &Key,
                            const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->Str : Default;
}

double Value::numberOr(const std::string &Key, double Default) const {
  const Value *V = find(Key);
  return V && V->isNumber() ? V->Num : Default;
}

bool Value::boolOr(const std::string &Key, bool Default) const {
  const Value *V = find(Key);
  return V && V->isBool() ? V->B : Default;
}

void Value::set(const std::string &Key, Value V) {
  Obj.emplace_back(Key, std::move(V));
}

namespace {

/// Reads numeric member \p Key of \p V (0 when absent) into \p Out; false
/// when negative, non-finite or not below \p Bound (casting such a double
/// to an integer is undefined behaviour; no duration is negative).
template <typename T>
bool readBelow(const Value &V, const char *Key, double Bound, T &Out) {
  const double N = V.numberOr(Key, 0.0);
  if (!(N >= 0.0 && N < Bound)) // NaN fails every comparison.
    return false;
  Out = static_cast<T>(N);
  return true;
}

void serializeInto(const Value &V, std::string &Out) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    break;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case Value::Kind::Number: {
    double N = V.asNumber();
    if (!std::isfinite(N)) { // JSON has no non-finite literals.
      Out += "null";
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", N);
    Out += Buf;
    break;
  }
  case Value::Kind::String:
    tracejson::appendJsonString(Out, V.asString());
    break;
  case Value::Kind::Array: {
    Out += '[';
    const auto &Elems = V.elements();
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out += ',';
      serializeInto(Elems[I], Out);
    }
    Out += ']';
    break;
  }
  case Value::Kind::Object: {
    Out += '{';
    const auto &Members = V.members();
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ',';
      tracejson::appendJsonString(Out, Members[I].first);
      Out += ':';
      serializeInto(Members[I].second, Out);
    }
    Out += '}';
    break;
  }
  }
}

} // namespace

std::string Value::serialize() const {
  std::string Out;
  serializeInto(*this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

namespace {

class JsonParser {
public:
  JsonParser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  std::optional<Value> run() {
    skipWs();
    Value V;
    if (!value(V))
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON document");
    return V;
  }

private:
  std::optional<Value> fail(const std::string &Message) {
    if (Error.empty())
      Error = "json: " + Message + " (byte " + std::to_string(Pos) + ")";
    return std::nullopt;
  }
  bool failB(const std::string &Message) {
    fail(Message);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return failB(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  bool value(Value &Out) {
    if (Pos >= Text.size())
      return failB("unexpected end of input");
    // Nesting is recursion: a hostile line of millions of '[' would
    // otherwise overflow the connection thread's stack.
    if (Depth >= MaxDepth)
      return failB("nesting deeper than 256 levels");
    ++Depth;
    bool Ok = valueInner(Out);
    --Depth;
    return Ok;
  }

  bool valueInner(Value &Out) {
    switch (Text[Pos]) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Value::null();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Value::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Value::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!stringBody(S))
        return false;
      Out = Value::string(std::move(S));
      return true;
    }
    case '[':
      return arrayBody(Out);
    case '{':
      return objectBody(Out);
    default:
      return numberBody(Out);
    }
  }

  bool numberBody(Value &Out) {
    // Validate the JSON number grammar first: strtod accepts more than
    // JSON does (hex, inf, nan, leading '+').
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    size_t DigitStart = Pos;
    while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
      ++Pos;
    if (Pos == DigitStart)
      return failB("invalid number");
    if (Text[DigitStart] == '0' && Pos - DigitStart > 1)
      return failB("leading zeros are not allowed");
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      size_t FracStart = Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos == FracStart)
        return failB("digits required after decimal point");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      size_t ExpStart = Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
      if (Pos == ExpStart)
        return failB("digits required in exponent");
    }
    errno = 0;
    double N = std::strtod(Text.c_str() + Start, nullptr);
    // Overflow to infinity is accepted as the closest representable
    // value semantics strtod gives; JSON itself places no range limit.
    Out = Value::number(N);
    return true;
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return failB("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return failB("invalid \\u escape digit");
    }
    return true;
  }

  void appendUtf8(std::string &S, unsigned Cp) {
    if (Cp < 0x80) {
      S += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      S += static_cast<char>(0xC0 | (Cp >> 6));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      S += static_cast<char>(0xE0 | (Cp >> 12));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      S += static_cast<char>(0xF0 | (Cp >> 18));
      S += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      S += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      S += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool stringBody(std::string &Out) {
    ++Pos; // Opening quote.
    for (;;) {
      if (Pos >= Text.size())
        return failB("unterminated string");
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return failB("raw control character in string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos;
      if (Pos >= Text.size())
        return failB("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp = 0;
        if (!hex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) { // High surrogate: need a pair.
          if (Text.compare(Pos, 2, "\\u") != 0)
            return failB("unpaired surrogate");
          Pos += 2;
          unsigned Lo = 0;
          if (!hex4(Lo))
            return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF)
            return failB("invalid low surrogate");
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return failB("unpaired surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return failB("unknown escape");
      }
    }
  }

  bool arrayBody(Value &Out) {
    ++Pos; // '['.
    Out = Value::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      Value Elem;
      if (!value(Elem))
        return false;
      Out.push(std::move(Elem));
      skipWs();
      if (Pos >= Text.size())
        return failB("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        skipWs();
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return failB("expected ',' or ']' in array");
    }
  }

  bool objectBody(Value &Out) {
    ++Pos; // '{'.
    Out = Value::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return failB("expected object key string");
      std::string Key;
      if (!stringBody(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return failB("expected ':' after object key");
      ++Pos;
      skipWs();
      Value Member;
      if (!value(Member))
        return false;
      Out.set(Key, std::move(Member));
      skipWs();
      if (Pos >= Text.size())
        return failB("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return failB("expected ',' or '}' in object");
    }
  }

  static constexpr int MaxDepth = 256;

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
  int Depth = 0;
};

} // namespace

std::optional<Value> json::parse(const std::string &Text,
                                 std::string &Error) {
  Error.clear();
  return JsonParser(Text, Error).run();
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::optional<serve::Request>
serve::decodeRequest(const std::string &Line, std::string &Error) {
  std::optional<Value> Doc = json::parse(Line, Error);
  if (!Doc)
    return std::nullopt;
  if (!Doc->isObject()) {
    Error = "request must be a JSON object";
    return std::nullopt;
  }
  Request Req;
  // Clamp before casting: converting a double outside int64 range (or
  // NaN) is undefined behavior, and the id is client-controlled.
  double Id = Doc->numberOr("id", 0.0);
  if (!(Id >= -9.0e18 && Id <= 9.0e18))
    Id = 0.0;
  Req.Id = static_cast<int64_t>(Id);
  Req.Method = Doc->stringOr("method", "");
  if (Req.Method.empty()) {
    Error = "request needs a string 'method'";
    return std::nullopt;
  }
  if (Req.Method == "verify") {
    const Value *Spec = Doc->find("spec");
    if (!Spec || !Spec->isString()) {
      Error = "verify request needs a string 'spec'";
      return std::nullopt;
    }
    Req.SpecText = Spec->asString();
    Req.UseCache = Doc->boolOr("cache", true);
    // NaN and negatives both normalize to "no deadline".
    double DeadlineMs = Doc->numberOr("deadline_ms", -1.0);
    Req.DeadlineMs = DeadlineMs >= 0.0 ? DeadlineMs : -1.0;
  } else if (Req.Method == "info") {
    const Value *Model = Doc->find("model");
    if (!Model || !Model->isString()) {
      Error = "info request needs a string 'model'";
      return std::nullopt;
    }
    Req.Model = Model->asString();
  } else if (Req.Method != "stats" && Req.Method != "metrics" &&
             Req.Method != "ping" && Req.Method != "drain" &&
             Req.Method != "shutdown") {
    Error = "unknown method '" + Req.Method + "'";
    return std::nullopt;
  }
  return Req;
}

std::string serve::encodeRequest(const Request &Req) {
  Value Doc = Value::object();
  Doc.set("id", Value::number(static_cast<double>(Req.Id)));
  Doc.set("method", Value::string(Req.Method));
  if (Req.Method == "verify") {
    Doc.set("spec", Value::string(Req.SpecText));
    if (!Req.UseCache)
      Doc.set("cache", Value::boolean(false));
    if (Req.DeadlineMs >= 0.0)
      Doc.set("deadline_ms", Value::number(Req.DeadlineMs));
  } else if (Req.Method == "info") {
    Doc.set("model", Value::string(Req.Model));
  }
  return Doc.serialize();
}

//===----------------------------------------------------------------------===//
// Results and responses
//===----------------------------------------------------------------------===//

Value serve::encodeResult(const WireResult &Result) {
  const RunOutcome &Out = Result.Outcome;
  Value V = Value::object();
  V.set("model_loaded", Value::boolean(Out.ModelLoaded));
  V.set("error", Value::boolean(Out.Error));
  V.set("deadline_exceeded", Value::boolean(Out.DeadlineExceeded));
  V.set("certified", Value::boolean(Out.Certified));
  V.set("containment", Value::boolean(Out.Containment));
  V.set("refuted", Value::boolean(Out.Refuted));
  if (!Out.Counterexample.empty()) {
    // %.17g numbers round-trip doubles losslessly, so the witness a
    // client prints is bit-identical to the one the server found.
    Value Cx = Value::array();
    for (double C : Out.Counterexample)
      Cx.push(Value::number(C));
    V.set("counterexample", std::move(Cx));
  }
  V.set("margin_lower", Value::number(Out.MarginLower));
  V.set("time_s", Value::number(Out.TimeSeconds));
  V.set("certificate_written", Value::boolean(Out.CertificateWritten));
  V.set("attack_seed", Value::string(std::to_string(Out.AttackSeed)));
  V.set("detail", Value::string(Out.Detail));
  V.set("cached", Value::boolean(Result.Cached));
  if (Out.Phases.Populated) {
    // Optional phase breakdown (absent when the server runs with
    // CRAFT_TELEMETRY=0). Appended after the long-standing fields so
    // telemetry-off envelopes stay byte-identical to earlier releases.
    const PhaseBreakdown &Ph = Out.Phases;
    Value T = Value::object();
    for (const PhaseRow &Row : PhaseRows)
      T.set(Row.Key, Value::number(Ph.*Row.Ms));
    T.set(SolverIterationsKey,
          Value::number(static_cast<double>(Ph.SolverIterations)));
    V.set("timings", std::move(T));
  }
  return V;
}

std::optional<serve::WireResult>
serve::decodeResult(const Value &V) {
  if (!V.isObject())
    return std::nullopt;
  WireResult R;
  R.Outcome.ModelLoaded = V.boolOr("model_loaded", false);
  R.Outcome.Error = V.boolOr("error", false);
  R.Outcome.DeadlineExceeded = V.boolOr("deadline_exceeded", false);
  R.Outcome.Certified = V.boolOr("certified", false);
  R.Outcome.Containment = V.boolOr("containment", false);
  R.Outcome.Refuted = V.boolOr("refuted", false);
  if (const Value *Cx = V.find("counterexample")) {
    if (!Cx->isArray())
      return std::nullopt;
    Vector Witness(Cx->elements().size());
    for (size_t I = 0; I < Cx->elements().size(); ++I) {
      if (!Cx->elements()[I].isNumber())
        return std::nullopt;
      Witness[I] = Cx->elements()[I].asNumber();
    }
    R.Outcome.Counterexample = std::move(Witness);
  }
  R.Outcome.MarginLower = V.numberOr("margin_lower", -1e300);
  R.Outcome.TimeSeconds = V.numberOr("time_s", 0.0);
  R.Outcome.CertificateWritten = V.boolOr("certificate_written", false);
  const std::string Seed = V.stringOr("attack_seed", "0");
  errno = 0;
  char *End = nullptr;
  unsigned long long S = std::strtoull(Seed.c_str(), &End, 10);
  if (End == Seed.c_str() || *End != '\0' || errno == ERANGE)
    return std::nullopt;
  R.Outcome.AttackSeed = S;
  R.Outcome.Detail = V.stringOr("detail", "");
  R.Cached = V.boolOr("cached", false);
  if (const Value *T = V.find("timings")) {
    if (!T->isObject())
      return std::nullopt;
    PhaseBreakdown &Ph = R.Outcome.Phases;
    Ph.Populated = true;
    for (const PhaseRow &Row : PhaseRows)
      if (!readBelow(*T, Row.Key, HUGE_VAL, Ph.*Row.Ms))
        return std::nullopt;
    if (!readBelow(*T, SolverIterationsKey, 0x1p64, Ph.SolverIterations))
      return std::nullopt;
  }
  return R;
}

Value serve::makeErrorResponse(int64_t Id, const std::string &Message,
                               const std::vector<std::string> &Diagnostics,
                               const std::string &Code) {
  Value Doc = Value::object();
  Doc.set("id", Value::number(static_cast<double>(Id)));
  Doc.set("ok", Value::boolean(false));
  Doc.set("error", Value::string(Message));
  if (!Code.empty())
    Doc.set("code", Value::string(Code));
  if (!Diagnostics.empty()) {
    Value Arr = Value::array();
    for (const std::string &D : Diagnostics)
      Arr.push(Value::string(D));
    Doc.set("diagnostics", std::move(Arr));
  }
  return Doc;
}

Value serve::makeVerifyResponse(int64_t Id,
                                const std::vector<WireResult> &Results,
                                double ServerMs) {
  Value Doc = Value::object();
  Doc.set("id", Value::number(static_cast<double>(Id)));
  Doc.set("ok", Value::boolean(true));
  Value Arr = Value::array();
  for (const WireResult &R : Results)
    Arr.push(encodeResult(R));
  Doc.set("results", std::move(Arr));
  Doc.set("server_ms", Value::number(ServerMs));
  return Doc;
}
