//===- support/TraceJson.cpp - Chrome trace_event export ------------------===//
//
// Stack reconstruction: records arrive sorted by (tid, start, depth); a
// record opens after every already-open span that ended at or before its
// start has been closed. Because each record carries its own end time,
// the emitted B/E stream is balanced and properly nested per thread by
// construction — the property trace viewers require and the tests pin.
//
// JSON is assembled by hand (the json:: value type lives in serve/, a
// layer above support/). Timestamps are microseconds with nanosecond
// decimals, the trace_event convention.
//
//===----------------------------------------------------------------------===//

#include "support/TraceJson.h"

#include "support/Telemetry.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace craft {
namespace tracejson {

void appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
    case '\\':
      Out += '\\';
      Out += static_cast<char>(C);
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
}

namespace {

/// Microsecond timestamp with ns precision, e.g. 12.345.
std::string microseconds(uint64_t Ns) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
  return Buf;
}

void appendEvent(std::string &Out, bool &First, char Phase, const char *Name,
                 uint32_t Tid, uint64_t TsNs) {
  if (!First)
    Out += ",\n";
  First = false;
  Out += "  {\"name\": ";
  appendJsonString(Out, Name);
  Out += ", \"ph\": \"";
  Out += Phase;
  Out += "\", \"pid\": 1, \"tid\": ";
  Out += std::to_string(Tid);
  Out += ", \"ts\": ";
  Out += microseconds(TsNs);
  Out += "}";
}

} // namespace

std::string toChromeTraceJson() {
  std::vector<telemetry::SpanRecord> Records = telemetry::traceSpans();

  std::string Out = "{\"traceEvents\": [\n";
  bool First = true;

  for (const auto &[Tid, Label] : telemetry::traceThreadLabels()) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": ";
    Out += std::to_string(Tid);
    Out += ", \"args\": {\"name\": ";
    appendJsonString(Out, Label);
    Out += "}}";
  }

  // Records are sorted by (tid, start, depth); one open-span stack per
  // thread run. A parent's record sorts before its children (same start
  // implies lower depth first), and stack tops that ended before the next
  // record starts are closed first, so nesting comes out proper.
  struct Open {
    const char *Name;
    uint64_t EndNs;
  };
  std::vector<Open> Stack;
  size_t I = 0;
  while (I < Records.size()) {
    uint32_t Tid = Records[I].Tid;
    Stack.clear();
    for (; I < Records.size() && Records[I].Tid == Tid; ++I) {
      const telemetry::SpanRecord &Rec = Records[I];
      while (!Stack.empty() && Stack.back().EndNs <= Rec.StartNs) {
        appendEvent(Out, First, 'E', Stack.back().Name, Tid,
                    Stack.back().EndNs);
        Stack.pop_back();
      }
      appendEvent(Out, First, 'B', Rec.Name, Tid, Rec.StartNs);
      Stack.push_back({Rec.Name, Rec.StartNs + Rec.DurNs});
    }
    while (!Stack.empty()) {
      appendEvent(Out, First, 'E', Stack.back().Name, Tid,
                  Stack.back().EndNs);
      Stack.pop_back();
    }
  }

  Out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return Out;
}

bool writeTraceFile(const std::string &Path, std::string &Error) {
  std::string Doc = toChromeTraceJson();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok)
    Error = "short write to '" + Path + "'";
  return Ok;
}

bool maybeWriteTrace(const std::string &ExplicitPath, std::string &Error) {
  if (!telemetry::traceEnabled())
    return true;
  std::string Path = ExplicitPath;
  if (Path.empty()) {
    const char *Env = std::getenv("CRAFT_TRACE_OUT");
    Path = Env && *Env ? Env : "craft_trace.json";
  }
  return writeTraceFile(Path, Error);
}

} // namespace tracejson
} // namespace craft
