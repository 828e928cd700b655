//===- support/TraceJson.h - Chrome trace_event export ----------*- C++ -*-===//
//
// Exports the telemetry span rings (support/Telemetry.h) as Chrome
// trace_event JSON — the {"traceEvents": [...]} format that
// chrome://tracing and Perfetto load directly.
//
// Spans are recorded as completed (start, duration) pairs, so the
// exporter reconstructs each thread's nesting stack and emits a balanced,
// properly nested B/E event stream per thread: a B is always closed by
// its own E, even after ring eviction dropped neighbours. Thread labels
// registered via setCurrentThreadLabel become thread_name metadata
// events. tools/trace_check.py and tests/test_telemetry.cpp both pin
// this well-formedness.
//
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SUPPORT_TRACEJSON_H
#define CRAFT_SUPPORT_TRACEJSON_H

#include <string>
#include <string_view>

namespace craft {
namespace tracejson {

/// Appends \p S to \p Out as a quoted JSON string (short escapes for
/// " \ \n \r \t \b \f, \u00XX for other control characters). The
/// serve protocol's writer uses it too.
void appendJsonString(std::string &Out, std::string_view S);

/// Serializes every recorded span as one Chrome trace_event JSON
/// document. Deterministic for a fixed set of records; an empty ring
/// yields a valid document with an empty traceEvents array.
std::string toChromeTraceJson();

/// Writes toChromeTraceJson() to \p Path. False + \p Error on I/O
/// failure.
bool writeTraceFile(const std::string &Path, std::string &Error);

/// Shutdown hook: when tracing is armed (telemetry::traceEnabled()),
/// writes the ring to \p ExplicitPath if non-empty, else to
/// $CRAFT_TRACE_OUT, else to "craft_trace.json". No-op (returning true)
/// when tracing is off. Returns false + \p Error only on write failure.
bool maybeWriteTrace(const std::string &ExplicitPath, std::string &Error);

} // namespace tracejson
} // namespace craft

#endif // CRAFT_SUPPORT_TRACEJSON_H
