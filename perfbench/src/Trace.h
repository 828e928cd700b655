//===- perfbench/src/Trace.h - Layer spans for the traced run ---*- C++ -*-===//
//
// The traced run measures layers two ways: the benchmark's own spans
// around each call it makes into a layer (TRACE_SPAN "tool.parse",
// "tool.batch", "tool.split"), and the spans the program already records
// (support/Telemetry.h: driver.query, craft.verify, craft.phase2,
// craft.consolidate, pgd.attack, split.wave, ...). Both land in the
// program's span rings. A Collector drains them after every operation, so
// the fixed-size rings never fill over a run, and folds them into per-name
// durations plus the wall time some span covered.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "support/Telemetry.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

/// Arms or disarms the program's span recording and clears its rings.
void setEnabled(bool Enabled);

/// Folded spans of the traced operations.
class Collector {
public:
  /// Drains every span recorded since the last drain and clears the rings.
  void drain();

  /// Durations in ms of every span named \p Name.
  const std::vector<double> &durationsMs(const std::string &Name) const;
  double totalMs(const std::string &Name) const;

  /// Wall time (ms) during which at least one span was open on any thread,
  /// not counting the benchmark's spans around a whole batch or
  /// certification: the program's own spans inside say where that time
  /// went.
  double coveredMs() const { return CoveredNs / 1e6; }

  /// Largest span count one thread produced between two drains; at the
  /// ring capacity the program may have evicted spans.
  size_t maxThreadSpansPerDrain() const { return MaxPerThread; }

private:
  std::map<std::string, std::vector<double>> Durations;
  double CoveredNs = 0.0;
  size_t MaxPerThread = 0;
};

/// A counter or histogram of a registry snapshot by name; 0 or empty when
/// the program does not register that series.
uint64_t counterIn(const craft::telemetry::MetricsSnapshot &S,
                   const char *Name);
craft::telemetry::HistogramSnapshot
histogramIn(const craft::telemetry::MetricsSnapshot &S, const char *Name);

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
