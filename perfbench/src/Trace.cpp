//===- perfbench/src/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstring>

using namespace perfbench;
using namespace craft;

namespace {

/// The benchmark's spans around a whole call into the program.
bool enclosing(const char *Name) {
  return std::strcmp(Name, "tool.batch") == 0 ||
         std::strcmp(Name, "tool.split") == 0;
}

} // namespace

void trace::setEnabled(bool Enabled) {
  telemetry::setTraceEnabled(Enabled);
  telemetry::clearTrace();
}

void trace::Collector::drain() {
  std::vector<telemetry::SpanRecord> Spans = telemetry::traceSpans();
  telemetry::clearTrace();

  std::vector<std::pair<uint64_t, uint64_t>> Work;
  std::map<uint32_t, size_t> PerThread;
  for (const telemetry::SpanRecord &R : Spans) {
    Durations[R.Name].push_back(double(R.DurNs) / 1e6);
    if (!enclosing(R.Name))
      Work.emplace_back(R.StartNs, R.StartNs + R.DurNs);
    MaxPerThread = std::max(MaxPerThread, ++PerThread[R.Tid]);
  }

  // Union length of the work intervals.
  std::sort(Work.begin(), Work.end());
  uint64_t Lo = 0, Hi = 0;
  bool Open = false;
  for (const auto &[S, E] : Work) {
    if (Open && S <= Hi) {
      Hi = std::max(Hi, E);
      continue;
    }
    if (Open)
      CoveredNs += double(Hi - Lo);
    Lo = S;
    Hi = E;
    Open = true;
  }
  if (Open)
    CoveredNs += double(Hi - Lo);
}

const std::vector<double> &
trace::Collector::durationsMs(const std::string &Name) const {
  static const std::vector<double> Empty;
  auto It = Durations.find(Name);
  return It == Durations.end() ? Empty : It->second;
}

double trace::Collector::totalMs(const std::string &Name) const {
  double S = 0.0;
  for (double D : durationsMs(Name))
    S += D;
  return S;
}

uint64_t trace::counterIn(const telemetry::MetricsSnapshot &S,
                          const char *Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return 0;
}

telemetry::HistogramSnapshot
trace::histogramIn(const telemetry::MetricsSnapshot &S, const char *Name) {
  for (const auto &[N, H] : S.Histograms)
    if (N == Name)
      return H;
  return {};
}
