//===- support/Telemetry.h - Metrics registry and span tracer ---*- C++ -*-===//
//
// Process-wide observability substrate: a MetricsRegistry of named
// monotonic counters, gauges, and fixed-bucket log-scale histograms
// (p50/p95/p99 readout), plus a Tracer of nestable spans exportable as
// Chrome trace_event JSON (see support/TraceJson.h).
//
// Hot-path contract:
//  - Counter::add / Histogram::observe are one relaxed fetch_add on a
//    per-thread shard; name resolution happens once, at handle creation.
//    Registration takes a mutex, so resolve handles at namespace scope or
//    construction time, never per call.
//  - Shards are folded on read (value() / snapshotMetrics()); a thread
//    that exits retires its shard into plain totals, so counts survive
//    worker churn.
//
// Determinism contract:
//  - This header contains no clock access; the single clock of the
//    telemetry layer (monotonicNanos) lives in Telemetry.cpp, which is a
//    lint-sanctioned timing TU alongside support/Timer.h. Instrumentation
//    macros in core/serve headers therefore never trip `det-time`.
//  - Telemetry never branches computation: counters and histograms always
//    count (they back functional stats like the serve cache hit rate),
//    while clock reads (spans, PhaseTimer) are skipped entirely when
//    CRAFT_TELEMETRY=0. Either way, verification outcomes are
//    byte-identical — pinned by tests/test_telemetry.cpp.
//
// Switches:
//  - CRAFT_TELEMETRY=0  disables all clock reads (timingEnabled()).
//  - CRAFT_TRACE=1      arms span recording (traceEnabled()); rings are
//                        dumped via support/TraceJson.h on shutdown.
//
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SUPPORT_TELEMETRY_H
#define CRAFT_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace craft {
namespace telemetry {

/// Monotonic nanoseconds since the first call in this process. The only
/// clock of the telemetry layer; implemented in Telemetry.cpp (the
/// lint-sanctioned TU). Returns 0 without touching the clock when
/// timingEnabled() is false.
uint64_t monotonicNanos();

/// True unless the environment says CRAFT_TELEMETRY=0 (checked once and
/// cached). Gates every clock read of this layer; counters keep counting
/// regardless.
bool timingEnabled();

/// Test hook: force timingEnabled() on or off in-process, so one test
/// binary can compare telemetry-on vs telemetry-off outcomes.
void setTimingEnabledForTest(bool Enabled);

/// True when span recording is armed: CRAFT_TRACE=1 in the environment
/// (checked once) or setTraceEnabled(true). Implies timingEnabled() for
/// the spans themselves.
bool traceEnabled();

/// Arms (or disarms) span recording — `craft serve --trace-out` uses this
/// so a flag works without the environment variable.
void setTraceEnabled(bool Enabled);

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Folded state of one histogram. Buckets are log-scale with 4
/// sub-buckets per octave (see Histogram::bucketFor); percentiles report
/// the upper bound of the bucket containing the rank, so they are exact
/// for small values (v < 4 has its own bucket each) and within ~19% above
/// that. Zero samples read as 0 everywhere.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0; ///< Exact sum of observed values (mean = Sum/Count).
  std::vector<uint64_t> Buckets;

  /// Value at percentile \p P in [0, 100]: upper bound of the bucket
  /// where the cumulative count first reaches ceil(P/100 * Count).
  uint64_t percentile(double P) const;
  uint64_t p50() const { return percentile(50.0); }
  uint64_t p95() const { return percentile(95.0); }
  uint64_t p99() const { return percentile(99.0); }
  double mean() const {
    return Count == 0 ? 0.0
                      : static_cast<double>(Sum) / static_cast<double>(Count);
  }
};

/// Interval readout over a process-global series: the activity between
/// two snapshots of the SAME histogram (per-bucket After - Before).
/// \p Before must have been taken first; the bench harnesses use this to
/// read one phase's latencies out of a registry that never resets.
inline HistogramSnapshot diffSnapshots(const HistogramSnapshot &Before,
                                       const HistogramSnapshot &After) {
  HistogramSnapshot D;
  D.Count = After.Count - Before.Count;
  D.Sum = After.Sum - Before.Sum;
  D.Buckets.resize(After.Buckets.size());
  for (size_t I = 0; I < After.Buckets.size(); ++I)
    D.Buckets[I] =
        After.Buckets[I] - (I < Before.Buckets.size() ? Before.Buckets[I] : 0);
  return D;
}

/// Handle to a named monotonic counter. Cheap to copy; add() is one
/// relaxed fetch_add on this thread's shard.
class Counter {
public:
  Counter() = default;
  void add(uint64_t N) const;
  void increment() const { add(1); }
  /// Folded total across live shards and retired threads.
  uint64_t value() const;

private:
  friend Counter counterMetric(const char *Name);
  explicit Counter(uint32_t Id) : Id(Id) {}
  uint32_t Id = ~0u;
};

/// Handle to a named gauge (a settable int64, e.g. queue depth).
class Gauge {
public:
  Gauge() = default;
  void set(int64_t V) const;
  void add(int64_t Delta) const;
  /// Raises the gauge to \p V if it is below (CAS loop) — for
  /// high-water-mark gauges like the largest batch seen.
  void noteMax(int64_t V) const;
  int64_t value() const;

private:
  friend Gauge gaugeMetric(const char *Name);
  explicit Gauge(uint32_t Id) : Id(Id) {}
  uint32_t Id = ~0u;
};

/// Handle to a named log-scale histogram of uint64 values (latencies in
/// nanoseconds, iteration counts, wave sizes...).
class Histogram {
public:
  /// 4 sub-buckets per octave up to 2^63 keeps the whole bucket array at
  /// a fixed 252 slots; values past the last bound land in the overflow
  /// bucket (the final slot, with upper bound UINT64_MAX).
  static constexpr size_t NumBuckets = 252;

  Histogram() = default;
  void observe(uint64_t V) const;
  HistogramSnapshot snapshot() const;

  /// Bucket index for value \p V: 0..3 exact, then 4 sub-buckets per
  /// octave. Monotone in V by construction.
  static size_t bucketFor(uint64_t V);
  /// Largest value that lands in bucket \p I (what percentile() reports).
  static uint64_t bucketUpperBound(size_t I);

private:
  friend Histogram histogramMetric(const char *Name);
  explicit Histogram(uint32_t Id) : Id(Id) {}
  uint32_t Id = ~0u;
};

/// Resolve (registering on first use) the handle for \p Name. Names are
/// process-global: two calls with the same name alias the same series.
/// \p Name must outlive the process (string literals). On registry
/// exhaustion returns an inert handle that counts nothing.
Counter counterMetric(const char *Name);
Gauge gaugeMetric(const char *Name);
Histogram histogramMetric(const char *Name);

/// Full registry readout, each section sorted by name so the serve
/// `metrics` envelope is deterministic.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;
};
MetricsSnapshot snapshotMetrics();

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One completed span, recorded at scope exit. Spans nest per thread
/// (Depth), so the export can reconstruct a balanced B/E stream even
/// after ring eviction drops old records — eviction drops whole spans,
/// never half of a pair.
struct SpanRecord {
  const char *Name = ""; ///< String literal; not owned.
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0; ///< Telemetry thread id (registration order, from 1).
  uint32_t Depth = 0;
};

/// RAII span. Inert unless traceEnabled(); two clock reads when armed.
/// Use via TRACE_SPAN below.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name);
  ~TraceSpan();
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  const char *Name;
  uint64_t StartNs = 0;
  bool Armed = false;
};

/// Labels this thread in trace exports ("worker 3", "serve dispatch").
void setCurrentThreadLabel(const std::string &Label);

/// All recorded spans (live rings + retired threads), sorted by
/// (Tid, StartNs, Depth) — the order TraceJson consumes.
std::vector<SpanRecord> traceSpans();

/// Labels registered via setCurrentThreadLabel, as (tid, label).
std::vector<std::pair<uint32_t, std::string>> traceThreadLabels();

/// Drops every recorded span and label (tests; between bench phases).
void clearTrace();

#define CRAFT_TELEMETRY_CONCAT2(A, B) A##B
#define CRAFT_TELEMETRY_CONCAT(A, B) CRAFT_TELEMETRY_CONCAT2(A, B)

/// TRACE_SPAN("split.wave"): scoped span covering the rest of the
/// enclosing block. Safe in any header — expands to no clock access
/// unless tracing is armed at run time.
#define TRACE_SPAN(NameLiteral)                                               \
  ::craft::telemetry::TraceSpan CRAFT_TELEMETRY_CONCAT(                       \
      CraftTraceSpan_, __LINE__)(NameLiteral)

//===----------------------------------------------------------------------===//
// Per-query phase attribution
//===----------------------------------------------------------------------===//

/// Phases a query's wall time is attributed to, accumulated per thread.
/// The driver snapshots phaseTotals() around a query and diffs — see
/// tool/Driver.cpp. A new phase is one entry here plus one PhaseRows row.
enum class Phase : unsigned {
  Solver = 0,    ///< Engine run (inclusive of consolidation below).
  Consolidation, ///< consolidateProper inside the engine run.
  Split,         ///< SplitEngine wave loop.
  Pgd,           ///< PGD refutation pass.
  Certificate,   ///< Certificate construction + save.
  Count
};

/// The trace span each phase's PhaseTimer records, indexed by Phase;
/// null where an engine span already covers the phase (craft.verify for
/// Solver, split.wave for Split).
inline constexpr const char *PhaseSpans[] = {
    nullptr, "craft.consolidate", nullptr, "pgd.attack", "cert.write"};
static_assert(std::size(PhaseSpans) == static_cast<size_t>(Phase::Count),
              "one span entry per phase");

/// RAII accumulator: adds the scope's duration to this thread's total for
/// \p P and, when tracing is armed, records P's span over the same two
/// clock reads. Inert (no clock reads) when !timingEnabled(). Nesting
/// different phases double-attributes the inner time to both, on purpose:
/// Solver is inclusive, Consolidation is the named slice of it.
class PhaseTimer {
public:
  explicit PhaseTimer(Phase P);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;

private:
  Phase P;
  uint64_t StartNs = 0;
  bool Armed = false;
  bool Traced = false;
};

/// This thread's accumulated nanoseconds per phase since thread start,
/// including time credited to it (creditPhaseTotals).
struct PhaseTotals {
  uint64_t Ns[static_cast<size_t>(Phase::Count)] = {};
  uint64_t of(Phase P) const { return Ns[static_cast<size_t>(P)]; }
};
PhaseTotals phaseTotals();

/// Adds \p Ns to this thread's totals: phase time another thread spent on
/// this thread's behalf (a helped section's items, see
/// support/ThreadPool.h), so the query's before/after delta includes it.
void creditPhaseTotals(const PhaseTotals &Ns);

} // namespace telemetry
} // namespace craft

#endif // CRAFT_SUPPORT_TELEMETRY_H
