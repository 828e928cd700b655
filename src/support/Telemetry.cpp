//===- support/Telemetry.cpp - Metrics registry and span tracer -----------===//
//
// The one timing TU of the telemetry layer: monotonicNanos() owns the
// steady-clock access here, sanctioned by craft-lint's det-time rule
// (tools/craft_lint/Lint.cpp classify()) exactly like support/Timer.h.
// Everything else is shard bookkeeping:
//
//  - Each thread lazily allocates a CounterShard (atomic arrays indexed
//    by metric id) and a TraceRing (fixed-capacity span ring). Handles
//    write to their own thread's shard with relaxed atomics — no
//    cross-thread contention on the hot path.
//  - Readers fold: registry mutex -> sum live shards + retired totals.
//  - Thread exit retires the shard/ring into plain totals under the
//    registry mutex, so counts and spans survive worker churn.
//
// The registry itself is a leaked singleton: worker threads may retire
// after main() returns, and a destructed registry would turn that into a
// use-after-free. ~80 KB leaked once per process, by design.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace craft {
namespace telemetry {

namespace {

constexpr uint32_t InvalidId = ~0u;
constexpr size_t MaxCounters = 192;
constexpr size_t MaxGauges = 64;
constexpr size_t MaxHistograms = 48;
/// Span records kept per thread; older spans are evicted whole. One traced
/// split-gmm certification records ~20k spans on a thread between drains.
constexpr size_t RingCapacity = 1 << 16;
/// Cap on spans carried over from exited threads (keeps long-lived
/// daemons with worker churn bounded; oldest retired spans drop first).
/// Holds ~75k spans, one certification's worth across 4 workers, with room.
constexpr size_t MaxRetiredSpans = 1 << 18;

/// Per-thread metric storage. Atomic so readers can fold while the owner
/// keeps writing; the owner only ever uses relaxed fetch_add.
struct CounterShard {
  std::atomic<uint64_t> Counters[MaxCounters];
  std::atomic<uint64_t> HistBuckets[MaxHistograms][Histogram::NumBuckets];
  std::atomic<uint64_t> HistSum[MaxHistograms];

  CounterShard() {
    for (auto &C : Counters)
      C.store(0, std::memory_order_relaxed);
    for (auto &H : HistBuckets)
      for (auto &B : H)
        B.store(0, std::memory_order_relaxed);
    for (auto &S : HistSum)
      S.store(0, std::memory_order_relaxed);
  }
};

/// Folded contributions of exited threads. Registry-mutex protected.
struct RetiredTotals {
  uint64_t Counters[MaxCounters] = {};
  uint64_t HistBuckets[MaxHistograms][Histogram::NumBuckets] = {};
  uint64_t HistSum[MaxHistograms] = {};
};

/// Per-thread span ring. The light mutex serializes the owner's pushes
/// against reader folds; uncontended in steady state.
struct TraceRing {
  std::mutex Mu;
  std::vector<SpanRecord> Slots;
  size_t Next = 0;
  uint32_t Tid = 0;
  std::string Label;
};

struct Registry {
  std::mutex Mu;
  // Metric names, indexed by id. Insertion order; snapshot sorts.
  std::vector<std::string> CounterNames;
  std::vector<std::string> GaugeNames;
  std::vector<std::string> HistogramNames;
  std::map<std::string, uint32_t> CounterIds;
  std::map<std::string, uint32_t> GaugeIds;
  std::map<std::string, uint32_t> HistogramIds;

  std::vector<CounterShard *> Shards;
  RetiredTotals Retired;
  std::atomic<int64_t> Gauges[MaxGauges];

  std::vector<TraceRing *> Rings;
  std::vector<SpanRecord> RetiredSpans;
  std::vector<std::pair<uint32_t, std::string>> RetiredLabels;
  uint32_t NextTid = 1;

  Registry() {
    for (auto &G : Gauges)
      G.store(0, std::memory_order_relaxed);
  }
};

Registry &reg() {
  // Leaked on purpose — see the file header.
  static Registry *R = new Registry();
  return *R;
}

/// Thread-local anchor whose destructor retires this thread's shard and
/// ring into the registry.
struct TlsState {
  CounterShard *Shard = nullptr;
  TraceRing *Ring = nullptr;
  uint32_t SpanDepth = 0;
  PhaseTotals Phases;

  ~TlsState() {
    if (!Shard && !Ring)
      return;
    Registry &R = reg();
    std::lock_guard<std::mutex> Lock(R.Mu);
    if (Shard) {
      for (size_t I = 0; I < MaxCounters; ++I)
        R.Retired.Counters[I] +=
            Shard->Counters[I].load(std::memory_order_relaxed);
      for (size_t H = 0; H < MaxHistograms; ++H) {
        for (size_t B = 0; B < Histogram::NumBuckets; ++B)
          R.Retired.HistBuckets[H][B] +=
              Shard->HistBuckets[H][B].load(std::memory_order_relaxed);
        R.Retired.HistSum[H] +=
            Shard->HistSum[H].load(std::memory_order_relaxed);
      }
      R.Shards.erase(std::remove(R.Shards.begin(), R.Shards.end(), Shard),
                     R.Shards.end());
      delete Shard;
    }
    if (Ring) {
      for (const SpanRecord &Rec : Ring->Slots)
        R.RetiredSpans.push_back(Rec);
      if (R.RetiredSpans.size() > MaxRetiredSpans)
        R.RetiredSpans.erase(R.RetiredSpans.begin(),
                             R.RetiredSpans.end() - MaxRetiredSpans);
      if (!Ring->Label.empty())
        R.RetiredLabels.emplace_back(Ring->Tid, Ring->Label);
      R.Rings.erase(std::remove(R.Rings.begin(), R.Rings.end(), Ring),
                    R.Rings.end());
      delete Ring;
    }
  }
};

thread_local TlsState Tls;

CounterShard &shard() {
  if (!Tls.Shard) {
    auto *S = new CounterShard();
    Registry &R = reg();
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Shards.push_back(S);
    Tls.Shard = S;
  }
  return *Tls.Shard;
}

TraceRing &ring() {
  if (!Tls.Ring) {
    auto *Rg = new TraceRing();
    Registry &R = reg();
    std::lock_guard<std::mutex> Lock(R.Mu);
    Rg->Tid = R.NextTid++;
    R.Rings.push_back(Rg);
    Tls.Ring = Rg;
  }
  return *Tls.Ring;
}

/// Closes the innermost open span of this thread (opened by ++SpanDepth)
/// and pushes its record into the ring.
void recordSpan(const char *Name, uint64_t StartNs, uint64_t EndNs) {
  uint32_t Depth = --Tls.SpanDepth;
  TraceRing &Rg = ring();
  std::lock_guard<std::mutex> Lock(Rg.Mu);
  SpanRecord Rec{Name, StartNs, EndNs - StartNs, Rg.Tid, Depth};
  if (Rg.Slots.size() < RingCapacity) {
    // Sized on the first span, not at ring creation: labelled threads of
    // an untraced run never pay for the slots.
    if (Rg.Slots.empty())
      Rg.Slots.reserve(RingCapacity);
    Rg.Slots.push_back(Rec);
  } else {
    Rg.Slots[Rg.Next] = Rec;
    Rg.Next = (Rg.Next + 1) % RingCapacity;
  }
}

/// -1 = not yet read from the environment.
std::atomic<int> TimingState{-1};
std::atomic<int> TraceState{-1};

bool envFlagIs(const char *Name, const char *Value) {
  const char *Env = std::getenv(Name);
  return Env && std::strcmp(Env, Value) == 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clock and switches
//===----------------------------------------------------------------------===//

uint64_t monotonicNanos() {
  if (!timingEnabled())
    return 0;
  // Anchored at first use so exported timestamps start near zero.
  static const std::chrono::steady_clock::time_point Anchor =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Anchor)
          .count());
}

bool timingEnabled() {
  int S = TimingState.load(std::memory_order_relaxed);
  if (S < 0) {
    S = envFlagIs("CRAFT_TELEMETRY", "0") ? 0 : 1;
    TimingState.store(S, std::memory_order_relaxed);
  }
  return S == 1;
}

void setTimingEnabledForTest(bool Enabled) {
  TimingState.store(Enabled ? 1 : 0, std::memory_order_relaxed);
}

bool traceEnabled() {
  int S = TraceState.load(std::memory_order_relaxed);
  if (S < 0) {
    S = envFlagIs("CRAFT_TRACE", "1") ? 1 : 0;
    TraceState.store(S, std::memory_order_relaxed);
  }
  return S == 1 && timingEnabled();
}

void setTraceEnabled(bool Enabled) {
  TraceState.store(Enabled ? 1 : 0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Histogram bucketing
//===----------------------------------------------------------------------===//

size_t Histogram::bucketFor(uint64_t V) {
  if (V < 4)
    return static_cast<size_t>(V); // 0..3 exact.
  // Octave o = floor(log2 V) >= 2, with 4 sub-buckets per octave picked
  // by the two bits below the leading one.
  unsigned O = static_cast<unsigned>(std::bit_width(V)) - 1;
  unsigned Sub = static_cast<unsigned>((V >> (O - 2)) & 3);
  size_t Idx = 4 + static_cast<size_t>(O - 2) * 4 + Sub;
  return Idx < NumBuckets ? Idx : NumBuckets - 1;
}

uint64_t Histogram::bucketUpperBound(size_t I) {
  if (I < 4)
    return static_cast<uint64_t>(I);
  if (I >= NumBuckets - 1)
    return UINT64_MAX; // Overflow bucket.
  size_t Rel = I - 4;
  unsigned O = static_cast<unsigned>(Rel / 4) + 2;
  unsigned Sub = static_cast<unsigned>(Rel % 4);
  // Largest V with octave O and sub-bucket Sub: the next boundary - 1.
  return ((static_cast<uint64_t>(4 + Sub + 1)) << (O - 2)) - 1;
}

uint64_t HistogramSnapshot::percentile(double P) const {
  if (Count == 0)
    return 0;
  double Clamped = std::min(100.0, std::max(0.0, P));
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Clamped / 100.0 * static_cast<double>(Count)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank)
      return Histogram::bucketUpperBound(I);
  }
  return Histogram::bucketUpperBound(Buckets.empty() ? 0 : Buckets.size() - 1);
}

//===----------------------------------------------------------------------===//
// Handles
//===----------------------------------------------------------------------===//

namespace {

/// Shared registration: returns the id for Name in (Names, Ids), or
/// InvalidId when the fixed capacity is exhausted (the handle goes inert
/// rather than aliasing another metric).
uint32_t internName(const char *Name, std::vector<std::string> &Names,
                    std::map<std::string, uint32_t> &Ids, size_t Capacity) {
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  if (Names.size() >= Capacity)
    return InvalidId;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.push_back(Name);
  Ids.emplace(Name, Id);
  return Id;
}

} // namespace

Counter counterMetric(const char *Name) {
  Registry &R = reg();
  return Counter(internName(Name, R.CounterNames, R.CounterIds, MaxCounters));
}

Gauge gaugeMetric(const char *Name) {
  Registry &R = reg();
  return Gauge(internName(Name, R.GaugeNames, R.GaugeIds, MaxGauges));
}

Histogram histogramMetric(const char *Name) {
  Registry &R = reg();
  return Histogram(
      internName(Name, R.HistogramNames, R.HistogramIds, MaxHistograms));
}

void Counter::add(uint64_t N) const {
  if (Id == InvalidId)
    return;
  shard().Counters[Id].fetch_add(N, std::memory_order_relaxed);
}

uint64_t Counter::value() const {
  if (Id == InvalidId)
    return 0;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  uint64_t Total = R.Retired.Counters[Id];
  for (const CounterShard *S : R.Shards)
    Total += S->Counters[Id].load(std::memory_order_relaxed);
  return Total;
}

void Gauge::set(int64_t V) const {
  if (Id == InvalidId)
    return;
  reg().Gauges[Id].store(V, std::memory_order_relaxed);
}

void Gauge::add(int64_t Delta) const {
  if (Id == InvalidId)
    return;
  reg().Gauges[Id].fetch_add(Delta, std::memory_order_relaxed);
}

void Gauge::noteMax(int64_t V) const {
  if (Id == InvalidId)
    return;
  std::atomic<int64_t> &G = reg().Gauges[Id];
  int64_t Cur = G.load(std::memory_order_relaxed);
  while (Cur < V &&
         !G.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

int64_t Gauge::value() const {
  if (Id == InvalidId)
    return 0;
  return reg().Gauges[Id].load(std::memory_order_relaxed);
}

void Histogram::observe(uint64_t V) const {
  if (Id == InvalidId)
    return;
  CounterShard &S = shard();
  S.HistBuckets[Id][bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
  S.HistSum[Id].fetch_add(V, std::memory_order_relaxed);
}

namespace {

/// Registry-mutex-held fold of one histogram id into a snapshot.
HistogramSnapshot foldHistogramLocked(const Registry &R, uint32_t Id) {
  HistogramSnapshot Snap;
  Snap.Buckets.assign(Histogram::NumBuckets, 0);
  for (size_t B = 0; B < Histogram::NumBuckets; ++B)
    Snap.Buckets[B] = R.Retired.HistBuckets[Id][B];
  Snap.Sum = R.Retired.HistSum[Id];
  for (const CounterShard *S : R.Shards) {
    for (size_t B = 0; B < Histogram::NumBuckets; ++B)
      Snap.Buckets[B] += S->HistBuckets[Id][B].load(std::memory_order_relaxed);
    Snap.Sum += S->HistSum[Id].load(std::memory_order_relaxed);
  }
  for (uint64_t B : Snap.Buckets)
    Snap.Count += B;
  return Snap;
}

} // namespace

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Snap;
  Snap.Buckets.assign(NumBuckets, 0);
  if (Id == InvalidId)
    return Snap;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return foldHistogramLocked(R, Id);
}

MetricsSnapshot snapshotMetrics() {
  MetricsSnapshot M;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (uint32_t Id = 0; Id < R.CounterNames.size(); ++Id) {
    uint64_t Total = R.Retired.Counters[Id];
    for (const CounterShard *S : R.Shards)
      Total += S->Counters[Id].load(std::memory_order_relaxed);
    M.Counters.emplace_back(R.CounterNames[Id], Total);
  }
  for (uint32_t Id = 0; Id < R.GaugeNames.size(); ++Id)
    M.Gauges.emplace_back(R.GaugeNames[Id],
                          R.Gauges[Id].load(std::memory_order_relaxed));
  for (uint32_t Id = 0; Id < R.HistogramNames.size(); ++Id)
    M.Histograms.emplace_back(R.HistogramNames[Id],
                              foldHistogramLocked(R, Id));
  auto ByName = [](const auto &A, const auto &B) { return A.first < B.first; };
  std::sort(M.Counters.begin(), M.Counters.end(), ByName);
  std::sort(M.Gauges.begin(), M.Gauges.end(), ByName);
  std::sort(M.Histograms.begin(), M.Histograms.end(), ByName);
  return M;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TraceSpan::TraceSpan(const char *N) : Name(N) {
  if (!traceEnabled())
    return;
  Armed = true;
  StartNs = monotonicNanos();
  ++Tls.SpanDepth;
}

TraceSpan::~TraceSpan() {
  if (Armed)
    recordSpan(Name, StartNs, monotonicNanos());
}

void setCurrentThreadLabel(const std::string &Label) {
  TraceRing &Rg = ring();
  std::lock_guard<std::mutex> Lock(Rg.Mu);
  Rg.Label = Label;
}

std::vector<SpanRecord> traceSpans() {
  std::vector<SpanRecord> Out;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Out = R.RetiredSpans;
  for (TraceRing *Rg : R.Rings) {
    std::lock_guard<std::mutex> RingLock(Rg->Mu);
    Out.insert(Out.end(), Rg->Slots.begin(), Rg->Slots.end());
  }
  std::sort(Out.begin(), Out.end(),
            [](const SpanRecord &A, const SpanRecord &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.Depth < B.Depth;
            });
  return Out;
}

std::vector<std::pair<uint32_t, std::string>> traceThreadLabels() {
  std::vector<std::pair<uint32_t, std::string>> Out;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Out = R.RetiredLabels;
  for (TraceRing *Rg : R.Rings) {
    std::lock_guard<std::mutex> RingLock(Rg->Mu);
    if (!Rg->Label.empty())
      Out.emplace_back(Rg->Tid, Rg->Label);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

void clearTrace() {
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.RetiredSpans.clear();
  R.RetiredLabels.clear();
  for (TraceRing *Rg : R.Rings) {
    std::lock_guard<std::mutex> RingLock(Rg->Mu);
    Rg->Slots.clear();
    Rg->Next = 0;
  }
}

//===----------------------------------------------------------------------===//
// Phase attribution
//===----------------------------------------------------------------------===//

PhaseTimer::PhaseTimer(Phase Ph) : P(Ph) {
  if (!timingEnabled())
    return;
  Armed = true;
  if (PhaseSpans[static_cast<size_t>(P)] && traceEnabled()) {
    Traced = true;
    ++Tls.SpanDepth;
  }
  StartNs = monotonicNanos();
}

PhaseTimer::~PhaseTimer() {
  if (!Armed)
    return;
  const uint64_t EndNs = monotonicNanos();
  Tls.Phases.Ns[static_cast<size_t>(P)] += EndNs - StartNs;
  if (Traced)
    recordSpan(PhaseSpans[static_cast<size_t>(P)], StartNs, EndNs);
}

PhaseTotals phaseTotals() { return Tls.Phases; }

void creditPhaseTotals(const PhaseTotals &Ns) {
  for (size_t P = 0; P < static_cast<size_t>(Phase::Count); ++P)
    Tls.Phases.Ns[P] += Ns.Ns[P];
}

} // namespace telemetry
} // namespace craft
