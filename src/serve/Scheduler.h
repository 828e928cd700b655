//===- serve/Scheduler.h - Admission batching scheduler ---------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's execution pipeline. Connection threads submit
/// queries; a single dispatcher thread gathers whatever is queued into
/// one batch and runs it through the existing batch machinery
/// (runSpecBatchLoaded -> parallelForIndex), so N clients share the
/// process-wide pool (support/ThreadPool.h) as one fan-out instead of
/// oversubscribing the SIMD kernel tier with N independent ones; the
/// dispatcher thread runs batch items itself. Batches form by "natural batching":
/// the dispatcher takes one query (blocking), drains everything else
/// already queued (non-blocking, up to MaxBatch), and dispatches — under
/// load batches grow automatically, while a lone request never waits on a
/// timer.
///
/// Per-query flow in submit():
///  1. resolve the model through the ModelRegistry (load-once, pinned);
///  2. build the cache key (canonical spec + model hash);
///  3. consult the ResultCache (hit -> ready future, `Cached` set);
///  4. derive the deterministic attack seed from the key — never from
///     admission order, so outcomes are independent of batch composition;
///  5. enqueue on the bounded admission queue — non-blocking:
///     when the queue is full the query fails fast with an Overloaded
///     result instead of head-of-line-blocking the connection thread
///     (load shedding).
///
/// Determinism: a query's outcome depends only on its cache key. So two
/// identical queries admitted together simply both execute: their
/// outcomes are byte-identical and the second cache insert refreshes the
/// first. The jobs-1-vs-N and batched-vs-sequential equivalence is
/// enforced by tests/test_serve.cpp.
///
/// Traffic is counted on the process-wide telemetry registry (`serve.*`
/// series, support/Telemetry.h) and read through the `metrics` protocol
/// method.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SERVE_SCHEDULER_H
#define CRAFT_SERVE_SCHEDULER_H

#include "serve/ModelRegistry.h"
#include "serve/ResultCache.h"
#include "support/MpmcQueue.h"
#include "tool/Driver.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>

namespace craft {
namespace serve {

/// What a submitted query resolves to.
struct ServeResult {
  RunOutcome Outcome;
  bool Cached = false;
  uint64_t ModelHash = 0; ///< 0 when the model failed to load.
  /// Shed at admission: the queue was full, nothing executed. Retryable —
  /// the protocol layer maps it to `Overloaded`.
  bool Overloaded = false;
  /// Rejected because the daemon is draining. Retryable (against a
  /// replacement instance); mapped to `Draining`.
  bool Draining = false;
};

/// Batching, caching scheduler in front of the verification pool.
class Scheduler {
public:
  struct Options {
    /// Threads per batch fan-out, the dispatcher included (<= 0 = all
    /// hardware threads, 1 = inline). Outcomes are independent of this value.
    int Jobs = 1;
    /// Hard cap on queries dispatched as one batch.
    size_t MaxBatch = 64;
    /// Admission queue bound. Load shedding: submit never blocks — a
    /// query arriving while the queue is full is shed with
    /// ServeResult::Overloaded.
    size_t QueueCapacity = 1024;
    /// ResultCache entries.
    size_t CacheCapacity = 4096;
  };

  explicit Scheduler(const Options &Opts);
  /// Stops and joins the dispatcher; queued queries still complete.
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Submits one query. The future becomes ready when the query is
  /// answered (possibly immediately: cache hit, model-load failure, shed,
  /// or draining — submit itself NEVER blocks on a saturated queue).
  /// \p UseCache false bypasses both cache lookup and insertion.
  /// \p DeadlineMs >= 0 arms a wall-clock budget starting now (queue wait
  /// counts); an expired query resolves to a DeadlineExceeded outcome.
  /// Deadline queries may be answered from the cache (a hit is instant
  /// and deterministic), but their outcomes are NEVER inserted into it —
  /// whether the budget sufficed is a property of this submission's
  /// timing, not of the query's content, and must not poison the
  /// deterministic cache.
  std::future<ServeResult> submit(const VerificationSpec &Spec,
                                  bool UseCache = true,
                                  double DeadlineMs = -1.0);

  /// Drains queued work, then stops the dispatcher. Subsequent submits
  /// fail fast with an error outcome. Idempotent.
  void stop();

  /// Graceful drain: new submissions resolve to Draining; everything
  /// already admitted (queued or executing) still completes. Idempotent;
  /// stop() remains the terminal step.
  void beginDrain() { Draining.store(true); }
  bool draining() const { return Draining.load(); }

  /// Jobs currently waiting in the admission queue.
  size_t queueDepth() const { return Queue.size(); }

  ModelRegistry &registry() { return Registry; }

private:
  /// One admitted (cache-missed) query awaiting dispatch.
  struct Job {
    VerificationSpec Spec;
    const MonDeq *Model = nullptr;
    uint64_t ModelHash = 0;
    std::string Key;
    bool UseCache = true;
    /// Budget armed at admission (inactive for deadline-free queries).
    Deadline DeadlineAt;
    /// Telemetry: admission timestamp (queue-wait attribution) and the
    /// submit-side phase slices, merged into the freshly executed
    /// outcome's PhaseBreakdown at dispatch. All zero when timing is
    /// disabled; cache hits return the stored outcome verbatim instead.
    uint64_t AdmitNs = 0;
    double CacheProbeMs = 0.0;
    double ModelLoadMs = 0.0;
    std::promise<ServeResult> Result;
  };

  void dispatchLoop();
  /// \p Publish false suppresses the cache insert (injected dispatch
  /// faults must not memoize their synthetic failure).
  void finishJob(std::unique_ptr<Job> JobPtr, const RunOutcome &Outcome,
                 bool Publish = true);

  Options Opts;
  ModelRegistry Registry;
  ResultCache Cache;
  MpmcQueue<std::unique_ptr<Job>> Queue;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Draining{false};
  // craft-lint: allow(conc-thread) — the one dispatcher thread; stop()
  // closes the queue and joins it, and ~Scheduler calls stop().
  std::thread Dispatcher;
};

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_SCHEDULER_H
