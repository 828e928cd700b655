//===- serve/Scheduler.h - Admission batching scheduler ---------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's execution pipeline. Connection threads submit
/// queries; a single dispatcher thread coalesces whatever is in flight
/// into one batch and runs it through the existing batch machinery
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
///  3. derive the deterministic attack seed from that key — never from
///     admission order, so outcomes are independent of batch composition;
///  4. coalesce with an identical in-flight query if one exists;
///  5. consult the ResultCache (hit -> ready future, `Cached` set);
///  6. otherwise enqueue on the bounded admission queue — non-blocking:
///     past the shed high-water mark the query fails fast with an
///     Overloaded result instead of head-of-line-blocking the
///     connection thread (load shedding).
///
/// Determinism: a query's outcome depends only on its cache key. The
/// jobs-1-vs-N and batched-vs-sequential equivalence is enforced by
/// tests/test_serve.cpp.
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
#include <unordered_map>
#include <vector>

namespace craft {
namespace serve {

/// What a submitted query resolves to.
struct ServeResult {
  RunOutcome Outcome;
  bool Cached = false;
  uint64_t ModelHash = 0; ///< 0 when the model failed to load.
  /// Shed at admission: the queue was past the high-water mark, nothing
  /// executed. Retryable — the protocol layer maps it to `Overloaded`.
  bool Overloaded = false;
  /// Rejected because the daemon is draining. Retryable (against a
  /// replacement instance); mapped to `Draining`.
  bool Draining = false;
};

/// Coalescing, caching scheduler in front of the verification pool.
class Scheduler {
public:
  struct Options {
    /// Threads per batch fan-out, the dispatcher included (<= 0 = all
    /// hardware threads, 1 = inline). Outcomes are independent of this value.
    int Jobs = 1;
    /// Hard cap on queries dispatched as one batch.
    size_t MaxBatch = 64;
    /// Admission queue bound.
    size_t QueueCapacity = 1024;
    /// Load shedding: submit never blocks — a query arriving while the
    /// queue holds at least this many jobs (or tryPush finds it full) is
    /// shed with ServeResult::Overloaded. 0 = QueueCapacity, i.e. shed
    /// exactly when the queue is full.
    size_t ShedHighWater = 0;
    /// Base of the content-derived attack-seed stream (see
    /// serveAttackSeed). Matches the batch driver's default vintage.
    uint64_t BaseSeed = 20230617;
    /// ResultCache sizing.
    size_t CacheCapacity = 4096;
    size_t CacheShards = 8;
  };

  /// Pipeline counters, as a snapshot since this scheduler's construction.
  /// The live series are process-wide `serve.*` metrics on the telemetry
  /// registry (support/Telemetry.h); stats() reads them and subtracts the
  /// construction-time baseline, so per-instance semantics (and the
  /// `stats` protocol envelope) are unchanged.
  struct Stats {
    uint64_t Submitted = 0;
    uint64_t CacheHits = 0;
    uint64_t Coalesced = 0; ///< Joined an identical in-flight query.
    uint64_t Executed = 0;
    uint64_t Batches = 0;
    size_t MaxBatchSeen = 0;
    uint64_t Shed = 0; ///< Rejected at admission (queue past high water).
    /// Queries whose deadline expired (before dispatch or mid-engine).
    uint64_t DeadlineExpired = 0;
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
  /// and deterministic) but are never coalesced, never listed in-flight,
  /// and their outcomes are NEVER inserted into the cache — whether the
  /// budget sufficed is a property of this submission's timing, not of
  /// the query's content, and must not poison the deterministic cache.
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

  Stats stats() const;
  ResultCache::Stats cacheStats() const { return Cache.stats(); }
  ModelRegistry &registry() { return Registry; }

private:
  /// One admitted (cache-missed, deduplicated) query awaiting dispatch.
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
    /// Every submitter waiting on this query (1 + coalesced joiners).
    std::vector<std::promise<ServeResult>> Waiters;
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

  /// Key -> in-flight job (queued or executing), for coalescing. A job
  /// stays listed from admission until finishJob, which inserts the
  /// outcome into the cache *before* delisting; submit probes InFlight
  /// and the cache under this one mutex, so an identical query always
  /// either joins the job's waiters or finds the cached outcome — a key
  /// is never executed twice concurrently.
  std::unordered_map<std::string, Job *> InFlight;
  mutable std::mutex InFlightMutex;

  /// Registry totals at construction: stats() reports current - Base, so
  /// each instance sees only its own traffic even though the serve.*
  /// series are process-wide.
  Stats Base;
  /// Largest batch this instance dispatched. A high-water mark has no
  /// meaningful process-wide delta, so it stays on the instance (the
  /// registry's serve.max_batch gauge tracks the process-wide max).
  std::atomic<size_t> MaxBatchSeen{0};

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Draining{false};
  // craft-lint: allow(conc-thread) — the one dispatcher thread; stop()
  // closes the queue and joins it, and ~Scheduler calls stop().
  std::thread Dispatcher;
};

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_SCHEDULER_H
