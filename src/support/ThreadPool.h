//===- support/ThreadPool.h - Batch-work thread pool ------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the batch-verification subsystem. The
/// certification workloads (Table 2 rows, multi-input spec files) are
/// embarrassingly parallel across inputs; this pool fans tasks out across
/// worker threads while the call sites keep results deterministic by
/// slotting them by task index, never by completion order.
///
/// Determinism contract for callers:
///  - key every result by the task's input index, not arrival order;
///  - derive per-task RNG seeds from the index (see taskSeed), never from
///    shared mutable generator state or the executing thread;
///  - in a helped section (helpedForIndex), write item I's result into
///    slot I and fold the slots in StopAfter, which the owner calls in
///    index order: an item that runs on a helper, or runs past the stop,
///    must change nothing the fold does not read.
/// Under that contract the outcome of a batch is byte-identical for any
/// worker count, including the inline Jobs <= 1 path.
///
/// Helping rule: a worker runs queued tasks first. Only when the queue is
/// empty (no task waits to start) does it take the next unclaimed item of
/// an open section, oldest section first, items in index order.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SUPPORT_THREADPOOL_H
#define CRAFT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace craft {

/// Fixed-size pool of worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Workers threads (0 = one per hardware thread).
  explicit ThreadPool(size_t Workers = 0);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t workerCount() const { return Workers.size(); }

  /// Enqueues \p Task. Tasks must not themselves block on this pool.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first captured exception (first by completion).
  void wait();

  /// Hardware concurrency with a floor of 1.
  static size_t hardwareWorkers();

  /// True on a worker thread of any ThreadPool. This is the core-ownership
  /// rule: a caller that has already fanned out holds its core, so the
  /// kernel layer only tiles large gemm/gemvAbs calls across its own pool
  /// when this is false (see linalg/Kernels.h).
  static bool onWorkerThread();

private:
  struct Section;
  friend void helpedForIndex(size_t, const std::function<void(size_t)> &,
                             const std::function<bool(size_t)> &);

  void workerLoop();
  /// The oldest open section with an unclaimed item, or null; called with
  /// Mutex held.
  Section *sectionWithItems() const;
  /// Owner side of helpedForIndex on one of this pool's workers.
  void runSection(size_t N, const std::function<void(size_t)> &Fn,
                  const std::function<bool(size_t)> &StopAfter);
  /// Runs item \p I of \p S on this helper; called and returns with
  /// \p Lock held.
  void helpWith(Section &S, size_t I, std::unique_lock<std::mutex> &Lock);

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::vector<Section *> Sections; ///< Open sections, oldest first.
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t InFlight = 0; ///< Queued + currently executing tasks.
  bool Stopping = false;
  std::exception_ptr FirstError;
};

/// Runs Fn(I) for I in [0, N) in index order on the calling thread and
/// calls StopAfter(I), also on the calling thread and in index order, once
/// item I has finished; StopAfter returning true ends the section. On a
/// worker of a ThreadPool with two or more workers, the section is open
/// to that pool's idle workers while it runs: a worker whose queue is
/// empty claims the next unclaimed item and runs it, so an item may run on
/// another thread and before the owner reaches it, and items past the
/// stop may start (they are never passed to StopAfter, and the section
/// waits for them before it returns; a caller that wants them to end
/// early signals that itself, from StopAfter). Off a pool worker, or on a
/// one-worker pool, it is the plain loop. An exception from item I is
/// rethrown here, on the calling thread, when the fold reaches I. Phase
/// time an item records on a helper (telemetry::PhaseTimer) is credited
/// to the calling thread; each helped item counts in `pool.help_items`
/// and records a `pool.help` span on its helper.
void helpedForIndex(size_t N, const std::function<void(size_t)> &Fn,
                    const std::function<bool(size_t)> &StopAfter);

/// A contiguous half-open index range (one part of a static partition).
struct IndexRange {
  size_t Begin = 0;
  size_t End = 0;
  size_t size() const { return End - Begin; }
};

/// Part \p Part of the static partition of [0, N) into \p Parts contiguous
/// ranges whose sizes differ by at most one. Pure arithmetic on
/// (N, Parts, Part) — identical for every call, thread, and machine — so
/// work fanned out by partition index is deterministic by construction
/// (the kernel layer's tiled gemm/gemvAbs rest on this).
inline IndexRange staticPartition(size_t N, size_t Parts, size_t Part) {
  const size_t Base = N / Parts, Rem = N % Parts;
  const size_t Begin = Part * Base + (Part < Rem ? Part : Rem);
  return {Begin, Begin + Base + (Part < Rem ? 1 : 0)};
}

/// Runs Fn(I) for every I in [0, N) on \p Jobs workers (<= 0 = all
/// hardware threads; <= 1 or N <= 1 runs inline on the caller). Blocks
/// until all indices finish and rethrows the first task exception. Callers
/// keep determinism by writing results into slot I of a pre-sized buffer.
void parallelForIndex(size_t N, int Jobs,
                      const std::function<void(size_t)> &Fn);

/// Deterministic per-task seed stream: splitmix64 of \p Base advanced to
/// \p Index. Depends only on (Base, Index) — never on thread identity or
/// scheduling — so seeded tasks reproduce under any worker count.
uint64_t taskSeed(uint64_t Base, uint64_t Index);

} // namespace craft

#endif // CRAFT_SUPPORT_THREADPOOL_H
