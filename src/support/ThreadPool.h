//===- support/ThreadPool.h - The process-wide fan-out pool -----*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one owner of worker threads in the process. Every parallel loop —
/// a `--jobs N` batch, a split-engine wave, a tiled gemm/gemvAbs — is a
/// parallelForIndex fan-out over a single lazily created pool. The pool
/// grows on demand to the largest helper count any top-level fan-out
/// asks for, up to a fixed bound (fanOutThreads), and never shrinks, so
/// a fan-out costs a wake-up, never a thread start.
///
/// Determinism contract for callers:
///  - key every result by the item's index, not completion order;
///  - derive per-item RNG seeds from the index (see taskSeed), never from
///    shared mutable generator state or the executing thread;
///  - in a helped section (helpedForIndex), write item I's result into
///    slot I and fold the slots in StopAfter, which the owner calls in
///    index order: an item that runs on a helper, or runs past the stop,
///    must change nothing the fold does not read.
/// Under that contract the outcome is byte-identical for any thread
/// count, including the plain-loop Jobs <= 1 path. A pool worker's
/// thread-local state (error-term counter, Workspace arena, scratch
/// vectors) outlives the fan-out and the query it ran: no outcome may
/// depend on where it stood when an item began (error-term ids matter only
/// by their relative order).
///
/// Helping rule: an idle worker takes the next unclaimed item of the
/// oldest open fan-out that has a free helper slot; only when there is
/// none does it take the next item of the oldest open helped section. A top-level
/// owner whose items are all claimed helps, by the same rule, the work
/// opened inside its own items until they finish; a nested owner waits.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SUPPORT_THREADPOOL_H
#define CRAFT_SUPPORT_THREADPOOL_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace craft {

/// Hardware concurrency with a floor of 1.
size_t hardwareThreads();

/// The threads a fan-out of \p N items on \p Jobs uses: Jobs (<= 0 = all
/// hardware threads), at most the pool's bound of max(4, 2 x hardware
/// threads), at most N. Pure arithmetic; starts no thread.
size_t fanOutThreads(size_t N, int Jobs);

/// True while the calling thread runs an item of a fan-out of two or more
/// threads, or an item of a helped section. This is the core-ownership
/// rule: such code already holds its core, so the kernel layer runs it
/// untiled (see linalg/Kernels.h) and helpedForIndex opens its section.
bool inFanOutItem();

/// Runs Fn(I) for every I in [0, N) on fanOutThreads(N, Jobs) threads:
/// the calling thread runs items itself and at most that many minus one
/// pool workers help, every thread claiming the next unclaimed index. One thread is the plain
/// loop on the caller. Returns once every item has finished. If items
/// threw, rethrows the exception of the lowest-index one (the plain loop
/// stops at it; the fan-out runs every item first). Phase time an item
/// records on a helper (telemetry::PhaseTimer) is credited to the calling
/// thread. A top-level call (not itself inside an item) may start pool
/// workers; a nested one only borrows idle workers.
void parallelForIndex(size_t N, int Jobs,
                      const std::function<void(size_t)> &Fn);

/// Runs Fn(I) for I in [0, N) in index order on the calling thread and
/// calls StopAfter(I), also on the calling thread and in index order, once
/// item I has finished; StopAfter returning true ends the section. Inside
/// a fan-out item (inFanOutItem), the section is open to idle pool
/// workers while it runs: a helper claims the next unclaimed item and
/// runs it, so an item may run on another thread and before the owner
/// reaches it, and items past the stop may start (they are never passed
/// to StopAfter, and the section waits for them before it returns; a
/// caller that wants them to end early signals that itself, from
/// StopAfter). Elsewhere it is the plain loop. An exception from item I
/// is rethrown here, on the calling thread, when the fold reaches I. Phase
/// time an item records on a helper is credited to the calling thread;
/// each helped item counts in `pool.help_items` and records a `pool.help`
/// span on its helper.
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

/// Deterministic per-task seed stream: splitmix64 of \p Base advanced to
/// \p Index. Depends only on (Base, Index) — never on thread identity or
/// scheduling — so seeded tasks reproduce under any worker count.
uint64_t taskSeed(uint64_t Base, uint64_t Index);

} // namespace craft

#endif // CRAFT_SUPPORT_THREADPOOL_H
