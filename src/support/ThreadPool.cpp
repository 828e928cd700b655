//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace craft;

namespace {

const telemetry::Counter PoolHelpItems =
    telemetry::counterMetric("pool.help_items");
const telemetry::Counter PoolThreadsStarted =
    telemetry::counterMetric("pool.threads_started");

/// setAwaitHelperForTest's switch.
std::atomic<bool> AwaitHelperForTest{false};

/// One open fan-out (parallelForIndex) or helped section (helpedForIndex).
/// It lives on its owner's stack; every field but Fn is guarded by the
/// pool mutex, except that a thread running item I writes Errors[I]
/// before it marks the item finished.
struct Section {
  Section(const std::function<void(size_t)> &Fn, size_t N, size_t MaxHelpers,
          bool Helped, Section *Root)
      : Fn(Fn), N(N), MaxHelpers(MaxHelpers), Helped(Helped),
        Root(Root ? Root : this), Errors(N) {
    if (Helped)
      Done.assign(N, 0);
  }

  const std::function<void(size_t)> &Fn;
  size_t N;
  size_t MaxHelpers; ///< Helpers allowed on the section at once.
  bool Helped;       ///< helpedForIndex: the owner folds in index order.
  Section *Root;     ///< The top-level fan-out this work descends from.
  size_t NextUnclaimed = 0;
  size_t Running = 0;     ///< Items running on helpers.
  std::vector<char> Done; ///< Helped sections: item I finished on a helper.
  std::vector<std::exception_ptr> Errors;
  telemetry::PhaseTotals HelperPhases; ///< Phase time helpers recorded.
  /// A helper finished an item; for a root, also new work opened under it.
  std::condition_variable Wake;
};

/// The root of the item the calling thread runs; null outside items.
thread_local Section *CurrentRoot = nullptr;

/// Runs item \p I of \p S on the calling thread, which counts as inside a
/// fan-out item while it does; a throw lands in S.Errors[I].
void runItem(Section &S, size_t I) {
  Section *Outer = CurrentRoot;
  CurrentRoot = S.Root;
  try {
    if (S.Helped) {
      TRACE_SPAN("pool.help");
      S.Fn(I);
    } else {
      S.Fn(I);
    }
  } catch (...) {
    S.Errors[I] = std::current_exception();
  }
  CurrentRoot = Outer;
}

size_t maxThreads() { return std::max<size_t>(4, 2 * hardwareThreads()); }

/// The process-wide pool: workers and the open sections they help.
class ThreadPool {
public:
  ~ThreadPool();

  /// Owner side of parallelForIndex for \p Threads >= 2.
  void fanOut(size_t N, size_t Threads, const std::function<void(size_t)> &Fn);
  /// Owner side of helpedForIndex inside a fan-out item.
  void runSection(size_t N, const std::function<void(size_t)> &Fn,
                  const std::function<bool(size_t)> &StopAfter);

private:
  void workerLoop();
  /// Publishes \p S to the workers and, under a root, to the root's owner.
  void open(Section &S);
  /// Withdraws \p S once no helper runs one of its items, and credits
  /// their phase time to the calling thread.
  void close(Section &S);
  /// The section whose next item an idle thread takes (fan-outs with a
  /// free helper slot first, then helped sections, oldest first), only
  /// among those under \p Root when it is set; null if none. Called with
  /// Mutex held.
  Section *claimable(const Section *Root) const;
  /// Runs the next item of \p S as a helper; called and returns with
  /// \p Lock held.
  void help(Section &S, std::unique_lock<std::mutex> &Lock);

  std::vector<std::thread> Workers;
  std::vector<Section *> Open; ///< Open sections, oldest first.
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  bool Stopping = false;
};

ThreadPool &pool() {
  static ThreadPool Pool;
  return Pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    if (Section *S = claimable(nullptr))
      help(*S, Lock);
    else if (Stopping)
      return;
    else
      WorkAvailable.wait(Lock);
  }
}

Section *ThreadPool::claimable(const Section *Root) const {
  for (bool Helped : {false, true})
    for (Section *S : Open)
      if (S->Helped == Helped && (!Root || S->Root == Root) &&
          S->NextUnclaimed < S->N && S->Running < S->MaxHelpers)
        return S;
  return nullptr;
}

void ThreadPool::help(Section &S, std::unique_lock<std::mutex> &Lock) {
  const size_t I = S.NextUnclaimed++;
  ++S.Running;
  Lock.unlock();
  const telemetry::PhaseTotals Before = telemetry::phaseTotals();
  runItem(S, I);
  const telemetry::PhaseTotals After = telemetry::phaseTotals();
  if (S.Helped)
    PoolHelpItems.increment();
  Lock.lock();
  for (size_t P = 0; P < std::size(After.Ns); ++P)
    S.HelperPhases.Ns[P] += After.Ns[P] - Before.Ns[P];
  if (S.Helped)
    S.Done[I] = 1;
  --S.Running;
  // Under the lock: once Running says so, the owner may return and S is
  // gone.
  S.Wake.notify_all();
}

void ThreadPool::open(Section &S) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open.push_back(&S);
  }
  WorkAvailable.notify_all();
  if (S.Root != &S)
    S.Root->Wake.notify_all(); // The root is alive: S is opened in its work.
}

void ThreadPool::close(Section &S) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Open.erase(std::find(Open.begin(), Open.end(), &S));
    S.Wake.wait(Lock, [&S] { return S.Running == 0; });
  }
  telemetry::creditPhaseTotals(S.HelperPhases);
}

void ThreadPool::fanOut(size_t N, size_t Threads,
                        const std::function<void(size_t)> &Fn) {
  const bool TopLevel = CurrentRoot == nullptr;
  Section S(Fn, N, Threads - 1, /*Helped=*/false, CurrentRoot);
  if (TopLevel) {
    std::lock_guard<std::mutex> Lock(Mutex);
    while (Workers.size() < Threads - 1) {
      const size_t Id = Workers.size() + 1;
      Workers.emplace_back([this, Id] {
        telemetry::setCurrentThreadLabel("worker " + std::to_string(Id));
        workerLoop();
      });
      PoolThreadsStarted.increment();
    }
  }
  open(S);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (S.NextUnclaimed < N) {
      const size_t I = S.NextUnclaimed++;
      Lock.unlock();
      runItem(S, I);
      Lock.lock();
    }
    // Every item is claimed. Until the helpers' items finish, a top-level
    // owner helps the work opened under it; a nested one only waits, so
    // its thread never runs another query's items.
    while (S.Running > 0) {
      if (Section *W = TopLevel ? claimable(&S) : nullptr)
        help(*W, Lock);
      else
        S.Wake.wait(Lock);
    }
  }
  close(S);
  for (const std::exception_ptr &E : S.Errors)
    if (E)
      std::rethrow_exception(E);
}

void ThreadPool::runSection(size_t N, const std::function<void(size_t)> &Fn,
                            const std::function<bool(size_t)> &StopAfter) {
  Section S(Fn, N, N, /*Helped=*/true, CurrentRoot);
  S.NextUnclaimed = 1; // The owner holds item 0 from the start.
  open(S);
  if (AwaitHelperForTest.load(std::memory_order_relaxed)) {
    // A helper wakes the owner when its item finishes.
    std::unique_lock<std::mutex> Lock(Mutex);
    S.Wake.wait(Lock, [&S] { return S.NextUnclaimed > 1; });
  }
  // However the fold ends, no helper claims another item, the running
  // ones finish before S goes out of scope, and their phase time is ours.
  try {
    for (size_t I = 0; I < N; ++I) {
      bool Mine = I == 0;
      if (!Mine) {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (S.NextUnclaimed == I) {
          ++S.NextUnclaimed;
          Mine = true;
        } else {
          S.Wake.wait(Lock, [&S, I] { return S.Done[I] != 0; });
        }
      }
      if (Mine)
        Fn(I);
      else if (S.Errors[I])
        std::rethrow_exception(S.Errors[I]);
      if (StopAfter(I))
        break;
    }
  } catch (...) {
    close(S);
    throw;
  }
  close(S);
}

} // namespace

size_t craft::hardwareThreads() {
  static const size_t N = std::max(1u, std::thread::hardware_concurrency());
  return N;
}

size_t craft::fanOutThreads(size_t N, int Jobs) {
  const size_t Threads =
      Jobs <= 0 ? hardwareThreads() : static_cast<size_t>(Jobs);
  return std::min({Threads, maxThreads(), N});
}

bool craft::inFanOutItem() { return CurrentRoot != nullptr; }

void craft::setAwaitHelperForTest(bool On) {
  AwaitHelperForTest.store(On, std::memory_order_relaxed);
}

void craft::parallelForIndex(size_t N, int Jobs,
                             const std::function<void(size_t)> &Fn) {
  const size_t Threads = fanOutThreads(N, Jobs);
  if (Threads <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  pool().fanOut(N, Threads, Fn);
}

void craft::helpedForIndex(size_t N, const std::function<void(size_t)> &Fn,
                           const std::function<bool(size_t)> &StopAfter) {
  if (CurrentRoot && N > 1) {
    pool().runSection(N, Fn, StopAfter);
    return;
  }
  for (size_t I = 0; I < N; ++I) {
    Fn(I);
    if (StopAfter(I))
      return;
  }
}

uint64_t craft::taskSeed(uint64_t Base, uint64_t Index) {
  // splitmix64 (Steele et al.): the stream position is Base + Index + 1, so
  // consecutive indices give statistically independent seeds and Index 0
  // never collides with a plain splitmix64(Base) user.
  uint64_t Z = Base + (Index + 1) * 0x9E3779B97F4A7C15ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}
