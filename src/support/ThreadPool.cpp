//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <iterator>
#include <string>

using namespace craft;

namespace {
/// The pool this thread works for; null off pool workers.
thread_local ThreadPool *CurrentPool = nullptr;

const telemetry::Counter PoolHelpItems =
    telemetry::counterMetric("pool.help_items");
} // namespace

/// One open helpedForIndex section. It lives on its owner's stack; every
/// field but Fn is guarded by the pool mutex, except that a helper writes
/// Errors[I] before it marks item I done.
struct ThreadPool::Section {
  Section(const std::function<void(size_t)> &Fn, size_t N)
      : Fn(Fn), N(N), Done(N, 0), Errors(N) {}

  const std::function<void(size_t)> &Fn;
  size_t N;
  size_t NextUnclaimed = 1; ///< The owner holds item 0 from the start.
  size_t Running = 0;       ///< Items running on helpers.
  std::vector<char> Done;   ///< Done[I]: item I finished on a helper.
  std::vector<std::exception_ptr> Errors; ///< Helper-run items' throws.
  telemetry::PhaseTotals HelperPhases;    ///< Phase time helpers recorded.
  std::condition_variable ItemDone;
};

size_t ThreadPool::hardwareWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

bool ThreadPool::onWorkerThread() { return CurrentPool != nullptr; }

ThreadPool::ThreadPool(size_t NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = hardwareWorkers();
  Workers.reserve(NumWorkers);
  for (size_t I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] {
      CurrentPool = this;
      telemetry::setCurrentThreadLabel("worker " + std::to_string(I + 1));
      workerLoop();
    });
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

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++InFlight;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return InFlight == 0; });
  if (FirstError) {
    std::exception_ptr E = FirstError;
    FirstError = nullptr;
    std::rethrow_exception(E);
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    if (!Queue.empty()) {
      std::function<void()> Task = std::move(Queue.front());
      Queue.pop_front();
      Lock.unlock();
      std::exception_ptr Error;
      try {
        Task();
      } catch (...) {
        Error = std::current_exception();
      }
      Task = nullptr;
      Lock.lock();
      if (Error && !FirstError)
        FirstError = Error;
      if (--InFlight == 0)
        AllDone.notify_all();
      continue;
    }
    // No task waits to start: help the oldest section with an item left.
    if (Section *S = sectionWithItems()) {
      helpWith(*S, S->NextUnclaimed++, Lock);
      continue;
    }
    if (Stopping)
      return; // Stopping and drained.
    WorkAvailable.wait(Lock, [this] {
      return Stopping || !Queue.empty() || sectionWithItems();
    });
  }
}

ThreadPool::Section *ThreadPool::sectionWithItems() const {
  for (Section *S : Sections)
    if (S->NextUnclaimed < S->N)
      return S;
  return nullptr;
}

void ThreadPool::helpWith(Section &S, size_t I,
                          std::unique_lock<std::mutex> &Lock) {
  ++S.Running;
  Lock.unlock();
  const telemetry::PhaseTotals Before = telemetry::phaseTotals();
  {
    TRACE_SPAN("pool.help");
    try {
      S.Fn(I);
    } catch (...) {
      S.Errors[I] = std::current_exception();
    }
  }
  const telemetry::PhaseTotals After = telemetry::phaseTotals();
  PoolHelpItems.increment();
  Lock.lock();
  for (size_t P = 0; P < std::size(After.Ns); ++P)
    S.HelperPhases.Ns[P] += After.Ns[P] - Before.Ns[P];
  S.Done[I] = 1;
  --S.Running;
  // Under the lock: once Running and Done say so, the owner may return
  // and S is gone.
  S.ItemDone.notify_all();
}

void ThreadPool::runSection(size_t N, const std::function<void(size_t)> &Fn,
                            const std::function<bool(size_t)> &StopAfter) {
  Section S(Fn, N);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Sections.push_back(&S);
  }
  WorkAvailable.notify_all();
  // However the fold ends, no helper claims another item, the running
  // ones finish before S goes out of scope, and their phase time is ours.
  auto close = [&] {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Sections.erase(std::find(Sections.begin(), Sections.end(), &S));
      S.ItemDone.wait(Lock, [&S] { return S.Running == 0; });
    }
    telemetry::creditPhaseTotals(S.HelperPhases);
  };
  try {
    for (size_t I = 0; I < N; ++I) {
      bool Mine = I == 0;
      if (!Mine) {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (S.NextUnclaimed == I) {
          ++S.NextUnclaimed;
          Mine = true;
        } else {
          S.ItemDone.wait(Lock, [&S, I] { return S.Done[I] != 0; });
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
    close();
    throw;
  }
  close();
}

void craft::helpedForIndex(size_t N, const std::function<void(size_t)> &Fn,
                           const std::function<bool(size_t)> &StopAfter) {
  ThreadPool *Pool = CurrentPool;
  if (Pool && Pool->workerCount() > 1 && N > 1) {
    Pool->runSection(N, Fn, StopAfter);
    return;
  }
  for (size_t I = 0; I < N; ++I) {
    Fn(I);
    if (StopAfter(I))
      return;
  }
}

void craft::parallelForIndex(size_t N, int Jobs,
                             const std::function<void(size_t)> &Fn) {
  size_t NumWorkers =
      Jobs <= 0 ? ThreadPool::hardwareWorkers() : static_cast<size_t>(Jobs);
  NumWorkers = std::min(NumWorkers, N);
  if (NumWorkers <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  ThreadPool Pool(NumWorkers);
  for (size_t I = 0; I < N; ++I)
    Pool.submit([&Fn, I] { Fn(I); });
  Pool.wait();
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
