//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <string>

using namespace craft;

namespace {
thread_local bool IsPoolWorker = false;
} // namespace

size_t ThreadPool::hardwareWorkers() {
  unsigned N = std::thread::hardware_concurrency();
  return N > 0 ? N : 1;
}

bool ThreadPool::onWorkerThread() { return IsPoolWorker; }

ThreadPool::ThreadPool(size_t NumWorkers) {
  if (NumWorkers == 0)
    NumWorkers = hardwareWorkers();
  Workers.reserve(NumWorkers);
  for (size_t I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] {
      IsPoolWorker = true;
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
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    std::exception_ptr Error;
    try {
      Task();
    } catch (...) {
      Error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Error && !FirstError)
        FirstError = Error;
      if (--InFlight == 0)
        AllDone.notify_all();
    }
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
