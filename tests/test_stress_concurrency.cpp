//===- tests/test_stress_concurrency.cpp - MpmcQueue/ThreadPool stress ----===//
//
// High-contention stress for the concurrency primitives under the serve
// and split stacks: multi-producer/multi-consumer queue traffic with
// back-pressure, close() racing blocked producers, consecutive fan-outs
// over the one pool (the SplitEngine wave pattern), fan-outs that return
// only after their slowest item, and exception propagation under
// contention.
//
// These tests assert conservation invariants (every accepted item is
// consumed exactly once) rather than timings, so they are meaningful
// under ThreadSanitizer — the tsan CI job runs this suite to detect
// races, not just crashes.
//
//===----------------------------------------------------------------------===//

#include "support/MpmcQueue.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace craft;

namespace {

TEST(MpmcStress, ManyProducersManyConsumersConserveItems) {
  // Tiny capacity forces constant back-pressure: producers block in
  // push, consumers block in pop, and every notify path gets exercised.
  MpmcQueue<int> Q(4);
  constexpr int Producers = 4, Consumers = 4, PerProducer = 2000;

  std::atomic<long long> PoppedSum{0};
  std::atomic<int> PoppedCount{0};
  std::vector<std::thread> Threads;
  for (int P = 0; P < Producers; ++P)
    Threads.emplace_back([&Q, P] {
      for (int I = 0; I < PerProducer; ++I) {
        int Item = P * PerProducer + I;
        ASSERT_TRUE(Q.push(std::move(Item)));
      }
    });
  for (int C = 0; C < Consumers; ++C)
    Threads.emplace_back([&Q, &PoppedSum, &PoppedCount] {
      while (std::optional<int> Item = Q.pop()) {
        PoppedSum.fetch_add(*Item);
        PoppedCount.fetch_add(1);
      }
    });

  for (int P = 0; P < Producers; ++P)
    Threads[P].join();
  Q.close(); // Producers done: consumers drain and see end-of-stream.
  for (int C = 0; C < Consumers; ++C)
    Threads[Producers + C].join();

  const int Total = Producers * PerProducer;
  EXPECT_EQ(PoppedCount.load(), Total);
  EXPECT_EQ(PoppedSum.load(),
            static_cast<long long>(Total) * (Total - 1) / 2);
}

TEST(MpmcStress, CloseRacingBlockedProducersKeepsOwnership) {
  MpmcQueue<std::unique_ptr<int>> Q(1);
  ASSERT_TRUE(Q.push(std::make_unique<int>(-1))); // Fill to capacity.

  constexpr int Producers = 8;
  std::atomic<int> Accepted{0}, Rejected{0};
  std::vector<std::thread> Threads;
  for (int P = 0; P < Producers; ++P)
    Threads.emplace_back([&Q, &Accepted, &Rejected, P] {
      std::unique_ptr<int> Item = std::make_unique<int>(P);
      if (Q.push(std::move(Item))) {
        Accepted.fetch_add(1);
      } else {
        // The documented contract: a failed push does not move the item,
        // so the producer still owns it (the serve scheduler unwinds a
        // job that raced shutdown through exactly this path).
        ASSERT_NE(Item, nullptr);
        ASSERT_EQ(*Item, P);
        Rejected.fetch_add(1);
      }
    });

  // Let producers pile up on the full queue, then close underneath them.
  std::this_thread::yield();
  Q.close();
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Accepted.load() + Rejected.load(), Producers);

  // Whatever was accepted before the close is still drainable.
  int Drained = 0;
  while (Q.pop())
    ++Drained;
  EXPECT_EQ(Drained, Accepted.load() + 1);
}

TEST(MpmcStress, TryPopContention) {
  MpmcQueue<int> Q(64);
  constexpr int Items = 4000;
  std::atomic<int> Got{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < 4; ++C)
    Threads.emplace_back([&Q, &Got] {
      int Item;
      for (;;) {
        if (Q.tryPop(Item)) {
          Got.fetch_add(1);
        } else if (Q.closed()) {
          // Empty-at-that-instant + closed can still strand items pushed
          // between the two checks; the mop-up below counts those.
          return;
        }
      }
    });
  for (int I = 0; I < Items; ++I)
    ASSERT_TRUE(Q.push(int(I)));
  Q.close();
  for (std::thread &T : Threads)
    T.join();
  // tryPop after close can race the final drain; mop up what is left.
  int Item;
  while (Q.tryPop(Item))
    Got.fetch_add(1);
  EXPECT_EQ(Got.load(), Items);
}

TEST(ThreadPoolStress, WaveReuseLikeSplitEngine) {
  // Many consecutive fan-outs over the one pool — the SplitEngine wave
  // pattern whose per-fan-out accounting the TSan job watches.
  constexpr int Waves = 50, ItemsPerWave = 64;
  for (int W = 0; W < Waves; ++W) {
    std::vector<int> Slots(ItemsPerWave, -1);
    parallelForIndex(ItemsPerWave, 4, [&Slots, W](size_t I) {
      Slots[I] = W * ItemsPerWave + int(I);
    });
    for (int I = 0; I < ItemsPerWave; ++I)
      ASSERT_EQ(Slots[I], W * ItemsPerWave + I);
  }
}

TEST(ThreadPoolStress, FanOutReturnsAfterEveryItem) {
  // Items of uneven length on two threads: when the fan-out returns,
  // every item has run to its end, including those still running on a
  // helper when the caller ran out of items.
  std::atomic<int> Ran{0};
  constexpr int Items = 500;
  parallelForIndex(Items, 2, [&Ran](size_t I) {
    if (I % 50 == 49)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Ran.fetch_add(1);
  });
  EXPECT_EQ(Ran.load(), Items);
}

TEST(ThreadPoolStress, ExceptionUnderContentionStillDrains) {
  std::atomic<int> Ran{0};
  constexpr int Items = 256;
  EXPECT_THROW(parallelForIndex(Items, 4,
                                [&Ran](size_t I) {
                                  Ran.fetch_add(1);
                                  if (I % 37 == 0)
                                    throw std::runtime_error("item failure");
                                }),
               std::runtime_error);
  // Every item ran (failures don't cancel the fan-out), and the pool is
  // reusable after an exceptional fan-out.
  EXPECT_EQ(Ran.load(), Items);
  parallelForIndex(4, 4, [&Ran](size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), Items + 4);
}

TEST(ThreadPoolStress, ParallelForIndexMatchesSerial) {
  constexpr size_t N = 2048;
  std::vector<uint64_t> Serial(N), Parallel(N);
  auto Work = [](size_t I) { return taskSeed(20230617, I) % 1000003; };
  parallelForIndex(N, 1, [&](size_t I) { Serial[I] = Work(I); });
  parallelForIndex(N, 8, [&](size_t I) { Parallel[I] = Work(I); });
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
