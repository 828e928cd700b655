//===- serve/ResultCache.cpp ----------------------------------------------===//

#include "serve/ResultCache.h"

#include "support/Telemetry.h"

using namespace craft;
using namespace craft::serve;

namespace {

/// Process-wide cache traffic (hits are counted by the scheduler as
/// serve.cache_hits).
const telemetry::Counter CacheMisses =
    telemetry::counterMetric("serve.cache.misses");
const telemetry::Counter CacheInsertions =
    telemetry::counterMetric("serve.cache.insertions");
const telemetry::Counter CacheEvictions =
    telemetry::counterMetric("serve.cache.evictions");

} // namespace

ResultCache::ResultCache(size_t Capacity)
    : Capacity(Capacity < 1 ? 1 : Capacity) {}

std::optional<RunOutcome> ResultCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(std::string_view(Key));
  if (It == Index.end()) {
    CacheMisses.increment();
    return std::nullopt;
  }
  Lru.splice(Lru.begin(), Lru, It->second); // Refresh recency.
  return It->second->second;
}

void ResultCache::insert(const std::string &Key,
                         const RunOutcome &Outcome) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(std::string_view(Key));
  if (It != Index.end()) {
    It->second->second = Outcome;
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(std::string_view(Lru.back().first));
    Lru.pop_back();
    CacheEvictions.increment();
  }
  Lru.emplace_front(Key, Outcome);
  Index.emplace(std::string_view(Lru.front().first), Lru.begin());
  CacheInsertions.increment();
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}
