//===- serve/ResultCache.h - LRU outcome cache ------------------*- C++ -*-===//
//
// Part of the Craft reproduction (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of verification outcomes: one exact LRU behind one mutex,
/// keyed by the serve cache key (canonical spec serialization + semantic
/// model hash — see tool/SpecCanon.h). A hit returns the stored RunOutcome
/// verbatim, including its original TimeSeconds, so a repeated query's
/// payload is byte-identical to the first answer; only the
/// transport-level `cached` flag differs.
///
/// Traffic is counted on the process-wide telemetry registry
/// (`serve.cache.misses`, `.insertions`, `.evictions`; hits are the
/// scheduler's `serve.cache_hits`) and read through the `metrics`
/// protocol method.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFT_SERVE_RESULTCACHE_H
#define CRAFT_SERVE_RESULTCACHE_H

#include "tool/Driver.h"

#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace craft {
namespace serve {

/// Thread-safe LRU map from cache key to RunOutcome.
class ResultCache {
public:
  /// \p Capacity entries (floored at 1).
  explicit ResultCache(size_t Capacity = 4096);

  ResultCache(const ResultCache &) = delete;
  ResultCache &operator=(const ResultCache &) = delete;

  /// Returns the cached outcome and refreshes its LRU position, or
  /// nullopt (counting a miss).
  std::optional<RunOutcome> lookup(const std::string &Key);

  /// Inserts (or refreshes) \p Key, evicting the least recently used
  /// entry when the cache is full. Re-inserting an existing key
  /// overwrites its value — outcomes for one key are identical by the
  /// determinism contract, so this is only reached by racing misses.
  void insert(const std::string &Key, const RunOutcome &Outcome);

  /// Entries currently held.
  size_t size() const;

private:
  size_t Capacity;
  mutable std::mutex Mutex;
  /// Front = most recently used. Node owns the key string; the index
  /// below views it (list nodes never move).
  std::list<std::pair<std::string, RunOutcome>> Lru;
  std::unordered_map<std::string_view,
                     std::list<std::pair<std::string, RunOutcome>>::iterator>
      Index;
};

} // namespace serve
} // namespace craft

#endif // CRAFT_SERVE_RESULTCACHE_H
