// Thread-safe memoization cache for pure functions.
//
// Backs the content-addressed QuantCache (src/quant/quant_cache.h), whose
// values — quantized layers — cost far more to compute than a lookup.
// Cheap pure values (a stage time, a latency prediction) are computed
// directly instead: a probe here hashes, locks a shard and bumps a shared
// counter, which costs more than they do.  Sharded mutexes keep
// contention low under concurrent callers; a per-shard
// entry cap bounds memory (a full shard is dropped wholesale — values are
// recomputed identically on the next miss, so eviction never changes
// results).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace sq::common {

/// Mix for combining pre-hashed 64-bit key material (splitmix64 finalizer).
constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class MemoCache {
 public:
  /// `max_entries` caps the total entry count (split evenly over shards).
  explicit MemoCache(std::size_t max_entries = 1u << 20)
      : shard_cap_((max_entries + kShards - 1) / kShards) {
    if (shard_cap_ == 0) shard_cap_ = 1;
  }
  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// Return the cached value for `key`, computing it via `compute()` on a
  /// miss.  `compute` runs outside the shard lock, so concurrent misses on
  /// the same key may compute redundantly — for the pure functions this
  /// cache serves, every racer produces the same value, and the first
  /// insert wins.  An exception from `compute` propagates and caches
  /// nothing.
  template <typename F>
  Value get_or_compute(const Key& key, F&& compute) {
    Shard& shard = shard_of(key);
    {
      const std::lock_guard<std::mutex> lk(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    Value value = compute();
    const std::lock_guard<std::mutex> lk(shard.mu);
    if (shard.map.size() >= shard_cap_) shard.map.clear();
    return shard.map.emplace(key, std::move(value)).first->second;
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) {
      const std::lock_guard<std::mutex> lk(s.mu);
      total += s.map.size();
    }
    return total;
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  void clear() {
    for (Shard& s : shards_) {
      const std::lock_guard<std::mutex> lk(s.mu);
      s.map.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 64;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value, Hash> map;
  };

  Shard& shard_of(const Key& key) {
    // Re-mix: unordered_map buckets already consume the low bits.
    return shards_[hash_mix(0, Hash{}(key)) % kShards];
  }

  std::size_t shard_cap_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace sq::common
