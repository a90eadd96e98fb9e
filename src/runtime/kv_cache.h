// Paged KV-cache allocator (PagedAttention-style accounting).
//
// The serving runtime reserves KV memory in pages of sim::kKvBlockTokens
// tokens per request per layer (the engine's accounting, sim/memory.h).
// This module tracks allocation against a byte budget so the engine can
// detect mid-batch OOM and cap concurrency — the mechanism behind the
// Uniform baseline's failures in Fig. 10.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/gpu.h"
#include "model/llm.h"
#include "obs/metrics.h"

namespace sq::runtime {

/// The kv.* instruments an observed allocator writes.
struct KvMetrics {
  sq::obs::LazyMetric<sq::obs::Counter> reserve_denied{"kv.reserve_denied"};
  sq::obs::LazyMetric<sq::obs::Gauge> occupancy_hwm{"kv.occupancy.hwm"};
};

/// Block-granular KV allocator for the layers resident on one device.
class KvCacheAllocator {
 public:
  /// `budget_bytes`: memory available for KV on the device.
  /// `layers`: decoder layers resident on the device (its stage share).
  KvCacheAllocator(const sq::model::LlmSpec& m, std::uint64_t budget_bytes,
                   int layers, sq::hw::Bitwidth kv_bits);

  /// Bytes of one block across all resident layers.
  std::uint64_t block_bytes() const { return block_bytes_; }

  /// Blocks still available.
  std::uint64_t free_blocks() const { return total_blocks_ - used_blocks_; }

  /// Try to grow request `req` to `context_tokens` of KV; allocates any
  /// missing blocks.  Returns false (state unchanged) when the budget
  /// would be exceeded.  Request ids index a dense block table, so they
  /// should be small (the scheduler passes arrival-list indices).
  bool reserve(std::uint64_t req, std::uint64_t context_tokens);

  /// Release all blocks of request `req` (finished / evicted).
  void release(std::uint64_t req);

  /// Blocks currently held by request `req` (0 if unknown).
  std::uint64_t blocks_of(std::uint64_t req) const;

  /// Fraction of the budget in use, [0, 1].
  double utilization() const;

  /// Record denied reservations and the occupancy high-water mark into
  /// `m`; null (the default) records nothing.  The owner passes metrics
  /// only when its engine observes, so the allocator follows the engine's
  /// observe switch rather than the global one.
  void set_metrics(KvMetrics* m) { metrics_ = m; }

 private:
  std::uint64_t block_bytes_ = 0;
  std::uint64_t total_blocks_ = 0;
  std::uint64_t used_blocks_ = 0;
  /// Blocks held per request id; ids past the end hold none.
  std::vector<std::uint64_t> held_;
  KvMetrics* metrics_ = nullptr;
};

}  // namespace sq::runtime
