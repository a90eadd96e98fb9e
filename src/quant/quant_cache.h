// Content-addressed cache of quantized layers.
//
// The planner re-quantizes the same weight matrices over and over: the
// sensitivity probe sweeps bitwidths per layer, every materialized plan
// re-packs the layers it assigns, plan repair re-quantizes after faults,
// and each fleet replica group packs its own shard.  Quantization is pure
// in (weight bytes, bitwidth, group size), so results are memoized in a
// process-wide sharded cache keyed by a content fingerprint — two call
// sites quantizing identical weights the same way share one packed
// QTensor, whoever got there first.  A cached layer costs
// its planned bitwidth: the QTensor holds its codes bit-packed (qtensor.h),
// ceil(n * bits / 8) bytes plus the group scales.
//
// Cached tensors are shared_ptr<const QTensor>: immutable after
// construction, safe to use from any thread, alive for as long as any
// user holds them even if the cache evicts.  Eviction (per-shard cap in
// MemoCache) only ever costs recomputation — identical bits come back.
//
// Lookup order.  The content fingerprint (qkernels.h "Weight fingerprint")
// reads the whole layer, and so does quantizing it; a miss that did both in
// turn would read each layer twice.  A lookup therefore folds only the
// first kPackChunk floats, then asks a small set of the prefix digests of
// held entries (the key's bitwidth, group size and shape with that
// first-chunk fingerprint).  No match means the call cannot hit: quantize_pack folds
// the rest of the fingerprint chunk by chunk as it quantizes, the layer is
// read once, and the finished tensor goes to the ordinary MemoCache probe.
// A match finishes the fingerprint first and quantizes only on a miss, so
// a hit never pays for quantization.  The set is cleared with the cache; a
// digest left behind by shard eviction only costs the two-pass order.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/memo_cache.h"
#include "quant/qtensor.h"

namespace sq::quant {

/// Cache key: everything quantization is pure in.  `weight_fp` is a
/// 64-bit content fingerprint of the weight bytes and shape.
struct QuantKey {
  std::uint64_t weight_fp = 0;
  Bitwidth bits = Bitwidth::kFp16;
  std::size_t group_size = 0;
  bool operator==(const QuantKey&) const = default;
};

struct QuantKeyHash {
  std::size_t operator()(const QuantKey& k) const;
};

/// One whole-model quantization request: quantize `*weights` (must stay
/// alive for the call) at `bits` with `group_size` elements per scale.
struct QuantJob {
  const sq::tensor::Tensor* weights = nullptr;
  Bitwidth bits = Bitwidth::kFp16;
  std::size_t group_size = 64;
};

/// Result of a quantize_model fan-out.
struct QuantModelStats {
  std::vector<std::shared_ptr<const QTensor>> tensors;  ///< One per job.
  std::size_t layers_quantized = 0;  ///< Jobs that computed fresh.
  std::size_t layers_reused = 0;     ///< Jobs served from cache.
};

/// Process-wide quantized-layer cache.  All methods are thread-safe.
class QuantCache {
 public:
  explicit QuantCache(std::size_t max_entries = 1u << 12);

  /// The shared instance every production call site uses.
  static QuantCache& global();

  /// Return the packed quantization of `w`, computing it on a miss.  The
  /// QTensor is built without the construction-MSE pass (callers of the
  /// cache feed matmuls, not indicator studies); codes and params are
  /// bit-identical to a direct QTensor construction.  Sets `*computed`
  /// (when non-null) to whether this call's tensor went into the cache.
  /// See "Lookup order" above for when the weights are read once.
  std::shared_ptr<const QTensor> get_or_quantize(const sq::tensor::Tensor& w,
                                                 Bitwidth bits,
                                                 std::size_t group_size,
                                                 bool* computed = nullptr);

  /// Quantize a whole model: fan the jobs out over the kernel thread pool
  /// (qkernels quant_pool; SQ_THREADS-sized) and return the per-job
  /// tensors plus hit/compute counts.  Degrades to an inline loop when
  /// single-threaded or already on a pool worker.
  QuantModelStats quantize_model(std::span<const QuantJob> jobs);

  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  std::size_t size() const { return cache_.size(); }
  /// Prefix digests held (see "Lookup order").
  std::size_t prefix_digests() const;
  /// Drop every entry and its prefix digest, and zero the counters.
  void clear();

 private:
  bool may_hold(std::uint64_t prefix) const;
  void note_held(std::uint64_t prefix);

  sq::common::MemoCache<QuantKey, std::shared_ptr<const QTensor>, QuantKeyHash>
      cache_;
  /// Prefix digests of held entries (see "Lookup order"); capped like the
  /// cache and dropped wholesale when full.  A lost digest makes a later
  /// hit quantize once for nothing before its probe, never a wrong result.
  mutable std::mutex prefix_mu_;
  std::unordered_set<std::uint64_t> prefixes_;
  std::size_t prefix_cap_;
};

}  // namespace sq::quant
