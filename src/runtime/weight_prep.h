// Plan-driven weight preparation: the bridge between execution plans and
// the quantized-layer cache.
//
// The serving engines simulate execution, but the quality numbers behind
// a plan come from really quantizing model weights at the plan's
// per-layer bitwidths.  WeightPrep turns a plan's `layer_bits` into a
// QuantCache::quantize_model fan-out over a caller-supplied weight
// provider: the engines invoke it when serving starts (warm the cache
// before the first wave) and after plan repair (re-quantize ONLY the
// layers whose assigned bits changed — unchanged layers hit the cache).
// Preparation never changes serving results; it moves quantization cost
// off the measurement path and deduplicates it across engines, probes and
// fleet replica groups.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hw/gpu.h"
#include "tensor/tensor.h"

namespace sq::runtime {

/// Aggregate outcome of one preparation pass.
struct PrepStats {
  std::size_t layers_total = 0;      ///< Layers the pass considered.
  std::size_t layers_quantized = 0;  ///< Freshly quantized this pass.
  std::size_t layers_reused = 0;     ///< Served from the QuantCache.
  double wall_seconds = 0.0;         ///< Real wall time of the pass.
};

/// Prepares (quantizes + caches) model weights for a plan's bit
/// assignment.  Thread-safe: all state is immutable after construction
/// and the underlying cache is the process-wide QuantCache.
class WeightPrep {
 public:
  /// Supplies the weight matrix of decoder layer `layer`, or nullptr when
  /// the layer has no real weights to prepare (it is then skipped).  The
  /// pointee must outlive the WeightPrep.
  using Provider = std::function<const sq::tensor::Tensor*(int layer)>;

  /// Every layer is quantized at QuantJob's default group size (plans
  /// choose bits only).
  explicit WeightPrep(Provider provider) : provider_(std::move(provider)) {}

  /// Quantize every non-FP16 layer of `layer_bits` into the QuantCache
  /// (parallel fan-out; already-cached layers are counted as reused).
  PrepStats prepare(const std::vector<sq::hw::Bitwidth>& layer_bits) const;

  /// Incremental preparation after plan repair: only layers whose assigned
  /// bits CHANGED between `old_bits` and `new_bits` (and are not FP16 in
  /// the new plan) are prepared.  Layers beyond old_bits' length count as
  /// changed.
  PrepStats reprepare(const std::vector<sq::hw::Bitwidth>& old_bits,
                      const std::vector<sq::hw::Bitwidth>& new_bits) const;

 private:
  PrepStats run(const std::vector<sq::hw::Bitwidth>& bits,
                const std::vector<bool>* changed) const;

  Provider provider_;
};

}  // namespace sq::runtime
