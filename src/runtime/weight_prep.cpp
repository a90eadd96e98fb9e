#include "runtime/weight_prep.h"

#include <chrono>

#include "obs/metrics.h"
#include "quant/quant_cache.h"

namespace sq::runtime {

PrepStats WeightPrep::prepare(
    const std::vector<sq::hw::Bitwidth>& layer_bits) const {
  return run(layer_bits, nullptr);
}

PrepStats WeightPrep::reprepare(
    const std::vector<sq::hw::Bitwidth>& old_bits,
    const std::vector<sq::hw::Bitwidth>& new_bits) const {
  std::vector<bool> changed(new_bits.size(), false);
  for (std::size_t l = 0; l < new_bits.size(); ++l) {
    changed[l] = l >= old_bits.size() || old_bits[l] != new_bits[l];
  }
  return run(new_bits, &changed);
}

PrepStats WeightPrep::run(const std::vector<sq::hw::Bitwidth>& bits,
                          const std::vector<bool>* changed) const {
  PrepStats stats;
  stats.layers_total = bits.size();
  if (!provider_) return stats;

  std::vector<sq::quant::QuantJob> jobs;
  jobs.reserve(bits.size());
  for (std::size_t l = 0; l < bits.size(); ++l) {
    if (bits[l] == sq::hw::Bitwidth::kFp16) continue;  // No packing needed.
    if (changed != nullptr && !(*changed)[l]) continue;
    const sq::tensor::Tensor* w = provider_(static_cast<int>(l));
    if (w == nullptr) continue;
    sq::quant::QuantJob job;
    job.weights = w;
    job.bits = bits[l];
    jobs.push_back(job);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto model_stats =
      sq::quant::QuantCache::global().quantize_model(jobs);
  const auto t1 = std::chrono::steady_clock::now();
  stats.layers_quantized = model_stats.layers_quantized;
  stats.layers_reused = model_stats.layers_reused;
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (sq::obs::enabled()) {
    sq::obs::counter("quant.prep.passes").add(1);
    sq::obs::gauge("quant.prep.last_layers").set(
        static_cast<double>(jobs.size()));
  }
  return stats;
}

}  // namespace sq::runtime
