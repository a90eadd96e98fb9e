#include "sim/memory.h"

#include <algorithm>

namespace sq::sim {

std::uint64_t stage_activation_bytes(const sq::model::LlmSpec& m, std::uint64_t eta,
                                     std::uint64_t xi, std::uint64_t chunk) {
  return std::max(m.layer_peak_activation_bytes(eta, chunk),
                  m.layer_peak_activation_bytes(xi, 1));
}

std::uint64_t layer_charge(const sq::model::LlmSpec& m, Bitwidth bits, Bitwidth kv_bits,
                           std::uint64_t batch, std::uint64_t max_context) {
  return m.layer_weight_bytes(bits) + batch * m.layer_kv_bytes(max_context, kv_bits);
}

double stage_layer_budget(const sq::model::LlmSpec& m, std::uint64_t usable, int tp,
                          bool master, std::uint64_t activations) {
  double budget = static_cast<double>(usable);
  if (master) budget -= static_cast<double>(m.embedding_bytes());
  return std::max(0.0, budget * tp - static_cast<double>(activations));
}

std::vector<std::uint64_t> plan_charge(const sq::model::LlmSpec& m,
                                       const ExecutionPlan& plan, const BatchWorkload& w) {
  const std::uint64_t act = stage_activation_bytes(
      m, plan.prefill_microbatch, plan.decode_microbatch, w.chunk_len());
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& stage = plan.stages[s];
    std::uint64_t layers = 0;
    for (int l = stage.layer_begin; l < stage.layer_end; ++l) {
      layers += layer_charge(m, plan.layer_bits[static_cast<std::size_t>(l)],
                             plan.kv_bits, w.batch_size, w.max_context());
    }
    for (std::size_t di = 0; di < stage.devices.size(); ++di) {
      out.push_back((layers + act) / static_cast<std::uint64_t>(stage.tp()) +
                    (s == 0 && di == 0 ? m.embedding_bytes() : 0));
    }
  }
  return out;
}

std::uint64_t paged_kv_bytes(const sq::model::LlmSpec& m, std::uint64_t context,
                             Bitwidth kv_bits, int layers) {
  const std::uint64_t pages = (context + kKvBlockTokens - 1) / kKvBlockTokens;
  return m.layer_kv_bytes(pages * kKvBlockTokens, kv_bits) *
         static_cast<std::uint64_t>(layers);
}

DeviceMemory device_fixed_memory(const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                                 std::size_t s, std::size_t di, std::uint64_t eta,
                                 std::uint64_t xi, std::uint64_t chunk) {
  const auto& stage = plan.stages[s];
  const auto tp = static_cast<std::uint64_t>(stage.tp());
  DeviceMemory dm;
  dm.device = stage.devices[di];
  for (int l = stage.layer_begin; l < stage.layer_end; ++l) {
    dm.weights += m.layer_weight_bytes(plan.layer_bits[static_cast<std::size_t>(l)]);
  }
  dm.weights /= tp;
  dm.activations = stage_activation_bytes(m, eta, xi, chunk) / tp;
  if (s == 0 && di == 0) dm.embeddings = m.embedding_bytes();  // Constraint (13).
  return dm;
}

MemoryReport plan_memory(const sq::hw::Cluster& cluster, const sq::model::LlmSpec& m,
                         const ExecutionPlan& plan, const BatchWorkload& w) {
  MemoryReport report;
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& stage = plan.stages[s];
    const std::uint64_t kv =
        w.batch_size * paged_kv_bytes(m, w.max_context(), plan.kv_bits, stage.layer_count());
    for (std::size_t di = 0; di < stage.devices.size(); ++di) {
      DeviceMemory dm = device_fixed_memory(m, plan, s, di, plan.prefill_microbatch,
                                            plan.decode_microbatch, w.chunk_len());
      dm.kv_cache = kv / static_cast<std::uint64_t>(stage.tp());
      if (dm.total() > cluster.spec(dm.device).usable_memory_bytes() && !report.oom) {
        report.oom = true;
        report.oom_device = dm.device;
      }
      report.devices.push_back(dm);
    }
  }
  return report;
}

}  // namespace sq::sim
