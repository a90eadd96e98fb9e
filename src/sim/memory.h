// The one memory model (paper Sec. IV-A, constraints (12)/(13)), with both
// sides of Fig. 8 built from the same terms:
//
//   * The planner's charge: per layer, its weights plus the batch's
//     unpaged KV at max context; per stage, the peak activations, and the
//     embeddings + LM head on the master stage.  PlanContext builds its
//     memory table and stage budgets from it.
//   * The engine's accounting: per device of a stage, fixed bytes (its TP
//     share of weights and activations, plus the embeddings on the master
//     device) and paged KV per request.  plan_memory, the request
//     scheduler's KV budgets and max_concurrency are built on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "sim/plan.h"

namespace sq::sim {

using sq::hw::Bitwidth;

/// Peak activations of a stage, on both sides: the larger of a prefill
/// chunk of `chunk` tokens at micro-batch `eta` and a decode step at `xi`.
std::uint64_t stage_activation_bytes(const sq::model::LlmSpec& m, std::uint64_t eta,
                                     std::uint64_t xi, std::uint64_t chunk);

// ---- The planner's charge ----

/// One layer at `bits`: its weights plus `batch` requests of unpaged KV at
/// `max_context` tokens.
std::uint64_t layer_charge(const sq::model::LlmSpec& m, Bitwidth bits, Bitwidth kv_bits,
                           std::uint64_t batch, std::uint64_t max_context);

/// What a stage of `tp` devices with `usable` bytes each leaves for its
/// layer charges, less its `activations` and the master's embeddings;
/// floored at 0, in doubles as the planner's tables are.
double stage_layer_budget(const sq::model::LlmSpec& m, std::uint64_t usable, int tp,
                          bool master, std::uint64_t activations);

/// The charge on each device of `plan` under `w`, in plan_memory's order:
/// its TP share of the stage's layer charges and activations, plus the
/// master's embeddings.  Fig. 8's predicted side.
std::vector<std::uint64_t> plan_charge(const sq::model::LlmSpec& m,
                                       const ExecutionPlan& plan, const BatchWorkload& w);

// ---- The engine's accounting ----

/// Tokens per page of the engine's KV cache (vLLM's default).
inline constexpr std::uint64_t kKvBlockTokens = 16;

/// KV bytes of one request at `context` tokens on `layers` layers, in
/// whole pages.
std::uint64_t paged_kv_bytes(const sq::model::LlmSpec& m, std::uint64_t context,
                             Bitwidth kv_bits, int layers);

/// Memory usage of one device under a plan.
struct DeviceMemory {
  int device = 0;                 ///< Flat cluster index.
  std::uint64_t weights = 0;      ///< Quantized layer weights (its TP share).
  std::uint64_t kv_cache = 0;     ///< Reserved KV for max context x batch.
  std::uint64_t activations = 0;  ///< Peak transient activations.
  std::uint64_t embeddings = 0;   ///< Embedding + LM head (master only).

  /// Total bytes.
  std::uint64_t total() const {
    return weights + kv_cache + activations + embeddings;
  }
};

/// The fixed bytes of device `di` of `plan.stages[s]` for activations at
/// (eta, xi, chunk); `kv_cache` is 0.  Each request adds its TP share of
/// the stage's paged_kv_bytes.
DeviceMemory device_fixed_memory(const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                                 std::size_t s, std::size_t di, std::uint64_t eta,
                                 std::uint64_t xi, std::uint64_t chunk);

/// Memory report for a whole plan.
struct MemoryReport {
  std::vector<DeviceMemory> devices;  ///< One entry per device used.
  bool oom = false;                   ///< Any device over its usable memory.
  int oom_device = -1;                ///< First offending device, or -1.
};

/// Account the plan's memory on every device it uses, with KV reserved
/// for the full batch at maximum context, as the paper's serving system
/// does.
MemoryReport plan_memory(const sq::hw::Cluster& cluster, const sq::model::LlmSpec& m,
                         const ExecutionPlan& plan, const BatchWorkload& w);

}  // namespace sq::sim
