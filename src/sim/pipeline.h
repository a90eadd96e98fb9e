// Discrete-event simulation of pipelined two-phase LLM serving.
//
// This is the repository's stand-in for running the plan on physical GPUs:
// prefill micro-batches flow through the stages (chunked), then decode
// proceeds token-step by token-step with its own micro-batch size; the
// master engine embeds tokens before stage 0 and computes logits after the
// last stage; activations travel over the actual inter-device links.
// Pipeline bubbles, stragglers and communication stalls emerge from the
// schedule recurrence rather than being modeled analytically — which is
// what lets the analytical cost model of src/cost be *validated* against
// this simulator (Fig. 8) instead of against itself.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "sim/kernel_model.h"
#include "sim/memory.h"
#include "sim/plan.h"

namespace sq::sim {

/// Outcome of simulating one batch through a plan.
struct SimResult {
  bool oom = false;           ///< Plan does not fit; times are meaningless.
  int oom_device = -1;        ///< First device over capacity.
  /// Typed fault outcome: when a device-failure window intersects scheduled
  /// work, the batch aborts at the earliest such intersection instead of
  /// completing.  Only `fault_*` and `total_us` (the abort time) are
  /// meaningful then; no exception is thrown and nothing crashes.
  bool faulted = false;       ///< Work hit an active device failure.
  int fault_device = -1;      ///< ORIGINAL cluster index of the failed device.
  double fault_us = 0.0;      ///< Batch-local simulated time of the abort.
  bool fault_transient = false;  ///< The failure window is finite (retryable).
  double fault_until_us = 0.0;   ///< Local end of a transient window (+inf
                                 ///< when the failure is permanent).
  double prefill_us = 0.0;    ///< Wall time until every request's prefill done.
  double decode_us = 0.0;     ///< Wall time of the decode phase.
  double total_us = 0.0;      ///< End-to-end batch latency.
  double throughput_tok_s = 0.0;  ///< Output tokens per second (B*n/total).
  double bubble_fraction = 0.0;   ///< Mean idle share across stages.
  /// Per-stage compute time of ONE prefill micro-batch (all chunks),
  /// useful for straggler analysis (Fig. 3).
  std::vector<double> stage_prefill_us;
  /// Per-stage compute time of one decode step at mid-generation context.
  std::vector<double> stage_decode_us;
  MemoryReport memory;        ///< Per-device memory accounting.
};

/// Simulator options.
struct PipelineOptions {
  KernelModelOptions kernel;  ///< Ground-truth nonlinearities on/off.
  /// Efficiency discount of the custom PyTorch-native backend the paper
  /// built for legacy GPUs (Sec. V): 1.0 = vLLM-style optimized backend.
  double backend_efficiency = 1.0;
  /// When non-null, per-stage compute/comm/bubble spans of this batch are
  /// recorded into the sink on the simulated clock (microseconds, shifted
  /// by the sink's base_us).  Null — the default, and the only setting the
  /// planner's parallel validation fan-out ever uses — skips every trace
  /// branch, so simulation arithmetic and results are untouched: spans are
  /// observations of the schedule, never inputs to it.
  sq::obs::TraceSink* trace = nullptr;
  /// When non-null, the fault timeline this batch executes under: compute
  /// on slowed devices stretches, comm over degraded links stalls, and work
  /// touching a failed device aborts the batch (SimResult::faulted).  Null
  /// — or a view over an empty schedule, or one whose windows never
  /// intersect this batch's work — reproduces the fault-free schedule
  /// bit-for-bit.  Fault windows never enter the stage times themselves:
  /// stretching is applied to the schedule, not to the durations.
  const FaultView* faults = nullptr;
};

/// Stage-time cache counters.  The simulator computes every stage time
/// directly and caches none, so every reading is zero; kept for the frozen
/// end-to-end benchmark (perfbench/e2e.cpp) only.
struct StageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// Always zero (see StageCacheStats); kept for perfbench only.
StageCacheStats stage_cache_stats();

/// No-op; kept for perfbench only.
void stage_cache_clear();

/// Simulate serving one padded batch `w` of `m` on `cluster` under `plan`.
/// The plan must be structurally valid (ExecutionPlan::validate).
SimResult simulate_batch(const sq::hw::Cluster& cluster, const sq::model::LlmSpec& m,
                         const ExecutionPlan& plan, const BatchWorkload& w,
                         const PipelineOptions& opts = {});

/// Compute time (us) a single stage spends on one prefill micro-batch of
/// size `v` (all chunks) — the building block of simulate_batch, exposed
/// for the cost-model fidelity experiments.
double stage_prefill_time_us(const sq::hw::Cluster& cluster,
                             const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                             std::size_t stage, std::uint64_t v,
                             const BatchWorkload& w, const KernelModel& km,
                             double backend_eff = 1.0);

/// Compute time (us) of one decode step for micro-batch `v` at context
/// length `ctx` on `stage`.
double stage_decode_time_us(const sq::hw::Cluster& cluster,
                            const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                            std::size_t stage, std::uint64_t v, std::uint64_t ctx,
                            const KernelModel& km, double backend_eff = 1.0);

}  // namespace sq::sim
