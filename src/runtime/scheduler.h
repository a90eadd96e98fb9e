// Phase-adaptive micro-batch scheduling (paper Fig. 6, "dynamically
// adapting micro-batch sizes across generation phases").
//
// The planner fixes the nominal (eta, xi); at execution time the scheduler
// adapts them to each concrete batch: tail batches smaller than the
// micro-batch shrink it, and when a batch's KV reservation would not fit
// the tightest stage, concurrency is capped and the batch executes in
// waves instead of failing.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "sim/plan.h"

namespace sq::runtime {

/// Concrete execution schedule of one offline batch.
struct BatchSchedule {
  /// Wave sizes: concurrency per serving wave (sums to the batch size).
  std::vector<std::uint64_t> waves;
  std::uint64_t eta = 1;  ///< Effective prefill micro-batch.
  std::uint64_t xi = 1;   ///< Effective decode micro-batch.
  bool weights_fit = true;  ///< False: plan cannot run at all (weights OOM).
};

/// Maximum concurrent requests, at most `w.batch_size` (but at least 1),
/// whose paged full-context KV fits every device of the plan under the
/// engine's accounting (sim/memory.h); 0 when not even one request fits.
std::uint64_t max_concurrency(const sq::hw::Cluster& cluster,
                              const sq::model::LlmSpec& m,
                              const sq::sim::ExecutionPlan& plan,
                              const sq::sim::BatchWorkload& w);

/// Build the schedule for a batch: split into waves under the concurrency
/// cap and clamp micro-batch sizes to the wave size.
BatchSchedule schedule_batch(const sq::hw::Cluster& cluster,
                             const sq::model::LlmSpec& m,
                             const sq::sim::ExecutionPlan& plan,
                             const sq::sim::BatchWorkload& w);

}  // namespace sq::runtime
