// Frozen binary search over the engine's accounting: the oracle of the
// closed-form batch concurrency cap (runtime::max_concurrency).
#pragma once

#include <cstdint>

#include "hw/cluster.h"
#include "model/llm.h"
#include "sim/plan.h"

namespace sq::runtime::oracle {

/// The largest batch size in [1, w.batch_size] whose sim::plan_memory
/// report is OOM-free, found by binary search; 1 when `w.batch_size` is 0
/// and one request fits; 0 when not even one request fits.
std::uint64_t max_concurrency_reference(const sq::hw::Cluster& cluster,
                                        const sq::model::LlmSpec& m,
                                        const sq::sim::ExecutionPlan& plan,
                                        const sq::sim::BatchWorkload& w);

}  // namespace sq::runtime::oracle
