// Plan repair: the core-side Replanner factory the serving engines invoke
// after a permanent device failure (OfflineEngine, FleetEngine) or a
// membership change (ElasticFleetEngine).
//
// Repair is just planning on the changed cluster — the same assigner and
// the same profiled cost-model fits (only device types new to the cluster
// are profiled), run through a graceful-degradation ladder
// (runtime::replan_ladder) when the original constraints no longer admit
// a plan:
//
//   attempt 0:  full SplitQuant planning under the caller's PlannerConfig;
//   attempt 1:  quality budget relaxed (max_ppl_delta disabled) — trade
//               accuracy headroom for feasibility on the smaller cluster;
//   attempt 2+: the Uniform baseline planner — the most robust fallback
//               (even partition, one bitwidth lowered until the model fits).
//
// Derated straggler specs share their GpuType with the healthy devices, so
// the analytic search reuses the type-level latency fits; the planner's
// simulation-based validation stage (validate_top_k) re-ranks finalists
// against the derated specs, which is what corrects the ordering.
#pragma once

#include "core/planner.h"
#include "cost/latency_model.h"
#include "model/llm.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "sim/plan.h"

namespace sq::core {

/// Build a Replanner over (model, workload, cfg).  `latency` and `quality`
/// are captured by reference and must outlive the returned callback;
/// `latency` is re-profiled on demand for the changed cluster's types
/// (idempotent, so repeat repairs cost nothing; joins that introduce NEW
/// device types profile them once).  Outcomes carry the planner's
/// throughput estimate, the elastic autoscaler's accept/reject signal.
/// The callback is safe to invoke repeatedly and from a single thread at a
/// time.
sq::runtime::Replanner make_replanner(const sq::model::LlmSpec& model,
                                      sq::cost::LatencyCostModel& latency,
                                      const sq::quality::QualityModel& quality,
                                      const sq::sim::BatchWorkload& workload,
                                      const PlannerConfig& cfg);

/// Same as make_replanner; kept for the frozen end-to-end benchmark
/// (perfbench/e2e.cpp), its only caller.
sq::runtime::Replanner make_elastic_replanner(
    const sq::model::LlmSpec& model, sq::cost::LatencyCostModel& latency,
    const sq::quality::QualityModel& quality,
    const sq::sim::BatchWorkload& workload, const PlannerConfig& cfg);

}  // namespace sq::core
