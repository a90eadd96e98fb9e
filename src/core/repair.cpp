#include "core/repair.h"

#include <utility>

namespace sq::core {

sq::runtime::Replanner make_replanner(const sq::model::LlmSpec& model,
                                      sq::cost::LatencyCostModel& latency,
                                      const sq::quality::QualityModel& quality,
                                      const sq::sim::BatchWorkload& workload,
                                      const PlannerConfig& cfg) {
  return [&model, &latency, &quality, workload, cfg](
             const sq::hw::Cluster& changed,
             int attempt) -> sq::runtime::ReplanOutcome {
    Planner::profile_all(latency, changed, cfg.bits);
    const Planner planner(model, changed, workload, latency, quality);

    PlannerConfig repair_cfg = cfg;
    if (attempt >= 1) repair_cfg.max_ppl_delta = -1.0;  // Relax quality budget.
    PlanResult r = attempt >= 2 ? planner.plan_uniform(repair_cfg)
                                : planner.plan(repair_cfg);

    sq::runtime::ReplanOutcome out;
    out.feasible = r.feasible;
    out.failure = std::move(r.failure);
    out.plan = std::move(r.plan);
    out.predicted_tok_s = r.predicted_throughput;
    out.solve_seconds = r.solve_seconds;
    return out;
  };
}

sq::runtime::Replanner make_elastic_replanner(
    const sq::model::LlmSpec& model, sq::cost::LatencyCostModel& latency,
    const sq::quality::QualityModel& quality,
    const sq::sim::BatchWorkload& workload, const PlannerConfig& cfg) {
  return make_replanner(model, latency, quality, workload, cfg);
}

}  // namespace sq::core
