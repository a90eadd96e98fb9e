// Scenario: a dedicated document-summarization service (the paper's
// CNN-DailyMail workload) running on whatever mixed GPUs the team could
// scrounge from the fleet.  The example compares all planning schemes on
// the same hardware and workload — the decision a platform engineer would
// actually make — and prints the winning plan's layer/bitwidth map.
#include <cstdio>
#include <string>
#include <vector>

#include "core/planner.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "workload/profile.h"

namespace {

struct Outcome {
  std::string name;
  double tput = 0.0;
  double ppl = 0.0;
  std::string detail;
};

}  // namespace

int main() {
  using namespace sq;

  const model::LlmSpec model = model::spec(model::ModelId::kOpt30B);
  const hw::Cluster cluster = hw::paper_cluster(7);  // 4x T4 + 2x V100
  std::printf("Summarization service: %s on %s\n\n", model.name.c_str(),
              cluster.summary().c_str());

  // A day's queue of articles.
  const auto requests = workload::sample(workload::Dataset::kCnnDailyMail, 1024, 7);
  const auto profile = workload::make_profile(requests, 256);
  std::printf("workload: %zu articles, prompts mean %.0f / p90 %.0f tokens, "
              "summaries mean %.0f tokens\n\n",
              requests.size(), profile.mean_prompt, profile.p90_prompt,
              profile.mean_output);

  const std::vector<hw::Bitwidth> bits = {hw::Bitwidth::kFp16, hw::Bitwidth::kInt8,
                                          hw::Bitwidth::kInt4, hw::Bitwidth::kInt3};
  cost::LatencyCostModel latency(model);
  core::Planner::profile_all(latency, cluster, bits);
  const quality::QualityModel quality(model, bits);
  const core::Planner planner(model, cluster, profile.planning_batch(model), latency,
                              quality);

  core::PlannerConfig cfg;
  cfg.ilp_time_limit_s = 5.0;

  auto serve = [&](const sim::ExecutionPlan& plan) {
    const runtime::OfflineEngine engine(cluster, model, plan);
    return engine.serve_requests(requests, 256).serve;
  };

  std::vector<Outcome> outcomes;
  const core::PlanResult uniform = planner.plan_uniform(cfg);
  if (uniform.feasible) {
    const auto s = serve(uniform.plan);
    outcomes.push_back({"uniform", s.throughput_tok_s, uniform.est_ppl,
                        uniform.plan.summary(cluster)});
  }
  const core::PlanResult het = planner.plan_het(cfg);
  if (het.feasible) {
    const auto s = serve(het.plan);
    outcomes.push_back({"het", s.throughput_tok_s, het.est_ppl,
                        het.plan.summary(cluster)});
  }
  // SplitQuant, constrained to at least the Uniform baseline's quality.
  core::PlannerConfig scfg = cfg;
  scfg.theta = 0.0;
  if (uniform.feasible) scfg.max_ppl_delta = uniform.total_omega;
  const core::PlanResult sq_plan = planner.plan(scfg);
  if (sq_plan.feasible) {
    const auto s = serve(sq_plan.plan);
    outcomes.push_back({"splitquant", s.throughput_tok_s, sq_plan.est_ppl,
                        sq_plan.plan.summary(cluster)});
  }

  std::printf("%-12s %14s %10s   %s\n", "scheme", "tput (tok/s)", "est PPL", "plan");
  for (const auto& o : outcomes) {
    std::printf("%-12s %14.1f %10.2f   %s\n", o.name.c_str(), o.tput, o.ppl,
                o.detail.c_str());
  }

  if (!outcomes.empty() && outcomes.back().name == "splitquant" &&
      outcomes.front().tput > 0.0) {
    std::printf("\nSplitQuant speedup over uniform: %.2fx at no quality cost\n",
                outcomes.back().tput / outcomes.front().tput);
  }
  return 0;
}
