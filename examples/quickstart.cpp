// Quickstart: plan and serve an LLM on a heterogeneous cluster in ~40
// lines of library calls.
//
//   1. Pick a model and a cluster.
//   2. Describe the offline workload.
//   3. Profile the devices into the latency cost model.
//   4. Ask the Planner for a SplitQuant execution plan.
//   5. Serve the workload through the OfflineEngine and read throughput.
//
// Build: cmake --build build --target quickstart
// Run:   ./build/examples/quickstart
#include <cstdio>

#include "core/planner.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "workload/profile.h"

int main() {
  using namespace sq;

  // 1. OPT-30B on paper cluster 5: three T4s plus one V100.
  const model::LlmSpec model = model::spec(model::ModelId::kOpt30B);
  const hw::Cluster cluster = hw::paper_cluster(5);
  std::printf("model:   %s (%.1fB params)\n", model.name.c_str(),
              static_cast<double>(model.total_params()) / 1e9);
  std::printf("cluster: %s\n\n", cluster.summary().c_str());

  // 2. Offline summarization workload: 256 requests, max 128 concurrent.
  const auto requests = workload::sample(workload::Dataset::kCnnDailyMail, 256, 1);
  const auto profile = workload::make_profile(requests, /*batch_size=*/128);
  const sim::BatchWorkload planning = profile.planning_batch(model);

  // 3. Cost models: profile each GPU type, build the quality estimator.
  const std::vector<hw::Bitwidth> bits = {hw::Bitwidth::kFp16, hw::Bitwidth::kInt8,
                                          hw::Bitwidth::kInt4, hw::Bitwidth::kInt3};
  cost::LatencyCostModel latency(model);
  core::Planner::profile_all(latency, cluster, bits);
  const quality::QualityModel quality(model, bits);

  // 4. Plan.
  const core::Planner planner(model, cluster, planning, latency, quality);
  core::PlannerConfig cfg;
  cfg.theta = 10.0;  // mild quality preference
  const core::PlanResult result = planner.plan(cfg);
  if (!result.feasible) {
    std::printf("planning failed: %s\n", result.failure.c_str());
    return 1;
  }
  std::printf("plan:    %s\n", result.plan.summary(cluster).c_str());
  std::printf("         topology %s, planned concurrency %llu\n",
              result.topology.c_str(),
              static_cast<unsigned long long>(result.planned_batch));
  std::printf("         est. perplexity %.2f (fp16 baseline %.2f)\n",
              result.est_ppl, quality.base_ppl());
  std::printf("         assigner took %.2fs (%d ILP solves, %d B&B nodes)\n\n",
              result.solve_seconds, result.ilp_solves, result.ilp_nodes);

  // 5. Serve.
  const runtime::OfflineEngine engine(cluster, model, result.plan);
  const runtime::ServeStats stats = engine.serve_requests(requests, 128).serve;
  if (!stats.feasible) {
    std::printf("serving failed: %s\n", stats.failure.c_str());
    return 1;
  }
  std::printf("served:  %.0f tokens in %.1fs -> %.1f tok/s "
              "(%llu batches, %llu waves, %.0f%% pipeline idle)\n",
              stats.output_tokens, stats.total_seconds, stats.throughput_tok_s,
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.waves),
              100.0 * stats.mean_bubble);
  return 0;
}
