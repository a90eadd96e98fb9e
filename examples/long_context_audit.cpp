// Scenario: long-context document understanding (the paper's LooGLE
// workload) — prompts of tens of thousands of tokens, short answers.
// This stresses a completely different regime than summarization: prefill
// dominates, the KV cache balloons, and concurrency is memory-capped.
// The example audits how the same model behaves across two clusters and
// shows the phase split the planner has to reason about.
#include <cstdio>

#include "core/deployment.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "runtime/engine.h"
#include "sim/pipeline.h"
#include "workload/profile.h"

int main() {
  using namespace sq;

  const model::LlmSpec model = model::spec(model::ModelId::kQwen25_14B);
  const auto requests = workload::sample(workload::Dataset::kLoogle, 256, 99);
  const auto profile = workload::make_profile(requests, 128);
  std::printf("Long-context audit: %s (context limit %llu)\n", model.name.c_str(),
              static_cast<unsigned long long>(model.pos_s));
  std::printf("workload: prompts mean %.0f / p90 %.0f tokens, answers mean %.0f\n\n",
              profile.mean_prompt, profile.p90_prompt, profile.mean_output);

  for (const int cluster_id : {3, 5}) {
    const hw::Cluster cluster = hw::paper_cluster(cluster_id);
    std::printf("--- %s (%s) ---\n", cluster.name().c_str(), cluster.summary().c_str());

    const core::Deployment deployment(model, cluster, profile.planning_batch(model));

    core::PlannerConfig cfg;
    cfg.theta = 10.0;
    const core::PlanResult r = deployment.planner().plan(cfg);
    if (!r.feasible) {
      std::printf("infeasible: %s\n\n", r.failure.c_str());
      continue;
    }
    std::printf("plan: %s\n", r.plan.summary(cluster).c_str());

    // Phase decomposition of one planned batch: long-context work is
    // prefill-heavy, which is exactly why phase-aware partitioning matters.
    sim::PipelineOptions opts;
    opts.kernel = {.ground_truth = true, .seed = 11};
    sim::BatchWorkload probe = deployment.planning();
    probe.batch_size = r.planned_batch;
    const sim::SimResult sr = sim::simulate_batch(cluster, model, r.plan, probe, opts);
    if (!sr.oom) {
      std::printf("phase split: prefill %.1fs (%.0f%%), decode %.1fs (%.0f%%)\n",
                  sr.prefill_us / 1e6, 100.0 * sr.prefill_us / sr.total_us,
                  sr.decode_us / 1e6, 100.0 * sr.decode_us / sr.total_us);
    }

    const runtime::OfflineEngine engine(cluster, model, r.plan);
    const auto stats = engine.serve_requests(requests, 128).serve;
    if (stats.feasible) {
      std::printf("served %.0f answer tokens at %.1f tok/s "
                  "(%llu waves, concurrency-capped batches: %llu)\n\n",
                  stats.output_tokens, stats.throughput_tok_s,
                  static_cast<unsigned long long>(stats.waves),
                  static_cast<unsigned long long>(stats.capped_batches));
    } else {
      std::printf("serving failed: %s\n\n", stats.failure.c_str());
    }
  }
  return 0;
}
