// Cross-module integration tests: full plan -> serve pipelines mirroring
// the paper's end-to-end experiments at reduced scale.
#include <gtest/gtest.h>

#include "core_test_util.h"
#include "runtime/engine.h"
#include "workload/profile.h"

namespace sq::core {
namespace {

using testutil::Harness;
using sq::runtime::Backend;
using sq::runtime::OfflineEngine;

PlannerConfig quick() {
  PlannerConfig cfg;
  cfg.ilp_time_limit_s = 3.0;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 6;
  cfg.group_size = 8;
  return cfg;
}

double serve_throughput(const Harness& h, const sq::sim::ExecutionPlan& plan,
                        const std::vector<sq::workload::Request>& reqs,
                        Backend backend = Backend::kVllmStyle) {
  const OfflineEngine eng(h.cluster, h.model, plan, backend);
  const auto stats = eng.serve_requests(reqs, 128).serve;
  return stats.feasible ? stats.throughput_tok_s : 0.0;
}

TEST(Integration, Fig9StyleHeterogeneousWin) {
  // Cluster 5, OPT-30B, CNN-DailyMail-like workload: SplitQuant must beat
  // the Uniform baseline in *measured* (simulated) throughput with quality
  // no worse than Uniform's.
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 256, 1);
  const auto prof = sq::workload::make_profile(reqs, 128);
  Harness h(sq::model::ModelId::kOpt30B, 5,
            prof.planning_batch(sq::model::spec(sq::model::ModelId::kOpt30B)));
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);

  const PlanResult uni = planner.plan_uniform(quick());
  ASSERT_TRUE(uni.feasible) << uni.failure;
  PlannerConfig cfg = quick();
  cfg.theta = 0.0;
  cfg.max_ppl_delta = uni.total_omega;
  const PlanResult sqr = planner.plan(cfg);
  ASSERT_TRUE(sqr.feasible) << sqr.failure;

  const double t_uni = serve_throughput(h, uni.plan, reqs);
  const double t_sq = serve_throughput(h, sqr.plan, reqs);
  ASSERT_GT(t_uni, 0.0);
  EXPECT_GT(t_sq, t_uni);
  EXPECT_LE(sqr.est_ppl, uni.est_ppl + 1e-9);
}

TEST(Integration, Fig10StyleSevereHeterogeneity) {
  // Cluster 6 (P100-heavy) with the custom backend: SplitQuant must beat
  // the Het baseline (the paper reports +108% on such clusters).
  const auto reqs = std::vector<sq::workload::Request>(64, {512, 32});
  Harness h(sq::model::ModelId::kOpt30B, 6, {32, 512, 32, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);

  PlannerConfig cfg = quick();
  cfg.custom_backend = true;
  const PlanResult het = planner.plan_het(cfg);
  PlannerConfig scfg = cfg;
  scfg.theta = 0.0;
  if (het.feasible) scfg.max_ppl_delta = std::max(het.total_omega, 0.5);
  const PlanResult sqr = planner.plan(scfg);
  ASSERT_TRUE(sqr.feasible) << sqr.failure;

  const double t_sq = serve_throughput(h, sqr.plan, reqs, Backend::kCustom);
  ASSERT_GT(t_sq, 0.0);
  if (het.feasible) {
    const double t_het = serve_throughput(h, het.plan, reqs, Backend::kCustom);
    EXPECT_GE(t_sq, t_het * 0.99);
  }
}

TEST(Integration, HomogeneousClusterStillGains) {
  // Table IV property: on cluster 9/10 SplitQuant >= the best Uniform
  // configuration (it searches a superset of configurations).
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128, 3);
  const auto prof = sq::workload::make_profile(reqs, 128);
  Harness h(sq::model::ModelId::kQwen25_32B, 10,
            prof.planning_batch(sq::model::spec(sq::model::ModelId::kQwen25_32B)));
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);

  const PlanResult uni = planner.plan_uniform(quick());
  ASSERT_TRUE(uni.feasible) << uni.failure;
  PlannerConfig cfg = quick();
  cfg.theta = 0.0;
  cfg.max_ppl_delta = uni.total_omega;
  const PlanResult sqr = planner.plan(cfg);
  ASSERT_TRUE(sqr.feasible) << sqr.failure;

  const double t_uni = serve_throughput(h, uni.plan, reqs);
  const double t_sq = serve_throughput(h, sqr.plan, reqs);
  // Homogeneous gains are modest (Table IV: 1.04-1.16x); allow calibration
  // noise around parity.
  EXPECT_GE(t_sq, t_uni * 0.95);
}

TEST(Integration, PlanSurvivesEngineValidation) {
  // Every scheme's plan must be executable by the engine without OOM.
  Harness h(sq::model::ModelId::kQwen25_14B, 3, {64, 1024, 128, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128, 9);
  for (const auto& r : {planner.plan_uniform(quick()), planner.plan_het(quick()),
                        planner.plan_adabits(quick()), planner.plan(quick())}) {
    ASSERT_TRUE(r.feasible) << r.failure;
    const OfflineEngine eng(h.cluster, h.model, r.plan);
    const auto stats = eng.serve_requests(reqs, 64).serve;
    EXPECT_TRUE(stats.feasible) << r.plan.scheme << ": " << stats.failure;
    EXPECT_GT(stats.throughput_tok_s, 0.0) << r.plan.scheme;
  }
}

TEST(Integration, PlannerIsDeterministic) {
  Harness h(sq::model::ModelId::kOpt13B, 9, {32, 512, 32, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);
  const PlanResult a = planner.plan(quick());
  const PlanResult b = planner.plan(quick());
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_EQ(a.plan.layer_bits, b.plan.layer_bits);
  EXPECT_EQ(a.plan.summary(h.cluster), b.plan.summary(h.cluster));
}

}  // namespace
}  // namespace sq::core
