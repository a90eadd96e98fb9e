// Tests for the Planner facade: SplitQuant planning vs the Uniform / Het /
// adabits baselines.
#include <gtest/gtest.h>

#include "core_test_util.h"

namespace sq::core {
namespace {

using testutil::Harness;

PlannerConfig fast_cfg() {
  PlannerConfig cfg;
  cfg.ilp_time_limit_s = 3.0;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 6;
  cfg.group_size = 8;
  return cfg;
}

class PlannerFixture : public ::testing::Test {
 protected:
  PlannerFixture()
      : h_(sq::model::ModelId::kOpt30B, 5, {64, 1024, 64, 2048}),
        planner_(h_.model, h_.cluster, h_.inputs.workload, h_.latency, h_.quality) {}
  Harness h_;
  Planner planner_;
};

TEST_F(PlannerFixture, PlanIsStructurallyValid) {
  const PlanResult r = planner_.plan(fast_cfg());
  ASSERT_TRUE(r.feasible) << r.failure;
  EXPECT_EQ(r.plan.validate(h_.model, h_.cluster), "");
  EXPECT_EQ(r.plan.scheme, "splitquant");
  EXPECT_GT(r.predicted_throughput, 0.0);
  EXPECT_GT(r.solve_seconds, 0.0);
  EXPECT_GT(r.topologies_tried, 0);
}

TEST_F(PlannerFixture, BaselinesAreValidToo) {
  for (const auto* r : {new PlanResult(planner_.plan_uniform(fast_cfg())),
                        new PlanResult(planner_.plan_het(fast_cfg())),
                        new PlanResult(planner_.plan_adabits(fast_cfg()))}) {
    ASSERT_TRUE(r->feasible) << r->failure;
    EXPECT_EQ(r->plan.validate(h_.model, h_.cluster), "");
    delete r;
  }
}

TEST_F(PlannerFixture, UniformUsesOneBitwidth) {
  const PlanResult r = planner_.plan_uniform(fast_cfg());
  ASSERT_TRUE(r.feasible);
  for (const auto b : r.plan.layer_bits) {
    EXPECT_EQ(b, r.plan.layer_bits.front());
  }
  // Even partition: every stage holds the same number of layers (+-group).
  int mn = h_.model.n_layers, mx = 0;
  for (const auto& s : r.plan.stages) {
    mn = std::min(mn, s.layer_count());
    mx = std::max(mx, s.layer_count());
  }
  EXPECT_LE(mx - mn, 8);  // one group granularity
}

TEST_F(PlannerFixture, SplitQuantPredictedNoWorseThanBaselines) {
  PlannerConfig cfg = fast_cfg();
  cfg.theta = 0.0;  // pure efficiency comparison
  const PlanResult uni = planner_.plan_uniform(cfg);
  const PlanResult sqr = planner_.plan(cfg);
  ASSERT_TRUE(uni.feasible);
  ASSERT_TRUE(sqr.feasible);
  // Compare per-request predicted latency (batches may differ).
  const double uni_norm = uni.predicted_latency_s / static_cast<double>(uni.planned_batch);
  const double sq_norm = sqr.predicted_latency_s / static_cast<double>(sqr.planned_batch);
  EXPECT_LE(sq_norm, uni_norm * 1.02);
}

TEST_F(PlannerFixture, QualityConstraintRespected) {
  PlannerConfig cfg = fast_cfg();
  const PlanResult uni = planner_.plan_uniform(cfg);
  ASSERT_TRUE(uni.feasible);
  cfg.max_ppl_delta = uni.total_omega;
  cfg.theta = 0.0;
  const PlanResult r = planner_.plan(cfg);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.total_omega, uni.total_omega * (1.0 + 1e-6));
  EXPECT_LE(r.est_ppl, uni.est_ppl + 1e-6);
}

TEST_F(PlannerFixture, HeuristicModeSkipsIlp) {
  PlannerConfig cfg = fast_cfg();
  cfg.use_heuristic = true;
  const PlanResult r = planner_.plan(cfg);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.ilp_solves, 0);
}

TEST_F(PlannerFixture, IlpWorkAndTruncationAreCounted) {
  PlannerConfig cfg = fast_cfg();
  cfg.ilp_time_limit_s = 1e9;  // every solve runs to its proof
  const PlanResult full = planner_.plan(cfg);
  ASSERT_TRUE(full.feasible);
  ASSERT_GT(full.ilp_solves, 0);
  EXPECT_EQ(full.ilp_truncated, 0);
  EXPECT_GE(full.ilp_pivots, full.ilp_nodes);

  cfg.ilp_time_limit_s = 0.0;  // every solve stops before its first node
  const PlanResult cut = planner_.plan(cfg);
  ASSERT_TRUE(cut.feasible);  // the heuristic warm starts still stand
  EXPECT_EQ(cut.ilp_truncated, cut.ilp_solves);
  EXPECT_EQ(cut.ilp_nodes, 0);
  EXPECT_EQ(cut.ilp_pivots, 0);
}

TEST_F(PlannerFixture, VllmBackendExcludesInt3) {
  PlannerConfig cfg = fast_cfg();
  cfg.custom_backend = false;
  const PlanResult r = planner_.plan(cfg);
  ASSERT_TRUE(r.feasible);
  for (const auto b : r.plan.layer_bits) {
    EXPECT_NE(b, sq::hw::Bitwidth::kInt3);
  }
}

TEST(Planner, ThetaTradesThroughputForQuality) {
  // Fig. 11 property: larger theta -> no worse quality, no better latency.
  Harness h(sq::model::ModelId::kOpt30B, 8, {32, 512, 32, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);
  PlannerConfig lo = fast_cfg();
  lo.theta = 0.1;
  PlannerConfig hi = fast_cfg();
  hi.theta = 100.0;
  const PlanResult rlo = planner.plan(lo);
  const PlanResult rhi = planner.plan(hi);
  ASSERT_TRUE(rlo.feasible);
  ASSERT_TRUE(rhi.feasible);
  EXPECT_LE(rhi.total_omega, rlo.total_omega + 1e-9);
}

TEST(Planner, OomClusterReportsFailure) {
  // Llama-3.3-70B on one V100: infeasible for every scheme.
  Harness h(sq::model::ModelId::kLlama33_70B, 1, {8, 1024, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);
  const PlanResult uni = planner.plan_uniform(fast_cfg());
  EXPECT_FALSE(uni.feasible);
  EXPECT_FALSE(uni.failure.empty());
  const PlanResult r = planner.plan(fast_cfg());
  EXPECT_FALSE(r.feasible);
}

TEST(Planner, UniformOomsWhereSplitQuantSurvives) {
  // Fig. 10 mechanism: on cluster 6 (3x P100-12G + V100) OPT-66B cannot be
  // evenly partitioned at any uniform precision that the P100s can hold
  // together with the KV reservation, while SplitQuant's asymmetric
  // partition + custom-backend INT3 finds a plan.
  Harness h(sq::model::ModelId::kOpt66B, 6, {16, 512, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency, h.quality);
  PlannerConfig cfg = fast_cfg();
  cfg.custom_backend = true;
  const PlanResult uni = planner.plan_uniform(cfg);
  const PlanResult r = planner.plan(cfg);
  ASSERT_TRUE(r.feasible) << r.failure;
  if (uni.feasible) {
    // If Uniform squeaks through, SplitQuant must still be no slower.
    EXPECT_LE(r.predicted_latency_s / static_cast<double>(r.planned_batch),
              uni.predicted_latency_s / static_cast<double>(uni.planned_batch) * 1.05);
  }
}

TEST(Planner, ProfileAllCoversClusterTypes) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  sq::cost::LatencyCostModel lat(m);
  const auto c = sq::hw::paper_cluster(7);
  Planner::profile_all(lat, c, testutil::all_bits());
  EXPECT_TRUE(lat.has_profile(sq::hw::GpuType::kT4, sq::hw::Bitwidth::kInt4));
  EXPECT_TRUE(lat.has_profile(sq::hw::GpuType::kV100, sq::hw::Bitwidth::kFp16));
}

}  // namespace
}  // namespace sq::core
