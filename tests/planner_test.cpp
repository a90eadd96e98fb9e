// Tests for the Planner facade: SplitQuant planning vs the Uniform / Het /
// adabits baselines.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core_test_util.h"
#include "hw/cluster.h"
#include "serving_digest.h"
#include "sim/plan_io.h"
#include "workload/datasets.h"
#include "workload/profile.h"

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

/// Every deterministic field of a PlanResult (solve_seconds is wall time
/// and deliberately excluded), doubles as hexfloats.
std::string fingerprint(const PlanResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "feasible=%d batch=%llu lat=%a tput=%a omega=%a ppl=%a acc=%a "
                "solves=%d topologies=%d pairs=%d\n",
                r.feasible ? 1 : 0,
                static_cast<unsigned long long>(r.planned_batch),
                r.predicted_latency_s, r.predicted_throughput, r.total_omega,
                r.est_ppl, r.est_accuracy, r.ilp_solves, r.topologies_tried,
                r.pairs_tried);
  std::string s = buf + r.failure + "\n" + r.topology + "\n";
  if (r.feasible) s += sq::sim::plan_to_string(r.plan);
  return s;
}

// The heuristic planner and its three baselines on the four clusters an
// elastic-churn run replans over: paper cluster 5, then +1xV100 (join),
// then without device 0 (leave), then without the device that was 1
// (failure).  Digests were taken before the stage-time and prediction
// memo caches were removed, so they pin that plans did not move.
TEST(Planner, ElasticChurnClustersMatchPinnedGoldens) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const auto reqs =
      sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 256, 1234);
  const sq::sim::BatchWorkload planning =
      sq::workload::make_profile(reqs, 128).planning_batch(m);
  sq::cost::LatencyCostModel latency(m);
  const sq::quality::QualityModel quality(m, testutil::all_bits());

  sq::hw::Node v100;
  v100.name = "elastic-0";
  v100.gpu_type = sq::hw::GpuType::kV100;
  v100.gpu_count = 1;
  v100.intra_gbps = 300.0;
  std::vector<sq::hw::Cluster> clusters = {sq::hw::paper_cluster(5)};
  clusters.push_back(sq::hw::grow_cluster(clusters.back(), v100));
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);

  PlannerConfig cfg;
  cfg.use_heuristic = true;
  cfg.num_threads = 2;
  const char* const want[4][4] = {
      {"9eb0743069360aa8", "aa3f7678d194cae7", "80d5700a8c362c4d", "6f49f5de00f0af1b"},
      {"fc5dca3640b0d261", "8a95ffacf08ebf87", "824f42993fa1616e", "fa2f523d31038d3e"},
      {"ccd441825c52b36f", "c7b7003ba72bc0c5", "deeccbfe4d444438", "c36e8b2080566cef"},
      {"aaa19f895b4eb959", "b321e1b89fa9337e", "4504e7ea3d74b4bb", "5604fcb2c593959c"},
  };
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    Planner::profile_all(latency, clusters[i], cfg.bits);
    const Planner planner(m, clusters[i], planning, latency, quality);
    const PlanResult results[] = {planner.plan(cfg), planner.plan_uniform(cfg),
                                  planner.plan_het(cfg),
                                  planner.plan_adabits(cfg)};
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(results[k].feasible) << "cluster " << i << " planner " << k;
      const std::string text = fingerprint(results[k]);
      EXPECT_EQ(sq::testutil::digest(text), want[i][k])
          << "cluster " << i << " planner " << k << "\n" << text;
    }
  }
}

}  // namespace
}  // namespace sq::core
