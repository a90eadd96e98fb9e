// Deployment: the one planning set-up (profiled cost model, quality model,
// planner, replanners) plans exactly as the hand-assembled sequence did,
// and its replanners still profile device types a changed cluster adds.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "core/deployment.h"
#include "core_test_util.h"
#include "hw/cluster.h"
#include "serving_digest.h"
#include "workload/datasets.h"
#include "workload/profile.h"

namespace sq::core {
namespace {

// The Planner and every replanner point into the deployment.
static_assert(!std::is_copy_constructible_v<Deployment> &&
              !std::is_move_constructible_v<Deployment>);

sq::hw::Node one_gpu(const char* name, sq::hw::GpuType type) {
  sq::hw::Node n;
  n.name = name;
  n.gpu_type = type;
  n.gpu_count = 1;
  n.intra_gbps = 300.0;
  return n;
}

sq::sim::BatchWorkload cnn_planning(const sq::model::LlmSpec& m) {
  const auto reqs =
      sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 256, 1234);
  return sq::workload::make_profile(reqs, 128).planning_batch(m);
}

// The four clusters of Planner.ElasticChurnClustersMatchPinnedGoldens, one
// deployment each: the heuristic plan() digests are that test's pins.
TEST(Deployment, ElasticChurnClustersMatchPlannerGoldens) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  std::vector<sq::hw::Cluster> clusters = {sq::hw::paper_cluster(5)};
  clusters.push_back(
      sq::hw::grow_cluster(clusters.back(), one_gpu("elastic-0", sq::hw::GpuType::kV100)));
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);

  PlannerConfig cfg;
  cfg.use_heuristic = true;
  cfg.num_threads = 2;
  const char* const want[4] = {"9eb0743069360aa8", "fc5dca3640b0d261",
                               "ccd441825c52b36f", "aaa19f895b4eb959"};
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const Deployment deployment(m, clusters[i], cnn_planning(m));
    const PlanResult r = deployment.planner().plan(cfg);
    EXPECT_TRUE(r.feasible) << "cluster " << i;
    const std::string text = testutil::fingerprint(r);
    EXPECT_EQ(sq::testutil::digest(text), want[i]) << "cluster " << i << "\n" << text;
  }
}

// Paper cluster 5 has T4s and a V100; a joined A100 is profiled by the
// replanner on demand, into the deployment's own cost model.
TEST(Deployment, ReplannerProfilesADeviceTypeTheClusterLacks) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  Deployment deployment(m, sq::hw::paper_cluster(5), cnn_planning(m));
  EXPECT_FALSE(deployment.latency().has_profile(sq::hw::GpuType::kA100_40G,
                                                sq::hw::Bitwidth::kFp16));

  const sq::hw::Cluster grown = sq::hw::grow_cluster(
      deployment.cluster(), one_gpu("elastic-0", sq::hw::GpuType::kA100_40G));
  PlannerConfig cfg;
  cfg.use_heuristic = true;
  cfg.num_threads = 2;
  const sq::runtime::ReplanOutcome out = deployment.replanner(cfg)(grown, 0);
  ASSERT_TRUE(out.feasible) << out.failure;
  EXPECT_EQ(out.plan.validate(m, grown), "");
  EXPECT_GT(out.predicted_tok_s, 0.0);
  EXPECT_TRUE(deployment.latency().has_profile(sq::hw::GpuType::kA100_40G,
                                               sq::hw::Bitwidth::kFp16));
}

}  // namespace
}  // namespace sq::core
