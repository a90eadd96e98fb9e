// Parameterized cross-module sweeps: pipeline-simulator invariants across
// (cluster, model, precision) combinations, and planner feasibility across
// the full Table III cluster set.
#include <gtest/gtest.h>

#include "core_test_util.h"
#include "runtime/engine.h"
#include "sim/pipeline.h"

namespace sq {
namespace {

using hw::Bitwidth;

struct SweepCase {
  int cluster;
  model::ModelId model;
  Bitwidth bits;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return "c" + std::to_string(info.param.cluster) + "_" +
         std::to_string(static_cast<int>(info.param.model)) + "_b" +
         std::to_string(hw::bits(info.param.bits));
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, SimulatorInvariantsHold) {
  const auto [cluster_id, model_id, bits] = GetParam();
  const auto m = model::spec(model_id);
  const auto cluster = hw::paper_cluster(cluster_id);

  // Even plan across all devices at the given uniform precision.
  sim::ExecutionPlan plan;
  const int n = cluster.device_count();
  for (int d = 0; d < n; ++d) {
    plan.stages.push_back(
        {{d}, d * m.n_layers / n, (d + 1) * m.n_layers / n});
  }
  plan.layer_bits.assign(static_cast<std::size_t>(m.n_layers), bits);
  plan.prefill_microbatch = 2;
  plan.decode_microbatch = 4;
  ASSERT_EQ(plan.validate(m, cluster), "");

  sim::BatchWorkload w{8, 384, 24, 2048};
  const sim::SimResult r = sim::simulate_batch(cluster, m, plan, w);
  if (r.oom) {
    // OOM must come with a concrete device and zeroed throughput.
    EXPECT_GE(r.oom_device, 0);
    EXPECT_EQ(r.throughput_tok_s, 0.0);
    return;
  }
  // Time accounting invariants.
  EXPECT_GT(r.prefill_us, 0.0);
  EXPECT_GT(r.decode_us, 0.0);
  EXPECT_NEAR(r.total_us, r.prefill_us + r.decode_us, 1.0);
  EXPECT_NEAR(r.throughput_tok_s, 8.0 * 24.0 / (r.total_us * 1e-6), 1e-6);
  EXPECT_GE(r.bubble_fraction, 0.0);
  EXPECT_LE(r.bubble_fraction, 1.0);
  // Stage reports cover every stage with positive work.
  ASSERT_EQ(r.stage_prefill_us.size(), static_cast<std::size_t>(n));
  for (const double t : r.stage_prefill_us) EXPECT_GT(t, 0.0);
  for (const double t : r.stage_decode_us) EXPECT_GT(t, 0.0);
  // Memory accounting covered every device once.
  EXPECT_EQ(r.memory.devices.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    ClustersAndPrecisions, PipelineSweep,
    ::testing::Values(
        SweepCase{2, model::ModelId::kQwen25_14B, Bitwidth::kFp16},
        SweepCase{2, model::ModelId::kQwen25_14B, Bitwidth::kInt4},
        SweepCase{4, model::ModelId::kOpt13B, Bitwidth::kInt8},
        SweepCase{5, model::ModelId::kOpt13B, Bitwidth::kInt8},
        SweepCase{5, model::ModelId::kOpt30B, Bitwidth::kInt4},
        SweepCase{6, model::ModelId::kOpt13B, Bitwidth::kInt4},
        SweepCase{6, model::ModelId::kOpt13B, Bitwidth::kInt3},
        SweepCase{7, model::ModelId::kOpt30B, Bitwidth::kInt8},
        SweepCase{8, model::ModelId::kOpt13B, Bitwidth::kInt4},
        SweepCase{9, model::ModelId::kOpt30B, Bitwidth::kInt8},
        SweepCase{10, model::ModelId::kQwen25_32B, Bitwidth::kFp16},
        SweepCase{10, model::ModelId::kLlama33_70B, Bitwidth::kInt4}),
    case_name);

class PlannerClusterSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlannerClusterSweep, FindsAPlanOnEveryPaperCluster) {
  // A model sized to the cluster: the planner must produce a valid,
  // servable plan on every Table III cluster.
  const int cluster_id = GetParam();
  const model::ModelId mid =
      cluster_id == 1 ? model::ModelId::kQwen25_7B
      : cluster_id == 6 || cluster_id == 8 ? model::ModelId::kOpt13B
                                           : model::ModelId::kOpt30B;
  core::testutil::Harness h(mid, cluster_id, {16, 512, 32, 2048});
  const core::Planner planner(h.model, h.cluster, h.inputs.workload, h.latency,
                              h.quality);
  core::PlannerConfig cfg;
  cfg.ilp_time_limit_s = 2.0;
  cfg.max_microbatch_pairs = 1;
  cfg.max_topologies = 4;
  cfg.group_size = 8;
  cfg.custom_backend = true;  // INT3 available everywhere in this sweep
  const auto r = planner.plan(cfg);
  ASSERT_TRUE(r.feasible) << "cluster " << cluster_id << ": " << r.failure;
  EXPECT_EQ(r.plan.validate(h.model, h.cluster), "");
  const runtime::OfflineEngine engine(h.cluster, h.model, r.plan);
  const auto stats = engine.serve({{16, 512, 32, 2048}}).serve;
  EXPECT_TRUE(stats.feasible) << stats.failure;
  EXPECT_GT(stats.throughput_tok_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPaperClusters, PlannerClusterSweep,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace sq
