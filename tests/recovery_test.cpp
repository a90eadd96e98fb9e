// Integration tests for fault-tolerant serving through OfflineEngine:
// checkpointed execution, retry/backoff on transient faults, plan repair on
// permanent failures, graceful degradation, and the bit-determinism
// contract across planner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/repair.h"
#include "core_test_util.h"
#include "runtime/engine.h"
#include "sim/faults.h"
#include "sim/plan_io.h"

namespace sq::runtime {
namespace {

using sq::core::testutil::Harness;
using sq::hw::Bitwidth;
using sq::sim::FaultKind;
using sq::sim::FaultSchedule;

sq::sim::ExecutionPlan plan_for(const sq::model::LlmSpec& m, int stages, Bitwidth b) {
  sq::sim::ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back({{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  return p;
}

sq::core::PlannerConfig repair_cfg(int threads = 1) {
  sq::core::PlannerConfig cfg;
  cfg.use_heuristic = true;  // fast, ILP-free repair for tests
  cfg.max_topologies = 4;
  cfg.max_microbatch_pairs = 2;
  cfg.validate_top_k = 2;
  cfg.group_size = 8;
  cfg.num_threads = threads;
  return cfg;
}

/// Fixture over the 4x V100 single-node cluster (paper cluster 9): failing
/// one device leaves a 3x V100 cluster that still fits OPT-13B.
class RecoveryFixture : public ::testing::Test {
 protected:
  RecoveryFixture()
      : h_(sq::model::ModelId::kOpt13B, 9, {16, 512, 32, 2048}),
        plan_(plan_for(h_.model, 4, Bitwidth::kInt8)),
        eng_(h_.cluster, h_.model, plan_),
        batches_{{16, 512, 32, 2048}, {16, 256, 16, 2048}} {
    // Fault-free ServeStats of `batches_`, pinned bit-exactly (hexfloat)
    // from the wave loop before fault tolerance was folded into it.
    healthy_.batches = 2;
    healthy_.waves = 2;
    healthy_.total_seconds = 0x1.05d539185936ep+3;
    healthy_.output_tokens = 0x1.8p+9;
    healthy_.throughput_tok_s = 0x1.7772100c4d26bp+6;
    healthy_.mean_bubble = 0x1.023049872d112p-1;
  }

  double expected_tokens() const { return 16.0 * 32 + 16.0 * 16; }

  Harness h_;
  sq::sim::ExecutionPlan plan_;
  OfflineEngine eng_;
  std::vector<sq::sim::BatchWorkload> batches_;
  ServeStats healthy_;
};

TEST_F(RecoveryFixture, FaultFreeMatchesOfflineEngineBitForBit) {
  const RecoveryStats r = eng_.serve(batches_);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  EXPECT_EQ(r.serve.total_seconds, healthy_.total_seconds);
  EXPECT_EQ(r.serve.output_tokens, healthy_.output_tokens);
  EXPECT_EQ(r.serve.throughput_tok_s, healthy_.throughput_tok_s);
  EXPECT_EQ(r.serve.mean_bubble, healthy_.mean_bubble);
  EXPECT_EQ(r.serve.waves, healthy_.waves);
  EXPECT_EQ(r.goodput_tok_s, r.serve.throughput_tok_s);
  EXPECT_EQ(r.wall_seconds, r.serve.total_seconds);
  EXPECT_EQ(r.faults_hit, 0u);
  EXPECT_TRUE(r.events.empty());
  EXPECT_EQ(r.final_plan.repair_generation, 0);
}

TEST_F(RecoveryFixture, PermanentFailureRepairsAndCompletesEverything) {
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 2, healthy_.total_seconds * 0.5 * 1e6});

  RecoveryOptions opts;
  opts.faults = &faults;
  opts.replan = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                         h_.inputs.workload, repair_cfg());
  const RecoveryStats r = eng_.serve(batches_, opts);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  EXPECT_GE(r.faults_hit, 1u);
  EXPECT_GE(r.repairs_attempted, 1u);
  EXPECT_EQ(r.repairs_succeeded, 1u);
  EXPECT_EQ(r.final_generation, 1);
  EXPECT_EQ(r.lost_requests, 0u);
  // Every request completed despite the failure.
  EXPECT_DOUBLE_EQ(r.serve.output_tokens, expected_tokens());
  EXPECT_EQ(r.serve.batches, 2u);
  // The repaired plan excludes the dead device and carries provenance.
  EXPECT_EQ(r.final_plan.repair_generation, 1);
  ASSERT_EQ(r.final_plan.excluded_devices.size(), 1u);
  EXPECT_EQ(r.final_plan.excluded_devices[0], 2);
  for (const auto& st : r.final_plan.stages) {
    for (const int d : st.devices) EXPECT_LT(d, 3);  // 3 survivors
  }
  // Recovery cost is visible: lost + replanning time widens the wall clock,
  // so goodput is strictly below the productive throughput.
  EXPECT_GT(r.lost_us, 0.0);
  EXPECT_GT(r.replan_us, 0.0);
  EXPECT_GT(r.wall_seconds, r.serve.total_seconds);
  EXPECT_LT(r.goodput_tok_s, r.serve.throughput_tok_s);
  EXPECT_FALSE(r.events.empty());
}

TEST_F(RecoveryFixture, RepairedRunIsBitIdenticalAcrossPlannerThreadCounts) {
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 1, healthy_.total_seconds * 0.4 * 1e6});
  // A transient straggler for spice: hits retry + repair paths together.
  faults.events.push_back(
      {FaultKind::kSlowdown, 3, 0.0, healthy_.total_seconds * 0.2 * 1e6, 2.0});
  faults.normalize();

  RecoveryStats base;
  bool first = true;
  for (const int threads : {1, 2, 4, 8}) {
    RecoveryOptions opts;
    opts.faults = &faults;
    opts.replan = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                           h_.inputs.workload, repair_cfg(threads));
    const RecoveryStats r = eng_.serve(batches_, opts);
    ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
    if (first) {
      base = r;
      first = false;
      continue;
    }
    // Bit-identical timeline and stats (replan_wall_s is real wall time and
    // is the one documented exception).
    EXPECT_EQ(r.events, base.events) << "threads=" << threads;
    EXPECT_EQ(r.serve.total_seconds, base.serve.total_seconds);
    EXPECT_EQ(r.serve.output_tokens, base.serve.output_tokens);
    EXPECT_EQ(r.serve.throughput_tok_s, base.serve.throughput_tok_s);
    EXPECT_EQ(r.wall_seconds, base.wall_seconds);
    EXPECT_EQ(r.goodput_tok_s, base.goodput_tok_s);
    EXPECT_EQ(r.lost_us, base.lost_us);
    EXPECT_EQ(r.backoff_us, base.backoff_us);
    EXPECT_EQ(r.replan_us, base.replan_us);
    EXPECT_EQ(r.faults_hit, base.faults_hit);
    EXPECT_EQ(r.retries, base.retries);
    EXPECT_EQ(r.repairs_succeeded, base.repairs_succeeded);
    EXPECT_EQ(r.final_generation, base.final_generation);
    EXPECT_EQ(sq::sim::plan_to_string(r.final_plan),
              sq::sim::plan_to_string(base.final_plan));
  }
}

TEST_F(RecoveryFixture, TransientFailureRetriesWithoutRepair) {
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kDeviceFail, 1,
                           healthy_.total_seconds * 0.3 * 1e6, 0.2e6});

  RecoveryOptions opts;
  opts.faults = &faults;
  opts.replan = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                         h_.inputs.workload, repair_cfg());
  const RecoveryStats r = eng_.serve(batches_, opts);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.repairs_attempted, 0u);  // waited it out instead
  EXPECT_EQ(r.lost_requests, 0u);
  EXPECT_DOUBLE_EQ(r.serve.output_tokens, expected_tokens());
  EXPECT_GT(r.backoff_us, 0.0);
  EXPECT_EQ(r.final_plan.repair_generation, 0);
}

TEST_F(RecoveryFixture, NoRepairBaselineLosesRemainingWork) {
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 2, healthy_.total_seconds * 0.5 * 1e6});

  RecoveryOptions opts;
  opts.faults = &faults;  // opts.replan left null
  const RecoveryStats r = eng_.serve(batches_, opts);
  EXPECT_TRUE(r.serve.feasible);  // not an engine failure, a degraded outcome
  EXPECT_FALSE(r.serve.failure.empty());
  EXPECT_GT(r.lost_requests, 0u);
  EXPECT_LT(r.serve.output_tokens, expected_tokens());
  EXPECT_EQ(r.repairs_attempted, 0u);
  EXPECT_LT(r.goodput_tok_s, healthy_.throughput_tok_s);
}

TEST_F(RecoveryFixture, EscalationLadderReachesTheFallback) {
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 0, healthy_.total_seconds * 0.5 * 1e6});

  int max_attempt_seen = -1;
  RecoveryOptions opts;
  opts.faults = &faults;
  const auto inner = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                              h_.inputs.workload, repair_cfg());
  opts.replan = [&](const sq::hw::Cluster& degraded, int attempt) {
    max_attempt_seen = std::max(max_attempt_seen, attempt);
    if (attempt < 2) return ReplanOutcome{};  // force escalation
    return inner(degraded, attempt);          // uniform fallback
  };
  const RecoveryStats r = eng_.serve(batches_, opts);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  EXPECT_EQ(max_attempt_seen, 2);
  EXPECT_EQ(r.repairs_attempted, 3u);
  EXPECT_EQ(r.repairs_succeeded, 1u);
  EXPECT_EQ(r.lost_requests, 0u);
  EXPECT_DOUBLE_EQ(r.serve.output_tokens, expected_tokens());
  EXPECT_EQ(r.final_plan.scheme, "uniform");
}

TEST_F(RecoveryFixture, NoFeasibleRepairDegradesGracefully) {
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 2, healthy_.total_seconds * 0.5 * 1e6});

  RecoveryOptions opts;
  opts.faults = &faults;
  opts.replan = [](const sq::hw::Cluster&, int) { return ReplanOutcome{}; };
  const RecoveryStats r = eng_.serve(batches_, opts);
  EXPECT_TRUE(r.serve.feasible);
  EXPECT_NE(r.serve.failure.find("no feasible repair"), std::string::npos);
  EXPECT_EQ(r.repairs_attempted, 3u);  // full ladder exhausted
  EXPECT_EQ(r.repairs_succeeded, 0u);
  EXPECT_GT(r.lost_requests, 0u);
}

TEST_F(RecoveryFixture, MakeReplannerProducesValidPlanOnDegradedCluster) {
  const auto deg = sq::hw::degrade_cluster(h_.cluster, {2});
  ASSERT_EQ(deg.cluster.device_count(), 3);
  EXPECT_EQ(deg.to_original, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(deg.from_original, (std::vector<int>{0, 1, -1, 2}));
  const auto replan = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                               h_.inputs.workload, repair_cfg());
  const ReplanOutcome out = replan(deg.cluster, 0);
  ASSERT_TRUE(out.feasible) << out.failure;
  EXPECT_EQ(out.plan.validate(h_.model, deg.cluster), "");
}

TEST_F(RecoveryFixture, StragglerDerateShrinksRepairCapacity) {
  // A permanent straggler re-rates the degraded spec during repair.
  FaultSchedule faults;
  faults.events.push_back(
      {FaultKind::kDeviceFail, 2, healthy_.total_seconds * 0.5 * 1e6});
  faults.events.push_back({FaultKind::kSlowdown, 0, 0.0,
                           std::numeric_limits<double>::infinity(), 2.0});
  faults.normalize();

  std::vector<double> tflops_seen;
  RecoveryOptions opts;
  opts.faults = &faults;
  const auto inner = sq::core::make_replanner(h_.model, h_.latency, h_.quality,
                                              h_.inputs.workload, repair_cfg());
  opts.replan = [&](const sq::hw::Cluster& degraded, int attempt) {
    for (int d = 0; d < degraded.device_count(); ++d) {
      tflops_seen.push_back(degraded.spec(d).fp16_tflops);
    }
    return inner(degraded, attempt);
  };
  const RecoveryStats r = eng_.serve(batches_, opts);
  ASSERT_TRUE(r.serve.feasible) << r.serve.failure;
  ASSERT_EQ(tflops_seen.size(), 3u);  // one repair over 3 survivors
  // Device 0 was derated to half throughput; survivors 1 and 3 were not.
  EXPECT_DOUBLE_EQ(tflops_seen[0], tflops_seen[1] / 2.0);
  EXPECT_DOUBLE_EQ(tflops_seen[1], tflops_seen[2]);
}

}  // namespace
}  // namespace sq::runtime
