// Tests for PlanContext: table construction, assignment evaluation,
// plan materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/heuristics.h"
#include "core_test_util.h"
#include "hw/cluster.h"
#include "sim/memory.h"

namespace sq::core {
namespace {

using testutil::Harness;

sq::sim::BatchWorkload small_batch() { return {8, 512, 32, 2048}; }

TEST(MakeGroups, ExplicitSize) {
  const auto g = make_groups(10, 4);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0], (std::pair<int, int>{0, 4}));
  EXPECT_EQ(g[2], (std::pair<int, int>{8, 10}));  // remainder group
}

TEST(MakeGroups, AutoTargetsAtMostSixteen) {
  EXPECT_LE(make_groups(80, 0).size(), 16u);
  EXPECT_EQ(make_groups(12, 0).size(), 12u);  // small models ungrouped
}

TEST(PlanContext, DimensionsAndTables) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  EXPECT_EQ(ctx.num_groups(), 10);  // 40 layers / group 4
  EXPECT_EQ(ctx.num_stages(), 4);
  EXPECT_EQ(ctx.num_bits(), 4);
  for (int g = 0; g < ctx.num_groups(); ++g) {
    for (int j = 0; j < ctx.num_stages(); ++j) {
      for (int bi = 0; bi < ctx.num_bits(); ++bi) {
        EXPECT_GT(ctx.l_pre(g, j, bi), 0.0);
        EXPECT_GT(ctx.l_dec(g, j, bi), 0.0);
        EXPECT_GT(ctx.mem(g, j, bi), 0.0);
      }
    }
  }
}

TEST(PlanContext, MasterStagePaysEmbeddings) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  EXPECT_LT(ctx.mem_budget(0), ctx.mem_budget(1));
  EXPECT_GT(ctx.const_pre(0), 0.0);
  EXPECT_EQ(ctx.const_pre(1), 0.0);
}

TEST(PlanContext, PipelineCoefficients) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  // B=8, eta=4 -> mu_pre=2 -> coeff 1;  xi=8 -> mu_dec=1, n=32 -> 30.
  const PlanContext ctx = h.context(4, 8);
  EXPECT_DOUBLE_EQ(ctx.t_pre_coeff(), 1.0);
  EXPECT_DOUBLE_EQ(ctx.t_dec_coeff(), 30.0);
}

TEST(PlanContext, EvaluateRejectsStructureViolations) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  const int G = ctx.num_groups();
  std::vector<int> stage(static_cast<std::size_t>(G), 0);
  std::vector<int> bit(static_cast<std::size_t>(G), 1);

  // Non-monotone stages.
  stage[2] = 1;
  stage[3] = 0;
  EXPECT_FALSE(ctx.evaluate(stage, bit).feasible);

  // Anchor violated: group 0 not on stage 0.
  std::fill(stage.begin(), stage.end(), 1);
  EXPECT_FALSE(ctx.evaluate(stage, bit).feasible);
}

TEST(PlanContext, EvaluateRejectsMemoryOverflow) {
  // OPT-30B entirely on one V100 at FP16 cannot fit.
  const Harness h(sq::model::ModelId::kOpt30B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  std::vector<int> stage(static_cast<std::size_t>(ctx.num_groups()), 0);
  std::vector<int> bit(static_cast<std::size_t>(ctx.num_groups()), 0);  // fp16
  EXPECT_FALSE(ctx.evaluate(stage, bit).feasible);
}

TEST(PlanContext, EvaluateComputesStragglerObjective) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  const int G = ctx.num_groups();
  std::vector<int> stage(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g) stage[static_cast<std::size_t>(g)] = g * 4 / G;
  std::vector<int> bit(static_cast<std::size_t>(G), 1);  // int8
  const AssignmentEval ev = ctx.evaluate(stage, bit);
  ASSERT_TRUE(ev.feasible);
  EXPECT_GT(ev.latency_s, 0.0);
  EXPECT_GT(ev.t_pre_max, 0.0);
  EXPECT_GT(ev.t_dec_max, 0.0);
  EXPECT_GT(ev.omega, 0.0);
  EXPECT_NEAR(ev.objective, ev.latency_s + h.inputs.theta * ev.omega, 1e-12);
}

TEST(PlanContext, QualityBudgetEnforced) {
  Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  h.inputs.omega_budget = 0.0;  // only FP16 allowed
  const PlanContext ctx = h.context(4, 8);
  const int G = ctx.num_groups();
  std::vector<int> stage(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g) stage[static_cast<std::size_t>(g)] = g * 4 / G;
  std::vector<int> int8_bits(static_cast<std::size_t>(G), 1);
  std::vector<int> fp16_bits(static_cast<std::size_t>(G), 0);
  EXPECT_FALSE(ctx.evaluate(stage, int8_bits).feasible);
  EXPECT_TRUE(ctx.evaluate(stage, fp16_bits).feasible);
}

TEST(PlanContext, ToPlanMergesConsecutiveGroups) {
  const Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  const PlanContext ctx = h.context(4, 8);
  const int G = ctx.num_groups();
  std::vector<int> stage(static_cast<std::size_t>(G));
  for (int g = 0; g < G; ++g) stage[static_cast<std::size_t>(g)] = g < G / 2 ? 0 : 2;
  std::vector<int> bit(static_cast<std::size_t>(G), 1);
  bit[0] = 0;  // first group fp16
  const auto plan = ctx.to_plan(stage, bit, "test");
  ASSERT_EQ(plan.stages.size(), 2u);  // stage 1 and 3 unused -> dropped
  EXPECT_EQ(plan.stages[0].layer_begin, 0);
  EXPECT_EQ(plan.stages[1].layer_end, h.model.n_layers);
  EXPECT_EQ(plan.layer_bits[0], sq::hw::Bitwidth::kFp16);
  EXPECT_EQ(plan.layer_bits[5], sq::hw::Bitwidth::kInt8);
  EXPECT_EQ(plan.validate(h.model, h.cluster), "");
}

TEST(PlanContext, TpBudgetsScaleWithGroupSize) {
  const Harness h(sq::model::ModelId::kOpt30B, 9, small_batch());
  // TP4 topology: one stage of 4 devices.
  const auto topos = enumerate_topologies(h.cluster, true, 16);
  const Topology* tp4 = nullptr;
  for (const auto& t : topos) {
    if (t.groups.size() == 1 && t.groups[0].devices.size() == 4) tp4 = &t;
  }
  ASSERT_NE(tp4, nullptr);
  const PlanContext ctx(h.inputs, *tp4, 4, 8, 4);
  const PlanContext single = h.context(4, 8);
  EXPECT_GT(ctx.mem_budget(0), 3.0 * single.mem_budget(0));
}

// The memory table and stage budgets are sim/memory's planner charge, bit
// for bit, on pipeline and TP topologies of a mixed cluster; on a
// single-device pipeline a plan's table sums are its sim::plan_charge.
TEST(PlanContext, MemoryTablesAreThePlannersCharge) {
  const sq::sim::BatchWorkload w{16, 391, 117, 256};  // unaligned chunks
  for (const int cluster_id : {5, 9}) {
    const Harness h(sq::model::ModelId::kOpt13B, cluster_id, w);
    const auto& m = h.model;
    const std::uint64_t act = sq::sim::stage_activation_bytes(m, 4, 8, w.chunk_len());
    const auto topos = enumerate_topologies(h.cluster, true, 16);
    ASSERT_FALSE(topos.empty());
    for (const Topology& topo : topos) {
      const PlanContext ctx(h.inputs, topo, 4, 8, 3);
      for (int j = 0; j < ctx.num_stages(); ++j) {
        const auto& devices = topo.groups[static_cast<std::size_t>(j)].devices;
        EXPECT_EQ(ctx.mem_budget(j),
                  sq::sim::stage_layer_budget(
                      m, h.cluster.spec(devices.front()).usable_memory_bytes(),
                      static_cast<int>(devices.size()), j == 0, act));
        for (int g = 0; g < ctx.num_groups(); ++g) {
          const auto [first, last] = ctx.group_range(g);
          for (int bi = 0; bi < ctx.num_bits(); ++bi) {
            const std::uint64_t charge = sq::sim::layer_charge(
                m, h.inputs.bits[static_cast<std::size_t>(bi)], h.inputs.kv_bits,
                w.batch_size, w.max_context());
            EXPECT_EQ(ctx.mem(g, j, bi),
                      static_cast<double>(last - first) * static_cast<double>(charge));
          }
        }
      }
    }
  }

  const Harness h(sq::model::ModelId::kOpt13B, 9, w);
  const PlanContext ctx = h.context(4, 8, 3);
  const std::vector<int> stage = even_partition(ctx);
  std::vector<int> bit(stage.size());
  for (std::size_t g = 0; g < bit.size(); ++g) bit[g] = static_cast<int>(g % 4);
  const auto plan = ctx.to_plan(stage, bit, "charge");
  const auto charge = sq::sim::plan_charge(h.model, plan, w);
  ASSERT_EQ(charge.size(), static_cast<std::size_t>(ctx.num_stages()));
  const std::uint64_t act = sq::sim::stage_activation_bytes(h.model, 4, 8, w.chunk_len());
  for (int j = 0; j < ctx.num_stages(); ++j) {
    double used = static_cast<double>(act);
    if (j == 0) used += static_cast<double>(h.model.embedding_bytes());
    for (int g = 0; g < ctx.num_groups(); ++g) {
      if (stage[static_cast<std::size_t>(g)] == j) {
        used += ctx.mem(g, j, bit[static_cast<std::size_t>(g)]);
      }
    }
    EXPECT_EQ(used, static_cast<double>(charge[static_cast<std::size_t>(j)])) << j;
  }
}

// A context rebound to inputs that differ only in theta and the quality
// budget scores exactly like one built from those inputs.
TEST(PlanContext, RebindScoresLikeAContextBuiltFromTheNewInputs) {
  Harness h(sq::model::ModelId::kOpt13B, 9, small_batch());
  h.inputs.omega_budget = 0.0;  // every quantized assignment is over budget
  PlanInputs speed = h.inputs;
  speed.theta = 0.0;
  speed.omega_budget = -1.0;
  PlanContext ctx = h.context(4, 8);
  const PlanContext fresh(speed, h.natural, 4, 8, 4);
  const int G = ctx.num_groups();
  const std::vector<int> stage = even_partition(ctx);
  const std::vector<int> bit(static_cast<std::size_t>(G), 2);
  EXPECT_FALSE(ctx.evaluate(stage, bit).feasible);

  ctx.rebind(speed);
  const AssignmentEval a = ctx.evaluate(stage, bit);
  const AssignmentEval b = fresh.evaluate(stage, bit);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.omega, b.omega);
  EXPECT_EQ(a.objective, a.latency_s);  // theta 0
}

// Pipelines deeper than evaluate's on-stack sums (32 stages) take its heap
// path; it prices them as the table sums say.
TEST(PlanContext, EvaluateSumsTheTablesOnDeepPipelines) {
  const Harness h(sq::model::ModelId::kOpt30B, 1, small_batch());
  sq::hw::Cluster cluster = h.cluster;
  sq::hw::Node v100;
  v100.name = "extra";
  v100.gpu_type = sq::hw::GpuType::kV100;
  v100.gpu_count = 1;
  v100.intra_gbps = 300.0;
  while (cluster.device_count() < 40) cluster = sq::hw::grow_cluster(cluster, v100);
  PlanInputs in = h.inputs;
  in.cluster = &cluster;
  Topology topo;
  for (int d = 0; d < cluster.device_count(); ++d) topo.groups.push_back({{d}});
  const PlanContext ctx(in, topo, 4, 8, 1);
  const int G = ctx.num_groups(), J = ctx.num_stages();
  ASSERT_EQ(J, 40);
  ASSERT_EQ(G, h.model.n_layers);

  std::vector<int> stage(static_cast<std::size_t>(G)), bit(stage.size(), 1);
  for (int g = 0; g < G; ++g) stage[static_cast<std::size_t>(g)] = std::min(g, J - 1);
  const AssignmentEval ev = ctx.evaluate(stage, bit);
  ASSERT_TRUE(ev.feasible);

  std::vector<double> pre(static_cast<std::size_t>(J)), dec(pre.size());
  double omega = 0.0;
  for (int g = 0; g < G; ++g) {
    const int j = stage[static_cast<std::size_t>(g)];
    pre[static_cast<std::size_t>(j)] += ctx.l_pre(g, j, 1);
    dec[static_cast<std::size_t>(j)] += ctx.l_dec(g, j, 1);
    omega += ctx.omega(g, 1);
  }
  double tpm = 0.0, tdm = 0.0, tps = 0.0, tds = 0.0;
  for (int j = 0; j < J; ++j) {
    const double tp = pre[static_cast<std::size_t>(j)] + ctx.const_pre(j);
    const double td = dec[static_cast<std::size_t>(j)] + ctx.const_dec(j);
    tpm = std::max({tpm, tp, ctx.comm_pre(j)});
    tdm = std::max({tdm, td, ctx.comm_dec(j)});
    tps += tp;
    tds += td;
  }
  EXPECT_EQ(ev.omega, omega);
  EXPECT_EQ(ev.t_pre_max, tpm);
  EXPECT_EQ(ev.t_dec_max, tdm);
  EXPECT_EQ(ev.latency_s,
            ctx.t_pre_coeff() * tpm + tps + ctx.t_dec_coeff() * tdm + tds);
}

}  // namespace
}  // namespace sq::core
