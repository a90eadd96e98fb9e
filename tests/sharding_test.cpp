// Integration tests for the sharded planner: partition enumeration
// invariants (disjoint, covering, deterministic), per-group planning with
// shard provenance, graceful infeasibility and thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/deployment.h"
#include "core/sharding.h"
#include "hw/cluster.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "sim/plan_io.h"

namespace sq::core {
namespace {

using sq::hw::Bitwidth;

/// 4 nodes of 2x V100: enough replicas for K in {1, 2, 4}.
sq::hw::Cluster fleet_cluster(int nodes = 4) {
  std::vector<sq::hw::Node> ns;
  for (int i = 0; i < nodes; ++i) {
    sq::hw::Node n;
    n.name = "node-v100-" + std::to_string(i);
    n.gpu_type = sq::hw::GpuType::kV100;
    n.gpu_count = 2;
    n.intra_gbps = 300.0;
    ns.push_back(n);
  }
  return sq::hw::Cluster("fleet-4x2xV100", ns, 800.0);
}

/// Fast, ILP-free per-group planner config.
PlannerConfig fast_cfg(int threads = 1) {
  PlannerConfig cfg;
  cfg.bits = {Bitwidth::kFp16, Bitwidth::kInt8, Bitwidth::kInt4};
  cfg.use_heuristic = true;
  cfg.max_topologies = 4;
  cfg.max_microbatch_pairs = 2;
  cfg.validate_top_k = 2;
  cfg.group_size = 8;
  cfg.num_threads = threads;
  return cfg;
}

void check_partition(const Partition& p, int k, int device_count) {
  ASSERT_EQ(p.groups.size(), static_cast<std::size_t>(k)) << p.desc;
  std::set<int> seen;
  for (const auto& g : p.groups) {
    EXPECT_FALSE(g.empty()) << p.desc;
    for (const int d : g) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, device_count);
      EXPECT_TRUE(seen.insert(d).second) << "device " << d << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(device_count)) << p.desc;
}

TEST(Sharding, PartitionsAreDisjointAndCovering) {
  const auto fleet = fleet_cluster();
  for (const int k : {1, 2, 4}) {
    const auto parts = enumerate_partitions(fleet, k, 16);
    ASSERT_FALSE(parts.empty()) << "k=" << k;
    for (const auto& p : parts) check_partition(p, k, fleet.device_count());
  }
}

TEST(Sharding, NodeUnitsKeepNodesIntactWhenEnough) {
  const auto fleet = fleet_cluster();
  // 4 nodes >= k=2: groups must be unions of whole nodes (device pairs
  // {2i, 2i+1} always travel together).
  for (const auto& p : enumerate_partitions(fleet, 2, 16)) {
    for (const auto& g : p.groups) {
      for (const int d : g) {
        const int buddy = (d % 2 == 0) ? d + 1 : d - 1;
        EXPECT_NE(std::find(g.begin(), g.end(), buddy), g.end())
            << p.desc << ": device " << d << " split from its node";
      }
    }
  }
}

TEST(Sharding, FallsBackToDeviceUnitsOnOneNode) {
  const auto c9 = sq::hw::paper_cluster(9);  // 1 node, 4x V100
  const auto parts = enumerate_partitions(c9, 2, 16);
  ASSERT_FALSE(parts.empty());
  for (const auto& p : parts) check_partition(p, 2, c9.device_count());
}

TEST(Sharding, EnumerationRejectsImpossibleSplits) {
  const auto c9 = sq::hw::paper_cluster(9);  // 4 devices
  EXPECT_TRUE(enumerate_partitions(c9, 5, 16).empty());  // more groups than devs
  EXPECT_TRUE(enumerate_partitions(c9, 0, 16).empty());
  EXPECT_TRUE(enumerate_partitions(c9, 2, 0).empty());
}

TEST(Sharding, EnumerationIsDeterministicAndDeduped) {
  const auto fleet = fleet_cluster();
  const auto a = enumerate_partitions(fleet, 2, 16);
  const auto b = enumerate_partitions(fleet, 2, 16);
  ASSERT_EQ(a.size(), b.size());
  std::set<std::string> descs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].groups, b[i].groups);
    EXPECT_EQ(a[i].desc, b[i].desc);
    descs.insert(a[i].desc);
  }
  EXPECT_EQ(descs.size(), a.size());  // descriptions unique
  // The cap truncates deterministically from the front.
  const auto capped = enumerate_partitions(fleet, 2, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].groups, a[0].groups);
}

TEST(Sharding, PlansTwoGroupsWithProvenance) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto fleet = fleet_cluster();
  ShardingConfig cfg;
  cfg.num_shards = 2;
  cfg.planner = fast_cfg();
  const Deployment deployment(model, fleet, {16, 512, 32, 2048});

  const ShardPlanResult r = plan_sharded(deployment, cfg);
  ASSERT_TRUE(r.feasible) << r.failure;
  ASSERT_EQ(r.groups.size(), 2u);
  ASSERT_EQ(r.group_results.size(), 2u);
  EXPECT_GT(r.partitions_enumerated, 0);
  EXPECT_GT(r.partitions_feasible, 0);
  EXPECT_FALSE(r.partition.empty());

  double total = 0.0;
  std::set<int> fleet_devices;
  for (std::size_t g = 0; g < r.groups.size(); ++g) {
    const auto& rg = r.groups[g];
    // Plan addresses its sub-cluster and carries the shard stamps.
    EXPECT_EQ(rg.plan.validate(model, rg.cluster), "") << "group " << g;
    EXPECT_EQ(rg.plan.shard_index, static_cast<int>(g));
    EXPECT_EQ(rg.plan.num_shards, 2);
    EXPECT_GT(rg.predicted_tok_s, 0.0);
    total += rg.predicted_tok_s;
    // Index maps tie each group back to disjoint fleet devices.
    ASSERT_EQ(rg.to_original.size(),
              static_cast<std::size_t>(rg.cluster.device_count()));
    for (const int d : rg.to_original) {
      EXPECT_TRUE(fleet_devices.insert(d).second);
    }
  }
  EXPECT_DOUBLE_EQ(r.total_predicted_tok_s, total);
  EXPECT_EQ(fleet_devices.size(),
            static_cast<std::size_t>(fleet.device_count()));
  // Shard provenance round-trips through plan_io.
  const auto io = sq::sim::plan_from_string(sq::sim::plan_to_string(r.groups[1].plan));
  ASSERT_TRUE(io.ok) << io.error;
  EXPECT_EQ(io.plan.shard_index, 1);
  EXPECT_EQ(io.plan.num_shards, 2);
}

TEST(Sharding, SingleShardMatchesThePlainPlanner) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto fleet = fleet_cluster(2);
  ShardingConfig cfg;
  cfg.num_shards = 1;
  cfg.planner = fast_cfg();
  const Deployment deployment(model, fleet, {16, 512, 32, 2048});

  const ShardPlanResult r = plan_sharded(deployment, cfg);
  ASSERT_TRUE(r.feasible) << r.failure;
  ASSERT_EQ(r.groups.size(), 1u);
  // K=1 stamps are the serialization defaults, so the plan is byte-equal
  // to the plain planner's on the whole fleet.
  const PlanResult direct = deployment.planner().plan(cfg.planner);
  ASSERT_TRUE(direct.feasible) << direct.failure;
  EXPECT_EQ(sq::sim::plan_to_string(r.groups[0].plan),
            sq::sim::plan_to_string(direct.plan));
}

TEST(Sharding, InfeasibleWhenGroupsCannotHoldTheModel) {
  // OPT-30B over 4 shards of a 4x T4 node: ~7.5 GiB of INT4 weights per
  // layer-share never fits a lone 16 GiB T4 next to its KV — every
  // partition dies in the per-group planner.
  const auto model = sq::model::spec(sq::model::ModelId::kOpt30B);
  const auto c8 = sq::hw::paper_cluster(8);  // 4x T4, one node
  ShardingConfig cfg;
  cfg.num_shards = 4;
  cfg.planner = fast_cfg();
  const Deployment deployment(model, c8, {16, 512, 32, 2048});

  const ShardPlanResult r = plan_sharded(deployment, cfg);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_TRUE(r.groups.empty());

  // And asking for more shards than devices fails the enumeration itself.
  cfg.num_shards = 9;
  const ShardPlanResult r9 = plan_sharded(deployment, cfg);
  EXPECT_FALSE(r9.feasible);
  EXPECT_NE(r9.failure.find("cannot be split"), std::string::npos);
}

TEST(Sharding, DeterministicAcrossPlannerThreadCounts) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto fleet = fleet_cluster();

  std::vector<std::string> base_plans;
  std::string base_partition;
  double base_total = 0.0;
  bool first = true;
  for (const int threads : {1, 4}) {
    ShardingConfig cfg;
    cfg.num_shards = 2;
    cfg.planner = fast_cfg(threads);
    const Deployment deployment(model, fleet, {16, 512, 32, 2048});
    const ShardPlanResult r = plan_sharded(deployment, cfg);
    ASSERT_TRUE(r.feasible) << r.failure;
    std::vector<std::string> plans;
    for (const auto& g : r.groups) {
      plans.push_back(sq::sim::plan_to_string(g.plan));
    }
    if (first) {
      base_plans = plans;
      base_partition = r.partition;
      base_total = r.total_predicted_tok_s;
      first = false;
      continue;
    }
    EXPECT_EQ(plans, base_plans) << "threads=" << threads;
    EXPECT_EQ(r.partition, base_partition);
    EXPECT_EQ(r.total_predicted_tok_s, base_total);
  }
}

}  // namespace
}  // namespace sq::core
