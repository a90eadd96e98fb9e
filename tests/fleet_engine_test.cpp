// Integration tests for the fleet engine: multi-job LPT scheduling across
// replica groups, graceful rejection of oversized jobs, group-local fault
// isolation (repair / retire / reassign) and the bit-determinism contract
// across scheduler thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/repair.h"
#include "cost/latency_model.h"
#include "hw/cluster.h"
#include "model/registry.h"
#include "quality/quality_model.h"
#include "runtime/fleet.h"
#include "serving_digest.h"
#include "sim/faults.h"
#include "sim/plan_io.h"

namespace sq::runtime {
namespace {

using sq::hw::Bitwidth;
using sq::sim::FaultKind;
using sq::sim::FaultSchedule;

/// A 2-node fleet of 2x V100 each: two natural replica groups of two
/// devices, every group big enough for OPT-13B at INT8.
sq::hw::Cluster fleet_cluster() {
  sq::hw::Node n;
  n.gpu_type = sq::hw::GpuType::kV100;
  n.gpu_count = 2;
  n.intra_gbps = 300.0;
  sq::hw::Node n0 = n, n1 = n;
  n0.name = "node-v100-0";
  n1.name = "node-v100-1";
  return sq::hw::Cluster("fleet-2x2xV100", {n0, n1}, 800.0);
}

/// Even 2-stage pipeline plan over a 2-device cluster at one bitwidth.
sq::sim::ExecutionPlan plan_for(const sq::model::LlmSpec& m, Bitwidth b) {
  sq::sim::ExecutionPlan p;
  const int half = m.n_layers / 2;
  p.stages.push_back({{0}, 0, half});
  p.stages.push_back({{1}, half, m.n_layers});
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  return p;
}

/// Deterministic synthetic replanner: an even INT8 pipeline over up to two
/// devices of whatever cluster repair left.  Keeps the goldens below
/// independent of the real planner.
Replanner two_stage_replanner(const sq::model::LlmSpec& m) {
  return [m](const sq::hw::Cluster& c, int) {
    ReplanOutcome o;
    const int stages = std::min(2, c.device_count());
    const int per = m.n_layers / stages;
    for (int s = 0; s < stages; ++s) {
      o.plan.stages.push_back(
          {{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
    }
    o.plan.layer_bits.assign(static_cast<std::size_t>(m.n_layers),
                             Bitwidth::kInt8);
    o.plan.prefill_microbatch = 4;
    o.plan.decode_microbatch = 16;
    o.predicted_tok_s = 100.0 * stages;
    o.feasible = o.plan.validate(m, c).empty();
    return o;
  };
}

class FleetFixture : public ::testing::Test {
 protected:
  FleetFixture() : model_(sq::model::spec(sq::model::ModelId::kOpt13B)) {
    const sq::hw::Cluster fleet = fleet_cluster();
    for (const auto& devices :
         {std::vector<int>{2, 3}, std::vector<int>{0, 1}}) {
      // degrade_cluster excludes `devices`, so the first entry builds the
      // group over {0, 1} and the second over {2, 3}.
      const auto sub = sq::hw::degrade_cluster(fleet, devices);
      ReplicaGroup rg;
      rg.cluster = sub.cluster;
      rg.to_original = sub.to_original;
      rg.plan = plan_for(model_, Bitwidth::kInt8);
      rg.plan.shard_index = static_cast<int>(groups_.size());
      rg.plan.num_shards = 2;
      groups_.push_back(std::move(rg));
    }
  }

  std::vector<FleetJob> jobs4() const {
    return {
        {.name = "job-a", .batches = {{16, 512, 32, 2048}}, .arrivals = {}},
        {.name = "job-b", .batches = {{16, 256, 16, 2048}}, .arrivals = {}},
        {.name = "job-c", .batches = {{8, 512, 32, 2048}}, .arrivals = {}},
        {.name = "job-d", .batches = {{8, 256, 16, 2048}}, .arrivals = {}},
    };
  }

  static double expected_tokens(const std::vector<FleetJob>& jobs) {
    double t = 0.0;
    for (const auto& j : jobs) {
      for (const auto& b : j.batches) {
        t += static_cast<double>(b.batch_size) * static_cast<double>(b.gen_tokens);
      }
    }
    return t;
  }

  FleetEngine engine() const { return FleetEngine(model_, groups_); }

  /// Two groups of three V100s over a 2x3 fleet: group 0 holds fleet
  /// devices {0, 1, 2}, group 1 holds {3, 4, 5}, so group 1's local device
  /// indices differ from the fleet ids a fault schedule speaks.
  std::vector<ReplicaGroup> three_device_groups() const {
    sq::hw::Node n;
    n.gpu_type = sq::hw::GpuType::kV100;
    n.gpu_count = 3;
    n.intra_gbps = 300.0;
    sq::hw::Node n0 = n, n1 = n;
    n0.name = "node-v100-0";
    n1.name = "node-v100-1";
    const sq::hw::Cluster fleet("fleet-2x3xV100", {n0, n1}, 800.0);
    std::vector<ReplicaGroup> groups;
    for (const auto& excluded :
         {std::vector<int>{3, 4, 5}, std::vector<int>{0, 1, 2}}) {
      const auto sub = sq::hw::degrade_cluster(fleet, excluded);
      ReplicaGroup rg;
      rg.cluster = sub.cluster;
      rg.to_original = sub.to_original;
      rg.plan = plan_for(model_, Bitwidth::kInt8);
      rg.plan.shard_index = static_cast<int>(groups.size());
      rg.plan.num_shards = 2;
      groups.push_back(std::move(rg));
    }
    return groups;
  }

  sq::model::LlmSpec model_;
  std::vector<ReplicaGroup> groups_;
};

TEST_F(FleetFixture, ZeroJobsServesToEmptyStats) {
  const FleetStats s = engine().serve({});
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_TRUE(s.jobs.empty());
  EXPECT_EQ(s.jobs_completed, 0u);
  EXPECT_EQ(s.makespan_s, 0.0);
  EXPECT_EQ(s.aggregate_tok_s, 0.0);
  ASSERT_EQ(s.group_busy_s.size(), 2u);
  EXPECT_EQ(s.group_busy_s[0], 0.0);
  EXPECT_EQ(s.group_busy_s[1], 0.0);
}

TEST_F(FleetFixture, NoGroupsIsStructurallyInfeasible) {
  const FleetEngine empty(model_, {});
  const FleetStats s = empty.serve(jobs4());
  EXPECT_FALSE(s.feasible);
  EXPECT_NE(s.failure.find("no replica groups"), std::string::npos);
}

TEST_F(FleetFixture, CompletesAllJobsAcrossBothGroups) {
  const auto jobs = jobs4();
  const FleetStats s = engine().serve(jobs);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.jobs_completed, jobs.size());
  EXPECT_EQ(s.jobs_rejected, 0u);
  EXPECT_DOUBLE_EQ(s.output_tokens, expected_tokens(jobs));
  ASSERT_EQ(s.jobs.size(), jobs.size());
  for (const auto& out : s.jobs) {
    EXPECT_TRUE(out.completed) << out.job << ": " << out.failure;
    EXPECT_GE(out.group, 0);
    EXPECT_GT(out.end_s, out.start_s);
  }
  // LPT over equal-rate groups spreads 4 jobs 2/2.
  ASSERT_EQ(s.group_jobs.size(), 2u);
  EXPECT_EQ(s.group_jobs[0], 2u);
  EXPECT_EQ(s.group_jobs[1], 2u);
  // Makespan is the busiest group's clock; aggregate is tokens over it.
  EXPECT_DOUBLE_EQ(s.makespan_s, std::max(s.group_busy_s[0], s.group_busy_s[1]));
  EXPECT_DOUBLE_EQ(s.aggregate_tok_s, s.output_tokens / s.makespan_s);
}

TEST_F(FleetFixture, BitIdenticalAcrossSchedulerThreadCounts) {
  const auto jobs = jobs4();
  FleetStats base;
  bool first = true;
  for (const int threads : {1, 2, 4, 8}) {
    FleetOptions opts;
    opts.num_threads = threads;
    const FleetStats s = engine().serve(jobs, opts);
    ASSERT_TRUE(s.feasible) << s.failure;
    if (first) {
      base = s;
      first = false;
      continue;
    }
    EXPECT_EQ(s.events, base.events) << "threads=" << threads;
    EXPECT_EQ(s.jobs_completed, base.jobs_completed);
    EXPECT_EQ(s.output_tokens, base.output_tokens);
    EXPECT_EQ(s.makespan_s, base.makespan_s);
    EXPECT_EQ(s.aggregate_tok_s, base.aggregate_tok_s);
    EXPECT_EQ(s.group_busy_s, base.group_busy_s);
    EXPECT_EQ(s.group_jobs, base.group_jobs);
    ASSERT_EQ(s.jobs.size(), base.jobs.size());
    for (std::size_t j = 0; j < s.jobs.size(); ++j) {
      EXPECT_EQ(s.jobs[j].group, base.jobs[j].group);
      EXPECT_EQ(s.jobs[j].start_s, base.jobs[j].start_s);
      EXPECT_EQ(s.jobs[j].end_s, base.jobs[j].end_s);
      EXPECT_EQ(s.jobs[j].recovery.serve.output_tokens,
                base.jobs[j].recovery.serve.output_tokens);
    }
  }
}

TEST_F(FleetFixture, OversizedJobRejectedGracefully) {
  auto jobs = jobs4();
  // A single request whose KV alone dwarfs any group's memory: no group
  // can hold even one request, so the job must bounce, not crash.
  jobs.push_back({.name = "job-goliath",
                  .batches = {{1, 4u << 20, 32, 2048}},
                  .arrivals = {}});
  const FleetStats s = engine().serve(jobs);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.jobs_rejected, 1u);
  EXPECT_EQ(s.jobs_completed, jobs.size() - 1);
  const JobOutcome& goliath = s.jobs.back();
  EXPECT_EQ(goliath.group, -1);
  EXPECT_FALSE(goliath.completed);
  EXPECT_NE(goliath.failure.find("rejected"), std::string::npos);
  // The rest of the workload is unaffected.
  EXPECT_DOUBLE_EQ(s.output_tokens, expected_tokens(jobs4()));
}

TEST_F(FleetFixture, PermanentFailureRetiresOnlyItsGroupAndReassigns) {
  const auto jobs = jobs4();
  // Kill fleet device 0 (group 0) early: no replanner, so group 0 retires
  // mid-first-job and its queued jobs drain onto group 1.
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kDeviceFail, 0, 0.05e6});
  FleetOptions opts;
  opts.faults = &faults;
  const FleetStats s = engine().serve(jobs, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.groups_retired, 1u);
  EXPECT_GE(s.jobs_reassigned, 1u);
  EXPECT_GE(s.faults_hit, 1u);
  // Exactly one job (the one the failure hit) is lost; everything queued
  // behind it re-ran on the surviving group.
  EXPECT_EQ(s.jobs_completed, jobs.size() - 1);
  std::size_t failed = 0;
  for (const auto& out : s.jobs) {
    if (!out.completed) {
      ++failed;
      EXPECT_EQ(out.group, 0) << out.job;
      EXPECT_FALSE(out.failure.empty());
    }
  }
  EXPECT_EQ(failed, 1u);
  // Group 1 never saw the fault.
  for (const auto& out : s.jobs) {
    if (out.completed && out.group == 1) {
      EXPECT_EQ(out.recovery.faults_hit, 0u) << out.job;
    }
  }
}

TEST_F(FleetFixture, RepairKeepsTheGroupServing) {
  const auto jobs = jobs4();
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kDeviceFail, 0, 0.05e6});

  sq::cost::LatencyCostModel latency(model_);
  const std::vector<Bitwidth> bits = {Bitwidth::kFp16, Bitwidth::kInt8,
                                      Bitwidth::kInt4};
  sq::quality::QualityModel quality(model_, bits);
  sq::core::PlannerConfig cfg;
  cfg.bits = bits;
  cfg.use_heuristic = true;
  cfg.max_topologies = 4;
  cfg.max_microbatch_pairs = 2;
  cfg.validate_top_k = 2;
  cfg.group_size = 8;
  cfg.num_threads = 1;
  const sq::sim::BatchWorkload workload{16, 512, 32, 2048};
  FleetOptions opts;
  opts.faults = &faults;
  opts.replan = sq::core::make_replanner(model_, latency, quality, workload, cfg);

  const FleetStats s = engine().serve(jobs, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  // The repair keeps group 0 alive on its surviving device: no retirement,
  // no reassignment, every request of every job completes.
  EXPECT_EQ(s.groups_retired, 0u);
  EXPECT_EQ(s.jobs_reassigned, 0u);
  EXPECT_GE(s.repairs, 1u);
  EXPECT_EQ(s.jobs_completed, jobs.size());
  EXPECT_DOUBLE_EQ(s.output_tokens, expected_tokens(jobs));
}

TEST_F(FleetFixture, RepairedGroupCarriesShardProvenanceForward) {
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kDeviceFail, 0, 0.05e6});

  sq::cost::LatencyCostModel latency(model_);
  const std::vector<Bitwidth> bits = {Bitwidth::kFp16, Bitwidth::kInt8,
                                      Bitwidth::kInt4};
  sq::quality::QualityModel quality(model_, bits);
  sq::core::PlannerConfig cfg;
  cfg.bits = bits;
  cfg.use_heuristic = true;
  cfg.max_topologies = 4;
  cfg.max_microbatch_pairs = 2;
  cfg.validate_top_k = 2;
  cfg.group_size = 8;
  cfg.num_threads = 1;
  const sq::sim::BatchWorkload workload{16, 512, 32, 2048};
  FleetOptions opts;
  opts.faults = &faults;
  opts.replan = sq::core::make_replanner(model_, latency, quality, workload, cfg);

  // A single-group fleet forces both jobs onto group 0: the second job
  // serves on the repaired group state, whose adopted plan must still
  // carry the shard stamps.
  const FleetEngine one_group(model_, {groups_[0]});
  const std::vector<FleetJob> jobs = {
      {.name = "j0", .batches = {{16, 512, 32, 2048}}, .arrivals = {}},
      {.name = "j1", .batches = {{16, 512, 32, 2048}}, .arrivals = {}}};
  const FleetStats s = one_group.serve(jobs, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_GE(s.repairs, 1u);
  std::size_t after_repair = 0;
  for (const auto& out : s.jobs) {
    if (out.group == 0 && out.recovery.final_generation == 0) {
      // Served after the in-job repair on the adopted plan.
      ++after_repair;
      EXPECT_EQ(out.recovery.final_plan.num_shards, 2);
      EXPECT_EQ(out.recovery.final_plan.shard_index, 0);
    }
  }
  EXPECT_GE(after_repair, 1u);
}

TEST_F(FleetFixture, RepairsOnAMappedGroupMatchPinnedGolden) {
  // Group 1 maps local {0, 1, 2} to fleet {3, 4, 5}.  Fleet device 3 is a
  // sustained straggler (baked into the specs by the first repair), fleet
  // device 4 fails during group 1's first job and fleet device 5 during a
  // later job on the repaired group, whose local indices have shifted
  // again; a transient window on device 3 is retried in between.
  const sq::sim::FaultParse fp =
      sq::sim::parse_fault_spec("slow:3@0x2,fail:4@3,fail:3@8+1,fail:5@30");
  ASSERT_TRUE(fp.ok) << fp.error;
  FleetOptions opts;
  opts.faults = &fp.schedule;
  opts.replan = two_stage_replanner(model_);
  std::vector<FleetJob> jobs = jobs4();
  jobs.push_back({"job-e", {{16, 512, 32, 2048}}, {}});
  jobs.push_back({"job-f", {{8, 256, 16, 2048}}, {}});
  const FleetStats s = FleetEngine(model_, three_device_groups()).serve(jobs, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.jobs_completed, jobs.size());
  EXPECT_EQ(s.repairs, 2u);
  EXPECT_EQ(s.retries, 1u);
  const std::string text = sq::testutil::render(s);
  EXPECT_EQ(sq::testutil::digest(text), "ed6c409fcb72a891") << text;
}

TEST_F(FleetFixture, ContinuousRepairMatchesPinnedGolden) {
  // Continuous jobs on group 0: fleet device 1 fails during the first job,
  // the second job serves on the repaired group.
  const sq::sim::FaultParse fp = sq::sim::parse_fault_spec("fail:1@2");
  ASSERT_TRUE(fp.ok) << fp.error;
  FleetOptions opts;
  opts.faults = &fp.schedule;
  opts.replan = two_stage_replanner(model_);
  std::vector<FleetJob> jobs(2);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].name = "cont-" + std::to_string(j);
    for (int i = 0; i < 24; ++i) {
      sq::workload::TimedRequest tr;
      tr.arrive_s = 0.25 * i;
      tr.request.prompt_tokens = 256 + 32 * static_cast<std::uint64_t>(i % 5);
      tr.request.output_tokens = 48 + 8 * static_cast<std::uint64_t>(i % 3);
      jobs[j].arrivals.push_back(tr);
    }
  }
  const FleetStats s = FleetEngine(model_, {groups_[0]}).serve(jobs, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  const std::string text = sq::testutil::render(s);
  EXPECT_EQ(sq::testutil::digest(text), "edb292560b71b9ef") << text;
}

}  // namespace
}  // namespace sq::runtime
