// Determinism contract of the parallel plan search: every thread count —
// including num_threads == 1, which runs every task inline — must produce
// the identical PlanResult, bit-for-bit, on the paper clusters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core_test_util.h"
#include "sim/plan_io.h"

namespace sq::core {
namespace {

using testutil::Harness;

PlannerConfig parallel_cfg(int num_threads) {
  PlannerConfig cfg;
  // Generous ILP limit so every solve runs to proven optimality — the
  // MILP time limit is the one wall-clock-dependent knob in the search.
  cfg.ilp_time_limit_s = 30.0;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 6;
  cfg.group_size = 8;
  cfg.num_threads = num_threads;
  return cfg;
}

/// Every deterministic field of a PlanResult, in one comparable blob.
/// solve_seconds is wall time and deliberately excluded.
std::string fingerprint(const PlanResult& r) {
  std::string s;
  s += "feasible=" + std::to_string(r.feasible) + "\n";
  s += "failure=" + r.failure + "\n";
  s += "topology=" + r.topology + "\n";
  s += "planned_batch=" + std::to_string(r.planned_batch) + "\n";
  // hexfloat-exact doubles: any bit difference must show.
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "lat=%a tput=%a omega=%a ppl=%a acc=%a\n", r.predicted_latency_s,
                r.predicted_throughput, r.total_omega, r.est_ppl, r.est_accuracy);
  s += buf;
  s += "ilp_solves=" + std::to_string(r.ilp_solves) + "\n";
  s += "ilp_nodes=" + std::to_string(r.ilp_nodes) + "\n";
  s += "topologies=" + std::to_string(r.topologies_tried) + "\n";
  s += "pairs=" + std::to_string(r.pairs_tried) + "\n";
  if (r.feasible) s += sq::sim::plan_to_string(r.plan);
  return s;
}

class PlannerParallelFixture
    : public ::testing::TestWithParam<std::tuple<sq::model::ModelId, int>> {};

TEST_P(PlannerParallelFixture, PlanIsThreadCountInvariant) {
  const auto [model_id, cluster_id] = GetParam();
  Harness h(model_id, cluster_id, {64, 1024, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency,
                        h.quality);

  const PlanResult sequential = planner.plan(parallel_cfg(1));
  const std::string want = fingerprint(sequential);
  for (const int nt : {2, 4, 8}) {
    const PlanResult parallel = planner.plan(parallel_cfg(nt));
    EXPECT_EQ(fingerprint(parallel), want) << "num_threads=" << nt;
  }
}

TEST_P(PlannerParallelFixture, BaselinesAreThreadCountInvariant) {
  const auto [model_id, cluster_id] = GetParam();
  Harness h(model_id, cluster_id, {64, 1024, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency,
                        h.quality);

  const std::string uni = fingerprint(planner.plan_uniform(parallel_cfg(1)));
  const std::string het = fingerprint(planner.plan_het(parallel_cfg(1)));
  const std::string ada = fingerprint(planner.plan_adabits(parallel_cfg(1)));
  EXPECT_EQ(fingerprint(planner.plan_uniform(parallel_cfg(4))), uni);
  EXPECT_EQ(fingerprint(planner.plan_het(parallel_cfg(4))), het);
  EXPECT_EQ(fingerprint(planner.plan_adabits(parallel_cfg(4))), ada);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClusters, PlannerParallelFixture,
    ::testing::Values(std::make_tuple(sq::model::ModelId::kOpt30B, 5),
                      std::make_tuple(sq::model::ModelId::kQwen25_14B, 3)),
    [](const auto& info) {
      return "cluster" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sq::core
