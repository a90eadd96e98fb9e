// The observability layer must never feed back into the plan search:
// enabling metrics leaves every deterministic field of a PlanResult
// bit-identical, sequentially and in parallel, for the full planner and
// all three baselines.
#include <gtest/gtest.h>

#include <string>

#include "core_test_util.h"
#include "obs/metrics.h"
#include "sim/plan_io.h"

namespace sq::core {
namespace {

using testutil::Harness;

PlannerConfig metrics_cfg(int num_threads) {
  PlannerConfig cfg;
  cfg.ilp_time_limit_s = 30.0;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 6;
  cfg.group_size = 8;
  cfg.num_threads = num_threads;
  return cfg;
}

/// Every deterministic field of a PlanResult (solve_seconds is wall time
/// and deliberately excluded) — same blob as planner_parallel_test.cpp.
std::string fingerprint(const PlanResult& r) {
  std::string s;
  s += "feasible=" + std::to_string(r.feasible) + "\n";
  s += "failure=" + r.failure + "\n";
  s += "topology=" + r.topology + "\n";
  s += "planned_batch=" + std::to_string(r.planned_batch) + "\n";
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

class PlannerMetricsFixture
    : public ::testing::TestWithParam<std::tuple<sq::model::ModelId, int>> {
 protected:
  void SetUp() override {
    sq::obs::set_enabled(false);
    sq::obs::Registry::global().reset();
  }
  void TearDown() override {
    sq::obs::set_enabled(false);
    sq::obs::Registry::global().reset();
  }
};

TEST_P(PlannerMetricsFixture, PlanBitIdenticalWithMetricsOnVsOff) {
  const auto [model_id, cluster_id] = GetParam();
  Harness h(model_id, cluster_id, {64, 1024, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency,
                        h.quality);

  const std::string off = fingerprint(planner.plan(metrics_cfg(1)));

  sq::obs::set_enabled(true);
  EXPECT_EQ(fingerprint(planner.plan(metrics_cfg(1))), off) << "sequential";
  EXPECT_EQ(fingerprint(planner.plan(metrics_cfg(4))), off) << "parallel";

  // The instrumented searches recorded the expected counters...
  const auto snap = sq::obs::Registry::global().snapshot();
  std::uint64_t evaluated = 0, plans = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "planner.candidates.evaluated") evaluated = c.value;
    if (c.name == "planner.plans") plans = c.value;
  }
  EXPECT_GT(evaluated, 0u);
  EXPECT_EQ(plans, 2u);
  // ...and no ordered spans: the search fans out across threads, where
  // only order-independent aggregates are deterministic.
  EXPECT_TRUE(snap.spans.empty());
}

TEST_P(PlannerMetricsFixture, BaselinesBitIdenticalWithMetricsOnVsOff) {
  const auto [model_id, cluster_id] = GetParam();
  Harness h(model_id, cluster_id, {64, 1024, 64, 2048});
  const Planner planner(h.model, h.cluster, h.inputs.workload, h.latency,
                        h.quality);

  const std::string uni = fingerprint(planner.plan_uniform(metrics_cfg(1)));
  const std::string het = fingerprint(planner.plan_het(metrics_cfg(1)));
  const std::string ada = fingerprint(planner.plan_adabits(metrics_cfg(1)));

  sq::obs::set_enabled(true);
  EXPECT_EQ(fingerprint(planner.plan_uniform(metrics_cfg(1))), uni);
  EXPECT_EQ(fingerprint(planner.plan_het(metrics_cfg(1))), het);
  EXPECT_EQ(fingerprint(planner.plan_adabits(metrics_cfg(1))), ada);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClusters, PlannerMetricsFixture,
    ::testing::Values(std::make_tuple(sq::model::ModelId::kOpt30B, 5),
                      std::make_tuple(sq::model::ModelId::kQwen25_14B, 3)),
    [](const auto& info) {
      return "cluster" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sq::core
