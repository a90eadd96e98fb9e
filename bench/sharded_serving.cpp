// Sharded-serving bench: aggregate multi-job throughput of K replica
// groups vs the single-pipeline baseline on the same fleet.
//
// One homogeneous fleet (4 nodes of 2x V100) serves the same multi-job
// offline workload at K = 1, 2 and 4 replica groups.  K = 1 is the
// single-pipeline baseline: the sharded planner degenerates to the plain
// SplitQuant assigner over the whole fleet and every job queues on the one
// pipeline.  At higher K the sharded planner carves the fleet into
// replicas and the FleetEngine spreads the jobs LPT-first, trading
// pipeline depth for concurrency.
//
// The bench hard-asserts two contracts (nonzero exit on violation):
//   * aggregate throughput at K = 4 is at least 1.5x the K = 1 baseline —
//     the headline replication win sharding exists to deliver;
//   * FleetStats are bit-identical between 1 and 4 scheduler threads at
//     every K — the fleet determinism contract, enforced on real plans.
//
// SQ_BENCH_SMOKE=1 shrinks the workload (fewer jobs, fewer requests) with
// an identical output schema; SQ_BENCH_JSON_DIR=<dir> emits
// BENCH_sharded_serving.json (`aggregate_tok_s` gated like any other
// throughput, `speedup_x` gated as a ratio floor, `plans_fingerprint`
// gated byte-identical).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sharding.h"
#include "runtime/fleet.h"

namespace {

/// The bench fleet: 4 nodes of 2x V100 each, NVLink inside a node, 800
/// Gbps between nodes.  Homogeneous on purpose — the K sweep then measures
/// the replication trade-off alone, not a quantization mix shift.
sq::hw::Cluster fleet_cluster() {
  std::vector<sq::hw::Node> nodes;
  for (int i = 0; i < 4; ++i) {
    sq::hw::Node n;
    n.name = "node-v100-" + std::to_string(i);
    n.gpu_type = sq::hw::GpuType::kV100;
    n.gpu_count = 2;
    n.intra_gbps = 300.0;
    nodes.push_back(n);
  }
  return sq::hw::Cluster("fleet-4x2xV100", nodes, 800.0);
}

/// Seeded multi-job workload: `n_jobs` jobs of `requests` CNN/DailyMail
/// requests each, batched for serving.  Job seeds are fixed, so every K
/// (and every run) serves byte-identical work.
std::vector<sq::runtime::FleetJob> make_jobs(const sq::model::LlmSpec& m,
                                             int n_jobs, int requests,
                                             std::uint64_t batch) {
  std::vector<sq::runtime::FleetJob> jobs;
  for (int i = 0; i < n_jobs; ++i) {
    const auto reqs = sq::workload::sample(
        sq::workload::Dataset::kCnnDailyMail, requests,
        4200 + static_cast<std::uint64_t>(i));
    jobs.push_back({.name = "job-" + std::to_string(i),
                    .batches = sq::workload::make_batches(reqs, m, batch),
                    .arrivals = {}});
  }
  return jobs;
}

/// The fleet determinism contract, checked field by field (exact ==, no
/// tolerance: the whole point is bit-identity).
bool stats_identical(const sq::runtime::FleetStats& a,
                     const sq::runtime::FleetStats& b) {
  if (a.events != b.events || a.jobs_completed != b.jobs_completed ||
      a.output_tokens != b.output_tokens || a.makespan_s != b.makespan_s ||
      a.aggregate_tok_s != b.aggregate_tok_s ||
      a.group_busy_s != b.group_busy_s || a.group_jobs != b.group_jobs ||
      a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    if (a.jobs[j].group != b.jobs[j].group ||
        a.jobs[j].start_s != b.jobs[j].start_s ||
        a.jobs[j].end_s != b.jobs[j].end_s) {
      return false;
    }
  }
  return true;
}

/// Fingerprint of all group plans concatenated in group order.
std::string plans_fingerprint(const std::vector<sq::runtime::ReplicaGroup>& groups) {
  std::string all;
  for (const auto& rg : groups) all += sq::sim::plan_to_string(rg.plan);
  return sq::bench::fingerprint_text(all);
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  sq::bench::BenchReport report("sharded_serving");
  report.meta("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const sq::hw::Cluster cluster = fleet_cluster();

  // Planning profile: representative of the per-job request mix.
  const std::uint64_t batch = 16;
  const auto profile_reqs = sq::workload::sample(
      sq::workload::Dataset::kCnnDailyMail, smoke ? 32 : 64, 4100);
  const sq::core::Deployment deployment(
      model, cluster,
      sq::workload::make_profile(profile_reqs, batch).planning_batch(model));

  sq::core::PlannerConfig cfg = sq::bench::bench_config();
  cfg.use_heuristic = true;  // ILP-free: the sweep plans up to 8 partitions x 4 groups

  const auto jobs =
      make_jobs(model, smoke ? 4 : 8, smoke ? 16 : 32, batch);
  report.meta("model", model.name);
  report.meta("cluster", cluster.name());
  report.meta("jobs", static_cast<std::int64_t>(jobs.size()));

  sq::bench::table_banner(
      110, "Sharded serving: aggregate throughput, K replica groups vs single "
           "pipeline (%s, %zu jobs%s)",
      model.name.c_str(), jobs.size(), smoke ? " [smoke]" : "");
  std::printf("%-4s %-8s %12s %12s %10s %10s %8s %-34s\n", "K", "groups",
              "aggregate", "predicted", "makespan", "speedup", "solve",
              "partition");
  sq::bench::rule(110);

  bool ok = true;
  double base_aggregate = 0.0;
  double k4_aggregate = 0.0;
  for (const int k : {1, 2, 4}) {
    sq::core::ShardingConfig scfg;
    scfg.num_shards = k;
    scfg.planner = cfg;
    auto sres = sq::core::plan_sharded(deployment, scfg);
    if (!sres.feasible) {
      std::printf("%-4d INFEASIBLE: %s\n", k, sres.failure.c_str());
      ok = false;
      continue;
    }

    const sq::runtime::FleetEngine fleet(model, sres.groups);
    sq::runtime::FleetOptions o1;
    o1.num_threads = 1;
    const auto s1 = fleet.serve(jobs, o1);
    sq::runtime::FleetOptions o4;
    o4.num_threads = 4;
    const auto s4 = fleet.serve(jobs, o4);
    if (!s1.feasible) {
      std::printf("%-4d serve failed: %s\n", k, s1.failure.c_str());
      ok = false;
      continue;
    }
    if (!stats_identical(s1, s4)) {
      std::fprintf(stderr,
                   "FAIL: K=%d FleetStats differ between 1 and 4 scheduler "
                   "threads (determinism contract broken)\n", k);
      ok = false;
    }

    if (k == 1) base_aggregate = s1.aggregate_tok_s;
    if (k == 4) k4_aggregate = s1.aggregate_tok_s;
    const double speedup = sq::bench::ratio(s1.aggregate_tok_s, base_aggregate);
    std::printf("%-4d %-8zu %12.1f %12.1f %10.2f %10.2f %8.2f %-34s\n", k,
                sres.groups.size(), s1.aggregate_tok_s,
                sres.total_predicted_tok_s, s1.makespan_s, speedup,
                sres.solve_seconds, sres.partition.c_str());

    auto& row = report.add_row();
    row["k"] = static_cast<std::int64_t>(k);
    row["groups"] = static_cast<std::int64_t>(sres.groups.size());
    row["partition"] = sres.partition;
    row["aggregate_tok_s"] = s1.aggregate_tok_s;
    row["speedup_x"] = speedup;
    row["plans_fingerprint"] = plans_fingerprint(sres.groups);
    row["predicted_tok_s_sum"] = sres.total_predicted_tok_s;  // informative
    row["makespan_s"] = s1.makespan_s;                        // informative
    row["jobs_completed"] = static_cast<std::int64_t>(s1.jobs_completed);
    row["solve_s"] = sres.solve_seconds;  // wall-clock: never gated
  }

  sq::bench::rule(110);
  const double k4_speedup = sq::bench::ratio(k4_aggregate, base_aggregate);
  std::printf("K=4 vs single pipeline: %.2fx aggregate (floor 1.50x)\n",
              k4_speedup);
  if (k4_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: K=4 aggregate speedup %.2fx below the 1.5x floor\n",
                 k4_speedup);
    ok = false;
  }
  if (!report.write()) ok = false;
  return ok ? 0 : 1;
}
