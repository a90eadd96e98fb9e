// Elastic-serving bench: goodput and tokens-per-dollar of the three
// migration policies (migrate / drain / restart) under a membership
// timeline, plus a seeded random-membership sweep.
//
// One fleet of 2 nodes x 2 V100 serves a decode-heavy burst while the
// membership timeline removes a node mid-run and admits a replacement
// later: exactly the spot-market churn the elastic engine exists for.
// Event times are scaled to the healthy (empty-timeline) makespan so the
// churn lands mid-serving regardless of model or toolchain speed.  The
// same workload is then served once per policy:
//   * migrate — in-flight KV moves to the new plan over ethernet;
//   * drain   — in-flight requests finish on the old plan first;
//   * restart — in-flight progress is discarded and recomputed.
//
// The bench hard-asserts two contracts (nonzero exit on violation):
//   * live migration beats restart on goodput by at least 1.2x — the
//     headline elastic win (restart re-decodes everything it lost, twice
//     here: once per membership switch);
//   * ElasticStats are bit-identical between 1 and 4 scheduler threads —
//     the elastic determinism contract, enforced on real planner plans.
//
// SQ_BENCH_SMOKE=1 shrinks the workload with an identical output schema;
// SQ_BENCH_JSON_DIR=<dir> emits BENCH_elastic_serving.json
// (`goodput_tok_s` gated like any other throughput, the migrate/restart
// ratio gated as `migrate_vs_restart_speedup_x`, the initial plan gated
// byte-identical via `plan_fingerprint`).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/repair.h"
#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "runtime/fleet.h"

namespace {

using sq::elastic::ElasticFleetEngine;
using sq::elastic::ElasticOptions;
using sq::elastic::ElasticStats;
using sq::elastic::MembershipTimeline;
using sq::elastic::MigrationPolicy;

sq::hw::Cluster fleet_cluster() {
  std::vector<sq::hw::Node> nodes;
  for (int i = 0; i < 2; ++i) {
    sq::hw::Node n;
    n.name = "node-v100-" + std::to_string(i);
    n.gpu_type = sq::hw::GpuType::kV100;
    n.gpu_count = 2;
    n.intra_gbps = 300.0;
    nodes.push_back(n);
  }
  return sq::hw::Cluster("elastic-2x2xV100", nodes, 800.0);
}

/// Decode-heavy burst: every request arrives at t = 0 with a long output,
/// so each membership switch finds lots of in-flight KV progress — the
/// work a restart throws away and a migration preserves.
std::vector<sq::workload::TimedRequest> burst_workload(int n) {
  std::vector<sq::workload::TimedRequest> t;
  for (int i = 0; i < n; ++i) {
    sq::workload::TimedRequest tr;
    tr.arrive_s = 0.0;
    tr.request.prompt_tokens = 512 + 128 * (i % 3);
    tr.request.output_tokens = 384;
    t.push_back(tr);
  }
  return t;
}

std::vector<sq::runtime::FleetJob> one_job(
    std::vector<sq::workload::TimedRequest> arrivals) {
  sq::runtime::FleetJob job;
  job.name = "job-0";
  job.arrivals = std::move(arrivals);
  return {std::move(job)};
}

/// The elastic determinism contract, checked field by field (exact ==, no
/// tolerance: the whole point is bit-identity).
bool stats_identical(const ElasticStats& a, const ElasticStats& b) {
  return a.events == b.events && a.replans == b.replans &&
         a.migrations == b.migrations && a.drains == b.drains &&
         a.restarts == b.restarts &&
         a.migrated_kv_bytes == b.migrated_kv_bytes &&
         a.migration_s == b.migration_s && a.dollars == b.dollars &&
         a.device_seconds == b.device_seconds &&
         a.tokens_per_dollar == b.tokens_per_dollar &&
         a.fleet.output_tokens == b.fleet.output_tokens &&
         a.fleet.makespan_s == b.fleet.makespan_s &&
         a.fleet.aggregate_tok_s == b.fleet.aggregate_tok_s &&
         a.fleet.events == b.fleet.events;
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  sq::bench::BenchReport report("elastic_serving");
  report.meta("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const sq::hw::Cluster cluster = fleet_cluster();
  const auto arrivals = burst_workload(smoke ? 48 : 96);

  // Real planner plan over the full fleet; the same planner backs the
  // elastic replanner, so every membership switch replans for real.
  const std::uint64_t batch = 16;
  const auto profile_reqs = sq::workload::sample(
      sq::workload::Dataset::kCnnDailyMail, smoke ? 32 : 64, 7100);
  const auto planning =
      sq::workload::make_profile(profile_reqs, batch).planning_batch(model);
  sq::cost::LatencyCostModel latency(model);
  sq::core::Planner::profile_all(latency, cluster, sq::bench::all_bits());
  const sq::quality::QualityModel quality(model, sq::bench::all_bits());
  sq::core::PlannerConfig cfg = sq::bench::bench_config();
  cfg.use_heuristic = true;  // ILP-free: every membership event replans

  const sq::core::Planner planner(model, cluster, planning, latency, quality);
  const auto planned = planner.plan(cfg);
  if (!planned.feasible) {
    std::fprintf(stderr, "FAIL: initial plan infeasible: %s\n",
                 planned.failure.c_str());
    return 1;
  }

  sq::runtime::ReplicaGroup rg;
  rg.cluster = cluster;
  rg.plan = planned.plan;
  rg.predicted_tok_s = planned.predicted_throughput;
  const ElasticFleetEngine engine(model, {rg});

  const auto replan =
      sq::core::make_replanner(model, latency, quality, planning, cfg);

  const auto serve = [&](const MembershipTimeline* t, MigrationPolicy p,
                         int threads) {
    ElasticOptions o;
    o.timeline = t;
    o.migration = p;
    o.replan = replan;
    o.autoscale.enabled = false;  // policy comparison, not autoscaling
    o.fleet.num_threads = threads;
    return engine.serve(one_job(arrivals), o);
  };

  // Healthy makespan calibrates the event times: node 1 leaves at 35% of
  // it, a replacement joins at 60%, and the V100 spot price rises at 75%.
  const ElasticStats healthy = serve(nullptr, MigrationPolicy::kAuto, 1);
  if (!healthy.feasible) {
    std::fprintf(stderr, "FAIL: healthy serve failed: %s\n",
                 healthy.failure.c_str());
    return 1;
  }
  const double h = healthy.fleet.makespan_s;
  char spec[160];
  std::snprintf(spec, sizeof spec,
                "leave:node1@%.3f,join:2xV100@%.3f,price:V100=1.5@%.3f",
                h * 0.35, h * 0.6, h * 0.75);
  const sq::elastic::MembershipParse parsed =
      sq::elastic::parse_membership_spec(spec);
  if (!parsed.ok) {
    std::fprintf(stderr, "FAIL: bad timeline spec: %s\n", parsed.error.c_str());
    return 1;
  }
  const MembershipTimeline& timeline = parsed.timeline;

  sq::bench::table_banner(
      110, "Elastic serving: migration policy vs goodput and tokens/$ "
           "(%s, %zu requests, timeline %s%s)",
      model.name.c_str(), arrivals.size(), spec, smoke ? " [smoke]" : "");
  std::printf("%-10s %12s %12s %10s %8s %8s %8s %8s %12s\n", "policy",
              "goodput", "makespan", "tok/$", "migrate", "drain", "restart",
              "replans", "kv moved");
  sq::bench::rule(110);

  report.meta("model", model.name);
  report.meta("cluster", cluster.name());
  report.meta("requests", static_cast<std::int64_t>(arrivals.size()));
  report.meta("timeline", std::string(spec));

  bool ok = true;
  double migrate_goodput = 0.0;
  double restart_goodput = 0.0;
  const struct {
    const char* name;
    MigrationPolicy policy;
  } policies[] = {{"migrate", MigrationPolicy::kMigrate},
                  {"drain", MigrationPolicy::kDrain},
                  {"restart", MigrationPolicy::kRestart}};
  for (const auto& pc : policies) {
    const ElasticStats s1 = serve(&timeline, pc.policy, 1);
    if (!s1.feasible || s1.fleet.jobs.empty()) {
      std::fprintf(stderr, "FAIL: %s serve failed: %s\n", pc.name,
                   s1.failure.c_str());
      ok = false;
      continue;
    }
    const ElasticStats s4 = serve(&timeline, pc.policy, 4);
    if (!stats_identical(s1, s4)) {
      std::fprintf(stderr,
                   "FAIL: %s ElasticStats differ between 1 and 4 scheduler "
                   "threads (determinism contract broken)\n", pc.name);
      ok = false;
    }

    const auto& rs = s1.fleet.jobs[0].continuous;
    if (std::string(pc.name) == "migrate") migrate_goodput = rs.goodput_tok_s;
    if (std::string(pc.name) == "restart") restart_goodput = rs.goodput_tok_s;
    std::printf("%-10s %12.1f %12.2f %10.1f %8zu %8zu %8zu %8zu %9.2f GB\n",
                pc.name, rs.goodput_tok_s, s1.fleet.makespan_s,
                s1.tokens_per_dollar, static_cast<std::size_t>(s1.migrations),
                static_cast<std::size_t>(s1.drains),
                static_cast<std::size_t>(s1.restarts),
                static_cast<std::size_t>(s1.replans),
                static_cast<double>(s1.migrated_kv_bytes) / 1e9);

    auto& row = report.add_row();
    row["policy"] = std::string(pc.name);
    row["goodput_tok_s"] = rs.goodput_tok_s;
    row["tokens_per_dollar"] = s1.tokens_per_dollar;  // informative
    row["plan_fingerprint"] = sq::bench::plan_fingerprint(rg.plan);
    row["makespan_s"] = s1.fleet.makespan_s;  // informative
    row["migrations"] = static_cast<std::int64_t>(s1.migrations);
    row["drains"] = static_cast<std::int64_t>(s1.drains);
    row["restarts"] = static_cast<std::int64_t>(s1.restarts);
    row["replans"] = static_cast<std::int64_t>(s1.replans);
    row["migrated_kv_gb"] =
        static_cast<double>(s1.migrated_kv_bytes) / 1e9;  // informative
    row["dollars"] = s1.dollars;  // informative
  }

  // Seeded random-membership sweep under the auto policy: informative
  // rows (still bit-deterministic) showing goodput and tokens/$ under
  // mixed join/leave/price churn.
  for (const std::uint64_t seed : smoke ? std::vector<std::uint64_t>{1}
                                        : std::vector<std::uint64_t>{1, 2, 3}) {
    const MembershipTimeline random =
        sq::elastic::random_membership(seed, h * 0.9, 4);
    const ElasticStats s = serve(&random, MigrationPolicy::kAuto, 1);
    const auto goodput = s.feasible && !s.fleet.jobs.empty()
                             ? s.fleet.jobs[0].continuous.goodput_tok_s
                             : 0.0;
    std::printf("%-10s %12.1f %12.2f %10.1f %8zu %8zu %8zu %8zu %9.2f GB\n",
                ("random" + std::to_string(seed)).c_str(), goodput,
                s.fleet.makespan_s, s.tokens_per_dollar,
                static_cast<std::size_t>(s.migrations),
                static_cast<std::size_t>(s.drains),
                static_cast<std::size_t>(s.restarts),
                static_cast<std::size_t>(s.replans),
                static_cast<double>(s.migrated_kv_bytes) / 1e9);
    auto& row = report.add_row();
    row["policy"] = "random" + std::to_string(seed);
    row["events"] = static_cast<std::int64_t>(s.events_applied);
    row["feasible"] = static_cast<std::int64_t>(s.feasible ? 1 : 0);
    row["sweep_goodput_tok_s"] = goodput;
    row["tokens_per_dollar"] = s.tokens_per_dollar;  // informative
  }

  sq::bench::rule(110);
  const double ratio = sq::bench::ratio(migrate_goodput, restart_goodput);
  std::printf("migrate vs restart: %.2fx goodput (floor 1.20x)\n", ratio);
  if (ratio < 1.2) {
    std::fprintf(stderr,
                 "FAIL: migrate goodput %.1f only %.2fx of restart %.1f "
                 "(floor 1.20x)\n",
                 migrate_goodput, ratio, restart_goodput);
    ok = false;
  }
  auto& summary = report.add_row();
  summary["policy"] = "summary";
  summary["migrate_vs_restart_speedup_x"] = ratio;
  if (!report.write()) ok = false;
  return ok ? 0 : 1;
}
