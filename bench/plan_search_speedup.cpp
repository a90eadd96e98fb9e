// Plan-search scaling study for the parallel assigner: run the Fig. 9
// scheme sweep (Uniform + Het + SplitQuant) on a few representative cells
// at several `num_threads` settings and report wall-clock per setting.
//
// Each setting starts from a fresh latency model so the comparison is
// fair; the chosen plans are asserted identical across settings (the
// planner's deterministic-reduction guarantee).  A last `replan` row times
// the heuristic replanner over the elastic-churn membership sequence of
// the end-to-end benchmark (perfbench) and fingerprints its four plans.
//
//   SQ_SPEEDUP_THREADS="1 2 4"  override the thread settings swept
//   SQ_BENCH_SMOKE=1            fixed {1, 2} settings for the CI gate
//   SQ_BENCH_JSON_DIR=<dir>     emit BENCH_plan_search_speedup.json; the
//                               plans fingerprint is gated (must never
//                               change), wall-clock columns are not
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "hw/cluster.h"
#include "obs/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;

struct CaseDef {
  int cluster;
  sq::model::ModelId model;
};

// A capacity-stressed cell and a roomy cell, matching the Fig. 9 mapping.
const CaseDef kCases[] = {
    {5, sq::model::ModelId::kOpt30B},
    {3, sq::model::ModelId::kQwen25_14B},
};

std::vector<int> thread_settings() {
  if (const char* env = std::getenv("SQ_SPEEDUP_THREADS")) {
    std::vector<int> out;
    std::istringstream in(env);
    for (int v; in >> v;) out.push_back(v);
    if (!out.empty()) return out;
  }
  if (sq::bench::bench_smoke()) return {1, 2};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> out = {1};
  if (hw >= 2) out.push_back(2);
  if (hw >= 4) out.push_back(4);
  if (hw > 4) out.push_back(hw);
  return out;
}

/// One full scheme sweep over every case at `threads` workers; returns
/// wall-clock seconds and appends each chosen plan's serialized form to
/// `plans`.
double sweep_once(int threads, std::vector<std::string>* plans) {
  double total = 0.0;
  for (const CaseDef& c : kCases) {
    const auto reqs = sq::workload::sample(
        sq::workload::Dataset::kCnnDailyMail, 512,
        1000 + static_cast<std::uint64_t>(c.cluster));
    // A fresh cell so warm-up from a previous setting cannot flatter this one.
    const sq::bench::Cell cell(c.model, c.cluster, reqs, 256);
    sq::core::PlannerConfig cfg = sq::bench::bench_config();
    cfg.num_threads = threads;

    const auto t0 = Clock::now();
    const auto uni = cell.deployment.planner().plan_uniform(cfg);
    const auto het = cell.deployment.planner().plan_het(cfg);
    sq::core::PlannerConfig scfg = cfg;
    scfg.theta = 0.0;
    if (uni.feasible) scfg.max_ppl_delta = uni.total_omega;
    else if (het.feasible) scfg.max_ppl_delta = het.total_omega;
    const auto sqr = cell.deployment.planner().plan(scfg);
    const auto t1 = Clock::now();
    total += std::chrono::duration<double>(t1 - t0).count();

    for (const auto* r : {&uni, &het, &sqr}) {
      plans->push_back(r->feasible ? sq::sim::plan_to_string(r->plan)
                                   : "infeasible");
    }
  }
  return total;
}

/// The heuristic replanner (Deployment::replanner) over perfbench's
/// elastic-churn membership sequence: OPT-30B on paper cluster 5, then
/// +1xV100 (join), then without device 0 (leave), then without the device
/// that was 1 (failure).  Returns wall-clock seconds of the four plans,
/// appends each plan's serialized form to `plans` and sets `*contexts` to
/// the planning contexts they built (the `planner.contexts` counter).
double replan_sequence(int threads, std::vector<std::string>* plans,
                       std::uint64_t* contexts) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt30B);
  const auto reqs =
      sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 256, 1234);
  sq::core::Deployment deployment(
      model, sq::hw::paper_cluster(5),
      sq::workload::make_profile(reqs, 128).planning_batch(model));

  sq::hw::Node v100;
  v100.name = "elastic-0";
  v100.gpu_type = sq::hw::GpuType::kV100;
  v100.gpu_count = 1;
  v100.intra_gbps = 300.0;
  std::vector<sq::hw::Cluster> clusters = {deployment.cluster()};
  clusters.push_back(sq::hw::grow_cluster(clusters.back(), v100));
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);
  clusters.push_back(sq::hw::degrade_cluster(clusters.back(), {0}).cluster);

  sq::core::PlannerConfig cfg;
  cfg.use_heuristic = true;
  cfg.num_threads = threads;
  const sq::runtime::Replanner replan = deployment.replanner(cfg);
  const bool metrics_were_on = sq::obs::enabled();
  sq::obs::set_enabled(true);
  const sq::obs::Counter& built = sq::obs::counter("planner.contexts");
  const std::uint64_t built_before = built.value();
  const auto t0 = Clock::now();
  for (const sq::hw::Cluster& c : clusters) {
    const sq::runtime::ReplanOutcome out = replan(c, 0);
    plans->push_back(out.feasible ? sq::sim::plan_to_string(out.plan)
                                  : "infeasible");
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  *contexts = built.value() - built_before;
  sq::obs::set_enabled(metrics_were_on);
  return seconds;
}

}  // namespace

int main() {
  const std::vector<int> settings = thread_settings();
  std::printf("Plan-search scaling: Fig. 9 scheme sweep (uniform+het+splitquant) "
              "on %zu cells\nhardware threads: %u\n",
              std::size(kCases), std::thread::hardware_concurrency());
  sq::bench::rule(72);
  std::printf("%-12s %12s %12s   %s\n", "threads", "search(s)", "speedup", "");

  sq::bench::BenchReport report("plan_search_speedup");
  report.meta("smoke",
              static_cast<std::int64_t>(sq::bench::bench_smoke() ? 1 : 0));
  report.meta("cells", static_cast<std::int64_t>(std::size(kCases)));

  double base = 0.0;
  std::vector<std::string> base_plans;
  bool all_identical = true;
  for (const int t : settings) {
    std::vector<std::string> plans;
    const double s = sweep_once(t, &plans);
    if (base == 0.0) {
      base = s;
      base_plans = plans;
    } else if (plans != base_plans) {
      all_identical = false;
    }
    std::printf("%-12d %12.2f %11.2fx\n", t, s, base / s);

    std::string all;
    for (const auto& p : plans) all += p;
    auto& row = report.add_row();
    row["threads"] = static_cast<std::int64_t>(t);
    row["search_s"] = s;  // wall-clock: recorded, never gated
    row["plans_fingerprint"] = sq::bench::fingerprint_text(all);
  }

  std::vector<std::string> replans;
  std::uint64_t contexts = 0;
  const double rs = replan_sequence(settings.back(), &replans, &contexts);
  std::string all;
  for (const auto& p : replans) all += p;
  std::printf("replan: heuristic plan over 4 elastic-churn clusters, %d threads: "
              "%.3f s, %llu contexts built\n",
              settings.back(), rs, static_cast<unsigned long long>(contexts));
  auto& row = report.add_row();
  row["scenario"] = std::string("replan");
  row["threads"] = static_cast<std::int64_t>(settings.back());
  row["replans"] = static_cast<std::int64_t>(replans.size());
  row["replan_s"] = rs;  // wall-clock: recorded, never gated
  row["contexts"] = static_cast<std::int64_t>(contexts);  // report-only
  row["plans_fingerprint"] = sq::bench::fingerprint_text(all);
  std::printf("plans identical across all thread settings: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  report.meta("plans_identical", static_cast<std::int64_t>(all_identical ? 1 : 0));
  if (!report.write()) return 1;
  return all_identical ? 0 : 1;
}
