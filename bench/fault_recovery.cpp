// Fault-recovery bench: goodput under deterministic fault injection, with
// plan repair vs a no-repair baseline.
//
// For each (cluster, model) cell the bench serves the same workload three
// ways — fault-free, under faults with plan repair, and under faults with
// repair disabled — and reports goodput (output tokens over the full wall
// clock including lost work, backoff and replanning).  Fault times are
// scaled to the cell's healthy serving duration so every scenario lands
// mid-run regardless of model/cluster speed; schedules are seeded, so rows
// are bit-deterministic and the repaired-plan fingerprints are gated by CI.
//
// SQ_BENCH_SMOKE=1 shrinks to one cell and the named scenarios;
// SQ_BENCH_JSON_DIR=<dir> emits BENCH_fault_recovery.json
// (`*_goodput_tok_s` columns gated like any other throughput: a >20% drop
// vs ci/baselines fails).
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/faults.h"

namespace {

using sq::sim::FaultKind;
using sq::sim::FaultSchedule;

struct Scenario {
  std::string name;
  /// Build the schedule given the healthy serving duration (us) and the
  /// cell's device count.
  std::function<FaultSchedule(double healthy_us, int devices)> make;
};

std::vector<Scenario> scenarios(bool smoke) {
  std::vector<Scenario> s;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  s.push_back({"permfail", [](double h, int d) {
                 FaultSchedule f;
                 f.events.push_back({FaultKind::kDeviceFail, d / 2, h * 0.4});
                 return f;
               }});
  s.push_back({"transient", [](double h, int d) {
                 FaultSchedule f;
                 f.events.push_back(
                     {FaultKind::kDeviceFail, d / 2, h * 0.3, h * 0.1});
                 return f;
               }});
  s.push_back({"straggle+fail", [](double h, int d) {
                 FaultSchedule f;
                 f.events.push_back({FaultKind::kSlowdown, 0, 0.0, kInf, 2.0});
                 f.events.push_back({FaultKind::kDeviceFail, d - 1, h * 0.5});
                 f.normalize();
                 return f;
               }});
  if (!smoke) {
    // Seeded random sweep: mixed failure/straggler/link timelines.
    for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
      s.push_back({"random" + std::to_string(seed), [seed](double h, int d) {
                     return sq::sim::random_fault_schedule(seed, d, h * 1e-6, 4);
                   }});
    }
  }
  return s;
}

struct CellCase {
  int cluster;
  sq::model::ModelId model;
};

void run_cell(const CellCase& cc, int request_count,
              sq::bench::BenchReport* report) {
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail,
                                         request_count,
                                         2000 + static_cast<std::uint64_t>(cc.cluster));
  sq::bench::Cell cell(cc.model, cc.cluster, reqs, 32);
  const sq::core::Deployment& dep = cell.deployment;
  sq::core::PlannerConfig cfg = sq::bench::bench_config();
  cfg.use_heuristic = true;  // ILP-free: repair replans many times

  const auto planned = dep.planner().plan(cfg);
  if (!planned.feasible) {
    std::printf("%-10d %-18s INFEASIBLE: %s\n", cc.cluster,
                dep.model().name.c_str(), planned.failure.c_str());
    return;
  }

  const sq::runtime::OfflineEngine eng(dep.cluster(), dep.model(), planned.plan);
  const sq::runtime::ServeStats healthy =
      eng.serve_requests(cell.requests, cell.serve_batch).serve;
  if (!healthy.feasible) {
    std::printf("%-10d %-18s healthy serve failed: %s\n", cc.cluster,
                dep.model().name.c_str(), healthy.failure.c_str());
    return;
  }
  const double healthy_us = healthy.total_seconds * 1e6;

  for (const Scenario& sc : scenarios(sq::bench::bench_smoke())) {
    const FaultSchedule schedule = sc.make(healthy_us, dep.cluster().device_count());

    sq::runtime::RecoveryOptions with_repair;
    with_repair.faults = &schedule;
    with_repair.replan = cell.deployment.replanner(cfg);
    const auto repaired =
        eng.serve_requests(cell.requests, cell.serve_batch, with_repair);

    sq::runtime::RecoveryOptions no_repair;
    no_repair.faults = &schedule;
    const auto unrepaired =
        eng.serve_requests(cell.requests, cell.serve_batch, no_repair);

    const double retention =
        sq::bench::ratio(repaired.goodput_tok_s, healthy.throughput_tok_s);
    std::printf("%-10d %-18s %-14s %10.1f %12.1f %14.1f %8.2f %6llu/%llu "
                "%5llu %6llu\n",
                cc.cluster, dep.model().name.c_str(), sc.name.c_str(),
                healthy.throughput_tok_s, repaired.goodput_tok_s,
                unrepaired.goodput_tok_s, retention,
                static_cast<unsigned long long>(repaired.repairs_succeeded),
                static_cast<unsigned long long>(repaired.repairs_attempted),
                static_cast<unsigned long long>(repaired.retries),
                static_cast<unsigned long long>(unrepaired.lost_requests));

    auto& row = report->add_row();
    row["cluster"] = static_cast<std::int64_t>(cc.cluster);
    row["model"] = dep.model().name;
    row["scenario"] = sc.name;
    row["fault_spec"] = schedule.to_spec();
    row["healthy_tok_s"] = healthy.throughput_tok_s;
    row["repair_goodput_tok_s"] = repaired.goodput_tok_s;
    row["norepair_goodput_tok_s"] = unrepaired.goodput_tok_s;
    row["repair_retention"] = retention;  // informative, not gated
    row["repairs"] = static_cast<std::int64_t>(repaired.repairs_succeeded);
    row["retries"] = static_cast<std::int64_t>(repaired.retries);
    row["lost_requests_norepair"] =
        static_cast<std::int64_t>(unrepaired.lost_requests);
    row["replan_wall_s"] = repaired.replan_wall_s;  // wall-clock: never gated
    row["repaired_fingerprint"] =
        repaired.final_generation > 0
            ? sq::bench::plan_fingerprint(repaired.final_plan)
            : std::string("-");
  }
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  sq::bench::BenchReport report("fault_recovery");
  report.meta("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  const std::vector<CellCase> cases =
      smoke ? std::vector<CellCase>{{9, sq::model::ModelId::kOpt13B}}
            : std::vector<CellCase>{{9, sq::model::ModelId::kOpt13B},
                                    {10, sq::model::ModelId::kOpt30B},
                                    {5, sq::model::ModelId::kQwen25_14B}};

  sq::bench::table_banner(
      118, "Fault recovery: goodput under injected faults, repair vs no-repair "
           "(batch 32%s)", smoke ? " [smoke]" : "");
  std::printf("%-10s %-18s %-14s %10s %12s %14s %8s %9s %5s %6s\n", "cluster",
              "model", "scenario", "healthy", "repair-good", "norepair-good",
              "retain", "repairs", "retry", "lost");
  sq::bench::rule(118);
  for (const auto& cc : cases) run_cell(cc, smoke ? 64 : 128, &report);
  return report.write() ? 0 : 1;
}
