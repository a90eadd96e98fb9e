// Fig. 12 reproduction: SplitQuant's joint optimization vs `adabits`
// (pure adaptive quantization over a decoupled even partition) on
// clusters 5-8 — the ablation showing that partition, precision and
// micro-batching must be co-optimized.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main() {
  std::printf("Fig. 12: joint optimization vs pure adaptive quantization (adabits)\n");
  sq::bench::rule(95);
  std::printf("%-10s %-12s %14s %14s %10s\n", "cluster", "model", "adabits",
              "splitquant", "gain");

  struct Case {
    int cluster;
    sq::model::ModelId model;
  };
  double geo = 0.0;
  int n = 0;
  for (const Case c : {Case{5, sq::model::ModelId::kOpt30B},
                       Case{6, sq::model::ModelId::kOpt30B},
                       Case{7, sq::model::ModelId::kOpt66B},
                       Case{8, sq::model::ModelId::kOpt30B}}) {
    const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128,
                                           41 + static_cast<std::uint64_t>(c.cluster));
    sq::bench::Cell cell(c.model, c.cluster, reqs, 128);
    auto cfg = sq::bench::bench_config();
    cfg.custom_backend = true;  // clusters 5-8 run the custom backend
    const auto ada = cell.deployment.planner().plan_adabits(cfg);
    sq::core::PlannerConfig scfg = cfg;
    scfg.theta = 0.0;
    if (ada.feasible) scfg.max_ppl_delta = ada.total_omega;
    const auto sqr = cell.deployment.planner().plan(scfg);
    const double t_ada =
        ada.feasible ? cell.serve(ada.plan, sq::runtime::Backend::kCustom) : 0.0;
    const double t_sq =
        sqr.feasible ? cell.serve(sqr.plan, sq::runtime::Backend::kCustom) : 0.0;
    const double gain = t_ada > 0 ? t_sq / t_ada : 0.0;
    std::printf("%-10d %-12s %14.2f %14.2f %9.2fx\n", c.cluster,
                cell.deployment.model().name.c_str(), t_ada, t_sq, gain);
    if (gain > 0) {
      geo += std::log(gain);
      ++n;
    }
  }
  if (n > 0) {
    std::printf("\ngeo-mean gain of joint optimization: %.2fx "
                "(paper: SplitQuant wins in all cells)\n", std::exp(geo / n));
  }
  return 0;
}
