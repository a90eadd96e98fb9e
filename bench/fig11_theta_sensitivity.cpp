// Fig. 11 reproduction: sensitivity to the user quality scalar theta —
// throughput vs model quality at 1x / 10x / 100x of the base theta, for
// OPT-66B on cluster 7 and OPT-30B on cluster 8.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main() {
  std::printf("Fig. 11: theta sensitivity (larger theta -> quality-leaning plans)\n");
  sq::bench::rule(95);
  std::printf("%-10s %-10s %8s %16s %10s %12s\n", "model", "cluster", "theta",
              "tput(tok/s)", "PPL", "omega");

  struct Case {
    sq::model::ModelId model;
    int cluster;
  };
  for (const Case c : {Case{sq::model::ModelId::kOpt66B, 7},
                       Case{sq::model::ModelId::kOpt30B, 8}}) {
    const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128,
                                           29 + static_cast<std::uint64_t>(c.cluster));
    sq::bench::Cell cell(c.model, c.cluster, reqs, 128);
    for (const double theta : {10.0, 100.0, 1000.0}) {  // 1x, 10x, 100x of base
      auto cfg = sq::bench::bench_config();
      cfg.theta = theta;
      const auto r = cell.deployment.planner().plan(cfg);
      if (!r.feasible) {
        std::printf("%-10s %-10d %8.0f %16s\n", cell.deployment.model().name.c_str(),
                    c.cluster, theta, "infeasible");
        continue;
      }
      const double tput = cell.serve(r.plan);
      std::printf("%-10s %-10d %8.0f %16.2f %10.3f %12.4f\n",
                  cell.deployment.model().name.c_str(), c.cluster, theta, tput, r.est_ppl,
                  r.total_omega);
    }
    sq::bench::rule(95);
  }
  std::printf("Shape check: increasing theta never worsens quality (PPL falls or\n"
              "holds) and never raises throughput — the Fig. 11 trade-off curve.\n");
  return 0;
}
