// Table VI reproduction: layer grouping (group=1 vs group=2) and the
// bitwidth-transfer heuristic under a solver time limit — throughput of
// the resulting plan vs the time the assigner took (paper: 60 s per ILP
// run; the heuristic wins on the hardest instances).
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

struct Case {
  sq::model::ModelId model;
  int cluster;
};

}  // namespace

int main() {
  std::printf("Table VI: grouping and heuristic under an ILP time limit\n");
  sq::bench::rule(95);
  std::printf("%-10s %-10s %-12s %16s %14s %10s %10s\n", "model", "cluster", "method",
              "tput(tok/s)", "overhead(s)", "ILP nodes", "truncated");

  for (const Case c : {Case{sq::model::ModelId::kOpt30B, 5},
                       Case{sq::model::ModelId::kOpt30B, 6},
                       Case{sq::model::ModelId::kOpt66B, 9}}) {
    const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 128,
                                           17 + static_cast<std::uint64_t>(c.cluster));
    sq::bench::Cell cell(c.model, c.cluster, reqs, 128);
    const sq::core::Deployment& dep = cell.deployment;

    struct Method {
      const char* name;
      int group;
      bool heuristic;
      double time_limit;
    };
    // group=1 explores the full space (one decision per layer); group=2
    // halves it; the heuristic replaces the ILP entirely.  The ILP methods
    // run under the paper's 60-second per-solve cap (we scale it down to
    // keep the bench runnable; relative behaviour is what matters).
    const Method methods[] = {{"Group=2", 2, false, 8.0},
                              {"Group=1", 1, false, 8.0},
                              {"Heuristic", 2, true, 8.0}};
    for (const Method& m : methods) {
      auto cfg = sq::bench::bench_config();
      cfg.group_size = m.group;
      cfg.use_heuristic = m.heuristic;
      cfg.ilp_time_limit_s = m.time_limit;
      cfg.max_microbatch_pairs = 2;
      const auto r = dep.planner().plan(cfg);
      if (!r.feasible) {
        std::printf("%-10s %-10d %-12s %16s %14s\n", dep.model().name.c_str(),
                    c.cluster, m.name, "infeasible", "-");
        continue;
      }
      const double tput = cell.serve(r.plan);
      std::printf("%-10s %-10d %-12s %16.2f %14.2f %10d %6d of %d\n", dep.model().name.c_str(),
                  c.cluster, m.name, tput, r.solve_seconds, r.ilp_nodes, r.ilp_truncated,
                  r.ilp_solves);
    }
    sq::bench::rule(95);
  }
  std::printf("`truncated` counts ILP solves stopped at the time cap before proving\n"
              "optimality: those rows depend on host speed.\n");
  std::printf("Shape check: finer grouping can win when the solver has time;\n"
              "the heuristic delivers near-ILP throughput at a fraction of the\n"
              "solve cost on the harder instances (paper Table VI).\n");
  return 0;
}
