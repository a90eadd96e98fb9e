// Ablation (DESIGN.md #1): phase-aware vs prefill-only partitioning.
//
// The Het baseline balances stages by prefill time alone (encoder-style,
// ref. [12] in the paper); SplitQuant's evaluator weighs both phases by
// their pipeline multipliers.  This bench isolates that single design
// choice: identical topology, identical uniform precision, identical
// micro-batching — only the partition metric differs — across workloads
// whose phase balance differs (summarization = decode-heavy, long-context
// = prefill-heavy).
#include <cstdio>

#include "bench_util.h"
#include "core/heuristics.h"

namespace {

using sq::bench::Cell;
using sq::core::PartitionMetric;

double run_metric(const Cell& cell, PartitionMetric metric, int bit_index) {
  // Fixed natural topology, fixed micro-batches; only the partition varies.
  const auto topos = sq::core::natural_topologies(cell.deployment.cluster(), false);
  sq::core::PlanInputs in;
  in.model = &cell.deployment.model();
  in.cluster = &cell.deployment.cluster();
  in.latency = &cell.deployment.latency();
  in.workload = cell.deployment.planning();
  in.workload.batch_size = 12;  // modest KV reservation; runtime waves handle more
  in.bits.assign(std::begin(sq::hw::kAllBitwidths), std::end(sq::hw::kAllBitwidths));
  in.theta = 0.0;
  in.omega_ppl.assign(static_cast<std::size_t>(cell.deployment.model().n_layers),
                      std::vector<double>(in.bits.size(), 0.0));
  const sq::core::PlanContext ctx(in, topos.front(), 2, 16, 2);
  const auto stage = sq::core::balanced_partition(ctx, bit_index, metric);
  if (stage.empty()) return 0.0;
  std::vector<int> bits(static_cast<std::size_t>(ctx.num_groups()), bit_index);
  const auto plan = ctx.to_plan(stage, bits, "ablation");
  return cell.serve(plan);
}

}  // namespace

int main() {
  sq::bench::table_banner(
      95, "Ablation: phase-aware (combined) vs prefill-only partitioning");
  std::printf("%-10s %-12s %-14s %14s %14s %9s\n", "cluster", "model", "workload",
              "prefill-only", "phase-aware", "gain");

  struct Case {
    int cluster;
    sq::model::ModelId model;
    sq::workload::Dataset dataset;
    int bit_index;  // index into hw::kAllBitwidths: 1=int8, 2=int4
  };
  const Case cases[] = {
      {5, sq::model::ModelId::kOpt30B, sq::workload::Dataset::kCnnDailyMail, 2},
      {5, sq::model::ModelId::kOpt30B, sq::workload::Dataset::kLoogle, 2},
      {6, sq::model::ModelId::kOpt13B, sq::workload::Dataset::kCnnDailyMail, 2},
      {7, sq::model::ModelId::kOpt30B, sq::workload::Dataset::kCnnDailyMail, 1},
  };
  for (const Case& c : cases) {
    const auto reqs = sq::workload::sample(c.dataset, 128, 5);
    Cell cell(c.model, c.cluster, reqs, 64);
    const double pre = run_metric(cell, PartitionMetric::kPrefillOnly, c.bit_index);
    const double combined = run_metric(cell, PartitionMetric::kCombined, c.bit_index);
    std::printf("%-10d %-12s %-14s %14.2f %14.2f %8.2fx\n", c.cluster,
                cell.deployment.model().name.c_str(),
                sq::workload::to_string(c.dataset), pre, combined,
                pre > 0 ? combined / pre : 0.0);
  }
  std::printf("\nReading: phase-aware balancing wins on decode-heavy work over\n"
              "T4/V100 mixes (up to ~1.4x) and converges to prefill-only on\n"
              "prefill-heavy LooGLE.  With micro-batching frozen it can lose on\n"
              "the P100 cluster — recovering that case is exactly why the full\n"
              "planner co-optimizes the partition WITH micro-batch sizes and\n"
              "validates finalists instead of fixing them a priori.\n");
  return 0;
}
