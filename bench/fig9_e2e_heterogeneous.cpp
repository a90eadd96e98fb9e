// Fig. 9 reproduction: end-to-end throughput on the heterogeneous clusters
// (2-7) with the vLLM-style backend, for both offline workloads
// (CNN-DailyMail summarization and LooGLE long-context understanding),
// comparing Uniform / Het / SplitQuant.  SplitQuant is constrained to at
// least Uniform's model quality (paper Sec. VI-C: pure efficiency gains).
//
// SQ_BENCH_SMOKE=1 shrinks the sweep to two clusters and fewer requests
// for the CI bench-smoke gate; SQ_BENCH_JSON_DIR=<dir> additionally emits
// BENCH_fig9_e2e_heterogeneous.json with per-cell throughputs and plan
// fingerprints (same schema in smoke and full mode).
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

struct Case {
  int cluster;
  sq::model::ModelId model;
};

// Model-to-cluster mapping scaled to each cluster's capacity (the paper
// spreads Qwen2.5-7/14/32B, OPT-30/66B and Llama-70B over clusters 2-7).
const Case kCases[] = {
    {2, sq::model::ModelId::kQwen25_32B}, {3, sq::model::ModelId::kQwen25_14B},
    {4, sq::model::ModelId::kQwen25_32B}, {5, sq::model::ModelId::kOpt30B},
    {6, sq::model::ModelId::kOpt30B},     {7, sq::model::ModelId::kOpt66B},
};

// Smoke subset: one roomy and one capacity-stressed cluster.
const Case kSmokeCases[] = {
    {3, sq::model::ModelId::kQwen25_14B},
    {5, sq::model::ModelId::kOpt30B},
};

void run_workload(sq::workload::Dataset dataset, int request_count,
                  sq::bench::BenchReport* report) {
  const bool smoke = sq::bench::bench_smoke();
  const Case* cases = smoke ? kSmokeCases : kCases;
  const std::size_t n_cases = smoke ? std::size(kSmokeCases) : std::size(kCases);

  std::printf("\n");
  sq::bench::table_banner(
      110, "Fig. 9 (%s): clusters %s, vLLM-style backend, batch 256%s",
      sq::workload::to_string(dataset), smoke ? "3,5" : "2-7",
      smoke ? " [smoke]" : "");
  std::printf("%-10s %-22s %10s %10s %12s %9s %9s %11s %9s\n", "cluster", "model",
              "uniform", "het", "splitquant", "vs-uni", "vs-het", "ppl(sq/uni)",
              "solve(s)");
  sq::bench::GeoMean geo;
  for (std::size_t i = 0; i < n_cases; ++i) {
    const Case& c = cases[i];
    const auto reqs = sq::workload::sample(dataset, request_count,
                                           1000 + static_cast<std::uint64_t>(c.cluster));
    sq::bench::Cell cell(c.model, c.cluster, reqs, 256);
    const auto row = sq::bench::run_schemes(cell, sq::bench::bench_config(),
                                            sq::runtime::Backend::kVllmStyle);
    const double vs_uni = sq::bench::ratio(row.splitquant, row.uniform);
    const double vs_het = sq::bench::ratio(row.splitquant, row.het);
    sq::bench::print_scheme_cells(c.cluster, cell.deployment.model().name, row);
    std::printf(" %8.2fx %8.2fx %5.2f/%-5.2f %9.1f\n", vs_uni, vs_het, row.sq_ppl,
                row.uni_ppl, row.solve_s);
    geo.add(vs_uni);

    auto& jrow = report->add_row();
    jrow["workload"] = std::string(sq::workload::to_string(dataset));
    jrow["cluster"] = static_cast<std::int64_t>(c.cluster);
    jrow["model"] = cell.deployment.model().name;
    jrow["uniform_tok_s"] = row.uniform;
    jrow["het_tok_s"] = row.het;
    jrow["splitquant_tok_s"] = row.splitquant;
    jrow["vs_uniform"] = vs_uni;
    jrow["solve_s"] = row.solve_s;  // wall-clock: recorded, never gated
    jrow["splitquant_fingerprint"] = row.splitquant_fp;
    jrow["uniform_fingerprint"] = row.uniform_fp;
  }
  if (geo.count() > 0) {
    std::printf("geo-mean speedup vs Uniform: %.2fx (paper: ~1.37x mean on this "
                "backend)\n", geo.value());
    report->meta(std::string("geo_vs_uniform_") +
                     sq::workload::to_string(dataset),
                 geo.value());
  }
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  sq::bench::BenchReport report("fig9_e2e_heterogeneous");
  report.meta("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  run_workload(sq::workload::Dataset::kCnnDailyMail, smoke ? 96 : 512, &report);
  run_workload(sq::workload::Dataset::kLoogle, smoke ? 64 : 256, &report);
  return report.write() ? 0 : 1;
}
