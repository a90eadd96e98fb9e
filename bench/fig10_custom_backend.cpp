// Fig. 10 reproduction: severe heterogeneous clusters on the custom
// PyTorch-native backend (legacy GPUs, 3-bit enabled), batch 32 /
// prompt 512 per the DeepSpeed-style setup.  Uniform frequently OOMs;
// speedups are reported against the Het baseline (red numbers in the
// paper).  "0" marks OOM.
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

struct Case {
  int cluster;
  sq::model::ModelId model;
};

const Case kCases[] = {
    {5, sq::model::ModelId::kOpt30B}, {6, sq::model::ModelId::kOpt30B},
    {6, sq::model::ModelId::kOpt66B}, {7, sq::model::ModelId::kOpt66B},
    {8, sq::model::ModelId::kOpt30B}, {8, sq::model::ModelId::kOpt66B},
};

}  // namespace

int main() {
  sq::bench::table_banner(
      105, "Fig. 10: custom backend, severe heterogeneity, batch 32 prompt 512");
  std::printf("%-10s %-12s %10s %10s %12s %9s   %s\n", "cluster", "model", "uniform",
              "het", "splitquant", "vs-het", "(0 = OOM)");

  sq::bench::GeoMean geo;
  for (const Case& c : kCases) {
    // DeepSpeed-paper-style synthetic workload: fixed 512-token prompts.
    std::vector<sq::workload::Request> reqs(64, sq::workload::Request{512, 32});
    sq::bench::Cell cell(c.model, c.cluster, reqs, 32);
    auto cfg = sq::bench::bench_config();
    cfg.custom_backend = true;  // enables INT3 (paper Sec. VI-A)
    const auto row =
        sq::bench::run_schemes(cell, cfg, sq::runtime::Backend::kCustom);
    const double vs_het = sq::bench::ratio(row.splitquant, row.het);
    sq::bench::print_scheme_cells(c.cluster, cell.deployment.model().name, row, 12);
    if (vs_het > 0) {
      std::printf(" %8.2fx\n", vs_het);
      geo.add(vs_het);
    } else {
      std::printf(" %9s\n", row.splitquant > 0 ? "(het OOM)" : "-");
    }
  }
  if (geo.count() > 0) {
    std::printf("\ngeo-mean speedup vs Het: %.2fx (paper: ~2.08x mean, with "
                "Uniform OOM in most cells)\n", geo.value());
  }
  return 0;
}
