// Fig. 3 reproduction.
// Top: prefill/decode wall-time split for a batch of 8 sequences
// generating 32 tokens (prompts 1024 for OPT-13B, 128 for OPT-30B),
// across precisions.  Bottom: single-layer execution time (prompt 512,
// batch 8) on P100 vs V100 with the paper's headline ratios.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "sim/pipeline.h"

namespace {

using sq::hw::Bitwidth;
using sq::model::Phase;

const sq::sim::KernelModel& gt() {
  static const sq::sim::KernelModel km({.ground_truth = true, .seed = 11});
  return km;
}

void print_phase_split() {
  std::printf("Fig. 3 (top): phase time decomposition, batch 8, 32 generated tokens\n");
  sq::bench::rule(90);
  std::printf("%-10s %-8s %-6s %12s %12s %10s\n", "model", "prompt", "bits",
              "prefill(ms)", "decode(ms)", "prefill%");
  struct Case {
    sq::model::ModelId id;
    std::uint64_t prompt;
  };
  for (const Case c : {Case{sq::model::ModelId::kOpt13B, 1024},
                       Case{sq::model::ModelId::kOpt30B, 128}}) {
    const auto m = sq::model::spec(c.id);
    const auto v100 = sq::hw::gpu_spec(sq::hw::GpuType::kV100);
    for (const Bitwidth b : sq::hw::kAllBitwidths) {
      // Whole-model times on one V100-class stage (per-layer x layers).
      const double pre_ms = gt().layer_time_us(v100, m, Phase::kPrefill, 8,
                                               c.prompt, b) *
                            m.n_layers / 1000.0;
      double dec_ms = 0.0;
      for (int t = 0; t < 32; ++t) {
        dec_ms += gt().layer_time_us(v100, m, Phase::kDecode, 8, c.prompt + t, b) *
                  m.n_layers / 1000.0;
      }
      std::printf("%-10s %-8llu %-6s %12.1f %12.1f %9.1f%%\n", m.name.c_str(),
                  static_cast<unsigned long long>(c.prompt), sq::hw::to_string(b),
                  pre_ms, dec_ms, 100.0 * pre_ms / (pre_ms + dec_ms));
    }
  }
}

void print_device_ratios() {
  std::printf("\nFig. 3 (bottom): single layer, prompt 512, batch 8 — P100 vs V100\n");
  sq::bench::rule(90);
  std::printf("%-10s %-8s %14s %14s %8s   (paper: prefill 14.53x, decode 7.29x @fp16)\n",
              "model", "phase", "V100 (us)", "P100 (us)", "ratio");
  const auto p100 = sq::hw::gpu_spec(sq::hw::GpuType::kP100);
  const auto v100 = sq::hw::gpu_spec(sq::hw::GpuType::kV100);
  for (const auto id : {sq::model::ModelId::kOpt13B, sq::model::ModelId::kOpt30B}) {
    const auto m = sq::model::spec(id);
    for (const Phase ph : {Phase::kPrefill, Phase::kDecode}) {
      const double v = gt().layer_time_us(v100, m, ph, 8, 512, Bitwidth::kFp16);
      const double p = gt().layer_time_us(p100, m, ph, 8, 512, Bitwidth::kFp16);
      std::printf("%-10s %-8s %14.0f %14.0f %7.2fx\n", m.name.c_str(),
                  sq::model::to_string(ph), v, p, p / v);
    }
  }
}

// Microbenchmark: cost of one kernel-model evaluation (the planner calls
// this millions of times during profiling).
void BM_LayerTimeEvaluation(benchmark::State& state) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const auto g = sq::hw::gpu_spec(sq::hw::GpuType::kV100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gt().layer_time_us(g, m, Phase::kPrefill, 8, 512, Bitwidth::kFp16));
  }
}
BENCHMARK(BM_LayerTimeEvaluation);

}  // namespace

int main(int argc, char** argv) {
  print_phase_split();
  print_device_ratios();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
