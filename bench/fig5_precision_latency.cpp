// Fig. 5 reproduction: single OPT-30B layer execution time across
// precisions and batch sizes (prompt 512) for both phases, on T4, V100
// and A100 — the precision/device/shape interaction that motivates joint
// optimization.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "sim/kernel_model.h"

namespace {

using sq::hw::Bitwidth;
using sq::model::Phase;

const sq::sim::KernelModel& gt() {
  static const sq::sim::KernelModel km({.ground_truth = true, .seed = 11});
  return km;
}

void print_tables() {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const std::uint64_t batches[] = {1, 4, 8, 16, 32};
  for (const auto type :
       {sq::hw::GpuType::kT4, sq::hw::GpuType::kV100, sq::hw::GpuType::kA100_40G}) {
    const auto g = sq::hw::gpu_spec(type);
    for (const Phase ph : {Phase::kPrefill, Phase::kDecode}) {
      std::printf("Fig. 5: %s, %s, OPT-30B single layer, prompt 512 (us)\n",
                  g.name.c_str(), sq::model::to_string(ph));
      sq::bench::rule(70);
      std::printf("%-6s", "bits");
      for (const auto v : batches) std::printf(" %10s%llu", "v=",
                                               static_cast<unsigned long long>(v));
      std::printf("\n");
      for (const Bitwidth b : sq::hw::kAllBitwidths) {
        std::printf("%-6s", sq::hw::to_string(b));
        for (const auto v : batches) {
          std::printf(" %11.0f", gt().layer_time_us(g, m, ph, v, 512, b));
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
  std::printf(
      "Shape check: decode favors narrow weights everywhere; prefill favors\n"
      "fp16 over 3/4-bit; T4 int8 rides tensor cores; V100 int8 (dp4a) is\n"
      "shape-dependent and loses at large batch.\n\n");
}

void BM_SingleLayer(benchmark::State& state) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const auto g = sq::hw::gpu_spec(sq::hw::GpuType::kT4);
  const auto bit = static_cast<Bitwidth>(state.range(0));
  const auto v = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gt().layer_time_us(g, m, Phase::kDecode, v, 512, bit));
  }
}
BENCHMARK(BM_SingleLayer)
    ->Args({16, 1})
    ->Args({16, 32})
    ->Args({4, 1})
    ->Args({4, 32});

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
