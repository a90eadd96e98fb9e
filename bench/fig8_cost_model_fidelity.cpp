// Fig. 8 reproduction: fidelity of the memory and latency cost models
// against the "real system" (the ground-truth simulator + engine
// accounting).  The memory side compares the planner's own charge
// (sim::plan_charge, what PlanContext fits plans under) with the engine's
// paged accounting (sim::plan_memory).  Paper protocol: memory over
// BLOOM-560M/1B7 and OPT-13/30/66B with random shapes; latency over 50
// unseen workloads per device (batch 3/5/7, past sequence 384/768, random
// precisions).  Exits 1 when the worst memory error reaches 2% or the
// overall mean latency error reaches 6%.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "sim/memory.h"
#include "tensor/rng.h"

namespace {

using sq::hw::Bitwidth;

Bitwidth random_bit(sq::tensor::Rng& rng) {
  return sq::hw::kAllBitwidths[rng.below(std::size(sq::hw::kAllBitwidths))];
}

/// Worst relative error of the planner's memory charge, as a fraction.
double memory_fidelity() {
  std::printf("Fig. 8 (left): memory cost model vs engine accounting\n");
  sq::bench::rule(80);
  std::printf("%-12s %14s %14s %10s\n", "model", "predicted(GB)", "actual(GB)",
              "error");
  const auto cluster = sq::hw::paper_cluster(9);
  sq::tensor::Rng rng(5);
  double worst = 0.0;
  for (const auto id : {sq::model::ModelId::kBloom560M, sq::model::ModelId::kBloom1B7,
                        sq::model::ModelId::kOpt13B, sq::model::ModelId::kOpt30B,
                        sq::model::ModelId::kOpt66B}) {
    const auto m = sq::model::spec(id);
    // Random shape per the paper: prompt U[128,512], batch {2,4,8},
    // generation U[100,200], random per-layer precisions.
    sq::sim::BatchWorkload w;
    w.prompt_len = static_cast<std::uint64_t>(rng.range(128, 512));
    w.batch_size = static_cast<std::uint64_t>(2 << rng.below(3));
    w.gen_tokens = static_cast<std::uint64_t>(rng.range(100, 200));
    sq::sim::ExecutionPlan plan;
    const int half = m.n_layers / 2;
    plan.stages.push_back({{0}, 0, half});
    plan.stages.push_back({{1}, half, m.n_layers});
    plan.layer_bits.resize(static_cast<std::size_t>(m.n_layers));
    for (auto& b : plan.layer_bits) b = random_bit(rng);
    plan.prefill_microbatch = 2;
    plan.decode_microbatch = w.batch_size;

    const auto pred = sq::sim::plan_charge(m, plan, w);
    const auto real = sq::sim::plan_memory(cluster, m, plan, w);
    double pred_total = 0.0, real_total = 0.0;
    for (std::size_t d = 0; d < pred.size(); ++d) {
      pred_total += static_cast<double>(pred[d]);
      real_total += static_cast<double>(real.devices[d].total());
    }
    const double err = std::abs(pred_total - real_total) / real_total;
    worst = std::max(worst, err);
    std::printf("%-12s %14.3f %14.3f %9.2f%%\n", m.name.c_str(), pred_total / 1e9,
                real_total / 1e9, 100.0 * err);
  }
  std::printf("worst-case memory error: %.2f%% (paper: 'almost negligible')\n\n",
              100.0 * worst);
  return worst;
}

/// Overall mean relative error of the latency model, as a fraction.
double latency_fidelity() {
  std::printf("Fig. 8 (right): latency cost model on 50 unseen workloads per device\n");
  sq::bench::rule(80);
  std::printf("%-10s %8s %12s %12s\n", "device", "samples", "mean err", "max err");
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const sq::sim::KernelModel gt({.ground_truth = true, .seed = 11});
  double overall = 0.0;
  int overall_n = 0;
  for (const auto type : {sq::hw::GpuType::kT4, sq::hw::GpuType::kP100,
                          sq::hw::GpuType::kV100, sq::hw::GpuType::kA100_40G}) {
    const auto g = sq::hw::gpu_spec(type);
    sq::cost::LatencyCostModel lat(m);
    lat.profile_device(g, sq::hw::kAllBitwidths);
    sq::tensor::Rng rng(7 + static_cast<std::uint64_t>(type));
    double sum = 0.0, mx = 0.0;
    int n = 0;
    while (n < 50) {
      // Paper protocol: batches 3/5/7, past sequences 384/768 (+ extra
      // shapes), random precisions; both phases.
      const std::uint64_t v = 3 + 2 * rng.below(3);
      const std::uint64_t ctx = rng.bernoulli(0.5) ? 384 : 768;
      const Bitwidth b = random_bit(rng);
      const bool prefill = rng.bernoulli(0.4);
      const auto phase = prefill ? sq::model::Phase::kPrefill : sq::model::Phase::kDecode;
      const std::uint64_t s = prefill ? 64 + rng.below(1400) : ctx;
      const double pred = lat.predict_layer_us(type, phase, v, s, b);
      const double act = gt.layer_time_us(g, m, phase, v, s, b);
      const double err = std::abs(pred - act) / act;
      sum += err;
      mx = std::max(mx, err);
      ++n;
    }
    overall += sum;
    overall_n += n;
    std::printf("%-10s %8d %11.2f%% %11.2f%%\n", g.name.c_str(), n, 100.0 * sum / n,
                100.0 * mx);
  }
  std::printf("overall mean latency error: %.2f%% (paper: < 6%%)\n",
              100.0 * overall / overall_n);
  return overall / overall_n;
}

}  // namespace

int main() {
  const double memory_err = memory_fidelity();
  const double latency_err = latency_fidelity();
  if (memory_err >= 0.02 || latency_err >= 0.06) {
    std::fprintf(stderr, "FAIL: memory error %.2f%% (< 2%% wanted), latency error %.2f%% "
                 "(< 6%% wanted)\n", 100.0 * memory_err, 100.0 * latency_err);
    return 1;
  }
  return 0;
}
