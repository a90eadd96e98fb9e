// Table I reproduction: quality when different layer ranges are quantized
// to 4-bit (rest FP16).  Measured on the tiny transformer AND estimated by
// the analytic quality model for OPT-1.3B / BLOOM-3B ranges.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "nn/probe.h"

namespace {
using sq::hw::Bitwidth;
}

int main() {
  // --- Measured (tiny transformer, 6 layers -> thirds). -----------------
  sq::nn::TinyConfig cfg;
  cfg.n_layers = 6;
  cfg.d_model = 96;
  cfg.d_ffn = 256;
  cfg.n_heads = 6;
  cfg.vocab = 256;
  cfg.max_seq = 32;
  cfg.seed = 9;
  const sq::nn::TinyTransformer model(cfg);
  const auto seqs = sq::nn::sample_sequences(cfg, 6, 28, 33);

  std::printf("Table I (measured, tiny transformer, thirds quantized to int4)\n");
  sq::bench::rule(70);
  std::printf("%-14s %14s %14s %12s\n", "layers@int4", "ppl-proxy", "mean-KL",
              "accuracy%");
  struct Range {
    const char* name;
    int lo, hi;
  };
  for (const Range r : {Range{"0-2", 0, 2}, Range{"2-4", 2, 4}, Range{"4-6", 4, 6}}) {
    const auto q = sq::nn::evaluate_quality(
        model, sq::nn::range_config(cfg.n_layers, r.lo, r.hi, Bitwidth::kInt4), seqs);
    std::printf("%-14s %14.4f %14.5f %11.1f%%\n", r.name, q.ppl_proxy, q.mean_kl,
                100.0 * q.accuracy);
  }

  // --- Analytic at paper scale (exact Table I ranges). -------------------
  std::printf("\nTable I (analytic quality model, paper ranges)\n");
  sq::bench::rule(70);
  std::printf("%-12s %-14s %12s %12s\n", "model", "layers@4bit", "avg PPL",
              "accuracy%");
  struct Row {
    sq::model::ModelId id;
    int lo, hi;
  };
  const Row rows[] = {{sq::model::ModelId::kOpt1_3B, 0, 8},
                      {sq::model::ModelId::kOpt1_3B, 8, 16},
                      {sq::model::ModelId::kOpt1_3B, 16, 24},
                      {sq::model::ModelId::kBloom3B, 0, 10},
                      {sq::model::ModelId::kBloom3B, 10, 20},
                      {sq::model::ModelId::kBloom3B, 20, 30}};
  for (const Row& r : rows) {
    const auto m = sq::model::spec(r.id);
    const sq::quality::QualityModel qm(m, sq::hw::kAllBitwidths);
    std::vector<Bitwidth> bits(static_cast<std::size_t>(m.n_layers), Bitwidth::kFp16);
    for (int l = r.lo; l < r.hi; ++l) bits[static_cast<std::size_t>(l)] = Bitwidth::kInt4;
    const auto e = qm.estimate(bits);
    std::printf("%-12s %4d-%-9d %12.2f %11.1f%%\n", m.name.c_str(), r.lo, r.hi, e.ppl,
                e.accuracy);
  }

  std::printf(
      "\nShape check (paper Table I): quantizing EARLY layers costs the least\n"
      "quality; the 0-8 / 0-10 rows win, later ranges degrade more.\n");
  return 0;
}
