// Scenario: exploring the quantization layer directly — the substrate the
// planner builds on.  Quantizes a real (tiny) transformer at several
// schemes, measures genuine quality degradation with forward passes, and
// shows how the variance indicator (Proposition 1) predicts per-layer
// sensitivity from calibration statistics alone.
#include <cstdio>
#include <vector>

#include "nn/probe.h"
#include "quant/indicator.h"
#include "quant/qtensor.h"

int main() {
  using namespace sq;
  using hw::Bitwidth;

  // A small but real decoder-only transformer with seeded weights.
  nn::TinyConfig cfg;
  cfg.n_layers = 6;
  cfg.d_model = 96;
  cfg.d_ffn = 256;
  cfg.n_heads = 6;
  cfg.vocab = 256;
  cfg.max_seq = 32;
  cfg.seed = 4242;
  const nn::TinyTransformer model(cfg);
  const auto sequences = nn::sample_sequences(cfg, 6, 28, 17);

  // --- 1. Storage: what each bitwidth costs on disk/VRAM. ---------------
  std::printf("1) Storage of one MLP matrix (%zux%zu) per bitwidth\n", cfg.d_model,
              cfg.d_ffn);
  for (const Bitwidth b : {Bitwidth::kFp16, Bitwidth::kInt8, Bitwidth::kInt4,
                           Bitwidth::kInt3}) {
    const quant::QTensor q(model.weights(0, nn::Op::kMlpUp), b, 64);
    std::printf("   %-5s %8llu bytes   round-trip MSE %.3e\n", hw::to_string(b),
                static_cast<unsigned long long>(q.storage_bytes()),
                q.mse_vs_original());
  }

  // --- 2. Measured quality under whole-model schemes. -------------------
  std::printf("\n2) Measured quality (real forward passes)\n");
  struct Scheme {
    const char* name;
    std::vector<nn::LayerQuant> cfg;
  };
  const Bitwidth mix48[] = {Bitwidth::kInt4, Bitwidth::kInt8};
  const Scheme schemes[] = {
      {"fp16", nn::uniform_config(cfg.n_layers, Bitwidth::kFp16)},
      {"int8", nn::uniform_config(cfg.n_layers, Bitwidth::kInt8)},
      {"mixed4-8", nn::mixed_config(cfg.n_layers, mix48, 5)},
      {"int4", nn::uniform_config(cfg.n_layers, Bitwidth::kInt4)},
      {"int3", nn::uniform_config(cfg.n_layers, Bitwidth::kInt3)},
  };
  for (const auto& s : schemes) {
    const auto q = nn::evaluate_quality(model, s.cfg, sequences);
    std::printf("   %-9s ppl-proxy %8.3f   KL vs fp32 %.5f\n", s.name, q.ppl_proxy,
                q.mean_kl);
  }

  // --- 3. The variance indicator vs measured per-layer damage. ----------
  std::printf("\n3) Variance indicator (Prop. 1) vs measured per-layer KL @int4\n");
  const auto calib = model.calibrate(sequences);
  std::printf("   %-7s %16s %14s\n", "layer", "omega (indicator)", "measured KL");
  for (int l = 0; l < cfg.n_layers; ++l) {
    const double omega = quant::layer_variance_indicator(
        calib[static_cast<std::size_t>(l)], Bitwidth::kInt4);
    const auto q = nn::evaluate_quality(
        model, nn::range_config(cfg.n_layers, l, l + 1, Bitwidth::kInt4), sequences);
    std::printf("   %-7d %16.4f %14.5f\n", l, omega, q.mean_kl);
  }
  std::printf("\nThe indicator ranks layers without any forward passes — that\n"
              "ranking is what the planner's ILP consumes at checkpoint scale.\n");
  return 0;
}
