// Executable tiny decoder-only transformer.
//
// SplitQuant's quality claims (Fig. 4, Table I, Table V) come from running
// real checkpoints through real quantized kernels.  We cannot load OPT or
// BLOOM weights, so this module provides the closest equivalent that
// exercises the same code path: a genuine decoder-only transformer
// (pre-LN, causal MHA, GELU MLP, learned embeddings, LM head) whose
// weights are deterministic seeded draws with the *depth profile* observed
// in real LLMs (activation/weight ranges growing through the stack).
// Quantization is then applied for real via sq::quant — every quality
// number downstream is a measured forward-pass delta, not a formula.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/gpu.h"
#include "quant/indicator.h"
#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace sq::nn {

using sq::hw::Bitwidth;
using sq::tensor::Tensor;

/// Architecture of the tiny transformer.
struct TinyConfig {
  int n_layers = 6;        ///< Decoder layers.
  std::size_t d_model = 128;  ///< Hidden width (h1).
  std::size_t d_ffn = 512;    ///< MLP width (h2).
  int n_heads = 4;         ///< Attention heads; d_model % n_heads == 0.
  std::size_t vocab = 512; ///< Vocabulary size.
  std::size_t max_seq = 64;   ///< Positions in the learned table.
  std::uint64_t seed = 42; ///< Weight-initialization seed.
};

/// Weights of one decoder layer.
struct LayerWeights {
  Tensor wq, wk, wv, wo;    ///< Attention projections, [d_model x d_model].
  Tensor w1;                ///< MLP up, [d_model x d_ffn].
  Tensor w2;                ///< MLP down, [d_ffn x d_model].
  Tensor ln1_g, ln1_b;      ///< Pre-attention LayerNorm, [1 x d_model].
  Tensor ln2_g, ln2_b;      ///< Pre-MLP LayerNorm, [1 x d_model].
};

/// Per-layer quantization choice applied to the 6 linear operators.
struct LayerQuant {
  Bitwidth bits = Bitwidth::kFp16;
  std::size_t group_size = 64;  ///< Elements per quantization group.
};

/// Linear-operator index within a decoder layer (for calibration stats).
enum class Op : int { kQ = 0, kK, kV, kO, kMlpUp, kMlpDown, kCount };

/// The model.  Immutable after construction except for calibration capture.
class TinyTransformer {
 public:
  /// Build with seeded weights.  Later layers receive progressively larger
  /// weight scales (see header comment), which is what makes them more
  /// quantization-sensitive, as in the paper's Table I.
  explicit TinyTransformer(const TinyConfig& cfg);

  /// Architecture.
  const TinyConfig& config() const { return cfg_; }

  /// Forward pass over one token sequence (causal).  Returns logits,
  /// [seq x vocab].  `quant` may be empty (FP32 reference) or hold one
  /// entry per layer (quantized weights, dequantized before the matmul —
  /// the weight-only kernel path).
  Tensor forward(std::span<const int> tokens,
                 std::span<const LayerQuant> quant = {}) const;

  /// Run `sequences` through the FP32 model while accumulating per-operator
  /// activation statistics (the calibration pass of Sec. IV-B).  Returns
  /// one OperatorStats list per layer, ordered by Op.
  std::vector<std::vector<sq::quant::OperatorStats>> calibrate(
      std::span<const std::vector<int>> sequences) const;

  /// Weight matrix of (layer, op) — used by the Hessian indicator, which
  /// needs the raw weights.
  const Tensor& weights(int layer, Op op) const;

  /// Captured calibration activations (inputs of each linear operator) from
  /// the most recent calibrate() call; [samples x features] per (layer,op).
  /// Empty before calibrate() runs.  Used by the Hessian indicator.
  const Tensor& calibration_activations(int layer, Op op) const;

  /// Pre-quantize every non-FP16 (layer, op) weight of `quant` into the
  /// process-wide QuantCache, fanned out over the kernel thread pool.
  /// Forward passes then hit the cache instead of quantizing inline.
  /// Purely a warm-up — results are bit-identical with or without it.
  void prewarm_quant(std::span<const LayerQuant> quant) const;

 private:
  Tensor run_layer(const LayerWeights& lw, const Tensor& x, int layer,
                   const LayerQuant* lq, bool capture) const;
  Tensor apply_linear(const Tensor& x, const Tensor& w, const LayerQuant* lq,
                      int layer, Op op, bool capture) const;

  TinyConfig cfg_;
  Tensor tok_emb_;   ///< [vocab x d_model].
  Tensor pos_emb_;   ///< [max_seq x d_model].
  Tensor lnf_g_, lnf_b_;  ///< Final LayerNorm.
  Tensor lm_head_;   ///< [d_model x vocab].
  std::vector<LayerWeights> layers_;

  // Calibration capture (mutable: filled during const calibrate()).
  mutable std::vector<std::vector<Tensor>> calib_acts_;  ///< [layer][op].
  mutable bool capturing_ = false;
};

}  // namespace sq::nn
