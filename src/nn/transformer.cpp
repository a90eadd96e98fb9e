#include "nn/transformer.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "quant/qtensor.h"
#include "quant/quant_cache.h"
#include "tensor/ops.h"

namespace sq::nn {

using sq::tensor::Rng;

namespace {

/// Captured calibration rows are capped per operator to keep the Hessian
/// Gram matrices small (the paper likewise calibrates on 128 segments).
constexpr std::size_t kMaxCalibRows = 192;

/// Seeded weight matrix with sparse outlier entries whose magnitude grows
/// with `outlier_scale`.  Real LLMs develop such outlier channels in their
/// deeper layers; they barely change the function (sparse) but inflate the
/// quantization scale S_W of the groups containing them, which is what
/// makes deeper layers measurably more quantization-sensitive (Table I).
Tensor make_weight(Rng& rng, std::size_t rows, std::size_t cols, float stddev,
                   float outlier_scale = 0.0f) {
  Tensor w(rows, cols);
  w.fill_normal(rng, 0.0f, stddev);
  if (outlier_scale > 0.0f) {
    const std::size_t n_outliers = std::max<std::size_t>(1, w.size() / 48);
    for (std::size_t i = 0; i < n_outliers; ++i) {
      const std::size_t idx = rng.below(w.size());
      const float sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
      w[idx] = sign * stddev * outlier_scale;
    }
  }
  return w;
}

Tensor ones_row(std::size_t n) {
  Tensor t(1, n);
  for (std::size_t i = 0; i < n; ++i) t[i] = 1.0f;
  return t;
}

}  // namespace

TinyTransformer::TinyTransformer(const TinyConfig& cfg) : cfg_(cfg) {
  if (cfg_.d_model % static_cast<std::size_t>(cfg_.n_heads) != 0) {
    throw std::invalid_argument("TinyTransformer: d_model must divide by n_heads");
  }
  Rng rng(cfg_.seed);
  const float base = 0.7f / std::sqrt(static_cast<float>(cfg_.d_model));

  tok_emb_ = make_weight(rng, cfg_.vocab, cfg_.d_model, base);
  pos_emb_ = make_weight(rng, cfg_.max_seq, cfg_.d_model, 0.5f * base);
  lm_head_ = make_weight(rng, cfg_.d_model, cfg_.vocab, base);
  lnf_g_ = ones_row(cfg_.d_model);
  lnf_b_ = Tensor(1, cfg_.d_model);

  layers_.reserve(static_cast<std::size_t>(cfg_.n_layers));
  for (int l = 0; l < cfg_.n_layers; ++l) {
    // Depth-dependent magnitude: deeper layers get wider weight ranges,
    // which (via the scaling factor of Theorem 1) makes them genuinely
    // more quantization-sensitive, mirroring Table I.
    const float depth = cfg_.n_layers > 1
                            ? static_cast<float>(l) / static_cast<float>(cfg_.n_layers - 1)
                            : 0.0f;
    // Moderate magnitude ramp plus depth-growing outlier channels: the
    // outliers inflate deep layers' quantization scales without changing
    // the function much, reproducing the Table I ordering (deeper layers
    // more quantization-sensitive) against the competing early-layer
    // error-propagation effect.
    const float scale = base * (1.0f + 0.8f * depth);
    const float outliers = 3.0f + 37.0f * depth;
    const float resid_scale = scale / std::sqrt(2.0f * static_cast<float>(cfg_.n_layers));
    LayerWeights lw;
    lw.wq = make_weight(rng, cfg_.d_model, cfg_.d_model, scale);
    lw.wk = make_weight(rng, cfg_.d_model, cfg_.d_model, scale);
    lw.wv = make_weight(rng, cfg_.d_model, cfg_.d_model, scale, outliers);
    lw.wo = make_weight(rng, cfg_.d_model, cfg_.d_model, resid_scale, outliers);
    lw.w1 = make_weight(rng, cfg_.d_model, cfg_.d_ffn, scale, outliers);
    lw.w2 = make_weight(rng, cfg_.d_ffn, cfg_.d_model, resid_scale, outliers);
    lw.ln1_g = ones_row(cfg_.d_model);
    lw.ln1_b = Tensor(1, cfg_.d_model);
    lw.ln2_g = ones_row(cfg_.d_model);
    lw.ln2_b = Tensor(1, cfg_.d_model);
    layers_.push_back(std::move(lw));
  }
}

const Tensor& TinyTransformer::weights(int layer, Op op) const {
  const auto& lw = layers_.at(static_cast<std::size_t>(layer));
  switch (op) {
    case Op::kQ: return lw.wq;
    case Op::kK: return lw.wk;
    case Op::kV: return lw.wv;
    case Op::kO: return lw.wo;
    case Op::kMlpUp: return lw.w1;
    case Op::kMlpDown: return lw.w2;
    case Op::kCount: break;
  }
  throw std::invalid_argument("TinyTransformer::weights: bad op");
}

const Tensor& TinyTransformer::calibration_activations(int layer, Op op) const {
  return calib_acts_.at(static_cast<std::size_t>(layer))
      .at(static_cast<std::size_t>(op));
}

Tensor TinyTransformer::apply_linear(const Tensor& x, const Tensor& w,
                                     const LayerQuant* lq, int layer, Op op,
                                     bool capture) const {
  if (capture) {
    auto& store = calib_acts_[static_cast<std::size_t>(layer)]
                             [static_cast<std::size_t>(op)];
    const std::size_t want =
        std::min(x.rows(), kMaxCalibRows - std::min(kMaxCalibRows, store.rows()));
    if (want > 0) {
      Tensor merged(store.rows() + want, x.cols());
      for (std::size_t r = 0; r < store.rows(); ++r) {
        auto dst = merged.row(r);
        auto src = store.row(r);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      for (std::size_t r = 0; r < want; ++r) {
        auto dst = merged.row(store.rows() + r);
        auto src = x.row(r);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      store = std::move(merged);
    }
  }

  if (lq == nullptr || lq->bits == Bitwidth::kFp16) {
    // FP16 storage loss is negligible at these scales; treat as reference.
    return sq::tensor::matmul(x, w);
  }
  // Weight-only kernel path: quantize (served from the process-wide
  // QuantCache — the probe and the engines re-apply the same configs to
  // the same weights constantly), then the fused dequantize-matmul.
  const auto qw = sq::quant::QuantCache::global().get_or_quantize(
      w, lq->bits, lq->group_size);
  // Fused dequantize-matmul: weight panels are reconstructed inside the
  // blocked kernel's pack step, never materialized as a full tensor.
  return qw->matmul(x);
}

void TinyTransformer::prewarm_quant(std::span<const LayerQuant> quant) const {
  std::vector<sq::quant::QuantJob> jobs;
  jobs.reserve(quant.size() * static_cast<std::size_t>(Op::kCount));
  for (std::size_t layer = 0; layer < quant.size(); ++layer) {
    const LayerQuant& lq = quant[layer];
    if (lq.bits == Bitwidth::kFp16) continue;  // forward never quantizes these
    for (int op = 0; op < static_cast<int>(Op::kCount); ++op) {
      sq::quant::QuantJob job;
      job.weights = &weights(static_cast<int>(layer), static_cast<Op>(op));
      job.bits = lq.bits;
      job.group_size = lq.group_size;
      jobs.push_back(job);
    }
  }
  sq::quant::QuantCache::global().quantize_model(jobs);
}

Tensor TinyTransformer::run_layer(const LayerWeights& lw, const Tensor& x, int layer,
                                  const LayerQuant* lq, bool capture) const {
  const std::size_t seq = x.rows();
  const std::size_t dh = cfg_.d_model / static_cast<std::size_t>(cfg_.n_heads);

  // Post-LN attention block: y = LN(x + attn(x)).  Post-LN re-normalizes
  // the whole stream after every block, so perturbations injected early
  // are attenuated by each subsequent LayerNorm while late-layer
  // perturbations reach the logits almost directly — giving the network
  // the depth-sensitivity profile the paper measures in Table I.
  const Tensor q = apply_linear(x, lw.wq, lq, layer, Op::kQ, capture);
  const Tensor k = apply_linear(x, lw.wk, lq, layer, Op::kK, capture);
  const Tensor v = apply_linear(x, lw.wv, lq, layer, Op::kV, capture);

  Tensor attn_out(seq, cfg_.d_model);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int h = 0; h < cfg_.n_heads; ++h) {
    const std::size_t off = static_cast<std::size_t>(h) * dh;
    // Scores: causal [seq x seq] for this head.
    Tensor scores(seq, seq);
    for (std::size_t i = 0; i < seq; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        float acc = 0.0f;
        for (std::size_t d = 0; d < dh; ++d) {
          acc += q.at(i, off + d) * k.at(j, off + d);
        }
        scores.at(i, j) = acc * inv_sqrt_dh;
      }
      for (std::size_t j = i + 1; j < seq; ++j) {
        scores.at(i, j) = -1e30f;  // Causal mask.
      }
    }
    sq::tensor::softmax_rows_inplace(scores);
    for (std::size_t i = 0; i < seq; ++i) {
      for (std::size_t d = 0; d < dh; ++d) {
        float acc = 0.0f;
        for (std::size_t j = 0; j <= i; ++j) {
          acc += scores.at(i, j) * v.at(j, off + d);
        }
        attn_out.at(i, off + d) = acc;
      }
    }
  }
  const Tensor proj = apply_linear(attn_out, lw.wo, lq, layer, Op::kO, capture);
  const Tensor h1 =
      sq::tensor::layernorm_rows(sq::tensor::add(x, proj), lw.ln1_g, lw.ln1_b);

  // Post-LN MLP block: y = LN(h + mlp(h)).
  Tensor up = apply_linear(h1, lw.w1, lq, layer, Op::kMlpUp, capture);
  sq::tensor::gelu_inplace(up);
  const Tensor down = apply_linear(up, lw.w2, lq, layer, Op::kMlpDown, capture);
  return sq::tensor::layernorm_rows(sq::tensor::add(h1, down), lw.ln2_g, lw.ln2_b);
}

Tensor TinyTransformer::forward(std::span<const int> tokens,
                                std::span<const LayerQuant> quant) const {
  assert(tokens.size() <= cfg_.max_seq && "sequence exceeds position table");
  assert((quant.empty() || quant.size() == static_cast<std::size_t>(cfg_.n_layers)) &&
         "quant config must cover every layer");
  const std::size_t seq = tokens.size();

  Tensor x(seq, cfg_.d_model);
  for (std::size_t i = 0; i < seq; ++i) {
    const auto tok = static_cast<std::size_t>(tokens[i]) % cfg_.vocab;
    auto dst = x.row(i);
    auto emb = tok_emb_.row(tok);
    auto pos = pos_emb_.row(i);
    for (std::size_t d = 0; d < cfg_.d_model; ++d) dst[d] = emb[d] + pos[d];
  }

  for (int l = 0; l < cfg_.n_layers; ++l) {
    const LayerQuant* lq =
        quant.empty() ? nullptr : &quant[static_cast<std::size_t>(l)];
    x = run_layer(layers_[static_cast<std::size_t>(l)], x, l, lq, capturing_);
  }

  const Tensor xf = sq::tensor::layernorm_rows(x, lnf_g_, lnf_b_);
  return sq::tensor::matmul(xf, lm_head_);
}

std::vector<std::vector<sq::quant::OperatorStats>> TinyTransformer::calibrate(
    std::span<const std::vector<int>> sequences) const {
  calib_acts_.assign(static_cast<std::size_t>(cfg_.n_layers),
                     std::vector<Tensor>(static_cast<std::size_t>(Op::kCount)));
  capturing_ = true;
  for (const auto& seq : sequences) {
    forward(seq);
  }
  capturing_ = false;

  std::vector<std::vector<sq::quant::OperatorStats>> stats(
      static_cast<std::size_t>(cfg_.n_layers));
  for (int l = 0; l < cfg_.n_layers; ++l) {
    auto& per_layer = stats[static_cast<std::size_t>(l)];
    per_layer.reserve(static_cast<std::size_t>(Op::kCount));
    for (int o = 0; o < static_cast<int>(Op::kCount); ++o) {
      per_layer.push_back(sq::quant::operator_stats(
          weights(l, static_cast<Op>(o)),
          calib_acts_[static_cast<std::size_t>(l)][static_cast<std::size_t>(o)]));
    }
  }
  return stats;
}

}  // namespace sq::nn
