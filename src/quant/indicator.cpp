#include "quant/indicator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/stats.h"

namespace sq::quant {

OperatorStats operator_stats(const sq::tensor::Tensor& weights,
                             const sq::tensor::Tensor& activations) {
  OperatorStats s;
  s.weight_dim = static_cast<std::uint64_t>(weights.size());
  const auto wsum = sq::tensor::summarize(weights.data());
  s.w_min = wsum.min;
  s.w_max = wsum.max;
  const auto xsum = sq::tensor::summarize(activations.data());
  s.x_mean = xsum.mean;
  s.x_var = xsum.variance;
  return s;
}

double g_of_x(const OperatorStats& s) { return s.x_var / 4.0; }

double operator_variance_indicator(const OperatorStats& s, Bitwidth b) {
  if (b == Bitwidth::kFp16) return 0.0;  // Unquantized: no added variance.
  const double scale = static_cast<double>(scale_for_range(s.w_min, s.w_max, b));
  return static_cast<double>(s.weight_dim) * scale * scale * g_of_x(s);
}

double layer_variance_indicator(std::span<const OperatorStats> ops, Bitwidth b) {
  double acc = 0.0;
  for (const auto& s : ops) acc += operator_variance_indicator(s, b);
  return acc;
}

HessianProbe hessian_top_eigenvalue(const sq::tensor::Tensor& activations,
                                    int max_iters, double tol, std::uint64_t seed) {
  using sq::tensor::Tensor;
  HessianProbe probe;
  const std::size_t d = activations.cols();
  if (d == 0 || activations.rows() == 0) return probe;

  // Gram matrix H = 2 X^T X, [d x d].  This is the expensive part the
  // variance indicator avoids.  Large d routes through the blocked kernels
  // automatically (ops.cpp use_blocked) and stays bit-identical.
  const Tensor xt = sq::tensor::transpose(activations);
  Tensor h = sq::tensor::matmul(xt, activations);
  sq::tensor::scale_inplace(h, 2.0f);

  sq::tensor::Rng rng(seed);
  Tensor v(d, 1);
  v.fill_normal(rng, 0.0f, 1.0f);

  double lambda_prev = 0.0;
  for (int it = 0; it < max_iters; ++it) {
    Tensor hv = sq::tensor::matmul(h, v);
    const double norm = std::sqrt(sq::tensor::sum_squares(hv));
    if (norm == 0.0) break;
    sq::tensor::scale_inplace(hv, static_cast<float>(1.0 / norm));
    v = std::move(hv);
    // Rayleigh quotient with the normalized vector.
    const Tensor hv2 = sq::tensor::matmul(h, v);
    double lambda = 0.0;
    for (std::size_t i = 0; i < d; ++i) lambda += v[i] * hv2[i];
    probe.lambda_max = lambda;
    probe.iterations = it + 1;
    if (std::abs(lambda - lambda_prev) <= tol * std::max(1.0, std::abs(lambda))) break;
    lambda_prev = lambda;
  }
  return probe;
}

double hessian_indicator(const sq::tensor::Tensor& weights,
                         const sq::tensor::Tensor& activations, Bitwidth b,
                         std::uint64_t seed) {
  if (b == Bitwidth::kFp16) return 0.0;
  const HessianProbe probe = hessian_top_eigenvalue(activations, 64, 1e-6, seed);
  const double qerr = quantization_mse(weights.data(), b) *
                      static_cast<double>(weights.size());
  return probe.lambda_max * qerr;
}

double IndicatorTable::at(std::size_t layer, Bitwidth b) const {
  for (std::size_t k = 0; k < bitwidths.size(); ++k) {
    if (bitwidths[k] == b) return values.at(layer).at(k);
  }
  throw std::out_of_range("IndicatorTable: bitwidth not present");
}

IndicatorTable random_indicator_table(std::size_t n_layers,
                                      std::span<const Bitwidth> bitwidths,
                                      std::uint64_t seed) {
  IndicatorTable table;
  table.bitwidths.assign(bitwidths.begin(), bitwidths.end());

  // Sort a copy of the bitwidth order from widest to narrowest so we can
  // force the monotone structure, then write values back per input order.
  std::vector<std::size_t> order(table.bitwidths.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b2) {
    return bits(table.bitwidths[a]) > bits(table.bitwidths[b2]);
  });

  sq::tensor::Rng rng(seed);
  table.values.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    std::vector<double> draws(table.bitwidths.size());
    for (auto& d : draws) d = rng.uniform();
    std::sort(draws.begin(), draws.end());  // ascending
    table.values[l].resize(table.bitwidths.size());
    // Widest bitwidth gets the smallest draw; fp16 is pinned at zero so the
    // "no quantization" option is always a quality no-op.
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t slot = order[k];
      table.values[l][slot] =
          table.bitwidths[slot] == Bitwidth::kFp16 ? 0.0 : draws[k];
    }
  }
  return table;
}

}  // namespace sq::quant
