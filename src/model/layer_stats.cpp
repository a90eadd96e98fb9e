#include "model/layer_stats.h"

#include <cmath>

#include "tensor/rng.h"

namespace sq::model {

std::vector<LayerCalibration> synthetic_calibration(const LlmSpec& m,
                                                    std::uint64_t seed) {
  // Operator layout of one decoder layer: 4 attention projections
  // (Q, K, V with kv_dim, O) and the MLP matrices.
  struct OpShape {
    std::uint64_t dim;
    double range_scale;  // Relative weight range of this operator.
  };
  const std::uint64_t kvd = m.kv_dim == 0 ? m.h1 : m.kv_dim;
  std::vector<OpShape> shapes = {
      {m.h1 * m.h1, 1.0},   // Q
      {m.h1 * kvd, 1.0},    // K
      {m.h1 * kvd, 0.9},    // V
      {m.h1 * m.h1, 1.1},   // O
      {m.h1 * m.h2, 1.2},   // MLP up (outliers concentrate here)
      {m.h1 * m.h2, 1.0},   // MLP down
  };
  if (m.mlp_gated) shapes.push_back({m.h1 * m.h2, 1.1});  // gate

  const std::uint64_t model_seed =
      sq::tensor::derive_seed(seed, sq::tensor::seed_from_string(m.name.c_str()));

  std::vector<LayerCalibration> calib;
  calib.reserve(static_cast<std::size_t>(m.n_layers));
  for (int layer = 0; layer < m.n_layers; ++layer) {
    sq::tensor::Rng rng(sq::tensor::derive_seed(model_seed, static_cast<std::uint64_t>(layer)));
    const double depth = m.n_layers > 1
                             ? static_cast<double>(layer) / static_cast<double>(m.n_layers - 1)
                             : 0.0;
    // Depth trends (transformer folklore + Table I): activation variance
    // grows through the stack as residual-stream magnitude accumulates, and
    // deeper layers develop wider weight outliers.  Both inflate the
    // variance indicator with depth, making later layers costlier to
    // quantize — the Table I ordering.
    const double act_var = 0.8 * (1.0 + 2.2 * depth) * rng.lognormal(0.0, 0.10);
    const double act_mean = 0.02 + 0.05 * depth;
    const double w_range = 0.10 * (1.0 + 1.6 * depth) * rng.lognormal(0.0, 0.08);

    LayerCalibration layer_ops;
    layer_ops.reserve(shapes.size());
    for (const auto& sh : shapes) {
      sq::quant::OperatorStats s;
      s.weight_dim = sh.dim;
      const double r = w_range * sh.range_scale * rng.lognormal(0.0, 0.05);
      s.w_max = static_cast<float>(r);
      s.w_min = static_cast<float>(-r * rng.uniform(0.85, 1.0));
      s.x_mean = act_mean * rng.lognormal(0.0, 0.10);
      s.x_var = act_var * rng.lognormal(0.0, 0.10);
      layer_ops.push_back(s);
    }
    calib.push_back(std::move(layer_ops));
  }
  return calib;
}

sq::quant::IndicatorTable variance_indicator_table(
    const LlmSpec& m, std::span<const sq::hw::Bitwidth> bitwidths,
    std::uint64_t seed) {
  const auto calib = synthetic_calibration(m, seed);
  sq::quant::IndicatorTable table;
  table.bitwidths.assign(bitwidths.begin(), bitwidths.end());
  table.values.resize(calib.size());
  for (std::size_t layer = 0; layer < calib.size(); ++layer) {
    table.values[layer].reserve(bitwidths.size());
    for (const auto b : bitwidths) {
      table.values[layer].push_back(
          sq::quant::layer_variance_indicator(calib[layer], b));
    }
  }
  return table;
}

}  // namespace sq::model
