#include "oracles/quant_reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sq::quant::oracle {

QuantParams params_reference(std::span<const float> values, Bitwidth b) {
  QuantParams p;
  if (values.empty()) return p;
  const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  p.scale = scale_for_range(*mn, *mx, b);
  return p;
}

void quantize_reference(std::span<const float> values, const QuantParams& params,
                        Bitwidth b, std::span<std::int32_t> codes) {
  assert(codes.size() == values.size());
  const auto [lo, hi] = code_range(b);
  const float inv_scale = params.scale != 0.0f ? 1.0f / params.scale : 0.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float rounded = std::nearbyint(values[i] * inv_scale);
    codes[i] = std::clamp(static_cast<std::int32_t>(rounded), lo, hi);
  }
}

void dequantize_reference(std::span<const std::int32_t> codes,
                          const QuantParams& params, std::span<float> values_out) {
  assert(values_out.size() == codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    values_out[i] = params.scale * static_cast<float>(codes[i]);
  }
}

}  // namespace sq::quant::oracle
