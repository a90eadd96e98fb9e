#include "quant/quantizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "quant/qkernels.h"
#include "tensor/stats.h"

namespace sq::quant {

namespace {

/// One scalar quantization loop, parameterized over the rounding rule.
/// Both reference paths (deterministic nearbyint, stochastic floor+coin)
/// instantiate this template, so there is exactly one copy of the
/// scale/shift/clamp arithmetic the SIMD kernels must reproduce.
template <typename RoundFn>
void quantize_with(std::span<const float> values, const QuantParams& params,
                   std::int32_t lo, std::int32_t hi, RoundFn&& round,
                   std::span<std::int32_t> codes) {
  const float inv_scale = params.scale != 0.0f ? 1.0f / params.scale : 0.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float scaled = (values[i] - params.zero) * inv_scale;
    const float rounded = round(scaled);
    codes[i] = std::clamp(static_cast<std::int32_t>(rounded), lo, hi);
  }
}

}  // namespace

float scale_for_range(float w_min, float w_max, Bitwidth b, Scheme scheme) {
  if (b == Bitwidth::kFp16) return 1.0f;
  const int nbits = bits(b);
  if (scheme == Scheme::kAsymmetric) {
    const float levels = static_cast<float>((1 << nbits) - 1);
    const float span = w_max - w_min;
    return span > 0.0f ? span / levels : 1.0f;
  }
  const float levels = static_cast<float>((1 << (nbits - 1)) - 1);
  const float amax = std::max(std::abs(w_min), std::abs(w_max));
  return amax > 0.0f ? amax / levels : 1.0f;
}

QuantParams compute_params(std::span<const float> values, Bitwidth b, Scheme scheme) {
  QuantParams p;
  if (b == Bitwidth::kFp16 || values.empty()) return p;
  float mn = 0.0f, mx = 0.0f;
  minmax(values, &mn, &mx);  // kernel-dispatched; matches minmax_element bytes
  return params_from_range(mn, mx, b, scheme);
}

QuantParams params_from_range(float w_min, float w_max, Bitwidth b, Scheme scheme) {
  QuantParams p;
  if (b == Bitwidth::kFp16) return p;
  p.scale = scale_for_range(w_min, w_max, b, scheme);
  p.zero = scheme == Scheme::kAsymmetric ? w_min : 0.0f;
  return p;
}

std::pair<std::int32_t, std::int32_t> code_range(Bitwidth b, Scheme scheme) {
  const int nbits = bits(b);
  if (scheme == Scheme::kAsymmetric) {
    return {0, (1 << nbits) - 1};
  }
  const std::int32_t hi = (1 << (nbits - 1)) - 1;
  return {-hi, hi};
}

void quantize(std::span<const float> values, const QuantParams& params, Bitwidth b,
              Scheme scheme, Rounding rounding, sq::tensor::Rng* rng,
              std::span<std::int32_t> codes) {
  assert(codes.size() == values.size());
  assert((rounding != Rounding::kStochastic || rng != nullptr) &&
         "stochastic rounding needs an RNG");
  const auto [lo, hi] = code_range(b, scheme);
  if (rounding == Rounding::kDeterministic) {
    quantize_codes(values, params, lo, hi, codes);
    return;
  }
  // Stochastic rounding consumes one variate per element in order; it stays
  // scalar so the rng stream is identical regardless of ISA or threads.
  quantize_with(values, params, lo, hi,
                [rng](float scaled) {
                  const float fl = std::floor(scaled);
                  const float frac = scaled - fl;
                  return fl + (rng->uniform() < frac ? 1.0f : 0.0f);
                },
                codes);
}

void dequantize(std::span<const std::int32_t> codes, const QuantParams& params,
                std::span<float> values_out) {
  assert(values_out.size() == codes.size());
  dequantize_codes(codes, params, values_out);
}

void quantize_reference(std::span<const float> values, const QuantParams& params,
                        Bitwidth b, Scheme scheme,
                        std::span<std::int32_t> codes) {
  assert(codes.size() == values.size());
  const auto [lo, hi] = code_range(b, scheme);
  quantize_with(values, params, lo, hi,
                [](float scaled) { return std::nearbyint(scaled); }, codes);
}

void dequantize_reference(std::span<const std::int32_t> codes,
                          const QuantParams& params,
                          std::span<float> values_out) {
  assert(values_out.size() == codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    values_out[i] = params.scale * static_cast<float>(codes[i]) + params.zero;
  }
}

float to_fp16(float v) {
  // Quantize the mantissa to 10 bits (plus handle subnormal/overflow
  // coarsely).  This mirrors the storage precision loss of fp16 weights.
  if (!std::isfinite(v)) return v;
  if (std::abs(v) > 65504.0f) return v > 0 ? 65504.0f : -65504.0f;
  if (v == 0.0f) return 0.0f;
  int exp = 0;
  const float mant = std::frexp(v, &exp);  // v = mant * 2^exp, |mant| in [0.5,1)
  if (exp < -13) {
    // Subnormal fp16 territory: quantize against the fixed minimum step.
    const float step = 0x1.0p-24f;
    return std::nearbyint(v / step) * step;
  }
  const float scaled = std::ldexp(mant, 11);  // 11 bits incl. leading 1.
  return std::ldexp(std::nearbyint(scaled), exp - 11);
}

std::vector<float> fake_quantize(std::span<const float> values, Bitwidth b,
                                 Scheme scheme, Rounding rounding,
                                 sq::tensor::Rng* rng) {
  std::vector<float> out(values.size());
  if (b == Bitwidth::kFp16) {
    for (std::size_t i = 0; i < values.size(); ++i) out[i] = to_fp16(values[i]);
    return out;
  }
  const QuantParams p = compute_params(values, b, scheme);
  std::vector<std::int32_t> codes(values.size());
  quantize(values, p, b, scheme, rounding, rng, codes);
  dequantize(codes, p, out);
  return out;
}

double quantization_mse(std::span<const float> values, Bitwidth b, Scheme scheme,
                        Rounding rounding, sq::tensor::Rng* rng) {
  const std::vector<float> rt = fake_quantize(values, b, scheme, rounding, rng);
  double acc = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double d = static_cast<double>(rt[i]) - static_cast<double>(values[i]);
    acc += d * d;
  }
  return values.empty() ? 0.0 : acc / static_cast<double>(values.size());
}

}  // namespace sq::quant
