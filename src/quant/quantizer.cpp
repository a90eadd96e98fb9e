#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "quant/qkernels.h"

namespace sq::quant {

float scale_for_range(float w_min, float w_max, Bitwidth b) {
  if (b == Bitwidth::kFp16) return 1.0f;
  const float levels = static_cast<float>(code_range(b).second);
  const float amax = std::max(std::abs(w_min), std::abs(w_max));
  return amax > 0.0f ? amax / levels : 1.0f;
}

std::pair<std::int32_t, std::int32_t> code_range(Bitwidth b) {
  const std::int32_t hi = (1 << (bits(b) - 1)) - 1;
  return {-hi, hi};
}

double quantization_mse(std::span<const float> values, Bitwidth b) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  double acc = 0.0;
  const auto add = [&acc](float rt, float v) {
    const double d = static_cast<double>(rt) - static_cast<double>(v);
    acc += d * d;
  };
  if (b == Bitwidth::kFp16) {
    for (const float v : values) add(to_fp16(v), v);
  } else {
    // One group over the whole span, through the packed write and read
    // paths that serve weights.
    QuantParams p;
    std::vector<std::uint8_t> packed(packed_size(n, b));
    quantize_pack(values, n, b, std::span<QuantParams>(&p, 1), packed);
    constexpr std::size_t kPiece = 1024;
    float rt[kPiece];
    for (std::size_t begin = 0; begin < n; begin += kPiece) {
      const std::size_t len = std::min(kPiece, n - begin);
      dequantize_packed(packed, begin, b, std::span<const QuantParams>(&p, 1), n,
                        std::span<float>(rt, len));
      for (std::size_t i = 0; i < len; ++i) add(rt[i], values[begin + i]);
    }
  }
  return acc / static_cast<double>(n);
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

}  // namespace sq::quant
