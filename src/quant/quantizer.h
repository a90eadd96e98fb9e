// Weight quantization: symmetric round-to-nearest codes with one scale per
// group (Sec. II-D of the paper).  The scale of a group is max|w| over
// (2^(b-1) - 1), the zero-point is 0, and a code is the nearest integer of
// w / scale clamped to [-(2^(b-1) - 1), 2^(b-1) - 1].  qkernels.h writes
// (quantize_pack) and reads (unpack_codes / dequantize_packed) these codes.
//
// This is a real implementation: floats are mapped to integer codes and
// back, and every quality number in the repository is derived from actual
// round-trips through these functions (not a synthetic error model).
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "hw/gpu.h"

namespace sq::quant {

using sq::hw::Bitwidth;

/// Parameters of one quantization group: x ≈ scale * code.
struct QuantParams {
  float scale = 1.0f;  ///< s_x in the paper.
};

/// The scaling factor S_W(b) for the given weight range, per the paper's
/// closed form max|.|/(2^(b-1) - 1) (1 for an all-zero range and for
/// kFp16).  Exposed separately because the variance indicator
/// (Proposition 1) needs S_W(b) without materializing codes.
float scale_for_range(float w_min, float w_max, Bitwidth b);

/// Smallest/largest integer code at bitwidth `b` (e.g. int4: [-7, 7]).
std::pair<std::int32_t, std::int32_t> code_range(Bitwidth b);

/// Mean squared error ||Q(w) - w||^2 / n of a round-trip of `values` as
/// one quantization group (one scale over the whole span); 0 for an empty
/// span.  FP16 bitwidth applies an actual fp32 -> fp16 -> fp32 precision
/// clip.
double quantization_mse(std::span<const float> values, Bitwidth b);

/// Clip a float to fp16 precision (round-to-nearest-even on the mantissa).
float to_fp16(float v);

}  // namespace sq::quant
