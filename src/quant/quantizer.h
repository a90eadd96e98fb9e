// Weight quantization: symmetric/asymmetric, deterministic/stochastic
// rounding, per-tensor or per-group scales (Sec. II-D of the paper).
//
// This is a real implementation: floats are mapped to integer codes and
// back, and every quality number in the repository is derived from actual
// round-trips through these functions (not a synthetic error model).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/gpu.h"
#include "tensor/rng.h"

namespace sq::quant {

using sq::hw::Bitwidth;

/// How real-valued bins are mapped onto the integer grid.
enum class Scheme {
  kSymmetric,   ///< zero-point 0, scale from max |w| (paper Sec. IV-B).
  kAsymmetric,  ///< zero-point at w_min, scale (max-min)/(2^b - 1).
};

/// Rounding rule applied after scaling (paper Sec. IV-B considers both).
enum class Rounding {
  kDeterministic,  ///< round-to-nearest.
  kStochastic,     ///< round up with probability equal to the fraction.
};

/// Affine parameters of one quantization group: x ≈ scale * code + zero.
struct QuantParams {
  float scale = 1.0f;  ///< s_x in the paper.
  float zero = 0.0f;   ///< q_x in the paper (0 for symmetric).
};

/// Compute quantization parameters for `values` at bitwidth `b`.
/// For kFp16 the identity mapping (scale 1, zero 0) is returned.
QuantParams compute_params(std::span<const float> values, Bitwidth b, Scheme scheme);

/// Parameters from an already-known value range — the hoisted form of
/// compute_params for callers that batch the min/max scan (qkernels).
/// Bit-identical to compute_params on a span whose extrema are
/// (w_min, w_max); returns the identity mapping for kFp16.
QuantParams params_from_range(float w_min, float w_max, Bitwidth b, Scheme scheme);

/// The scaling factor S_W(b) for the given weight range, per the paper's
/// closed forms: (max-min)/(2^b - 1) asymmetric, max|.|/(2^(b-1) - 1)
/// symmetric.  Exposed separately because the variance indicator
/// (Proposition 1) needs S_W(b) without materializing codes.
float scale_for_range(float w_min, float w_max, Bitwidth b, Scheme scheme);

/// Smallest/largest representable integer code at bitwidth `b` for `scheme`
/// (e.g. symmetric int4: [-7, 7]; asymmetric int4: [0, 15]).
std::pair<std::int32_t, std::int32_t> code_range(Bitwidth b, Scheme scheme);

/// Quantize `values` into integer codes with the supplied params.
/// Stochastic rounding consumes variates from `rng` (required iff
/// rounding == kStochastic; may be null for deterministic).
void quantize(std::span<const float> values, const QuantParams& params, Bitwidth b,
              Scheme scheme, Rounding rounding, sq::tensor::Rng* rng,
              std::span<std::int32_t> codes);

/// Dequantize codes back to floats: x~ = scale * code + zero.
void dequantize(std::span<const std::int32_t> codes, const QuantParams& params,
                std::span<float> values_out);

/// Scalar reference loops, kept verbatim as the byte-equality oracle the
/// ISA-dispatched kernels (qkernels.h) are tested against.  `quantize`/
/// `dequantize` above route deterministic work through the kernels and are
/// asserted bit-identical to these in tests/qkernels_test.cpp.
void quantize_reference(std::span<const float> values, const QuantParams& params,
                        Bitwidth b, Scheme scheme,
                        std::span<std::int32_t> codes);
void dequantize_reference(std::span<const std::int32_t> codes,
                          const QuantParams& params,
                          std::span<float> values_out);

/// Round-trip `values` through quantization at bitwidth `b` and return the
/// reconstruction; convenience for error studies.  FP16 bitwidth applies
/// an actual fp32 -> fp16 -> fp32 precision clip.
std::vector<float> fake_quantize(std::span<const float> values, Bitwidth b,
                                 Scheme scheme, Rounding rounding,
                                 sq::tensor::Rng* rng = nullptr);

/// Mean squared quantization error ||Q(w) - w||^2 / n of a round-trip.
double quantization_mse(std::span<const float> values, Bitwidth b, Scheme scheme,
                        Rounding rounding, sq::tensor::Rng* rng = nullptr);

/// Clip a float to fp16 precision (round-to-nearest-even on the mantissa).
float to_fp16(float v);

}  // namespace sq::quant
