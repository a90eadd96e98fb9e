// Frozen scalar quantization loops: the byte-equality oracle of the
// ISA-dispatched quantize/dequantize kernels (quant/qkernels.h).
#pragma once

#include <cstdint>
#include <span>

#include "quant/quantizer.h"

namespace sq::quant::oracle {

/// The params of one group over `values`: scale_for_range of the extrema
/// std::minmax_element finds (the default params for an empty span).
QuantParams params_reference(std::span<const float> values, Bitwidth b);

/// codes[i] = clamp(nearbyint(values[i] * (1 / scale)), code_range(b)),
/// with a zero scale quantizing every value to code 0.
void quantize_reference(std::span<const float> values, const QuantParams& params,
                        Bitwidth b, std::span<std::int32_t> codes);

/// values_out[i] = scale * codes[i].
void dequantize_reference(std::span<const std::int32_t> codes,
                          const QuantParams& params, std::span<float> values_out);

}  // namespace sq::quant::oracle
