// Synthetic per-layer weight/activation statistics for billion-parameter
// models.
//
// The paper derives its variance indicator from calibration statistics of
// the real checkpoints (C4 segments through the network).  We do not have
// the checkpoints, so each model gets a deterministic synthetic statistics
// profile: per-operator weight ranges and activation moments whose
// depth-dependence reproduces the paper's Table I finding that *later*
// decoder layers are more sensitive to quantization (quantizing layers
// 0-8 of OPT-1.3B costs less quality than layers 16-24), and whose
// magnitudes give indicator values on a realistic scale.  The profile is a
// pure function of (model, layer, operator), so every run of the planner
// sees identical sensitivities.
#pragma once

#include <cstdint>
#include <vector>

#include "model/llm.h"
#include "quant/indicator.h"

namespace sq::model {

/// Calibration statistics of one decoder layer: one OperatorStats per
/// linear operator (Q, K, V, O projections and the MLP matrices).
using LayerCalibration = std::vector<sq::quant::OperatorStats>;

/// Deterministic synthetic calibration profile for every layer of `m`.
/// `seed` perturbs the per-layer jitter only; the depth trend is fixed.
std::vector<LayerCalibration> synthetic_calibration(const LlmSpec& m,
                                                    std::uint64_t seed = 17);

/// Variance-indicator table omega_{i,b} for all layers of `m` over
/// `bitwidths`, computed from the synthetic calibration via Proposition 1.
sq::quant::IndicatorTable variance_indicator_table(
    const LlmSpec& m, std::span<const sq::hw::Bitwidth> bitwidths,
    std::uint64_t seed = 17);

}  // namespace sq::model
