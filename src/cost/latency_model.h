// Phase-aware latency cost model (paper Sec. IV-A, "Latency Cost Model").
//
// Prefill is compute-bound, so per-layer time is regressed on FLOPs-shaped
// features (v, s, v*s, v*s^2); decode is memory-bound, so it is regressed
// on MOPs-shaped features (v, v*(t+s), t+s).  One regression is fitted per
// (device type, bitwidth, phase, TP degree) from profiles of the
// ground-truth kernel simulator — the stand-in for the paper's "GPU
// calibration payloads".  Fig. 8 evaluates these fits on unseen workloads.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cost/regression.h"
#include "hw/gpu.h"
#include "model/llm.h"
#include "sim/kernel_model.h"

namespace sq::cost {

using sq::hw::Bitwidth;
using sq::hw::GpuSpec;
using sq::hw::GpuType;
using sq::model::LlmSpec;
using sq::model::Phase;

/// Profiling grid configuration.
struct ProfileConfig {
  std::vector<std::uint64_t> batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<std::uint64_t> prefill_lens = {64, 128, 256, 512, 1024, 2048};
  std::vector<std::uint64_t> decode_ctx = {128, 256, 512, 1024, 2048, 4096, 8192};
  std::vector<int> tp_degrees = {1, 2, 4};
  sq::sim::KernelModelOptions kernel{.ground_truth = true, .seed = 11};
  double tp_link_gbps = 300.0;
};

/// Fitted per-layer latency predictor for one model on profiled devices.
class LatencyCostModel {
 public:
  /// The prefill and decode regressions of one (device type, bitwidth, TP
  /// degree).  A caller pricing many shapes on one device looks them up
  /// once (fits) and evaluates them directly.
  struct LayerFits {
    LinearRegression prefill;
    LinearRegression decode;

    /// Predicted microseconds for one decoder layer; see predict_layer_us.
    double predict_us(Phase phase, std::uint64_t v, std::uint64_t s_or_ctx) const;
  };

  explicit LatencyCostModel(const LlmSpec& m, ProfileConfig cfg = {});

  /// Profile device `g` at all bitwidths in `bits` and fit regressions.
  /// Idempotent per device type.
  void profile_device(const GpuSpec& g, std::span<const Bitwidth> bits);

  /// True when (device type, bitwidth) has been profiled.
  bool has_profile(GpuType t, Bitwidth b, int tp = 1) const;

  /// The fits of (device type, bitwidth, TP degree); throws
  /// std::logic_error when that combination was never profiled.
  const LayerFits& fits(GpuType t, Bitwidth b, int tp = 1) const;

  /// Predicted microseconds for one decoder layer.  For kPrefill,
  /// `s_or_ctx` is the chunk length; for kDecode, the context length.
  /// Requires a prior profile_device for the device type.
  double predict_layer_us(GpuType t, Phase phase, std::uint64_t v,
                          std::uint64_t s_or_ctx, Bitwidth b, int tp = 1) const;

  /// Number of profiling samples taken so far (cost-model overhead metric).
  std::size_t samples_taken() const { return samples_; }

  /// The model being profiled.
  const LlmSpec& model() const { return m_; }

  /// Prediction-cache counters.  Predictions are evaluated directly and
  /// cached nowhere, so both read zero; kept for the frozen end-to-end
  /// benchmark (perfbench/e2e.cpp) only.
  std::uint64_t predict_cache_hits() const { return 0; }
  std::uint64_t predict_cache_misses() const { return 0; }

 private:
  struct Key {
    GpuType type;
    Bitwidth bit;
    int tp;
    bool operator<(const Key& o) const {
      if (type != o.type) return type < o.type;
      if (bit != o.bit) return bit < o.bit;
      return tp < o.tp;
    }
  };

  LlmSpec m_;
  ProfileConfig cfg_;
  std::map<Key, LayerFits> fits_;
  std::size_t samples_ = 0;
};

}  // namespace sq::cost
