#include "cost/latency_model.h"

#include <array>
#include <stdexcept>

namespace sq::cost {

namespace {

/// Prefill regression features (FLOPs-shaped), in fit order.
std::array<double, 5> prefill_features(std::uint64_t v, std::uint64_t s) {
  const auto vd = static_cast<double>(v);
  const auto sd = static_cast<double>(s);
  return {1.0, vd, sd, vd * sd, vd * sd * sd};
}

/// Decode regression features (MOPs-shaped), in fit order.
std::array<double, 4> decode_features(std::uint64_t v, std::uint64_t ctx) {
  const auto vd = static_cast<double>(v);
  const auto cd = static_cast<double>(ctx);
  return {1.0, vd, vd * cd, cd};
}

}  // namespace

LatencyCostModel::LatencyCostModel(const LlmSpec& m, ProfileConfig cfg)
    : m_(m), cfg_(std::move(cfg)) {}

void LatencyCostModel::profile_device(const GpuSpec& g,
                                      std::span<const Bitwidth> bits) {
  const sq::sim::KernelModel km(cfg_.kernel);
  for (const Bitwidth b : bits) {
    for (const int tp : cfg_.tp_degrees) {
      const Key key{g.type, b, tp};
      if (fits_.count(key) != 0) continue;
      LayerFits fits;
      // Prefill fit.
      {
        std::vector<double> x, y;
        for (const auto v : cfg_.batch_sizes) {
          for (const auto s : cfg_.prefill_lens) {
            const auto f = prefill_features(v, s);
            x.insert(x.end(), f.begin(), f.end());
            y.push_back(km.layer_time_us(g, m_, Phase::kPrefill, v, s, b,
                                         sq::hw::Bitwidth::kFp16, tp,
                                         cfg_.tp_link_gbps));
            ++samples_;
          }
        }
        fits.prefill.fit(x, y.size(), 5, y);
      }
      // Decode fit.
      {
        std::vector<double> x, y;
        for (const auto v : cfg_.batch_sizes) {
          for (const auto ctx : cfg_.decode_ctx) {
            const auto f = decode_features(v, ctx);
            x.insert(x.end(), f.begin(), f.end());
            y.push_back(km.layer_time_us(g, m_, Phase::kDecode, v, ctx, b,
                                         sq::hw::Bitwidth::kFp16, tp,
                                         cfg_.tp_link_gbps));
            ++samples_;
          }
        }
        fits.decode.fit(x, y.size(), 4, y);
      }
      fits_[key] = std::move(fits);
    }
  }
}

bool LatencyCostModel::has_profile(GpuType t, Bitwidth b, int tp) const {
  return fits_.count(Key{t, b, tp}) != 0;
}

const LatencyCostModel::LayerFits& LatencyCostModel::fits(GpuType t, Bitwidth b,
                                                          int tp) const {
  const auto it = fits_.find(Key{t, b, tp});
  if (it == fits_.end()) {
    throw std::logic_error("LatencyCostModel: device/bitwidth not profiled");
  }
  return it->second;
}

double LatencyCostModel::LayerFits::predict_us(Phase phase, std::uint64_t v,
                                               std::uint64_t s_or_ctx) const {
  const double pred = phase == Phase::kPrefill
                          ? prefill.predict(prefill_features(v, s_or_ctx))
                          : decode.predict(decode_features(v, s_or_ctx));
  // Latency cannot be negative; clamp tiny extrapolations.
  return pred > 0.0 ? pred : 0.0;
}

double LatencyCostModel::predict_layer_us(GpuType t, Phase phase, std::uint64_t v,
                                          std::uint64_t s_or_ctx, Bitwidth b,
                                          int tp) const {
  return fits(t, b, tp).predict_us(phase, v, s_or_ctx);
}

}  // namespace sq::cost
