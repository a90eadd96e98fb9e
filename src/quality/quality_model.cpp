#include "quality/quality_model.h"

#include <algorithm>
#include <cmath>

namespace sq::quality {

namespace {

/// FP16 perplexity anchor per model: larger models predict better.  The
/// OPT-30B/66B values match Table V's measured range; others follow the
/// usual scale trend.
double anchor_ppl(const sq::model::LlmSpec& m) {
  const double params_b =
      static_cast<double>(m.total_params()) / 1e9;
  // Smooth scale law: ppl ~ a * params^-b, anchored at 30B -> 10.7,
  // 66B -> 10.25 (Table V's measured range).
  const double a = 12.9, b = 0.0545;
  return a * std::pow(std::max(params_b, 0.3), -b);
}

double anchor_accuracy(const sq::model::LlmSpec& m) {
  const double params_b = static_cast<double>(m.total_params()) / 1e9;
  // LAMBADA/ARC/PIQA-style averages: ~60% small models, ~72% at 70B.
  return std::clamp(58.0 + 3.4 * std::log10(std::max(params_b, 0.3)) * 2.0, 50.0, 78.0);
}

}  // namespace

QualityModel::QualityModel(const sq::model::LlmSpec& m,
                           std::span<const Bitwidth> bitwidths, std::uint64_t seed)
    : m_(m),
      table_(sq::model::variance_indicator_table(m, bitwidths, seed)),
      base_ppl_(anchor_ppl(m)),
      base_acc_(anchor_accuracy(m)) {
  // Calibrate k so uniform INT4 costs ~0.4 PPL.  If INT4 is not among the
  // candidate bitwidths, fall back to the narrowest available.
  double omega4 = 0.0;
  bool has4 = false;
  for (const Bitwidth b : table_.bitwidths) {
    if (b == Bitwidth::kInt4) has4 = true;
  }
  const Bitwidth ref = has4 ? Bitwidth::kInt4 : table_.bitwidths.back();
  omega4 = uniform_omega(ref);
  constexpr double kUniformInt4PplCost = 0.4;
  k_ = omega4 > 0.0 ? kUniformInt4PplCost / omega4 : 0.0;
}

double QualityModel::uniform_omega(Bitwidth b) const {
  double total = 0.0;
  for (std::size_t l = 0; l < table_.values.size(); ++l) total += table_.at(l, b);
  return total;
}

QualityEstimate QualityModel::estimate(std::span<const Bitwidth> layer_bits) const {
  double omega = 0.0;
  for (std::size_t l = 0; l < layer_bits.size() && l < table_.values.size(); ++l) {
    omega += table_.at(l, layer_bits[l]);
  }
  return estimate_from_omega(omega);
}

QualityEstimate QualityModel::estimate_from_omega(double total_omega) const {
  QualityEstimate e = estimate_from_ppl_delta(k_ * total_omega);
  e.total_omega = total_omega;
  return e;
}

QualityEstimate QualityModel::estimate_from_ppl_delta(double ppl_delta) const {
  QualityEstimate e;
  e.total_omega = k_ > 0.0 ? ppl_delta / k_ : 0.0;
  e.ppl_delta = ppl_delta;
  e.ppl = base_ppl_ + ppl_delta;
  // Accuracy proxy: ~1.6 points lost per PPL point, floored.
  e.accuracy = std::max(25.0, base_acc_ - 1.6 * ppl_delta);
  return e;
}

}  // namespace sq::quality
