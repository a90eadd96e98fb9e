// Tests for the synthetic per-layer calibration profiles and the derived
// variance-indicator tables (the Table I depth trend).
#include <gtest/gtest.h>

#include "model/layer_stats.h"
#include "model/registry.h"

namespace sq::model {
namespace {

using sq::hw::Bitwidth;

constexpr Bitwidth kBits[] = {Bitwidth::kFp16, Bitwidth::kInt8, Bitwidth::kInt4,
                              Bitwidth::kInt3};

TEST(SyntheticCalibration, OneEntryPerLayerAndOperator) {
  const LlmSpec m = spec(ModelId::kOpt1_3B);
  const auto calib = synthetic_calibration(m);
  ASSERT_EQ(calib.size(), static_cast<std::size_t>(m.n_layers));
  for (const auto& layer : calib) {
    EXPECT_EQ(layer.size(), 6u);  // Q, K, V, O, up, down (no gate for OPT).
    for (const auto& op : layer) {
      EXPECT_GT(op.weight_dim, 0u);
      EXPECT_LT(op.w_min, 0.0f);
      EXPECT_GT(op.w_max, 0.0f);
      EXPECT_GT(op.x_var, 0.0);
    }
  }
}

TEST(SyntheticCalibration, GatedModelsHaveSevenOperators) {
  const auto calib = synthetic_calibration(spec(ModelId::kQwen25_7B));
  EXPECT_EQ(calib.front().size(), 7u);
}

TEST(SyntheticCalibration, Deterministic) {
  const LlmSpec m = spec(ModelId::kBloom3B);
  const auto a = synthetic_calibration(m, 17);
  const auto b = synthetic_calibration(m, 17);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(a[l][0].w_max, b[l][0].w_max);
    EXPECT_EQ(a[l][0].x_var, b[l][0].x_var);
  }
}

TEST(SyntheticCalibration, DepthIncreasesSensitivityInputs) {
  // Later layers have wider weight ranges and larger activation variance.
  const LlmSpec m = spec(ModelId::kOpt1_3B);
  const auto calib = synthetic_calibration(m);
  const auto& first = calib.front().front();
  const auto& last = calib.back().front();
  EXPECT_GT(last.w_max, first.w_max);
  EXPECT_GT(last.x_var, first.x_var);
}

TEST(IndicatorTable, TableIDepthOrdering) {
  // Quantizing a later third of the stack must cost more indicator mass
  // than an earlier third — the Table I finding.
  const LlmSpec m = spec(ModelId::kOpt1_3B);  // 24 layers
  const auto table = variance_indicator_table(m, kBits);
  auto range_cost = [&](int lo, int hi) {
    double acc = 0.0;
    for (int l = lo; l < hi; ++l) {
      acc += table.at(static_cast<std::size_t>(l), Bitwidth::kInt4);
    }
    return acc;
  };
  const double early = range_cost(0, 8);
  const double mid = range_cost(8, 16);
  const double late = range_cost(16, 24);
  EXPECT_LT(early, mid);
  EXPECT_LT(mid, late);
}

TEST(IndicatorTable, Fp16AlwaysZero) {
  const auto table = variance_indicator_table(spec(ModelId::kBloom3B), kBits);
  for (std::size_t l = 0; l < table.values.size(); ++l) {
    EXPECT_EQ(table.at(l, Bitwidth::kFp16), 0.0);
  }
}

TEST(IndicatorTable, MonotoneInBitwidthEveryLayer) {
  const auto table = variance_indicator_table(spec(ModelId::kOpt30B), kBits);
  for (std::size_t l = 0; l < table.values.size(); ++l) {
    EXPECT_LT(table.at(l, Bitwidth::kInt8), table.at(l, Bitwidth::kInt4));
    EXPECT_LT(table.at(l, Bitwidth::kInt4), table.at(l, Bitwidth::kInt3));
  }
}

}  // namespace
}  // namespace sq::model
