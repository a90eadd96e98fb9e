// Tests for the quantization-sensitivity indicators, including the
// Theorem 1 variance bound checked against measured output variance.
#include <gtest/gtest.h>

#include <cmath>

#include "quant/indicator.h"
#include "quant/qtensor.h"
#include "tensor/ops.h"

namespace sq::quant {
namespace {

using sq::hw::Bitwidth;
using sq::tensor::Tensor;

Tensor randn(std::size_t r, std::size_t c, std::uint64_t seed, float sd) {
  sq::tensor::Rng rng(seed);
  Tensor t(r, c);
  t.fill_normal(rng, 0.0f, sd);
  return t;
}

TEST(OperatorStats, ExtractsMoments) {
  const float wv[] = {-0.2f, 0.1f, 0.3f, -0.1f};
  const float xv[] = {1.0f, 3.0f};
  const Tensor w(2, 2, wv), x(1, 2, xv);
  const OperatorStats s = operator_stats(w, x);
  EXPECT_EQ(s.weight_dim, 4u);
  EXPECT_FLOAT_EQ(s.w_min, -0.2f);
  EXPECT_FLOAT_EQ(s.w_max, 0.3f);
  EXPECT_DOUBLE_EQ(s.x_mean, 2.0);
  EXPECT_DOUBLE_EQ(s.x_var, 1.0);
}

TEST(GofX, QuarterOfInputVariance) {
  // Round-to-nearest: G(X) = Var[X] / 4, whatever the mean.
  OperatorStats s;
  s.x_mean = 2.0;
  s.x_var = 4.0;
  EXPECT_DOUBLE_EQ(g_of_x(s), 1.0);
  s.x_mean = -7.0;
  EXPECT_DOUBLE_EQ(g_of_x(s), 1.0);
}

TEST(VarianceIndicator, Fp16IsZero) {
  OperatorStats s{1024, -0.1f, 0.1f, 0.0, 1.0};
  EXPECT_EQ(operator_variance_indicator(s, Bitwidth::kFp16), 0.0);
}

TEST(VarianceIndicator, MonotoneInBitwidth) {
  OperatorStats s{4096, -0.2f, 0.2f, 0.1, 0.8};
  double prev = 0.0;
  for (const Bitwidth b : {Bitwidth::kInt8, Bitwidth::kInt4, Bitwidth::kInt3}) {
    const double v = operator_variance_indicator(s, b);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(VarianceIndicator, ScalesWithWeightDim) {
  OperatorStats a{1000, -0.1f, 0.1f, 0.0, 1.0};
  OperatorStats b = a;
  b.weight_dim = 2000;
  const double va = operator_variance_indicator(a, Bitwidth::kInt4);
  const double vb = operator_variance_indicator(b, Bitwidth::kInt4);
  EXPECT_DOUBLE_EQ(vb, 2.0 * va);
}

TEST(VarianceIndicator, LayerSumsOperators) {
  OperatorStats s{1024, -0.1f, 0.1f, 0.0, 1.0};
  const OperatorStats ops[] = {s, s, s};
  const double one = operator_variance_indicator(s, Bitwidth::kInt4);
  const double layer = layer_variance_indicator(ops, Bitwidth::kInt4);
  EXPECT_NEAR(layer, 3.0 * one, 1e-12);
}

TEST(Theorem1, PredictsMeasuredOutputVarianceOrder) {
  // Empirical check of the Theorem 1 structure: the *added* output variance
  // of a quantized linear operator grows ~ S(b)^2, so int3 adds ~4x the
  // int4 variance.  We measure actual output differences.
  const std::size_t d = 64, n = 256;
  const Tensor w = randn(d, d, 1, 0.08f);
  const Tensor x = randn(n, d, 2, 1.0f);
  const Tensor ref = sq::tensor::matmul(x, w);

  auto added_var = [&](Bitwidth b) {
    // One scale over the whole matrix (a group as large as the tensor).
    const Tensor out = QTensor(w, b, d * d).matmul(x);
    return sq::tensor::mse(out, ref);
  };
  const double v4 = added_var(Bitwidth::kInt4);
  const double v3 = added_var(Bitwidth::kInt3);
  const double v8 = added_var(Bitwidth::kInt8);
  // S(3)/S(4) = 7/3 -> variance ratio ~ (7/3)^2 ~ 5.4; allow wide band.
  EXPECT_GT(v3 / v4, 2.5);
  EXPECT_LT(v3 / v4, 12.0);
  EXPECT_LT(v8, v4);
}

TEST(HessianProbe, TopEigenvalueOfKnownMatrix) {
  // X = I (4x4): H = 2 X^T X = 2I, lambda_max = 2.
  Tensor x(4, 4);
  for (std::size_t i = 0; i < 4; ++i) x.at(i, i) = 1.0f;
  const HessianProbe p = hessian_top_eigenvalue(x);
  EXPECT_NEAR(p.lambda_max, 2.0, 1e-4);
  EXPECT_GT(p.iterations, 0);
}

TEST(HessianProbe, DominantDirection) {
  // One feature has much larger magnitude: lambda ~ 2 * sum x_i^2 over it.
  Tensor x(100, 3);
  sq::tensor::Rng rng(5);
  for (std::size_t i = 0; i < 100; ++i) {
    x.at(i, 0) = static_cast<float>(rng.normal(0.0, 10.0));
    x.at(i, 1) = static_cast<float>(rng.normal(0.0, 0.1));
    x.at(i, 2) = static_cast<float>(rng.normal(0.0, 0.1));
  }
  double col0 = 0.0;
  for (std::size_t i = 0; i < 100; ++i) col0 += x.at(i, 0) * x.at(i, 0);
  const HessianProbe p = hessian_top_eigenvalue(x);
  EXPECT_NEAR(p.lambda_max, 2.0 * col0, 0.02 * 2.0 * col0);
}

TEST(HessianIndicator, ZeroAtFp16AndMonotone) {
  const Tensor w = randn(32, 32, 7, 0.1f);
  const Tensor x = randn(64, 32, 8, 1.0f);
  EXPECT_EQ(hessian_indicator(w, x, Bitwidth::kFp16), 0.0);
  const double h8 = hessian_indicator(w, x, Bitwidth::kInt8);
  const double h4 = hessian_indicator(w, x, Bitwidth::kInt4);
  const double h3 = hessian_indicator(w, x, Bitwidth::kInt3);
  EXPECT_LT(h8, h4);
  EXPECT_LT(h4, h3);
}

TEST(RandomIndicatorTable, MonotoneWithinLayer) {
  const Bitwidth bits[] = {Bitwidth::kFp16, Bitwidth::kInt8, Bitwidth::kInt4,
                           Bitwidth::kInt3};
  const IndicatorTable t = random_indicator_table(10, bits, 42);
  ASSERT_EQ(t.values.size(), 10u);
  for (std::size_t l = 0; l < 10; ++l) {
    EXPECT_EQ(t.at(l, Bitwidth::kFp16), 0.0);
    EXPECT_LE(t.at(l, Bitwidth::kInt8), t.at(l, Bitwidth::kInt4));
    EXPECT_LE(t.at(l, Bitwidth::kInt4), t.at(l, Bitwidth::kInt3));
  }
}

TEST(RandomIndicatorTable, SeededReproducible) {
  const Bitwidth bits[] = {Bitwidth::kInt8, Bitwidth::kInt4};
  const IndicatorTable a = random_indicator_table(5, bits, 1);
  const IndicatorTable b = random_indicator_table(5, bits, 1);
  const IndicatorTable c = random_indicator_table(5, bits, 2);
  EXPECT_EQ(a.values, b.values);
  EXPECT_NE(a.values, c.values);
}

TEST(IndicatorTable, ThrowsOnUnknownBitwidth) {
  const Bitwidth bits[] = {Bitwidth::kInt8};
  const IndicatorTable t = random_indicator_table(2, bits, 3);
  EXPECT_THROW(t.at(0, Bitwidth::kInt3), std::out_of_range);
}

}  // namespace
}  // namespace sq::quant
