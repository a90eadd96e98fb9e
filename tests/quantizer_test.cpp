// Unit + property tests for the quantizer: round-trips, scaling factors,
// code ranges, error monotonicity in bitwidth.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "oracles/quant_reference.h"
#include "quant/qkernels.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"

namespace sq::quant {
namespace {

using sq::hw::Bitwidth;

std::vector<float> random_weights(std::size_t n, std::uint64_t seed, float stddev = 0.1f) {
  sq::tensor::Rng rng(seed);
  std::vector<float> w(n);
  rng.fill_normal(w, 0.0f, stddev);
  return w;
}

/// `w` quantized as one group by the packed write path: the codes, and the
/// scale in `*p`.
std::vector<std::int32_t> pack_codes(const std::vector<float>& w, Bitwidth b,
                                     QuantParams* p, std::vector<std::uint8_t>* packed) {
  packed->assign(packed_size(w.size(), b), 0);
  quantize_pack(w, w.size(), b, std::span<QuantParams>(p, 1), *packed);
  std::vector<std::int32_t> codes(w.size());
  unpack_codes(*packed, 0, b, codes);
  return codes;
}

TEST(ScaleForRange, SymmetricFormula) {
  // max|.| / (2^(b-1) - 1).
  EXPECT_FLOAT_EQ(scale_for_range(-0.5f, 1.0f, Bitwidth::kInt8), 1.0f / 127.0f);
  EXPECT_FLOAT_EQ(scale_for_range(-2.0f, 1.0f, Bitwidth::kInt4), 2.0f / 7.0f);
}

TEST(ScaleForRange, Fp16IsIdentity) {
  EXPECT_FLOAT_EQ(scale_for_range(-3.0f, 3.0f, Bitwidth::kFp16), 1.0f);
}

TEST(ScaleForRange, DegenerateRange) {
  EXPECT_FLOAT_EQ(scale_for_range(0.0f, 0.0f, Bitwidth::kInt4), 1.0f);
}

TEST(CodeRange, MatchesBitwidths) {
  EXPECT_EQ(code_range(Bitwidth::kInt8), (std::pair<std::int32_t, std::int32_t>{-127, 127}));
  EXPECT_EQ(code_range(Bitwidth::kInt4), (std::pair<std::int32_t, std::int32_t>{-7, 7}));
  EXPECT_EQ(code_range(Bitwidth::kInt3), (std::pair<std::int32_t, std::int32_t>{-3, 3}));
}

TEST(Quantize, RoundTripErrorBoundedByScale) {
  // |x - dequant(quant(x))| <= scale/2: every value lies inside
  // [-max|x|, max|x|], so round-to-nearest never clamps.
  const auto w = random_weights(4096, 1);
  for (const Bitwidth b : {Bitwidth::kInt8, Bitwidth::kInt4, Bitwidth::kInt3}) {
    QuantParams p;
    std::vector<std::uint8_t> packed;
    pack_codes(w, b, &p, &packed);
    std::vector<float> rec(w.size());
    dequantize_packed(packed, 0, b, std::span<const QuantParams>(&p, 1), w.size(), rec);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_LE(std::abs(rec[i] - w[i]), p.scale * 0.5f + 1e-6f)
          << "bit=" << bits(b) << " i=" << i;
    }
  }
}

TEST(Quantize, ExtremesMapToCodeEndpoints) {
  const std::vector<float> w = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};
  QuantParams p;
  std::vector<std::uint8_t> packed;
  const auto codes = pack_codes(w, Bitwidth::kInt4, &p, &packed);
  EXPECT_FLOAT_EQ(p.scale, 1.0f / 7.0f);
  EXPECT_EQ(codes.front(), -7);
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes.back(), 7);
}

TEST(QuantizationMse, DecreasesWithBitwidth) {
  const auto w = random_weights(8192, 3);
  const double e3 = quantization_mse(w, Bitwidth::kInt3);
  const double e4 = quantization_mse(w, Bitwidth::kInt4);
  const double e8 = quantization_mse(w, Bitwidth::kInt8);
  EXPECT_GT(e3, e4);
  EXPECT_GT(e4, e8);
  EXPECT_GT(e8, 0.0);
}

TEST(QuantizationMse, MatchesUniformNoiseModel) {
  // For dense Gaussian weights, MSE ~ scale^2 / 12 (uniform rounding noise).
  const auto w = random_weights(200000, 5);
  const QuantParams p = oracle::params_reference(w, Bitwidth::kInt8);
  const double e = quantization_mse(w, Bitwidth::kInt8);
  const double predicted = p.scale * p.scale / 12.0;
  EXPECT_NEAR(e / predicted, 1.0, 0.15);
}

TEST(QuantizationMse, Fp16PathIsNearlyLossless) {
  // The fp16 round trip keeps 11 significant bits: relative error <= 2^-11.
  const auto w = random_weights(1024, 9);
  double mean_sq = 0.0;
  for (const float v : w) mean_sq += static_cast<double>(v) * v;
  mean_sq /= static_cast<double>(w.size());
  const double e = quantization_mse(w, Bitwidth::kFp16);
  EXPECT_GT(e, 0.0);
  EXPECT_LT(e, mean_sq * 1e-6);
}

TEST(ToFp16, RepresentableValuesExact) {
  EXPECT_EQ(to_fp16(1.0f), 1.0f);
  EXPECT_EQ(to_fp16(0.5f), 0.5f);
  EXPECT_EQ(to_fp16(-2.0f), -2.0f);
  EXPECT_EQ(to_fp16(0.0f), 0.0f);
}

TEST(ToFp16, OverflowClampsToMax) {
  EXPECT_EQ(to_fp16(1e6f), 65504.0f);
  EXPECT_EQ(to_fp16(-1e6f), -65504.0f);
}

TEST(ToFp16, MantissaPrecisionLoss) {
  // 2049 is not representable in fp16 (11-bit significand).
  const float v = to_fp16(2049.0f);
  EXPECT_NE(v, 2049.0f);
  EXPECT_NEAR(v, 2049.0f, 2.0f);
}

}  // namespace
}  // namespace sq::quant
