// Tests for the group-quantized tensor storage format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "oracles/quant_reference.h"
#include "quant/qtensor.h"
#include "tensor/ops.h"

namespace sq::quant {
namespace {

using sq::hw::Bitwidth;
using sq::tensor::Tensor;

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  sq::tensor::Rng rng(seed);
  Tensor t(r, c);
  t.fill_normal(rng, 0.0f, 0.05f);
  return t;
}

TEST(QTensor, ShapePreserved) {
  const Tensor w = random_matrix(16, 32, 1);
  const QTensor q(w, Bitwidth::kInt4, 64);
  EXPECT_EQ(q.rows(), 16u);
  EXPECT_EQ(q.cols(), 32u);
  EXPECT_EQ(q.dequantize().rows(), 16u);
  EXPECT_EQ(q.dequantize().cols(), 32u);
}

TEST(QTensor, MseMatchesDequantizedError) {
  const Tensor w = random_matrix(32, 64, 2);
  const QTensor q(w, Bitwidth::kInt4, 64);
  const double reported = q.mse_vs_original();
  const double recomputed = sq::tensor::mse(q.dequantize(), w);
  EXPECT_NEAR(reported, recomputed, 1e-10);
}

TEST(QTensor, SmallerGroupsReduceError) {
  // Finer groups track local ranges better: MSE(group=32) <= MSE(group=whole).
  const Tensor w = random_matrix(64, 64, 3);
  const QTensor fine(w, Bitwidth::kInt4, 32);
  const QTensor coarse(w, Bitwidth::kInt4, 0);
  EXPECT_LE(fine.mse_vs_original(), coarse.mse_vs_original());
}

TEST(QTensor, StorageScalesWithBitwidth) {
  const Tensor w = random_matrix(64, 64, 4);
  const auto bytes_at = [&](Bitwidth b) {
    return QTensor(w, b, 128).storage_bytes();
  };
  const auto b16 = bytes_at(Bitwidth::kFp16);
  const auto b8 = bytes_at(Bitwidth::kInt8);
  const auto b4 = bytes_at(Bitwidth::kInt4);
  const auto b3 = bytes_at(Bitwidth::kInt3);
  EXPECT_GT(b16, b8);
  EXPECT_GT(b8, b4);
  EXPECT_GT(b4, b3);
  // INT8 ~ half of FP16 (plus small scale overhead).
  EXPECT_NEAR(static_cast<double>(b8) / static_cast<double>(b16), 0.5, 0.05);
  // INT4 ~ quarter.
  EXPECT_NEAR(static_cast<double>(b4) / static_cast<double>(b16), 0.25, 0.05);
}

TEST(QTensor, Fp16PassthroughIsNearLossless) {
  const Tensor w = random_matrix(8, 8, 5);
  const QTensor q(w, Bitwidth::kFp16);
  EXPECT_LT(q.mse_vs_original(), 1e-9);
}

TEST(QTensor, ErrorMonotoneInBitwidth) {
  const Tensor w = random_matrix(48, 48, 6);
  double prev = 0.0;
  for (const Bitwidth b : {Bitwidth::kInt8, Bitwidth::kInt4, Bitwidth::kInt3}) {
    const QTensor q(w, b, 64);
    EXPECT_GT(q.mse_vs_original(), prev);
    prev = q.mse_vs_original();
  }
}

// Groups are carved out of the flattened tensor, so the packing has three
// edge regimes the fast paths must honor: a partial tail group when
// group_size does not divide rows*cols, degenerate one-element groups, and
// a single group swallowing the whole tensor.  storage_bytes() accounting
// is pinned to its documented formula for each.

TEST(QTensor, NonDividingGroupSizeQuantizesTheTail) {
  // 3x7 = 21 values, groups of 5: four full groups plus a 1-element tail.
  const Tensor w = random_matrix(3, 7, 10);
  const QTensor q(w, Bitwidth::kInt4, 5);
  const Tensor deq = q.dequantize();
  ASSERT_EQ(deq.rows(), 3u);
  ASSERT_EQ(deq.cols(), 7u);
  // The tail element forms a group of its own: scale |v| / 7, code +-7,
  // so it reconstructs to within one rounding of the scale product.
  EXPECT_NEAR(deq.data()[20], w.data()[20], 1e-6);
  EXPECT_EQ(q.params().size(), 5u);
  EXPECT_FLOAT_EQ(q.params()[4].scale, std::abs(w.data()[20]) / 7.0f);
  // MSE accounting covers the tail group too.
  EXPECT_NEAR(q.mse_vs_original(), sq::tensor::mse(deq, w), 1e-10);
  // ceil(21 * 4 bits / 8) code bytes + ceil(21/5)=5 groups * fp16 scale.
  EXPECT_EQ(q.storage_bytes(), (21u * 4 + 7) / 8 + 5u * 2);
}

TEST(QTensor, OneElementGroupsReconstructNearExactly) {
  const Tensor w = random_matrix(4, 9, 11);
  // Each one-element group maps its value to code +-hi with scale |v|/hi:
  // the reconstruction keeps the sign and is near-exact at any bitwidth,
  // though not guaranteed bit-exact.
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt8}) {
    const QTensor q(w, b, 1);
    const Tensor deq = q.dequantize();
    for (std::size_t i = 0; i < w.data().size(); ++i) {
      EXPECT_NEAR(deq.data()[i], w.data()[i], 1e-6) << "element " << i;
    }
  }
  // Parameter overhead dominates: 36 groups * 2 bytes + ceil(36*3/8).
  EXPECT_EQ(QTensor(w, Bitwidth::kInt3, 1).storage_bytes(), (36u * 3 + 7) / 8 + 36u * 2);
}

TEST(QTensor, GroupLargerThanTensorUsesOneGroup) {
  const Tensor w = random_matrix(3, 7, 12);
  const QTensor q(w, Bitwidth::kInt8, 1000);
  // One group over all 21 values: one fp16 scale in the accounting.
  EXPECT_EQ(q.storage_bytes(), 21u + 1u * 2);
  EXPECT_NEAR(q.mse_vs_original(), sq::tensor::mse(q.dequantize(), w), 1e-10);
}

TEST(QTensor, GroupZeroMeansOneGroupPerRow) {
  const Tensor w = random_matrix(5, 12, 13);
  const QTensor per_row(w, Bitwidth::kInt4, 0);
  const QTensor explicit_cols(w, Bitwidth::kInt4, 12);
  // group_size=0 normalizes to cols: identical packing and accounting.
  EXPECT_EQ(per_row.storage_bytes(), explicit_cols.storage_bytes());
  EXPECT_EQ(per_row.storage_bytes(), (60u * 4 + 7) / 8 + 5u * 2);
  const Tensor a = per_row.dequantize();
  const Tensor b = explicit_cols.dequantize();
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.data().size() * sizeof(float)));
}

// ---- Bit-packed code storage ---------------------------------------------
// These tests decode packed_codes() with their own bit-by-bit reader of the
// documented format (qtensor.h), independent of the library's decoder.

/// The code of element i: bits [i*b, i*b + b) of the little-endian
/// bitstream, plus lo.
std::int32_t code_at(const QTensor& q, std::size_t i) {
  const int b = sq::hw::bits(q.bitwidth());
  const auto packed = q.packed_codes();
  std::int32_t u = 0;
  for (int t = 0; t < b; ++t) {
    const std::size_t bit = i * static_cast<std::size_t>(b) + static_cast<std::size_t>(t);
    u |= ((packed[bit / 8] >> (bit % 8)) & 1) << t;
  }
  return u + code_range(q.bitwidth()).first;
}

/// Codes of the scalar reference applied group by group (what QTensor
/// stores).
std::vector<std::int32_t> reference_codes(const Tensor& w, Bitwidth b,
                                          std::size_t group) {
  const auto flat = w.data();
  const std::size_t gs = group == 0 ? w.cols() : group;
  std::vector<std::int32_t> codes(flat.size());
  for (std::size_t begin = 0; begin < flat.size(); begin += gs) {
    const std::size_t len = std::min(gs, flat.size() - begin);
    const auto chunk = flat.subspan(begin, len);
    oracle::quantize_reference(chunk, oracle::params_reference(chunk, b), b,
                               std::span<std::int32_t>(codes).subspan(begin, len));
  }
  return codes;
}

void expect_codes_round_trip(const Tensor& w, Bitwidth b, std::size_t group) {
  const QTensor q(w, b, group);
  const auto ref = reference_codes(w, b, group);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(code_at(q, i), ref[i])
        << "element " << i << " bits " << sq::hw::bits(b) << " group " << group;
  }
}

TEST(QTensor, PackedCodeBytesAreCeilNBitsOver8) {
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{3, 7},
                               {4, 9}, {5, 16}, {1, 1}, {16, 33}}) {
      const Tensor w = random_matrix(r, c, 20 + r * c);
      const QTensor q(w, b, 8);
      const std::size_t n = r * c;
      const std::size_t want = (n * static_cast<std::size_t>(sq::hw::bits(b)) + 7) / 8;
      EXPECT_EQ(q.packed_codes().size(), want) << n << " codes";
      // The packed bytes are the code part of storage_bytes().
      EXPECT_EQ(q.storage_bytes(), want + (n + 7) / 8 * 2);
    }
  }
  const QTensor fp16(random_matrix(4, 4, 21), Bitwidth::kFp16);
  EXPECT_TRUE(fp16.packed_codes().empty());
}

TEST(QTensor, EmptyTensorPacksNothing) {
  // No rows, and no columns with the one-group-per-row default.
  for (const Tensor& empty : {Tensor(0, 5), Tensor(3, 0)}) {
    for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
      const QTensor q(empty, b, 0);
      EXPECT_TRUE(q.packed_codes().empty());
      EXPECT_TRUE(q.params().empty());
      EXPECT_EQ(q.storage_bytes(), 0u);
      EXPECT_EQ(q.dequantize().rows(), empty.rows());
      EXPECT_EQ(q.mse_vs_original(), 0.0);
    }
  }
}

TEST(QTensor, Int3CodesCrossingByteBoundariesRoundTrip) {
  // 21 and 65 codes: not multiples of 8, so the stream ends mid-unit, and
  // codes 2, 5, 10, 13, ... straddle two bytes.
  expect_codes_round_trip(random_matrix(3, 7, 30), Bitwidth::kInt3, 64);
  expect_codes_round_trip(random_matrix(5, 13, 31), Bitwidth::kInt3, 16);
  // The unused high bits of the last byte are zero: 21 * 3 = 63 bits.
  const QTensor q(random_matrix(3, 7, 30), Bitwidth::kInt3, 64);
  EXPECT_EQ(q.packed_codes().back() >> 7, 0);
}

TEST(QTensor, NonDividingAndWholeRowGroupsRoundTrip) {
  const Tensor w = random_matrix(7, 11, 32);  // 77 codes
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const std::size_t group : {5u, 13u, 0u, 1000u}) {
      expect_codes_round_trip(w, b, group);
    }
  }
}

TEST(QTensor, ExtremeCodesRoundTrip) {
  // One group holding the range ends plus interior values: -1 and 1 land
  // on lo and hi of every code range.
  const std::vector<float> v = {-1.0f, 0.25f, 1.0f, -0.5f, 0.0f, 0.75f,
                                -1.0f, 1.0f,  0.5f, -0.25f, 1.0f};
  const Tensor w(1, v.size(), v);
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    const QTensor q(w, b, 0);
    const auto [lo, hi] = code_range(b);
    EXPECT_EQ(code_at(q, 0), lo);
    EXPECT_EQ(code_at(q, 2), hi);
    EXPECT_EQ(code_at(q, 6), lo);
    EXPECT_EQ(code_at(q, 10), hi);
    EXPECT_EQ(code_at(q, 4), 0);
    expect_codes_round_trip(w, b, 0);
  }
  const QTensor q8(w, Bitwidth::kInt8, 0);
  EXPECT_EQ(code_at(q8, 0), -127);
  EXPECT_EQ(q8.packed_codes()[0], 0);    // offset -127 - lo
  EXPECT_EQ(q8.packed_codes()[2], 254);  // offset 127 - lo
}

}  // namespace
}  // namespace sq::quant
