// Byte-equality tests for the ISA-dispatched quantize/dequantize kernels
// against the scalar reference loops — the contract that lets every
// caller use the fast paths without auditing float behavior — and for the
// weight fingerprint: one value on every path and every fold split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "quant/qkernels.h"
#include "quant/quant_cache.h"
#include "quant/qtensor.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sq::quant {
namespace {

using sq::hw::Bitwidth;

/// ISA levels this machine can actually run (always includes "base").
std::vector<const char*> available_isas() {
  std::vector<const char*> isas{"base"};
  for (const char* name : {"avx2", "avx512"}) {
    if (set_qkernel_isa(name)) isas.push_back(name);
  }
  set_qkernel_isa("auto");
  return isas;
}

struct IsaGuard {
  ~IsaGuard() { set_qkernel_isa("auto"); }
};

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  sq::tensor::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal()) * 0.1f;
  return v;
}

template <typename T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(QuantKernels, ForcingUnknownOrUnsupportedIsaFails) {
  IsaGuard guard;
  EXPECT_FALSE(set_qkernel_isa("neon"));
  EXPECT_TRUE(set_qkernel_isa("base"));
  EXPECT_STREQ(qkernel_isa(), "base");
  EXPECT_TRUE(set_qkernel_isa("auto"));
}

TEST(QuantKernels, MinmaxMatchesMinmaxElementAllIsas) {
  IsaGuard guard;
  // Sizes straddle the 8/16-lane boundaries to exercise the vector tails.
  for (const std::size_t n : {1u, 3u, 7u, 8u, 15u, 16u, 17u, 64u, 257u}) {
    const std::vector<float> v = random_values(n, 1000 + n);
    const auto [mn_it, mx_it] = std::minmax_element(v.begin(), v.end());
    const float ref_mn = *mn_it, ref_mx = *mx_it;
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      float mn = 0.0f, mx = 0.0f;
      minmax(v, &mn, &mx);
      EXPECT_EQ(std::memcmp(&mn, &ref_mn, 4), 0) << isa << " n=" << n;
      EXPECT_EQ(std::memcmp(&mx, &ref_mx, 4), 0) << isa << " n=" << n;
    }
  }
}

TEST(QuantKernels, MinmaxPreservesSignedZeroScanOrder) {
  IsaGuard guard;
  // minmax_element keeps the FIRST minimum and LAST maximum; when the
  // extremum is 0.0 that pins which zero's sign bit survives.  The vector
  // paths must resolve ties the same way — the sign of `zero` feeds the
  // asymmetric dequantization of code 0.
  const std::vector<std::vector<float>> cases = {
      {-0.0f, 0.0f, 1.0f},
      {0.0f, -0.0f, 1.0f},
      {-1.0f, 0.0f, -0.0f},
      {-1.0f, -0.0f, 0.0f},
      {0.0f, 0.5f, -0.0f, 0.25f, 0.0f, 1.0f, -0.0f, 0.75f, 0.5f},  // > 8 lanes
      std::vector<float>(40, -0.0f),
  };
  for (const auto& v : cases) {
    const auto [mn_it, mx_it] = std::minmax_element(v.begin(), v.end());
    const float ref_mn = *mn_it, ref_mx = *mx_it;
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      float mn = 0.0f, mx = 0.0f;
      minmax(v, &mn, &mx);
      EXPECT_EQ(std::memcmp(&mn, &ref_mn, 4), 0) << isa;
      EXPECT_EQ(std::memcmp(&mx, &ref_mx, 4), 0) << isa;
    }
  }
}

TEST(QuantKernels, QuantizeDequantizeMatchReferenceAllIsas) {
  IsaGuard guard;
  for (const auto bw : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const auto scheme : {Scheme::kSymmetric, Scheme::kAsymmetric}) {
      for (const std::size_t n : {1u, 9u, 16u, 33u, 250u}) {
        const std::vector<float> v =
            random_values(n, 31 * n + static_cast<std::uint64_t>(sq::hw::bits(bw)));
        const QuantParams p = compute_params(v, bw, scheme);
        std::vector<std::int32_t> ref_codes(n);
        quantize_reference(v, p, bw, scheme, ref_codes);
        std::vector<float> ref_deq(n);
        dequantize_reference(ref_codes, p, ref_deq);
        const auto [lo, hi] = code_range(bw, scheme);
        for (const char* isa : available_isas()) {
          ASSERT_TRUE(set_qkernel_isa(isa));
          std::vector<std::int32_t> codes(n);
          quantize_codes(v, p, lo, hi, codes);
          EXPECT_TRUE(bytes_equal(codes, ref_codes)) << isa << " n=" << n;
          std::vector<float> deq(n);
          dequantize_codes(codes, p, deq);
          EXPECT_TRUE(bytes_equal(deq, ref_deq)) << isa << " n=" << n;
        }
      }
    }
  }
}

TEST(QuantKernels, PublicQuantizeRoutesThroughKernelsBitIdentically) {
  IsaGuard guard;
  const std::vector<float> v = random_values(129, 99);
  const QuantParams p = compute_params(v, Bitwidth::kInt4, Scheme::kAsymmetric);
  std::vector<std::int32_t> ref(v.size());
  quantize_reference(v, p, Bitwidth::kInt4, Scheme::kAsymmetric, ref);
  for (const char* isa : available_isas()) {
    ASSERT_TRUE(set_qkernel_isa(isa));
    std::vector<std::int32_t> got(v.size());
    quantize(v, p, Bitwidth::kInt4, Scheme::kAsymmetric, Rounding::kDeterministic,
             nullptr, got);
    EXPECT_TRUE(bytes_equal(got, ref)) << isa;
  }
}

TEST(QuantKernels, DegenerateGroupsAndClampEdges) {
  IsaGuard guard;
  // Constant group (span 0 -> scale 1), huge outlier (clamps at both code
  // ends), all-zero input.
  const std::vector<std::vector<float>> cases = {
      std::vector<float>(20, 0.125f),
      {1e30f, -1e30f, 0.5f, -0.5f, 1e30f, -1e30f, 0.1f, -0.1f, 0.0f},
      std::vector<float>(17, 0.0f),
  };
  for (const auto& v : cases) {
    for (const auto scheme : {Scheme::kSymmetric, Scheme::kAsymmetric}) {
      const QuantParams p = compute_params(v, Bitwidth::kInt4, scheme);
      std::vector<std::int32_t> ref(v.size());
      quantize_reference(v, p, Bitwidth::kInt4, scheme, ref);
      std::vector<float> ref_deq(v.size());
      dequantize_reference(ref, p, ref_deq);
      const auto [lo, hi] = code_range(Bitwidth::kInt4, scheme);
      for (const char* isa : available_isas()) {
        ASSERT_TRUE(set_qkernel_isa(isa));
        std::vector<std::int32_t> codes(v.size());
        quantize_codes(v, p, lo, hi, codes);
        EXPECT_TRUE(bytes_equal(codes, ref)) << isa;
        std::vector<float> deq(v.size());
        dequantize_codes(codes, p, deq);
        EXPECT_TRUE(bytes_equal(deq, ref_deq)) << isa;
      }
    }
  }
}

TEST(QuantKernels, QTensorHoistedPathMatchesLegacyGroupLoop) {
  IsaGuard guard;
  sq::tensor::Rng rng(5);
  sq::tensor::Tensor w(24, 70);
  w.fill_normal(rng, 0.0f, 0.1f);
  const auto flat = w.data();
  for (const std::size_t g : {1u, 7u, 64u, 0u}) {
    // Hand-rolled legacy flat-group loop: per-group minmax scan, scalar
    // reference quantize + dequantize (what QTensor's constructor did
    // before the hoisted kernel path).
    const std::size_t gs = g == 0 ? w.cols() : g;
    std::vector<float> ref(flat.size());
    std::vector<std::int32_t> codes;
    for (std::size_t begin = 0; begin < flat.size(); begin += gs) {
      const std::size_t len = std::min(gs, flat.size() - begin);
      const auto chunk = flat.subspan(begin, len);
      const auto [mn_it, mx_it] = std::minmax_element(chunk.begin(), chunk.end());
      const QuantParams p =
          params_from_range(*mn_it, *mx_it, Bitwidth::kInt4, Scheme::kAsymmetric);
      codes.resize(len);
      quantize_reference(chunk, p, Bitwidth::kInt4, Scheme::kAsymmetric, codes);
      dequantize_reference(codes, p,
                           std::span<float>(ref).subspan(begin, len));
    }
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      const QTensor fast(w, Bitwidth::kInt4, Scheme::kAsymmetric,
                         Rounding::kDeterministic, g, nullptr,
                         /*compute_mse=*/false);
      const auto got = fast.dequantize();
      ASSERT_EQ(got.data().size(), ref.size());
      EXPECT_EQ(std::memcmp(got.data().data(), ref.data(),
                            ref.size() * sizeof(float)),
                0)
          << isa << " g=" << g;
    }
  }
}

// ---- Packed storage: quantize_pack / unpack_codes / dequantize_packed ----

/// Reference codes and params group by group: compute_params, then
/// quantize_reference (deterministic) or the scalar stochastic quantize fed
/// by Rng(seed) — what quantize_pack must reproduce.
struct RefQuant {
  std::vector<std::int32_t> codes;
  std::vector<QuantParams> params;
  std::vector<float> deq;
};

RefQuant reference_quant(const std::vector<float>& v, std::size_t group,
                         Bitwidth b, Scheme scheme, Rounding rounding,
                         std::uint64_t seed) {
  RefQuant r;
  r.codes.resize(v.size());
  r.deq.resize(v.size());
  sq::tensor::Rng rng(seed);
  for (std::size_t begin = 0; begin < v.size(); begin += group) {
    const std::size_t len = std::min(group, v.size() - begin);
    const auto chunk = std::span<const float>(v).subspan(begin, len);
    const auto codes = std::span<std::int32_t>(r.codes).subspan(begin, len);
    const auto [mn, mx] = std::minmax_element(chunk.begin(), chunk.end());
    const QuantParams p = params_from_range(*mn, *mx, b, scheme);
    if (rounding == Rounding::kDeterministic) {
      quantize_reference(chunk, p, b, scheme, codes);
    } else {
      quantize(chunk, p, b, scheme, rounding, &rng, codes);
    }
    dequantize_reference(codes, p, std::span<float>(r.deq).subspan(begin, len));
    r.params.push_back(p);
  }
  return r;
}

template <typename T>
bool spans_equal(std::span<const T> a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(QuantKernels, PackedRoundTripMatchesReferenceAllIsas) {
  IsaGuard guard;
  // Sizes straddle the 8-code units and the 16/32-lane loops; 9000 codes
  // with 1000-code groups cross the write path's 4096-code chunks mid-group.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1},   {7, 3},   {8, 8},   {9, 4},    {17, 5},   {33, 64},
      {64, 64}, {250, 7}, {257, 1}, {1000, 0}, {9000, 1000}, {8200, 8192}};
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const auto scheme : {Scheme::kSymmetric, Scheme::kAsymmetric}) {
      for (const auto rounding : {Rounding::kDeterministic, Rounding::kStochastic}) {
        for (const auto& [n, g0] : shapes) {
          const std::size_t g = g0 == 0 ? n : g0;  // 0: one group
          const std::vector<float> v = random_values(n, 7 * n + g);
          const RefQuant ref = reference_quant(v, g, b, scheme, rounding, 11);
          std::vector<std::uint8_t> first;
          for (const char* isa : available_isas()) {
            ASSERT_TRUE(set_qkernel_isa(isa));
            const std::string where = std::string(isa) + " n=" + std::to_string(n) +
                                      " g=" + std::to_string(g) +
                                      " bits=" + std::to_string(sq::hw::bits(b));
            std::vector<QuantParams> params((n + g - 1) / g);
            std::vector<std::uint8_t> packed(packed_size(n, b));
            sq::tensor::Rng rng(11);
            quantize_pack(v, g, b, scheme, rounding, &rng, params, packed);
            ASSERT_EQ(params.size(), ref.params.size()) << where;
            for (std::size_t i = 0; i < params.size(); ++i) {
              EXPECT_EQ(std::memcmp(&params[i], &ref.params[i], sizeof(QuantParams)), 0)
                  << where << " group " << i;
            }
            // Every ISA writes the same bytes.
            if (first.empty()) first = packed;
            EXPECT_TRUE(bytes_equal(packed, first)) << where;

            std::vector<std::int32_t> codes(n);
            unpack_codes(packed, 0, b, scheme, codes);
            EXPECT_TRUE(bytes_equal(codes, ref.codes)) << where;
            std::vector<float> deq(n);
            dequantize_packed(packed, 0, b, scheme, params, g, deq);
            EXPECT_TRUE(bytes_equal(deq, ref.deq)) << where;
          }
        }
      }
    }
  }
}

TEST(QuantKernels, UnpackAndDequantizeAnySubrangeAllIsas) {
  IsaGuard guard;
  // The matmul B-panel filler decodes row segments that start and end
  // anywhere, including mid-unit and mid-group.
  const std::size_t n = 203, g = 13;
  const std::vector<float> v = random_values(n, 5);
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    const RefQuant ref =
        reference_quant(v, g, b, Scheme::kSymmetric, Rounding::kDeterministic, 0);
    std::vector<QuantParams> params((n + g - 1) / g);
    std::vector<std::uint8_t> packed(packed_size(n, b));
    quantize_pack(v, g, b, Scheme::kSymmetric, Rounding::kDeterministic, nullptr,
                  params, packed);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      for (const std::size_t begin : {0u, 1u, 3u, 8u, 13u, 100u, 195u, 202u}) {
        for (const std::size_t len : {0u, 1u, 5u, 8u, 9u, 40u, 300u}) {
          const std::size_t m = std::min(len, n - begin);
          std::vector<std::int32_t> codes(m);
          unpack_codes(packed, begin, b, Scheme::kSymmetric, codes);
          EXPECT_TRUE(spans_equal<std::int32_t>(
              std::span<const std::int32_t>(ref.codes).subspan(begin, m), codes))
              << isa << " begin=" << begin << " len=" << m;
          std::vector<float> deq(m);
          dequantize_packed(packed, begin, b, Scheme::kSymmetric, params, g, deq);
          EXPECT_TRUE(spans_equal<float>(
              std::span<const float>(ref.deq).subspan(begin, m), deq))
              << isa << " begin=" << begin << " len=" << m;
        }
      }
    }
  }
}

TEST(QuantKernels, QTensorPackedCodesMatchReferenceAllIsas) {
  IsaGuard guard;
  sq::tensor::Rng wrng(3);
  sq::tensor::Tensor w(19, 45);  // 855 codes: not a multiple of 8
  w.fill_normal(wrng, 0.0f, 0.1f);
  const std::vector<float> flat(w.data().begin(), w.data().end());
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const auto scheme : {Scheme::kSymmetric, Scheme::kAsymmetric}) {
      for (const auto rounding : {Rounding::kDeterministic, Rounding::kStochastic}) {
        const RefQuant ref = reference_quant(flat, 64, b, scheme, rounding, 17);
        for (const char* isa : available_isas()) {
          ASSERT_TRUE(set_qkernel_isa(isa));
          sq::tensor::Rng rng(17);
          const QTensor q(w, b, scheme, rounding, 64, &rng);
          std::vector<std::int32_t> codes(flat.size());
          unpack_codes(q.packed_codes(), 0, b, scheme, codes);
          EXPECT_TRUE(bytes_equal(codes, ref.codes)) << isa;
          const auto deq = q.dequantize();
          EXPECT_TRUE(spans_equal<float>(deq.data(), ref.deq)) << isa;
        }
      }
    }
  }
}


// ---- Weight fingerprint ---------------------------------------------------

/// Lengths around a stripe (16 floats), a block (256) and a chunk (4096),
/// and one long odd length.
constexpr std::size_t kFpLengths[] = {1,    15,   16,   17,   255,  256,
                                      257,  4095, 4096, 4097, 1000003};

std::uint64_t fingerprint_of(std::span<const float> v, std::size_t rows,
                             std::size_t cols) {
  Fingerprint fp;
  fp.fold(v);
  return fp.value(rows, cols);
}

TEST(QuantKernels, FingerprintIsTheSameOnEveryIsa) {
  IsaGuard guard;
  for (const std::size_t n : kFpLengths) {
    const std::vector<float> v = random_values(n, 40 + n);
    ASSERT_TRUE(set_qkernel_isa("base"));
    const std::uint64_t want = fingerprint_of(v, 1, n);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      EXPECT_EQ(fingerprint_of(v, 1, n), want) << isa << " n=" << n;
    }
  }
}

TEST(QuantKernels, ChunkedFoldEqualsOneShotFingerprint) {
  IsaGuard guard;
  for (const std::size_t n : {1u, 15u, 16u, 17u, 4095u, 4096u, 4097u, 1000003u}) {
    const std::vector<float> v = random_values(n, 50 + n);
    const sq::tensor::Tensor w(1, n, v);
    const std::uint64_t want = weight_fingerprint(w);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      // Folded in blocks and in chunks, as a lookup and quantize_pack do.
      for (const std::size_t step : {Fingerprint::kBlockFloats, kPackChunk}) {
        Fingerprint fp;
        for (std::size_t at = 0; at < n; at += step) {
          fp.fold(std::span<const float>(v).subspan(at, std::min(step, n - at)));
        }
        EXPECT_EQ(fp.folded(), n);
        EXPECT_EQ(fp.value(1, n), want) << isa << " n=" << n << " step=" << step;
      }
      // The first chunk folded up front, the rest inside quantize_pack,
      // whose chunks of whole groups do not line up with the fold's grid
      // when the group size does not divide kPackChunk.
      for (const std::size_t group : {64u, 100u}) {
        Fingerprint fp;
        fp.fold(std::span<const float>(v).first(std::min(n, kPackChunk)));
        std::vector<QuantParams> params((n + group - 1) / group);
        std::vector<std::uint8_t> packed(packed_size(n, Bitwidth::kInt4));
        quantize_pack(v, group, Bitwidth::kInt4, Scheme::kSymmetric,
                      Rounding::kDeterministic, nullptr, params, packed, &fp);
        EXPECT_EQ(fp.folded(), n);
        EXPECT_EQ(fp.value(1, n), want) << isa << " n=" << n << " group=" << group;
      }
    }
  }
}

TEST(QuantKernels, FingerprintSeesEveryBitAndTheShape) {
  const std::size_t rows = 96, cols = 128;  // 12288 floats: three chunks.
  const std::vector<float> v = random_values(rows * cols, 60);
  const std::uint64_t base = fingerprint_of(v, rows, cols);

  const auto flipped = [&](std::size_t byte, int bit) {
    std::vector<float> u = v;
    auto* bytes = reinterpret_cast<unsigned char*>(u.data());
    bytes[byte] ^= static_cast<unsigned char>(1u << bit);
    return fingerprint_of(u, rows, cols);
  };
  EXPECT_NE(flipped(0, 0), base);                       // First chunk.
  EXPECT_NE(flipped(1000, 5), base);                    // First chunk.
  EXPECT_NE(flipped(v.size() * sizeof(float) - 1, 7), base);  // Last byte.
  // The same bytes read as the transposed shape.
  EXPECT_NE(fingerprint_of(v, cols, rows), base);
  // Two stripes trading places, within one block and across blocks.
  const auto swapped = [&](std::size_t a, std::size_t b) {
    std::vector<float> u = v;
    std::swap_ranges(u.begin() + static_cast<std::ptrdiff_t>(a * 16),
                     u.begin() + static_cast<std::ptrdiff_t>(a * 16 + 16),
                     u.begin() + static_cast<std::ptrdiff_t>(b * 16));
    return fingerprint_of(u, rows, cols);
  };
  EXPECT_NE(swapped(0, 1), base);
  EXPECT_NE(swapped(3, 16 + 3), base);
}

}  // namespace
}  // namespace sq::quant
