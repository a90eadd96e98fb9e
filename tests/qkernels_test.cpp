// Byte-equality tests for the ISA-dispatched quantize/dequantize kernels
// against the scalar reference loops frozen in tests/oracles — the
// contract that lets every caller use the fast paths without auditing
// float behavior — and for the weight fingerprint: one value on every path
// and every fold split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "oracles/quant_reference.h"
#include "quant/qkernels.h"
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

/// `v` quantized as groups of `group` by quantize_pack: the params and
/// the packed bytes.
struct Packed {
  std::vector<QuantParams> params;
  std::vector<std::uint8_t> bytes;
};

Packed pack(const std::vector<float>& v, std::size_t group, Bitwidth b) {
  Packed p;
  p.params.resize((v.size() + group - 1) / group);
  p.bytes.resize(packed_size(v.size(), b));
  quantize_pack(v, group, b, p.params, p.bytes);
  return p;
}

TEST(QuantKernels, GroupScaleMatchesMinmaxElementAllIsas) {
  IsaGuard guard;
  // The group scale comes from the max |v| kernel; it must equal the scale
  // of the extrema std::minmax_element finds.  Sizes straddle the 8/16-lane
  // boundaries to exercise the vector tails; the signed-zero cases cannot
  // change max |v|, whichever zero a scan keeps.
  std::vector<std::vector<float>> cases;
  for (const std::size_t n : {1u, 3u, 7u, 8u, 15u, 16u, 17u, 64u, 257u}) {
    cases.push_back(random_values(n, 1000 + n));
  }
  cases.push_back({-0.0f, 0.0f, 1.0f});
  cases.push_back({-1.0f, 0.0f, -0.0f});
  cases.push_back({0.0f, 0.5f, -0.0f, 0.25f, 0.0f, 1.0f, -0.0f, 0.75f, 0.5f});
  cases.push_back(std::vector<float>(40, -0.0f));
  for (const auto& v : cases) {
    const QuantParams want = oracle::params_reference(v, Bitwidth::kInt4);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      const Packed got = pack(v, v.size(), Bitwidth::kInt4);
      EXPECT_EQ(std::memcmp(&got.params[0], &want, sizeof want), 0)
          << isa << " n=" << v.size();
    }
  }
}

TEST(QuantKernels, QuantizeDequantizeMatchReferenceAllIsas) {
  IsaGuard guard;
  for (const auto bw : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const std::size_t n : {1u, 9u, 16u, 33u, 250u}) {
      const std::vector<float> v =
          random_values(n, 31 * n + static_cast<std::uint64_t>(sq::hw::bits(bw)));
      const QuantParams p = oracle::params_reference(v, bw);
      std::vector<std::int32_t> ref_codes(n);
      oracle::quantize_reference(v, p, bw, ref_codes);
      std::vector<float> ref_deq(n);
      oracle::dequantize_reference(ref_codes, p, ref_deq);
      for (const char* isa : available_isas()) {
        ASSERT_TRUE(set_qkernel_isa(isa));
        const Packed got = pack(v, n, bw);
        std::vector<std::int32_t> codes(n);
        unpack_codes(got.bytes, 0, bw, codes);
        EXPECT_TRUE(bytes_equal(codes, ref_codes)) << isa << " n=" << n;
        std::vector<float> deq(n);
        dequantize_packed(got.bytes, 0, bw, got.params, n, deq);
        EXPECT_TRUE(bytes_equal(deq, ref_deq)) << isa << " n=" << n;
      }
    }
  }
}

/// The degenerate inputs: a constant group, huge outliers at both ends,
/// all zeros.
const std::vector<std::vector<float>>& degenerate_cases() {
  static const std::vector<std::vector<float>> cases = {
      std::vector<float>(20, 0.125f),
      {1e30f, -1e30f, 0.5f, -0.5f, 1e30f, -1e30f, 0.1f, -0.1f, 0.0f},
      std::vector<float>(17, 0.0f),
  };
  return cases;
}

TEST(QuantKernels, DegenerateGroupsAndClampEdges) {
  IsaGuard guard;
  for (const auto& v : degenerate_cases()) {
    const QuantParams p = oracle::params_reference(v, Bitwidth::kInt4);
    std::vector<std::int32_t> ref(v.size());
    oracle::quantize_reference(v, p, Bitwidth::kInt4, ref);
    std::vector<float> ref_deq(v.size());
    oracle::dequantize_reference(ref, p, ref_deq);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      const Packed got = pack(v, v.size(), Bitwidth::kInt4);
      std::vector<std::int32_t> codes(v.size());
      unpack_codes(got.bytes, 0, Bitwidth::kInt4, codes);
      EXPECT_TRUE(bytes_equal(codes, ref)) << isa;
      std::vector<float> deq(v.size());
      dequantize_packed(got.bytes, 0, Bitwidth::kInt4, got.params, v.size(), deq);
      EXPECT_TRUE(bytes_equal(deq, ref_deq)) << isa;
    }
  }
}

TEST(QuantKernels, QuantizationMseMatchesReferenceRoundTripAllIsas) {
  IsaGuard guard;
  // quantization_mse runs the packed path over one group; it must return
  // exactly the MSE of the reference round trip, summed in element order.
  const auto reference_mse = [](const std::vector<float>& v, Bitwidth b) {
    if (v.empty()) return 0.0;
    const QuantParams p = oracle::params_reference(v, b);
    std::vector<std::int32_t> codes(v.size());
    oracle::quantize_reference(v, p, b, codes);
    std::vector<float> rt(v.size());
    oracle::dequantize_reference(codes, p, rt);
    double acc = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double d = static_cast<double>(rt[i]) - static_cast<double>(v[i]);
      acc += d * d;
    }
    return acc / static_cast<double>(v.size());
  };
  std::vector<std::vector<float>> cases = degenerate_cases();
  cases.emplace_back();                                      // Empty span.
  cases.push_back(random_values(kPackChunk * 2 + 333, 77));  // Several chunks.
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const auto& v : cases) {
      const double want = reference_mse(v, b);
      for (const char* isa : available_isas()) {
        ASSERT_TRUE(set_qkernel_isa(isa));
        EXPECT_EQ(quantization_mse(v, b), want)
            << isa << " n=" << v.size() << " bits=" << sq::hw::bits(b);
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
    // Hand-rolled flat-group loop: per-group extrema, scalar reference
    // quantize + dequantize (what QTensor's constructor did before the
    // hoisted kernel path).
    const std::size_t gs = g == 0 ? w.cols() : g;
    std::vector<float> ref(flat.size());
    std::vector<std::int32_t> codes;
    for (std::size_t begin = 0; begin < flat.size(); begin += gs) {
      const std::size_t len = std::min(gs, flat.size() - begin);
      const auto chunk = flat.subspan(begin, len);
      const QuantParams p = oracle::params_reference(chunk, Bitwidth::kInt4);
      codes.resize(len);
      oracle::quantize_reference(chunk, p, Bitwidth::kInt4, codes);
      oracle::dequantize_reference(codes, p,
                                   std::span<float>(ref).subspan(begin, len));
    }
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      const QTensor fast(w, Bitwidth::kInt4, g, /*compute_mse=*/false);
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

/// Reference codes and params group by group: params_reference, then
/// quantize_reference — what quantize_pack must reproduce.
struct RefQuant {
  std::vector<std::int32_t> codes;
  std::vector<QuantParams> params;
  std::vector<float> deq;
};

RefQuant reference_quant(const std::vector<float>& v, std::size_t group,
                         Bitwidth b) {
  RefQuant r;
  r.codes.resize(v.size());
  r.deq.resize(v.size());
  for (std::size_t begin = 0; begin < v.size(); begin += group) {
    const std::size_t len = std::min(group, v.size() - begin);
    const auto chunk = std::span<const float>(v).subspan(begin, len);
    const auto codes = std::span<std::int32_t>(r.codes).subspan(begin, len);
    const QuantParams p = oracle::params_reference(chunk, b);
    oracle::quantize_reference(chunk, p, b, codes);
    oracle::dequantize_reference(codes, p,
                                 std::span<float>(r.deq).subspan(begin, len));
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
    for (const auto& [n, g0] : shapes) {
      const std::size_t g = g0 == 0 ? n : g0;  // 0: one group
      const std::vector<float> v = random_values(n, 7 * n + g);
      const RefQuant ref = reference_quant(v, g, b);
      std::vector<std::uint8_t> first;
      for (const char* isa : available_isas()) {
        ASSERT_TRUE(set_qkernel_isa(isa));
        const std::string where = std::string(isa) + " n=" + std::to_string(n) +
                                  " g=" + std::to_string(g) +
                                  " bits=" + std::to_string(sq::hw::bits(b));
        const Packed got = pack(v, g, b);
        ASSERT_EQ(got.params.size(), ref.params.size()) << where;
        for (std::size_t i = 0; i < got.params.size(); ++i) {
          EXPECT_EQ(std::memcmp(&got.params[i], &ref.params[i], sizeof(QuantParams)), 0)
              << where << " group " << i;
        }
        // Every ISA writes the same bytes.
        if (first.empty()) first = got.bytes;
        EXPECT_TRUE(bytes_equal(got.bytes, first)) << where;

        std::vector<std::int32_t> codes(n);
        unpack_codes(got.bytes, 0, b, codes);
        EXPECT_TRUE(bytes_equal(codes, ref.codes)) << where;
        std::vector<float> deq(n);
        dequantize_packed(got.bytes, 0, b, got.params, g, deq);
        EXPECT_TRUE(bytes_equal(deq, ref.deq)) << where;
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
    const RefQuant ref = reference_quant(v, g, b);
    const Packed packed = pack(v, g, b);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      for (const std::size_t begin : {0u, 1u, 3u, 8u, 13u, 100u, 195u, 202u}) {
        for (const std::size_t len : {0u, 1u, 5u, 8u, 9u, 40u, 300u}) {
          const std::size_t m = std::min(len, n - begin);
          std::vector<std::int32_t> codes(m);
          unpack_codes(packed.bytes, begin, b, codes);
          EXPECT_TRUE(spans_equal<std::int32_t>(
              std::span<const std::int32_t>(ref.codes).subspan(begin, m), codes))
              << isa << " begin=" << begin << " len=" << m;
          std::vector<float> deq(m);
          dequantize_packed(packed.bytes, begin, b, packed.params, g, deq);
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
    const RefQuant ref = reference_quant(flat, 64, b);
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_qkernel_isa(isa));
      const QTensor q(w, b, 64);
      std::vector<std::int32_t> codes(flat.size());
      unpack_codes(q.packed_codes(), 0, b, codes);
      EXPECT_TRUE(bytes_equal(codes, ref.codes)) << isa;
      const auto deq = q.dequantize();
      EXPECT_TRUE(spans_equal<float>(deq.data(), ref.deq)) << isa;
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
    const std::uint64_t want = fingerprint_of(v, 1, n);
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
        quantize_pack(v, group, Bitwidth::kInt4, params, packed, &fp);
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
