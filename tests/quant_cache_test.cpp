// Tests for the content-addressed quantized-layer cache and the runtime
// WeightPrep hook built on it: hit/miss semantics, key separation per
// quantization knob, bit-identity of cached results against direct QTensor
// construction, whole-model fan-out stats,
// concurrent access (TSan coverage), the two lookup orders (a miss that
// quantizes while fingerprinting, and a fingerprint-first probe), and
// changed-bits-only re-preparation after plan repair.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "quant/qkernels.h"
#include "quant/quant_cache.h"
#include "quant/qtensor.h"
#include "runtime/weight_prep.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sq::quant {
namespace {

using sq::hw::Bitwidth;
using sq::tensor::Tensor;

Tensor random_weights(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  sq::tensor::Rng rng(seed);
  Tensor t(rows, cols);
  for (auto& v : t.data()) v = static_cast<float>(rng.normal()) * 0.1f;
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(QuantCache, MissThenHitReturnsSharedTensor) {
  QuantCache cache;
  const Tensor w = random_weights(8, 32, 1);

  bool computed = false;
  const auto first = cache.get_or_quantize(w, Bitwidth::kInt4, 16, &computed);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(computed);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto second = cache.get_or_quantize(w, Bitwidth::kInt4, 16, &computed);
  EXPECT_FALSE(computed);
  EXPECT_EQ(second.get(), first.get());  // Same cached object, not a copy.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Identical content in a distinct allocation also hits (content-addressed).
  const Tensor copy(w.rows(), w.cols(), w.data());
  const auto third = cache.get_or_quantize(copy, Bitwidth::kInt4, 16);
  EXPECT_EQ(third.get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(QuantCache, EveryKnobSeparatesKeys) {
  QuantCache cache;
  const Tensor w = random_weights(4, 64, 2);
  const Tensor w2 = random_weights(4, 64, 3);

  // Baseline entry, then one variation per knob: each must miss.
  cache.get_or_quantize(w, Bitwidth::kInt4, 16);
  cache.get_or_quantize(w2, Bitwidth::kInt4, 16);  // weights
  cache.get_or_quantize(w, Bitwidth::kInt8, 16);   // bits
  cache.get_or_quantize(w, Bitwidth::kInt4, 32);   // group size
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 0u);

  // The same knobs again: one entry.
  bool computed = true;
  cache.get_or_quantize(w, Bitwidth::kInt4, 16, &computed);
  EXPECT_FALSE(computed);
}

TEST(QuantCache, CachedBitsMatchDirectConstruction) {
  QuantCache cache;
  const Tensor w = random_weights(16, 48, 4);

  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4}) {
    const auto cached = cache.get_or_quantize(w, b, 24);
    const QTensor direct(w, b, 24);
    EXPECT_TRUE(same_bits(cached->dequantize(), direct.dequantize()));
    EXPECT_EQ(cached->storage_bytes(), direct.storage_bytes());
  }
}

/// Codes and params of `got` equal a direct QTensor construction.
void expect_direct(const QTensor& got, const Tensor& w, Bitwidth b,
                   std::size_t group) {
  const QTensor direct(w, b, group);
  const auto codes = got.packed_codes(), want_codes = direct.packed_codes();
  ASSERT_EQ(codes.size(), want_codes.size());
  EXPECT_EQ(std::memcmp(codes.data(), want_codes.data(), codes.size()), 0);
  const auto params = got.params(), want_params = direct.params();
  ASSERT_EQ(params.size(), want_params.size());
  EXPECT_EQ(std::memcmp(params.data(), want_params.data(),
                        params.size() * sizeof(QuantParams)),
            0);
}

TEST(QuantCache, EveryLookupOrderMatchesDirectConstruction) {
  // 40 x 300 = 12000 floats: three fold chunks, the last one short.
  const Tensor w = random_weights(40, 300, 5);
  // Shares w's first chunk, so its lookup finds w's prefix digest and takes
  // the fingerprint-first order, then misses.
  Tensor twin = w;
  twin.data()[kPackChunk + 7] += 1.0f;
  for (const auto b : {Bitwidth::kInt3, Bitwidth::kInt4, Bitwidth::kInt8}) {
    for (const std::size_t group : {64u, 100u}) {
      SCOPED_TRACE(testing::Message() << bits(b) << " bits, group " << group);
      QuantCache cache;
      bool computed = false;

      // No digest held: the miss quantizes while it fingerprints.
      ASSERT_EQ(cache.prefix_digests(), 0u);
      const auto fused = cache.get_or_quantize(w, b, group, &computed);
      EXPECT_TRUE(computed);
      EXPECT_EQ(cache.misses(), 1u);
      EXPECT_EQ(cache.prefix_digests(), 1u);
      expect_direct(*fused, w, b, group);

      // Digest held: fingerprint first, then a hit.
      const auto hit = cache.get_or_quantize(w, b, group, &computed);
      EXPECT_FALSE(computed);
      EXPECT_EQ(hit.get(), fused.get());
      EXPECT_EQ(cache.hits(), 1u);

      // Digest held, full key new: fingerprint first, then a miss.
      const auto second = cache.get_or_quantize(twin, b, group, &computed);
      EXPECT_TRUE(computed);
      EXPECT_NE(second.get(), fused.get());
      EXPECT_EQ(cache.misses(), 2u);
      EXPECT_EQ(cache.prefix_digests(), 1u);  // The twin shared it.
      EXPECT_EQ(cache.size(), 2u);
      expect_direct(*second, twin, b, group);
    }
  }
}

TEST(QuantCache, ClearForgetsPrefixDigests) {
  QuantCache cache;
  const Tensor w = random_weights(8, 600, 6);
  const auto first = cache.get_or_quantize(w, Bitwidth::kInt4, 64);
  EXPECT_EQ(cache.prefix_digests(), 1u);
  cache.clear();
  EXPECT_EQ(cache.prefix_digests(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  // Back to the fused order: a miss, bit-identical to the first result.
  bool computed = false;
  const auto again = cache.get_or_quantize(w, Bitwidth::kInt4, 64, &computed);
  EXPECT_TRUE(computed);
  EXPECT_EQ(cache.prefix_digests(), 1u);
  EXPECT_TRUE(same_bits(again->dequantize(), first->dequantize()));
}

TEST(QuantCache, QuantizeModelFansOutAndReuses) {
  QuantCache cache;
  std::vector<Tensor> weights;
  for (std::size_t l = 0; l < 6; ++l) {
    weights.push_back(random_weights(8, 40, 100 + l));
  }
  std::vector<QuantJob> jobs;
  for (const auto& w : weights) {
    QuantJob job;
    job.weights = &w;
    job.bits = Bitwidth::kInt4;
    job.group_size = 20;
    jobs.push_back(job);
  }

  const auto stats = cache.quantize_model(jobs);
  ASSERT_EQ(stats.tensors.size(), jobs.size());
  EXPECT_EQ(stats.layers_quantized, jobs.size());
  EXPECT_EQ(stats.layers_reused, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_NE(stats.tensors[i], nullptr);
    const QTensor direct(weights[i], Bitwidth::kInt4, 20);
    EXPECT_TRUE(same_bits(stats.tensors[i]->dequantize(), direct.dequantize()));
  }

  const auto again = cache.quantize_model(jobs);
  EXPECT_EQ(again.layers_quantized, 0u);
  EXPECT_EQ(again.layers_reused, jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(again.tensors[i].get(), stats.tensors[i].get());
  }
}

TEST(QuantCache, ConcurrentAccessYieldsOneTensorPerKey) {
  QuantCache cache;
  const std::size_t kKeys = 4;
  std::vector<Tensor> weights;
  for (std::size_t k = 0; k < kKeys; ++k) {
    weights.push_back(random_weights(8, 32, 200 + k));
  }

  // Hammer the same handful of keys from many threads; every thread must
  // observe the same cached object per key (first insert wins).
  const std::size_t kThreads = 8;
  std::vector<std::vector<std::shared_ptr<const QTensor>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          seen[t].push_back(cache.get_or_quantize(weights[k], Bitwidth::kInt4, 16));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.size(), kKeys);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < seen[t].size(); ++i) {
      EXPECT_EQ(seen[t][i].get(), seen[0][i % kKeys].get());
    }
  }
}

TEST(QuantWeightPrep, PrepareSkipsFp16AndNullLayers) {
  QuantCache::global().clear();
  std::vector<Tensor> weights;
  for (std::size_t l = 0; l < 4; ++l) {
    weights.push_back(random_weights(8, 32, 300 + l));
  }
  const sq::runtime::WeightPrep prep(
      [&](int layer) -> const Tensor* {
        if (layer == 2) return nullptr;  // Layer without real weights.
        return &weights[static_cast<std::size_t>(layer)];
      });

  const std::vector<Bitwidth> bits{Bitwidth::kInt4, Bitwidth::kFp16,
                                   Bitwidth::kInt8, Bitwidth::kInt4};
  const auto stats = prep.prepare(bits);
  EXPECT_EQ(stats.layers_total, 4u);
  // Layer 1 is FP16 (nothing to pack) and layer 2 has no weights: only
  // layers 0 and 3 quantize.
  EXPECT_EQ(stats.layers_quantized, 2u);
  EXPECT_EQ(stats.layers_reused, 0u);

  const auto warm = prep.prepare(bits);
  EXPECT_EQ(warm.layers_quantized, 0u);
  EXPECT_EQ(warm.layers_reused, 2u);
}

TEST(QuantWeightPrep, ReprepareTouchesOnlyChangedBits) {
  QuantCache::global().clear();
  std::vector<Tensor> weights;
  for (std::size_t l = 0; l < 5; ++l) {
    weights.push_back(random_weights(8, 32, 400 + l));
  }
  const sq::runtime::WeightPrep prep(
      [&](int layer) { return &weights[static_cast<std::size_t>(layer)]; });

  const std::vector<Bitwidth> old_bits{Bitwidth::kInt4, Bitwidth::kInt4,
                                       Bitwidth::kInt8, Bitwidth::kFp16,
                                       Bitwidth::kInt4};
  prep.prepare(old_bits);

  // Plan repair changed layer 1 to 8-bit and layer 3 from FP16 to 4-bit;
  // layer 4 changed to FP16 (drops out).  Unchanged layers are not even
  // submitted, so the stats count only the two fresh quantizations.
  const std::vector<Bitwidth> new_bits{Bitwidth::kInt4, Bitwidth::kInt8,
                                       Bitwidth::kInt8, Bitwidth::kInt4,
                                       Bitwidth::kFp16};
  const auto stats = prep.reprepare(old_bits, new_bits);
  EXPECT_EQ(stats.layers_quantized, 2u);
  EXPECT_EQ(stats.layers_reused, 0u);

  // Repairing back to the original assignment changes layers 1, 3 and 4
  // again; layer 3 becomes FP16 (skipped) and layers 1 and 4 return to
  // bitwidths already in the cache — nothing is re-quantized.
  const auto back = prep.reprepare(new_bits, old_bits);
  EXPECT_EQ(back.layers_quantized, 0u);
  EXPECT_EQ(back.layers_reused, 2u);
}

}  // namespace
}  // namespace sq::quant
