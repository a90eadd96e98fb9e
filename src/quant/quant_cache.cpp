#include "quant/quant_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "quant/qkernels.h"

namespace sq::quant {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

std::size_t QuantKeyHash::operator()(const QuantKey& k) const {
  using sq::common::hash_mix;
  std::uint64_t h = hash_mix(0, k.weight_fp);
  h = hash_mix(h, static_cast<std::uint64_t>(bits(k.bits)));
  h = hash_mix(h, static_cast<std::uint64_t>(k.group_size));
  return static_cast<std::size_t>(h);
}

QuantCache::QuantCache(std::size_t max_entries)
    : cache_(max_entries), prefix_cap_(max_entries) {}

QuantCache& QuantCache::global() {
  static QuantCache cache;
  return cache;
}

void QuantCache::clear() {
  cache_.clear();
  const std::lock_guard<std::mutex> lk(prefix_mu_);
  prefixes_.clear();
}

std::size_t QuantCache::prefix_digests() const {
  const std::lock_guard<std::mutex> lk(prefix_mu_);
  return prefixes_.size();
}

bool QuantCache::may_hold(std::uint64_t prefix) const {
  const std::lock_guard<std::mutex> lk(prefix_mu_);
  return prefixes_.contains(prefix);
}

void QuantCache::note_held(std::uint64_t prefix) {
  const std::lock_guard<std::mutex> lk(prefix_mu_);
  if (prefixes_.size() >= prefix_cap_) prefixes_.clear();
  prefixes_.insert(prefix);
}

std::shared_ptr<const QTensor> QuantCache::get_or_quantize(
    const sq::tensor::Tensor& w, Bitwidth bits, std::size_t group_size,
    bool* computed) {
  QuantKey key;
  key.bits = bits;
  key.group_size = group_size;

  double quantize_us = 0.0;
  const auto quantize = [&](Fingerprint* fold) {
    const auto t0 = Clock::now();
    auto qt = std::make_shared<const QTensor>(w, bits, group_size,
                                              /*compute_mse=*/false, fold);
    quantize_us = elapsed_us(t0);
    return qt;
  };

  // Lookup order (quant_cache.h): the first chunk's fingerprint decides
  // whether this call can hit at all.
  const auto flat = w.data();
  Fingerprint fp;
  fp.fold(flat.first(std::min(flat.size(), kPackChunk)));
  key.weight_fp = fp.value(w.rows(), w.cols());
  const std::uint64_t prefix = QuantKeyHash{}(key);
  std::shared_ptr<const QTensor> fresh;
  if (may_hold(prefix)) {
    fp.fold(flat.subspan(fp.folded()));
  } else {
    fresh = quantize(&fp);
  }
  key.weight_fp = fp.value(w.rows(), w.cols());

  bool did_compute = false;
  auto result = cache_.get_or_compute(key, [&]() -> std::shared_ptr<const QTensor> {
    did_compute = true;
    return fresh != nullptr ? std::move(fresh) : quantize(nullptr);
  });
  if (did_compute) note_held(prefix);
  if (sq::obs::enabled()) {
    sq::obs::counter(did_compute ? "quant.cache.misses" : "quant.cache.hits").add();
    if (did_compute) {
      sq::obs::counter("quant.layers_quantized").add();
      sq::obs::histogram("quant.quantize.time_us", sq::obs::BucketLayout::kTimeUs)
          .observe(quantize_us);
    }
  }
  if (computed != nullptr) *computed = did_compute;
  return result;
}

QuantModelStats QuantCache::quantize_model(std::span<const QuantJob> jobs) {
  const auto t0 = Clock::now();
  QuantModelStats stats;
  stats.tensors.resize(jobs.size());
  std::atomic<std::size_t> quantized{0};
  sq::common::ThreadPool* pool = quant_pool();
  sq::common::parallel_for(pool, jobs.size(), [&](std::size_t i) {
    const QuantJob& job = jobs[i];
    bool computed = false;
    stats.tensors[i] =
        get_or_quantize(*job.weights, job.bits, job.group_size, &computed);
    if (computed) quantized.fetch_add(1, std::memory_order_relaxed);
  });
  stats.layers_quantized = quantized.load(std::memory_order_relaxed);
  stats.layers_reused = jobs.size() - stats.layers_quantized;
  if (sq::obs::enabled()) {
    sq::obs::histogram("quant.prep.time_us", sq::obs::BucketLayout::kTimeUs)
        .observe(elapsed_us(t0));
    const std::uint64_t h = hits(), m = misses();
    if (h + m > 0) {
      sq::obs::gauge("quant.cache.hit_rate")
          .set(static_cast<double>(h) / static_cast<double>(h + m));
    }
  }
  return stats;
}

}  // namespace sq::quant
