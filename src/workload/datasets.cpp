#include "workload/datasets.h"

#include <algorithm>
#include <cmath>

#include "tensor/rng.h"

namespace sq::workload {

const char* to_string(Dataset d) {
  switch (d) {
    case Dataset::kCnnDailyMail: return "CNN-DailyMail";
    case Dataset::kLoogle: return "LooGLE";
    case Dataset::kShareGpt: return "ShareGPT";
  }
  return "?";
}

namespace {

std::uint64_t clamp_u64(double v, std::uint64_t lo, std::uint64_t hi) {
  if (v < static_cast<double>(lo)) return lo;
  if (v > static_cast<double>(hi)) return hi;
  return static_cast<std::uint64_t>(v);
}

Request sample_cnn(sq::tensor::Rng& rng) {
  // News articles: prompts center ~780 tokens, summaries average 299
  // output tokens (paper Sec. VI-C cites 299 vs LooGLE's 63).
  Request r;
  r.prompt_tokens = clamp_u64(rng.lognormal(std::log(760.0), 0.45), 96, 2048);
  r.output_tokens = clamp_u64(rng.normal(299.0, 70.0), 48, 640);
  return r;
}

Request sample_loogle(sq::tensor::Rng& rng) {
  // Long-context documents: very long prompts, short answers (avg 63).
  Request r;
  r.prompt_tokens = clamp_u64(rng.lognormal(std::log(9200.0), 0.55), 2048, 32768);
  r.output_tokens = clamp_u64(rng.normal(63.0, 22.0), 8, 160);
  return r;
}

Request sample_sharegpt(sq::tensor::Rng& rng) {
  // Bucket mixture matching the paper's ShareGPT sample: <=128 14.20%,
  // 129-512 20.52%, 513-1024 14.24%, 1025-2048 14.53%, rest 36.51%.
  const double u = rng.uniform();
  Request r;
  if (u < 0.1420) {
    r.prompt_tokens = static_cast<std::uint64_t>(rng.range(16, 128));
  } else if (u < 0.1420 + 0.2052) {
    r.prompt_tokens = static_cast<std::uint64_t>(rng.range(129, 512));
  } else if (u < 0.1420 + 0.2052 + 0.1424) {
    r.prompt_tokens = static_cast<std::uint64_t>(rng.range(513, 1024));
  } else if (u < 0.1420 + 0.2052 + 0.1424 + 0.1453) {
    r.prompt_tokens = static_cast<std::uint64_t>(rng.range(1025, 2048));
  } else {
    r.prompt_tokens = clamp_u64(rng.lognormal(std::log(3600.0), 0.5), 2049, 16384);
  }
  r.output_tokens = clamp_u64(rng.lognormal(std::log(240.0), 0.6), 16, 1024);
  return r;
}

}  // namespace

Request clamp_to_context(Request r, std::uint64_t pos_s) {
  r.prompt_tokens = std::max<std::uint64_t>(1, std::min(r.prompt_tokens, pos_s - 1));
  r.output_tokens =
      std::max<std::uint64_t>(1, std::min(r.output_tokens, pos_s - r.prompt_tokens));
  return r;
}

std::vector<Request> sample(Dataset d, int count, std::uint64_t seed) {
  sq::tensor::Rng rng(sq::tensor::derive_seed(seed, static_cast<std::uint64_t>(d)));
  std::vector<Request> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    switch (d) {
      case Dataset::kCnnDailyMail: out.push_back(sample_cnn(rng)); break;
      case Dataset::kLoogle: out.push_back(sample_loogle(rng)); break;
      case Dataset::kShareGpt: out.push_back(sample_sharegpt(rng)); break;
    }
  }
  return out;
}

LengthBuckets bucketize(const std::vector<std::uint64_t>& lengths) {
  LengthBuckets b;
  b.labels = {"<=128", "129-512", "513-1024", "1025-2048", ">2048"};
  b.fractions.assign(5, 0.0);
  if (lengths.empty()) return b;
  for (const auto len : lengths) {
    std::size_t idx;
    if (len <= 128) idx = 0;
    else if (len <= 512) idx = 1;
    else if (len <= 1024) idx = 2;
    else if (len <= 2048) idx = 3;
    else idx = 4;
    b.fractions[idx] += 1.0;
  }
  for (auto& f : b.fractions) f /= static_cast<double>(lengths.size());
  return b;
}

std::pair<double, double> mean_lengths(const std::vector<Request>& reqs) {
  if (reqs.empty()) return {0.0, 0.0};
  double p = 0.0, o = 0.0;
  for (const auto& r : reqs) {
    p += static_cast<double>(r.prompt_tokens);
    o += static_cast<double>(r.output_tokens);
  }
  const auto n = static_cast<double>(reqs.size());
  return {p / n, o / n};
}

}  // namespace sq::workload
