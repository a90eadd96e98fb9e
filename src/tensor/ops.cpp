#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/gemm.h"

namespace sq::tensor {

namespace {

/// Route to the blocked kernels only inside their measured win region
/// (src/tensor/gemm.h; results are bit-identical either way, so this is a
/// pure wall-clock knob).  Measured single-threaded on AVX-512: ≥4x for
/// every shape with m >= 48, k >= 48, n >= 128; below that the packed-B
/// panels and the scalar m/n-edge micro-tiles stop amortizing (e.g.
/// 512x512x96 runs 0.4x, 28x96x96 0.5x) while the wins shrink to <1.4x.
bool use_blocked(std::size_t m, std::size_t k, std::size_t n) {
  return m >= 48 && k >= 48 && n >= 128;
}

/// matmul_bt_small is a scalar dot-product chain (unvectorizable
/// without reassociation), so the blocked kernels win on smaller shapes
/// than for matmul: ≥1.2x from m, n >= 64 with k >= 96 (measured), versus
/// losses at 48x48x48 (0.44x) and below.
bool use_blocked_bt(std::size_t m, std::size_t k, std::size_t n) {
  return m >= 64 && k >= 96 && n >= 64;
}

/// matmul_bt below its gate: one scalar dot-product chain per element, the
/// accumulation order matmul_bt_blocked reproduces.
Tensor matmul_bt_small(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    auto arow = a.row(i);
    auto crow = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      auto brow = b.row(j);
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += arow[kk] * brow[kk];
      }
      crow[j] = acc;
    }
  }
  return c;
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows() && "matmul: inner dimensions must match");
  if (use_blocked(a.rows(), a.cols(), b.cols())) return matmul_blocked(a, b);
  // matmul_small is the plain i-k-j loop compiled at full vector width;
  // bit-identical, just faster on the shapes that stay below the gate.
  return matmul_small(a, b);
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.cols() && "matmul_bt: inner dimensions must match");
  if (use_blocked_bt(a.rows(), a.cols(), b.rows())) {
    return matmul_bt_blocked(a, b);
  }
  return matmul_bt_small(a, b);
}

Tensor transpose(const Tensor& a) {
  // The tiled transpose only pays off once the matrix outgrows L2.
  if (a.size() >= (std::size_t{1} << 15)) return transpose_blocked(a);
  Tensor t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t.at(j, i) = a.at(i, j);
    }
  }
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

void add_bias_inplace(Tensor& a, const Tensor& bias) {
  assert(bias.rows() == 1 && bias.cols() == a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) r[j] += bias[j];
  }
}

void scale_inplace(Tensor& a, float s) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] *= s;
}

void softmax_rows_inplace(Tensor& a) {
  // One traversal per stage: max, exp+sum fused, then a single multiply by
  // the hoisted reciprocal (no per-element divide).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    float mx = r.empty() ? 0.0f : r[0];
    for (float v : r) mx = std::max(mx, v);
    double sum = 0.0;
    for (auto& v : r) {
      v = std::exp(v - mx);
      sum += v;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (auto& v : r) v *= inv;
  }
}

Tensor layernorm_rows(const Tensor& a, const Tensor& gain, const Tensor& bias) {
  assert(gain.cols() == a.cols() && bias.cols() == a.cols());
  constexpr float kEps = 1e-5f;
  Tensor out(a.rows(), a.cols());
  const std::size_t n = a.cols();
  if (n == 0) return out;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    // Fused statistics pass: sum and sum-of-squares in one traversal, both
    // in double, then var = E[x^2] - mean^2 (clamped: the subtraction can
    // land a hair below zero for near-constant rows).
    double sum = 0.0, sumsq = 0.0;
    for (float v : r) {
      const double d = static_cast<double>(v);
      sum += d;
      sumsq += d * d;
    }
    const double mean = sum * inv_n;
    const double var = std::max(0.0, sumsq * inv_n - mean * mean);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + kEps));
    const float mean_f = static_cast<float>(mean);
    auto o = out.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      o[j] = (r[j] - mean_f) * inv_std * gain[j] + bias[j];
    }
  }
  return out;
}

void gelu_inplace(Tensor& a) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a[i];
    a[i] = 0.5f * x * (1.0f + std::tanh(kC * (x + 0.044715f * x * x * x)));
  }
}

void relu_inplace(Tensor& a) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(0.0f, a[i]);
}

double mse(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return a.size() == 0 ? 0.0 : acc / static_cast<double>(a.size());
}

double sum_squares(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  return acc;
}

double cross_entropy_rows(const Tensor& logits, std::span<const int> targets) {
  assert(targets.size() == logits.rows());
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    const int t = targets[i];
    if (t < 0 || static_cast<std::size_t>(t) >= logits.cols()) continue;
    auto r = logits.row(i);
    const float mx = *std::max_element(r.begin(), r.end());
    double sum = 0.0;
    for (float v : r) sum += std::exp(static_cast<double>(v - mx));
    const double logp = static_cast<double>(r[static_cast<std::size_t>(t)] - mx) - std::log(sum);
    total -= logp;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace sq::tensor
