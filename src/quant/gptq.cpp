// GPTQ with lazy blocked updates (Frantar et al.'s blocking trick).
//
// The column-wise OBQ sweep touches the full trailing matrix once per
// pivot; the blocked sweep batches all trailing-row work per
// `obq_block`-column block and runs it in parallel over rows.  Bit-
// identity with the frozen reference (gptq_quantize_reference) holds
// because every per-element update chain — rounding-error feedback into
// `work`, Schur elimination of Hinv — executes in ascending pivot order
// with the exact reference arithmetic:
//
//  * Column i of a trailing row is only ever updated by pivots i' < i, so
//    its value at the end of a block equals its value at step i — the
//    pivot factor the reference would have read.  Inside a block those
//    factors are reconstructed by replaying the (ascending) in-block
//    subtraction chain before use.
//  * The trailing part of in-block row i is frozen after step i (later
//    in-block pivots only touch rows below themselves), so the delayed
//    trailing Schur reads the same hinv[i][k] values the reference read.
//  * Per-pivot error vectors and diagonals are saved verbatim, and all
//    delayed subtractions apply in ascending pivot order per element.
//
// This TU is compiled with -ffp-contract=off (CMakeLists.txt): FMA
// contraction inside the update chains would break the byte equality.
#include "quant/gptq.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "quant/qkernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace sq::quant {

namespace {

using sq::tensor::Tensor;

// ---- Frozen scalar reference path ---------------------------------------
// Byte-for-byte the pre-optimization implementation; the fast paths below
// are tested against it.  Do not "improve" these loops.

/// Dense SPD inverse via scalar Cholesky, column-by-column solves.
std::vector<double> spd_inverse_reference(const std::vector<double>& a,
                                          std::size_t n) {
  // Cholesky factorization a = L L^T.
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) acc -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        l[i * n + i] = std::sqrt(std::max(acc, 1e-12));
      } else {
        l[i * n + j] = acc / l[j * n + j];
      }
    }
  }
  // Invert by solving L L^T X = I column by column.
  std::vector<double> inv(n * n, 0.0);
  std::vector<double> y(n), x(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Forward solve L y = e_col.
    for (std::size_t i = 0; i < n; ++i) {
      double acc = i == col ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) acc -= l[i * n + k] * y[k];
      y[i] = acc / l[i * n + i];
    }
    // Backward solve L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) acc -= l[k * n + ii] * x[k];
      x[ii] = acc / l[ii * n + ii];
    }
    for (std::size_t i = 0; i < n; ++i) inv[i * n + col] = x[i];
  }
  return inv;
}

/// Scalar per-group row quantizer: per-call minmax scan, materialized
/// codes, separate dequantize pass.
void quantize_row_reference(std::span<const float> row, Bitwidth bits,
                            Scheme scheme, std::size_t group,
                            std::span<float> out) {
  const std::size_t n = row.size();
  const std::size_t g = group == 0 ? n : group;
  std::vector<std::int32_t> codes;
  for (std::size_t begin = 0; begin < n; begin += g) {
    const std::size_t len = std::min(g, n - begin);
    const auto chunk = row.subspan(begin, len);
    const auto [mn, mx] = std::minmax_element(chunk.begin(), chunk.end());
    const QuantParams p = params_from_range(*mn, *mx, bits, scheme);
    codes.resize(len);
    quantize_reference(chunk, p, bits, scheme, codes);
    dequantize_reference(codes, p, out.subspan(begin, len));
  }
}

// ---- Fast paths ---------------------------------------------------------

/// `pool` when a parallel section carries at least 8M multiply-subtracts
/// (a few milliseconds of one core), else nullptr.  parallel_for splits a
/// section into up to 8 tasks per thread, and each hand-off costs tens of
/// microseconds on a loaded host, so smaller sections ran slower threaded
/// than inline.  Results are identical either way (each element keeps its
/// own chain).
sq::common::ThreadPool* pool_for(sq::common::ThreadPool* pool, double flops) {
  return flops >= 8e6 ? pool : nullptr;
}

/// Blocked right-looking Cholesky + column-parallel inverse: the panel
/// factorization runs inline; the trailing update and the column solves
/// (the O(n^3) work) fan out over `pool` when pool_for deems them large
/// enough.  Identical bits to spd_inverse_reference: each L element's
/// subtraction chain runs ascending k (trailing updates apply finished
/// panels in order, then the panel factorization finishes the chain), and
/// the forward solve's skipped prefix is provably +0.0 in the reference
/// (acc starts +0.0 and 0.0 - (+-0.0) = +0.0, y[i] = +0.0 / l_ii = +0.0
/// for i < col).
std::vector<double> spd_inverse(const std::vector<double>& a, std::size_t n,
                                sq::common::ThreadPool* pool) {
  constexpr std::size_t kPanel = 64;
  std::vector<double> l(a);  // working copy; strict upper zeroed below
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l[i * n + j] = 0.0;
  }
  for (std::size_t c0 = 0; c0 < n; c0 += kPanel) {
    const std::size_t c1 = std::min(c0 + kPanel, n);
    // Factor panel columns left-looking within the panel.
    for (std::size_t j = c0; j < c1; ++j) {
      double acc = l[j * n + j];
      for (std::size_t k = c0; k < j; ++k) acc -= l[j * n + k] * l[j * n + k];
      const double diag = std::sqrt(std::max(acc, 1e-12));
      l[j * n + j] = diag;
      // Inline: each column carries only (n - j) * (j - c0) flops, far too
      // little to repay a pool fan-out per column.
      for (std::size_t i = j + 1; i < n; ++i) {
        double v = l[i * n + j];
        for (std::size_t k = c0; k < j; ++k) v -= l[i * n + k] * l[j * n + k];
        l[i * n + j] = v / diag;
      }
    }
    // Trailing update: fold this panel's columns into the not-yet-factored
    // lower triangle, rows independent.
    const std::size_t rows = n - c1;
    const double r = static_cast<double>(rows);
    const double flops = 0.5 * r * r * static_cast<double>(c1 - c0);
    sq::common::parallel_for(pool_for(pool, flops), rows, [&](std::size_t t) {
      const std::size_t i = c1 + t;
      for (std::size_t j = c1; j <= i; ++j) {
        double acc = l[i * n + j];
        for (std::size_t k = c0; k < c1; ++k) acc -= l[i * n + k] * l[j * n + k];
        l[i * n + j] = acc;
      }
    });
  }

  // L^T copied row-major so the backward solve streams contiguously.
  std::vector<double> lt(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k <= i; ++k) lt[k * n + i] = l[i * n + k];
  }

  // Column solves are independent; write column-major, transpose once.
  std::vector<double> inv_t(n * n, 0.0);
  const double dn = static_cast<double>(n);
  sq::common::parallel_for(pool_for(pool, dn * dn * dn), n, [&](std::size_t col) {
    static thread_local std::vector<double> y, x;
    y.assign(n, 0.0);  // y[i] = +0.0 for i < col, as the reference computes
    x.resize(n);
    for (std::size_t i = col; i < n; ++i) {
      double acc = i == col ? 1.0 : 0.0;
      for (std::size_t k = col; k < i; ++k) acc -= l[i * n + k] * y[k];
      y[i] = acc / l[i * n + i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      const double* ltr = lt.data() + ii * n;
      for (std::size_t k = ii + 1; k < n; ++k) acc -= ltr[k] * x[k];
      x[ii] = acc / l[ii * n + ii];
    }
    std::copy(x.begin(), x.end(), inv_t.begin() + col * n);
  });
  std::vector<double> inv(n * n);
  for (std::size_t col = 0; col < n; ++col) {
    for (std::size_t i = 0; i < n; ++i) inv[i * n + col] = inv_t[col * n + i];
  }
  return inv;
}

/// Fused row quantizer: one hoisted group-minmax scan feeds all group
/// params, then the fused quantize+dequantize kernel reconstructs each
/// group without materializing codes.  Bit-identical to
/// quantize_row_reference.
void quantize_row(std::span<const float> row, Bitwidth bits, Scheme scheme,
                  std::size_t group, std::span<float> out) {
  const std::size_t n = row.size();
  if (n == 0) return;
  const std::size_t g = group == 0 ? n : group;
  const std::size_t n_groups = (n + g - 1) / g;
  static thread_local std::vector<float> mins, maxs;
  mins.resize(n_groups);
  maxs.resize(n_groups);
  group_minmax(row, g, mins, maxs);
  const auto [lo, hi] = code_range(bits, scheme);
  for (std::size_t gi = 0; gi < n_groups; ++gi) {
    const std::size_t begin = gi * g;
    const std::size_t len = std::min(g, n - begin);
    const QuantParams p = params_from_range(mins[gi], maxs[gi], bits, scheme);
    quantize_dequant(row.subspan(begin, len), p, lo, hi,
                     out.subspan(begin, len));
  }
}

double metric_mse(const Tensor& a, const Tensor& b) { return sq::tensor::mse(a, b); }

GptqResult finish(const Tensor& w, const Tensor& x, Tensor dequantized) {
  GptqResult r;
  r.weight_mse = metric_mse(dequantized, w);
  if (x.rows() > 0 && x.cols() == w.rows()) {
    const Tensor ref = sq::tensor::matmul(x, w);
    const Tensor got = sq::tensor::matmul(x, dequantized);
    r.output_mse = metric_mse(got, ref);
  }
  r.dequantized = std::move(dequantized);
  return r;
}

/// Build the damped GPTQ Hessian H = 2 X^T X + damping * mean(diag) * I.
std::vector<double> damped_hessian(const Tensor& calibration, std::size_t in,
                                   double damping) {
  std::vector<double> h(in * in, 0.0);
  sq::tensor::gram_xtx(calibration, 2.0, h);
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < in; ++i) diag_mean += h[i * in + i];
  diag_mean /= static_cast<double>(in);
  for (std::size_t i = 0; i < in; ++i) {
    h[i * in + i] += std::max(damping * diag_mean, 1e-9);
  }
  return h;
}

}  // namespace

GptqResult rtn_quantize(const Tensor& weights, const Tensor& calibration,
                        const GptqOptions& opts) {
  Tensor out(weights.rows(), weights.cols());
  for (std::size_t i = 0; i < weights.rows(); ++i) {
    quantize_row(weights.row(i), opts.bits, opts.scheme, opts.group_size, out.row(i));
  }
  return finish(weights, calibration, std::move(out));
}

GptqResult gptq_quantize_reference(const Tensor& weights, const Tensor& calibration,
                                   const GptqOptions& opts) {
  const std::size_t in = weights.rows();
  if (calibration.rows() == 0 || calibration.cols() != in || in == 0) {
    Tensor out(weights.rows(), weights.cols());
    for (std::size_t i = 0; i < weights.rows(); ++i) {
      quantize_row_reference(weights.row(i), opts.bits, opts.scheme,
                             opts.group_size, out.row(i));
    }
    return finish(weights, calibration, std::move(out));
  }

  std::vector<double> h = damped_hessian(calibration, in, opts.damping);
  std::vector<double> hinv = spd_inverse_reference(h, in);

  // OBQ sweep: quantize input channel i, spread its rounding error over
  // the not-yet-quantized channels via the inverse-Hessian column, then
  // eliminate channel i from Hinv (Schur complement).
  Tensor work = weights;  // copy; rows get error-fed updates
  Tensor out(weights.rows(), weights.cols());
  std::vector<double> err(weights.cols());
  for (std::size_t i = 0; i < in; ++i) {
    quantize_row_reference(work.row(i), opts.bits, opts.scheme, opts.group_size,
                           out.row(i));
    const double hii = std::max(hinv[i * in + i], 1e-12);
    const auto wrow = work.row(i);
    const auto qrow = out.row(i);
    for (std::size_t c = 0; c < err.size(); ++c) {
      err[c] = (static_cast<double>(wrow[c]) - static_cast<double>(qrow[c])) / hii;
    }
    for (std::size_t j = i + 1; j < in; ++j) {
      const double f = hinv[j * in + i];
      if (f == 0.0) continue;
      auto dst = work.row(j);
      for (std::size_t c = 0; c < err.size(); ++c) {
        dst[c] -= static_cast<float>(f * err[c]);
      }
    }
    // Schur update of the remaining inverse block.
    for (std::size_t j = i + 1; j < in; ++j) {
      const double ji = hinv[j * in + i];
      if (ji == 0.0) continue;
      for (std::size_t k = i + 1; k < in; ++k) {
        hinv[j * in + k] -= ji * hinv[i * in + k] / hii;
      }
    }
  }
  return finish(weights, calibration, std::move(out));
}

GptqResult gptq_quantize(const Tensor& weights, const Tensor& calibration,
                         const GptqOptions& opts) {
  const std::size_t in = weights.rows();
  const std::size_t cols = weights.cols();
  if (calibration.rows() == 0 || calibration.cols() != in || in == 0) {
    return rtn_quantize(weights, calibration, opts);
  }

  sq::common::ThreadPool* pool = quant_pool();

  std::vector<double> h = damped_hessian(calibration, in, opts.damping);
  std::vector<double> hinv = spd_inverse(h, in, pool);

  const std::size_t bsz = std::max<std::size_t>(opts.obq_block, 1);
  Tensor work = weights;  // copy; rows get error-fed updates
  Tensor out(weights.rows(), weights.cols());
  std::vector<double> errs(bsz * cols);      // per-pivot error rows
  std::vector<double> hii_saved(bsz);        // per-pivot damped diagonals

  for (std::size_t b0 = 0; b0 < in; b0 += bsz) {
    const std::size_t b1 = std::min(b0 + bsz, in);
    // Sequential in-block sweep: rows inside the block get eager updates
    // (they are quantized within this block, so their chains must be
    // current); everything at and beyond b1 is deferred.
    for (std::size_t i = b0; i < b1; ++i) {
      quantize_row(work.row(i), opts.bits, opts.scheme, opts.group_size,
                   out.row(i));
      const double hii = std::max(hinv[i * in + i], 1e-12);
      hii_saved[i - b0] = hii;
      const auto wrow = work.row(i);
      const auto qrow = out.row(i);
      double* err = errs.data() + (i - b0) * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        err[c] = (static_cast<double>(wrow[c]) - static_cast<double>(qrow[c])) / hii;
      }
      for (std::size_t j = i + 1; j < b1; ++j) {
        const double f = hinv[j * in + i];
        if (f == 0.0) continue;
        auto dst = work.row(j);
        for (std::size_t c = 0; c < cols; ++c) {
          dst[c] -= static_cast<float>(f * err[c]);
        }
      }
      for (std::size_t j = i + 1; j < b1; ++j) {
        const double ji = hinv[j * in + i];
        if (ji == 0.0) continue;
        for (std::size_t k = i + 1; k < in; ++k) {
          hinv[j * in + k] -= ji * hinv[i * in + k] / hii;
        }
      }
    }
    // Delayed block-end pass over trailing rows, each row independent.
    const std::size_t nb = b1 - b0;
    const std::size_t rows = in - b1;
    const double flops = static_cast<double>(rows) * static_cast<double>(nb) *
                         static_cast<double>(nb / 2 + cols + rows);
    sq::common::parallel_for(pool_for(pool, flops), rows, [&](std::size_t t) {
      const std::size_t j = b1 + t;
      // Reconstruct this row's pivot factors f_i = hinv[j][i] as of step i
      // by replaying the in-block Schur chain (ascending pivots, identical
      // arithmetic); the stored hinv[j][i] was never updated in-block.
      static thread_local std::vector<double> f;
      f.resize(nb);
      for (std::size_t bi = 0; bi < nb; ++bi) {
        const std::size_t i = b0 + bi;
        double val = hinv[j * in + i];
        for (std::size_t bj = 0; bj < bi; ++bj) {
          if (f[bj] == 0.0) continue;
          val -= f[bj] * hinv[(b0 + bj) * in + i] / hii_saved[bj];
        }
        f[bi] = val;
      }
      // Error feedback into the trailing weight row, ascending pivots.
      auto dst = work.row(j);
      for (std::size_t bi = 0; bi < nb; ++bi) {
        if (f[bi] == 0.0) continue;
        const double* err = errs.data() + bi * cols;
        for (std::size_t c = 0; c < cols; ++c) {
          dst[c] -= static_cast<float>(f[bi] * err[c]);
        }
      }
      // Schur update of the trailing columns, ascending pivots; in-block
      // rows hinv[i][k>=b1] are frozen at their step-i values.
      for (std::size_t bi = 0; bi < nb; ++bi) {
        if (f[bi] == 0.0) continue;
        const std::size_t i = b0 + bi;
        const double* src = hinv.data() + i * in;
        double* dstrow = hinv.data() + j * in;
        const double hii = hii_saved[bi];
        for (std::size_t k = b1; k < in; ++k) {
          dstrow[k] -= f[bi] * src[k] / hii;
        }
      }
    });
  }
  return finish(weights, calibration, std::move(out));
}

}  // namespace sq::quant
