// Dense two-phase primal simplex with ISA-dispatched pivot and pricing
// kernels.  See lp.h for the determinism contract; this translation unit is
// compiled with -ffp-contract=off (solver/CMakeLists.txt) so no mul-then-sub
// pair can be contracted into an FMA on any path.
#include "solver/lp.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#if defined(__x86_64__) && defined(__GNUC__)
#define SQ_LP_MULTI_ISA 1
#include <immintrin.h>
#define SQ_LP_TARGET_AVX2 __attribute__((target("avx2")))
#define SQ_LP_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define SQ_LP_MULTI_ISA 0
#endif

namespace sq::solver {

namespace {

constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-7;

// ---- Pivot kernel ------------------------------------------------------
//
// One pivot on the dense row-major tableau: scale the pivot row by the
// reciprocal of the pivot element, then eliminate the pivot column from
// every other row.  Only columns [0, live) plus `rhs` are touched; during
// phase 1 `live` spans the whole row (rhs included), after it `live` stops
// at the first artificial column.  Every element is one independent
// `dst[c] - f * src[c]` chain (explicit multiply, then subtract), so the
// vector width changes how many chains retire per instruction, never a bit.

/// Scalar row loops: the non-x86 path and the tails of the SSE2/AVX2 paths.
inline void scale_scalar(double* __restrict row, double s, std::size_t c, std::size_t n) {
  for (; c < n; ++c) row[c] *= s;
}

inline void eliminate_scalar(double* __restrict dst, const double* __restrict src,
                             double f, std::size_t c, std::size_t n) {
  for (; c < n; ++c) dst[c] -= f * src[c];
}

using ScaleFn = void (*)(double*, double, std::size_t);
using EliminateFn = void (*)(double*, const double*, double, std::size_t);
using PivotFn = void (*)(double*, std::size_t, std::size_t, std::size_t,
                         std::size_t, std::size_t, std::size_t);

/// The pivot itself, shared by every ISA; `Scale`/`Eliminate` are the
/// per-ISA row loops over [0, n), inlined into each instantiation.  Rows
/// start `stride` doubles apart.
template <ScaleFn Scale, EliminateFn Eliminate>
__attribute__((always_inline)) inline void pivot_impl(
    double* tab, std::size_t stride, std::size_t rows, std::size_t prow,
    std::size_t pcol, std::size_t live, std::size_t rhs) {
  double* src = tab + prow * stride;
  const double inv = 1.0 / src[pcol];
  Scale(src, inv, live);
  if (rhs >= live) src[rhs] *= inv;
  src[pcol] = 1.0;  // exact
  for (std::size_t r = 0; r < rows; ++r) {
    if (r == prow) continue;
    double* dst = tab + r * stride;
    const double f = dst[pcol];
    if (std::abs(f) < kEps) {
      dst[pcol] = 0.0;
      continue;
    }
    Eliminate(dst, src, f, live);
    if (rhs >= live) dst[rhs] -= f * src[rhs];
    dst[pcol] = 0.0;  // exact
  }
}

// The vector loops retire two vectors per iteration: independent chains,
// so the unroll hides latency without reordering any element's operations.

// Base path: SSE2 (the x86-64 baseline), plain scalar elsewhere.
inline void scale_base(double* __restrict row, double s, std::size_t n) {
  std::size_t c = 0;
#if SQ_LP_MULTI_ISA
  const __m128d vs = _mm_set1_pd(s);
  for (; c + 4 <= n; c += 4) {
    _mm_storeu_pd(row + c, _mm_mul_pd(_mm_loadu_pd(row + c), vs));
    _mm_storeu_pd(row + c + 2, _mm_mul_pd(_mm_loadu_pd(row + c + 2), vs));
  }
#endif
  scale_scalar(row, s, c, n);
}

inline void eliminate_base(double* __restrict dst, const double* __restrict src, double f,
                           std::size_t n) {
  std::size_t c = 0;
#if SQ_LP_MULTI_ISA
  const __m128d vf = _mm_set1_pd(f);
  for (; c + 4 <= n; c += 4) {
    const __m128d p0 = _mm_mul_pd(vf, _mm_loadu_pd(src + c));
    const __m128d p1 = _mm_mul_pd(vf, _mm_loadu_pd(src + c + 2));
    _mm_storeu_pd(dst + c, _mm_sub_pd(_mm_loadu_pd(dst + c), p0));
    _mm_storeu_pd(dst + c + 2, _mm_sub_pd(_mm_loadu_pd(dst + c + 2), p1));
  }
#endif
  eliminate_scalar(dst, src, f, c, n);
}

void pivot_base(double* tab, std::size_t stride, std::size_t rows,
                std::size_t prow, std::size_t pcol, std::size_t live,
                std::size_t rhs) {
  pivot_impl<scale_base, eliminate_base>(tab, stride, rows, prow, pcol, live, rhs);
}

#if SQ_LP_MULTI_ISA
SQ_LP_TARGET_AVX2 inline void scale_avx2(double* __restrict row, double s, std::size_t n) {
  std::size_t c = 0;
  const __m256d vs = _mm256_set1_pd(s);
  for (; c + 8 <= n; c += 8) {
    _mm256_storeu_pd(row + c, _mm256_mul_pd(_mm256_loadu_pd(row + c), vs));
    _mm256_storeu_pd(row + c + 4, _mm256_mul_pd(_mm256_loadu_pd(row + c + 4), vs));
  }
  scale_scalar(row, s, c, n);
}

SQ_LP_TARGET_AVX2 inline void eliminate_avx2(double* __restrict dst,
                                             const double* __restrict src, double f,
                                             std::size_t n) {
  std::size_t c = 0;
  const __m256d vf = _mm256_set1_pd(f);
  for (; c + 8 <= n; c += 8) {
    const __m256d p0 = _mm256_mul_pd(vf, _mm256_loadu_pd(src + c));
    const __m256d p1 = _mm256_mul_pd(vf, _mm256_loadu_pd(src + c + 4));
    _mm256_storeu_pd(dst + c, _mm256_sub_pd(_mm256_loadu_pd(dst + c), p0));
    _mm256_storeu_pd(dst + c + 4, _mm256_sub_pd(_mm256_loadu_pd(dst + c + 4), p1));
  }
  eliminate_scalar(dst, src, f, c, n);
}

SQ_LP_TARGET_AVX2 void pivot_avx2(double* tab, std::size_t stride,
                                  std::size_t rows, std::size_t prow,
                                  std::size_t pcol, std::size_t live,
                                  std::size_t rhs) {
  pivot_impl<scale_avx2, eliminate_avx2>(tab, stride, rows, prow, pcol, live, rhs);
}

/// Lanes [0, n - c) of an 8-lane block at offset c; masked-off lanes are
/// neither loaded nor stored, so the AVX-512 loops need no scalar tail.
SQ_LP_TARGET_AVX512 inline __mmask8 tail_mask(std::size_t c, std::size_t n) {
  return n - c >= 8 ? __mmask8(0xFF) : __mmask8((1u << (n - c)) - 1u);
}

SQ_LP_TARGET_AVX512 inline void scale_avx512(double* __restrict row, double s,
                                             std::size_t n) {
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    _mm512_storeu_pd(row + c, _mm512_mul_pd(_mm512_loadu_pd(row + c), vs));
    _mm512_storeu_pd(row + c + 8, _mm512_mul_pd(_mm512_loadu_pd(row + c + 8), vs));
  }
  for (; c < n; c += 8) {
    const __mmask8 k = tail_mask(c, n);
    _mm512_mask_storeu_pd(row + c, k,
                          _mm512_mul_pd(_mm512_maskz_loadu_pd(k, row + c), vs));
  }
}

SQ_LP_TARGET_AVX512 inline void eliminate_avx512(double* __restrict dst,
                                                 const double* __restrict src, double f,
                                                 std::size_t n) {
  const __m512d vf = _mm512_set1_pd(f);
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    const __m512d p0 = _mm512_mul_pd(vf, _mm512_loadu_pd(src + c));
    const __m512d p1 = _mm512_mul_pd(vf, _mm512_loadu_pd(src + c + 8));
    _mm512_storeu_pd(dst + c, _mm512_sub_pd(_mm512_loadu_pd(dst + c), p0));
    _mm512_storeu_pd(dst + c + 8, _mm512_sub_pd(_mm512_loadu_pd(dst + c + 8), p1));
  }
  for (; c < n; c += 8) {
    const __mmask8 k = tail_mask(c, n);
    const __m512d prod = _mm512_mul_pd(vf, _mm512_maskz_loadu_pd(k, src + c));
    _mm512_mask_storeu_pd(dst + c, k,
                          _mm512_sub_pd(_mm512_maskz_loadu_pd(k, dst + c), prod));
  }
}

SQ_LP_TARGET_AVX512 void pivot_avx512(double* tab, std::size_t stride,
                                      std::size_t rows, std::size_t prow,
                                      std::size_t pcol, std::size_t live,
                                      std::size_t rhs) {
  pivot_impl<scale_avx512, eliminate_avx512>(tab, stride, rows, prow, pcol, live, rhs);
}
#endif  // SQ_LP_MULTI_ISA

// ---- Pricing kernel -----------------------------------------------------
//
// Dantzig pricing: the first column of [0, n) holding the most negative
// reduced cost below -kEps, or -1.  The scalar reference is one scan with
// a strict `<` (first minimum wins, NaN never wins).  The vector paths take
// the minimum first (NaN-ignoring: MINPD returns its second operand when
// either is unordered, and the running minimum is never NaN), then return
// the first column equal to it — the same column.

using PriceFn = int (*)(const double*, std::size_t);

/// First column in [c, n) equal to `best`, given best < -kEps occurs there.
inline int first_equal(const double* cost, std::size_t c, std::size_t n, double best) {
  for (; c < n; ++c) {
    if (cost[c] == best) return static_cast<int>(c);
  }
  return -1;
}

int price_base(const double* cost, std::size_t n) {
  double best = -kEps;
  std::size_t c = 0;
#if SQ_LP_MULTI_ISA
  // Two running minima hide the MINPD latency chain.
  __m128d acc0 = _mm_set1_pd(best), acc1 = acc0;
  for (; c + 4 <= n; c += 4) {
    acc0 = _mm_min_pd(_mm_loadu_pd(cost + c), acc0);
    acc1 = _mm_min_pd(_mm_loadu_pd(cost + c + 2), acc1);
  }
  double lanes[2];
  _mm_storeu_pd(lanes, _mm_min_pd(acc0, acc1));
  best = std::min(lanes[0], lanes[1]);
#endif
  for (; c < n; ++c) {
    if (cost[c] < best) best = cost[c];
  }
  return best < -kEps ? first_equal(cost, 0, n, best) : -1;
}

#if SQ_LP_MULTI_ISA
SQ_LP_TARGET_AVX2 int price_avx2(const double* cost, std::size_t n) {
  std::size_t c = 0;
  __m256d acc0 = _mm256_set1_pd(-kEps), acc1 = acc0;
  for (; c + 8 <= n; c += 8) {
    acc0 = _mm256_min_pd(_mm256_loadu_pd(cost + c), acc0);
    acc1 = _mm256_min_pd(_mm256_loadu_pd(cost + c + 4), acc1);
  }
  for (; c + 4 <= n; c += 4) acc0 = _mm256_min_pd(_mm256_loadu_pd(cost + c), acc0);
  double lanes[4];
  _mm256_storeu_pd(lanes, _mm256_min_pd(acc0, acc1));
  double best = std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  for (; c < n; ++c) {
    if (cost[c] < best) best = cost[c];
  }
  if (!(best < -kEps)) return -1;
  const __m256d vb = _mm256_set1_pd(best);
  for (c = 0; c + 4 <= n; c += 4) {
    const int hit = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(cost + c), vb, _CMP_EQ_OQ));
    if (hit != 0) return static_cast<int>(c) + __builtin_ctz(static_cast<unsigned>(hit));
  }
  return first_equal(cost, c, n, best);
}

/// VMINPD on all eight lanes.  The merge-masked form names its pass-through
/// operand, where `_mm512_min_pd` passes gcc's `_mm512_undefined_pd()`,
/// which gcc 12 reports as used uninitialized.
SQ_LP_TARGET_AVX512 inline __m512d min_pd512(__m512d a, __m512d b) {
  return _mm512_mask_min_pd(a, 0xFF, a, b);
}

SQ_LP_TARGET_AVX512 int price_avx512(const double* cost, std::size_t n) {
  const __m512d init = _mm512_set1_pd(-kEps);
  __m512d acc0 = init, acc1 = init;
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    acc0 = min_pd512(_mm512_loadu_pd(cost + c), acc0);
    acc1 = min_pd512(_mm512_loadu_pd(cost + c + 8), acc1);
  }
  for (; c < n; c += 8) {
    // Masked-off lanes keep `init`, which never beats the running minimum.
    acc0 = min_pd512(_mm512_mask_loadu_pd(init, tail_mask(c, n), cost + c), acc0);
  }
  // Lane store and a scalar minimum, as in price_avx2 (exact: no lane is
  // NaN).
  double lanes[8];
  _mm512_storeu_pd(lanes, min_pd512(acc0, acc1));
  double best = lanes[0];
  for (int i = 1; i < 8; ++i) best = std::min(best, lanes[i]);
  if (!(best < -kEps)) return -1;
  const __m512d vb = _mm512_set1_pd(best);
  for (c = 0; c < n; c += 8) {
    const __mmask8 k = tail_mask(c, n);
    const unsigned hit =
        _mm512_mask_cmp_pd_mask(k, _mm512_maskz_loadu_pd(k, cost + c), vb, _CMP_EQ_OQ);
    if (hit != 0) return static_cast<int>(c) + __builtin_ctz(hit);
  }
  return -1;
}
#endif  // SQ_LP_MULTI_ISA

/// One ISA's simplex kernels.
struct LpKernels {
  const char* name;
  PivotFn pivot;
  PriceFn price;
};

constexpr LpKernels kBase{"base", pivot_base, price_base};
#if SQ_LP_MULTI_ISA
constexpr LpKernels kAvx2{"avx2", pivot_avx2, price_avx2};
constexpr LpKernels kAvx512{"avx512", pivot_avx512, price_avx512};
#endif

const LpKernels* pick_kernel() {
#if SQ_LP_MULTI_ISA
  if (__builtin_cpu_supports("avx512f")) return &kAvx512;
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return &kBase;
}

std::atomic<const LpKernels*>& current_kernel() {
  static std::atomic<const LpKernels*> cur{pick_kernel()};
  return cur;
}

}  // namespace

const char* lp_isa() { return current_kernel().load(std::memory_order_acquire)->name; }

bool set_lp_isa(const char* name) {
  const LpKernels* next = nullptr;
  if (std::strcmp(name, "auto") == 0) {
    next = pick_kernel();
  } else if (std::strcmp(name, "base") == 0) {
    next = &kBase;
  }
#if SQ_LP_MULTI_ISA
  else if (std::strcmp(name, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
    next = &kAvx2;
  } else if (std::strcmp(name, "avx512") == 0 &&
             __builtin_cpu_supports("avx512f")) {
    next = &kAvx512;
  }
#endif
  if (next == nullptr) return false;
  current_kernel().store(next, std::memory_order_release);
  return true;
}

int LpProblem::add_variable(double obj, std::string name) {
  obj_.push_back(obj);
  names_.push_back(std::move(name));
  return static_cast<int>(obj_.size()) - 1;
}

void LpProblem::add_constraint(Constraint c) {
  for ([[maybe_unused]] const auto& t : c.terms) {
    assert(t.var >= 0 && t.var < num_vars());
  }
  rows_.push_back(std::move(c));
}

double LpProblem::objective_value(const std::vector<double>& x) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < obj_.size() && i < x.size(); ++i) acc += obj_[i] * x[i];
  return acc;
}

double LpProblem::max_violation(const std::vector<double>& x) const {
  double worst = 0.0;
  for (const auto& row : rows_) {
    double lhs = 0.0;
    for (const auto& t : row.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    double v = 0.0;
    switch (row.sense) {
      case Sense::kLe: v = lhs - row.rhs; break;
      case Sense::kGe: v = row.rhs - lhs; break;
      case Sense::kEq: v = std::abs(lhs - row.rhs); break;
    }
    worst = std::max(worst, v);
  }
  for (double xi : x) worst = std::max(worst, -xi);
  return worst;
}

LpSolution SimplexSolver::solve(const LpProblem& p,
                                const std::vector<std::uint8_t>& fixed_mask,
                                const std::vector<double>& fixed_value) const {
  const int n_orig = p.num_vars();
  const bool has_fixed = !fixed_mask.empty();
  assert(!has_fixed || (static_cast<int>(fixed_mask.size()) == n_orig &&
                        static_cast<int>(fixed_value.size()) == n_orig));

  // Compact mapping of free variables.
  std::vector<int> free_of_orig(static_cast<std::size_t>(n_orig), -1);
  std::vector<int> orig_of_free;
  for (int v = 0; v < n_orig; ++v) {
    if (has_fixed && fixed_mask[static_cast<std::size_t>(v)]) continue;
    free_of_orig[static_cast<std::size_t>(v)] = static_cast<int>(orig_of_free.size());
    orig_of_free.push_back(v);
  }
  const int nf = static_cast<int>(orig_of_free.size());

  // Row senses and right-hand sides after substitution, normalized to
  // rhs >= 0; a flipped row has its coefficients negated below.
  struct RowInfo {
    Sense sense;
    double rhs;
    bool flip;
  };
  const int m = p.num_constraints();
  std::vector<RowInfo> rows;
  rows.reserve(static_cast<std::size_t>(m));
  int n_slack = 0, n_art = 0;
  for (const auto& c : p.constraints()) {
    RowInfo r{c.sense, c.rhs, false};
    if (has_fixed) {
      for (const auto& t : c.terms) {
        if (fixed_mask[static_cast<std::size_t>(t.var)]) {
          r.rhs -= t.coeff * fixed_value[static_cast<std::size_t>(t.var)];
        }
      }
    }
    if (r.rhs < 0.0) {
      r.rhs = -r.rhs;
      r.flip = true;
      if (r.sense == Sense::kLe) r.sense = Sense::kGe;
      else if (r.sense == Sense::kGe) r.sense = Sense::kLe;
    }
    if (r.sense != Sense::kEq) ++n_slack;
    if (r.sense != Sense::kLe) ++n_art;
    rows.push_back(r);
  }

  // Column layout: [free vars | slacks/surplus | artificials | rhs].
  const int n_cols = nf + n_slack + n_art;
  const int rhs_col = n_cols;
  const int width = n_cols + 1;

  // Rows start on 64-byte boundaries, a whole number of vectors apart, so
  // no kernel load straddles two cache lines.
  const int stride = (width + 7) & ~7;
  const std::size_t tab_size = static_cast<std::size_t>(m + 1) * stride;
  std::vector<double> tab_store(tab_size + 7, 0.0);  // + room to align
  void* tab_base = tab_store.data();
  std::size_t tab_space = tab_store.size() * sizeof(double);
  double* const tab = static_cast<double*>(
      std::align(64, tab_size * sizeof(double), tab_base, tab_space));
  auto at = [&](int r, int c) -> double& {
    return tab[static_cast<std::size_t>(r) * stride + c];
  };
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  const int art_begin = nf + n_slack;

  {
    int slack_i = 0, art_i = 0;
    for (int r = 0; r < m; ++r) {
      const RowInfo& info = rows[static_cast<std::size_t>(r)];
      double* a = &at(r, 0);
      for (const auto& t : p.constraints()[static_cast<std::size_t>(r)].terms) {
        const int j = free_of_orig[static_cast<std::size_t>(t.var)];
        if (j >= 0) a[j] += t.coeff;
      }
      if (info.flip) {
        for (int j = 0; j < nf; ++j) a[j] = -a[j];
      }
      a[rhs_col] = info.rhs;
      switch (info.sense) {
        case Sense::kLe: {
          const int col = nf + slack_i++;
          a[col] = 1.0;
          basis[static_cast<std::size_t>(r)] = col;
          break;
        }
        case Sense::kGe: {
          const int scol = nf + slack_i++;
          a[scol] = -1.0;
          const int acol = art_begin + art_i++;
          a[acol] = 1.0;
          basis[static_cast<std::size_t>(r)] = acol;
          break;
        }
        case Sense::kEq: {
          const int acol = art_begin + art_i++;
          a[acol] = 1.0;
          basis[static_cast<std::size_t>(r)] = acol;
          break;
        }
      }
    }
  }

  LpSolution sol;
  int total_iters = 0;
  std::vector<int> cand(static_cast<std::size_t>(m));  // ratio-test rows

  const LpKernels& kernels = *current_kernel().load(std::memory_order_acquire);
  // Columns the pivots keep current: [0, live) plus the rhs.  That is the
  // whole row in phase 1.  Once phase 1 ends nothing reads an artificial
  // column again (pricing stops at art_begin, extraction reads only the
  // rhs), so `live` drops to art_begin and those columns go stale.
  int live = width;
  auto pivot = [&](int prow, int pcol) {
    kernels.pivot(tab, static_cast<std::size_t>(stride), static_cast<std::size_t>(m + 1),
                  static_cast<std::size_t>(prow), static_cast<std::size_t>(pcol),
                  static_cast<std::size_t>(live), static_cast<std::size_t>(rhs_col));
    basis[static_cast<std::size_t>(prow)] = pcol;
  };

  // Runs simplex iterations on the current cost row (row m), pricing
  // columns [0, price_end).  Returns status.
  auto run = [&](int price_end) -> LpStatus {
    while (true) {
      if (total_iters >= max_iterations_) return LpStatus::kIterLimit;
      ++total_iters;
      const bool bland = total_iters > max_iterations_ / 2;
      // Entering column: negative reduced cost (Dantzig, or Bland's first
      // improving column once the iteration count suggests cycling).
      const double* cost = &at(m, 0);
      int enter = -1;
      if (bland) {
        for (int c = 0; c < price_end; ++c) {
          if (cost[c] < -kEps) { enter = c; break; }
        }
      } else {
        enter = kernels.price(cost, static_cast<std::size_t>(price_end));
      }
      if (enter < 0) return LpStatus::kOptimal;
      // Ratio test over the rows with a positive entry, in row order.  The
      // eligible rows are listed first, branch-free, so the scan below does
      // not mispredict on which rows qualify.
      int n_cand = 0;
      for (int r = 0; r < m; ++r) {
        cand[static_cast<std::size_t>(n_cand)] = r;
        n_cand += at(r, enter) > kEps;
      }
      int leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int k = 0; k < n_cand; ++k) {
        const int r = cand[static_cast<std::size_t>(k)];
        const double ratio = at(r, rhs_col) / at(r, enter);
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leave >= 0 &&
             basis[static_cast<std::size_t>(r)] < basis[static_cast<std::size_t>(leave)])) {
          best_ratio = ratio;
          leave = r;
        }
      }
      if (leave < 0) return LpStatus::kUnbounded;
      pivot(leave, enter);
    }
  };

  // ---- Phase 1: minimize sum of artificials. --------------------------
  if (n_art > 0) {
    for (int c = art_begin; c < n_cols; ++c) at(m, c) = 1.0;
    // Price out artificial basics.
    for (int r = 0; r < m; ++r) {
      if (basis[static_cast<std::size_t>(r)] >= art_begin) {
        double* cost = &at(m, 0);
        const double* src = &at(r, 0);
        for (int c = 0; c <= n_cols; ++c) cost[c] -= src[c];
      }
    }
    const LpStatus st = run(n_cols);
    if (st == LpStatus::kIterLimit) { sol.status = st; sol.iterations = total_iters; return sol; }
    const double phase1 = -at(m, rhs_col);
    if (phase1 > kFeasEps) {
      sol.status = LpStatus::kInfeasible;
      sol.iterations = total_iters;
      return sol;
    }
    live = art_begin;
    // Drive remaining artificial basics out where possible.
    for (int r = 0; r < m; ++r) {
      if (basis[static_cast<std::size_t>(r)] < art_begin) continue;
      int enter = -1;
      for (int c = 0; c < art_begin; ++c) {
        if (std::abs(at(r, c)) > kFeasEps) { enter = c; break; }
      }
      if (enter >= 0) pivot(r, enter);
      // else: redundant row; artificial stays basic at value 0.
    }
  }

  // ---- Phase 2: original objective. ------------------------------------
  for (int c = 0; c <= n_cols; ++c) at(m, c) = 0.0;
  for (int j = 0; j < nf; ++j) {
    const auto oj = static_cast<std::size_t>(orig_of_free[static_cast<std::size_t>(j)]);
    at(m, j) = p.objective()[oj];
  }
  for (int r = 0; r < m; ++r) {
    const int b = basis[static_cast<std::size_t>(r)];
    if (b < nf && std::abs(at(m, b)) > kEps) {
      const double f = at(m, b);
      double* cost = &at(m, 0);
      const double* src = &at(r, 0);
      for (int c = 0; c <= n_cols; ++c) cost[c] -= f * src[c];
    }
  }
  const LpStatus st2 = run(art_begin);
  sol.iterations = total_iters;
  if (st2 != LpStatus::kOptimal) {
    sol.status = st2;
    return sol;
  }

  // Extract solution.
  sol.status = LpStatus::kOptimal;
  sol.x.assign(static_cast<std::size_t>(n_orig), 0.0);
  if (has_fixed) {
    for (int v = 0; v < n_orig; ++v) {
      if (fixed_mask[static_cast<std::size_t>(v)]) {
        sol.x[static_cast<std::size_t>(v)] = fixed_value[static_cast<std::size_t>(v)];
      }
    }
  }
  for (int r = 0; r < m; ++r) {
    const int b = basis[static_cast<std::size_t>(r)];
    if (b < nf) {
      sol.x[static_cast<std::size_t>(orig_of_free[static_cast<std::size_t>(b)])] =
          at(r, rhs_col);
    }
  }
  sol.objective = p.objective_value(sol.x);
  return sol;
}

}  // namespace sq::solver
