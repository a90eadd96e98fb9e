// The dense two-phase simplex exactly as it stood before the pivot and
// pricing loops moved into ISA-dispatched kernels (solver/lp.cpp), kept
// byte-for-byte as the oracle those kernels are tested against.  Frozen:
// do not optimize; a change here voids the oracle.
#include "oracles/lp_reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace sq::solver::oracle {

namespace {
constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-7;
}  // namespace

LpSolution reference_solve(const LpProblem& p,
                           const std::vector<std::uint8_t>& fixed_mask,
                           const std::vector<double>& fixed_value, int max_iterations) {
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

  // Rows after substitution, normalized to rhs >= 0.
  struct Row {
    std::vector<double> a;  // dense over free vars
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<std::size_t>(p.num_constraints()));
  for (const auto& c : p.constraints()) {
    Row r;
    r.a.assign(static_cast<std::size_t>(nf), 0.0);
    r.sense = c.sense;
    r.rhs = c.rhs;
    for (const auto& t : c.terms) {
      if (has_fixed && fixed_mask[static_cast<std::size_t>(t.var)]) {
        r.rhs -= t.coeff * fixed_value[static_cast<std::size_t>(t.var)];
      } else {
        r.a[static_cast<std::size_t>(free_of_orig[static_cast<std::size_t>(t.var)])] +=
            t.coeff;
      }
    }
    if (r.rhs < 0.0) {
      for (auto& v : r.a) v = -v;
      r.rhs = -r.rhs;
      if (r.sense == Sense::kLe) r.sense = Sense::kGe;
      else if (r.sense == Sense::kGe) r.sense = Sense::kLe;
    }
    rows.push_back(std::move(r));
  }
  const int m = static_cast<int>(rows.size());

  // Column layout: [free vars | slacks/surplus | artificials | rhs].
  int n_slack = 0, n_art = 0;
  for (const auto& r : rows) {
    if (r.sense == Sense::kLe) ++n_slack;
    else if (r.sense == Sense::kGe) { ++n_slack; ++n_art; }
    else ++n_art;
  }
  const int n_cols = nf + n_slack + n_art;
  const int rhs_col = n_cols;
  const int width = n_cols + 1;

  std::vector<double> tab(static_cast<std::size_t>(m + 1) * width, 0.0);
  auto at = [&](int r, int c) -> double& {
    return tab[static_cast<std::size_t>(r) * width + c];
  };
  std::vector<int> basis(static_cast<std::size_t>(m), -1);
  const int art_begin = nf + n_slack;

  {
    int slack_i = 0, art_i = 0;
    for (int r = 0; r < m; ++r) {
      for (int j = 0; j < nf; ++j) {
        at(r, j) = rows[static_cast<std::size_t>(r)].a[static_cast<std::size_t>(j)];
      }
      at(r, rhs_col) = rows[static_cast<std::size_t>(r)].rhs;
      switch (rows[static_cast<std::size_t>(r)].sense) {
        case Sense::kLe: {
          const int col = nf + slack_i++;
          at(r, col) = 1.0;
          basis[static_cast<std::size_t>(r)] = col;
          break;
        }
        case Sense::kGe: {
          const int scol = nf + slack_i++;
          at(r, scol) = -1.0;
          const int acol = art_begin + art_i++;
          at(r, acol) = 1.0;
          basis[static_cast<std::size_t>(r)] = acol;
          break;
        }
        case Sense::kEq: {
          const int acol = art_begin + art_i++;
          at(r, acol) = 1.0;
          basis[static_cast<std::size_t>(r)] = acol;
          break;
        }
      }
    }
  }

  LpSolution sol;
  int total_iters = 0;

  auto pivot = [&](int prow, int pcol) {
    const double pv = at(prow, pcol);
    const double inv = 1.0 / pv;
    for (int c = 0; c <= n_cols; ++c) at(prow, c) *= inv;
    at(prow, pcol) = 1.0;  // exact
    for (int r = 0; r <= m; ++r) {
      if (r == prow) continue;
      const double f = at(r, pcol);
      if (std::abs(f) < kEps) { at(r, pcol) = 0.0; continue; }
      double* dst = &tab[static_cast<std::size_t>(r) * width];
      const double* src = &tab[static_cast<std::size_t>(prow) * width];
      for (int c = 0; c <= n_cols; ++c) dst[c] -= f * src[c];
      dst[pcol] = 0.0;  // exact
    }
    basis[static_cast<std::size_t>(prow)] = pcol;
  };

  // Runs simplex iterations on the current cost row (row m).  `allow`
  // limits entering columns.  Returns status.
  auto run = [&](auto&& allow) -> LpStatus {
    while (true) {
      if (total_iters >= max_iterations) return LpStatus::kIterLimit;
      ++total_iters;
      const bool bland = total_iters > max_iterations / 2;
      // Entering column: negative reduced cost.
      int enter = -1;
      double best = -kEps;
      for (int c = 0; c < n_cols; ++c) {
        if (!allow(c)) continue;
        const double rc = at(m, c);
        if (bland) {
          if (rc < -kEps) { enter = c; break; }
        } else if (rc < best) {
          best = rc;
          enter = c;
        }
      }
      if (enter < 0) return LpStatus::kOptimal;
      // Ratio test.
      int leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int r = 0; r < m; ++r) {
        const double a = at(r, enter);
        if (a > kEps) {
          const double ratio = at(r, rhs_col) / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leave >= 0 &&
               basis[static_cast<std::size_t>(r)] < basis[static_cast<std::size_t>(leave)])) {
            best_ratio = ratio;
            leave = r;
          }
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
        double* cost = &tab[static_cast<std::size_t>(m) * width];
        const double* src = &tab[static_cast<std::size_t>(r) * width];
        for (int c = 0; c <= n_cols; ++c) cost[c] -= src[c];
      }
    }
    const LpStatus st = run([&](int) { return true; });
    if (st == LpStatus::kIterLimit) { sol.status = st; sol.iterations = total_iters; return sol; }
    const double phase1 = -at(m, rhs_col);
    if (phase1 > kFeasEps) {
      sol.status = LpStatus::kInfeasible;
      sol.iterations = total_iters;
      return sol;
    }
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
      double* cost = &tab[static_cast<std::size_t>(m) * width];
      const double* src = &tab[static_cast<std::size_t>(r) * width];
      for (int c = 0; c <= n_cols; ++c) cost[c] -= f * src[c];
    }
  }
  const LpStatus st2 = run([&](int c) { return c < art_begin; });
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

}  // namespace sq::solver::oracle
