// Seeded random LP/MILP generators shared by the solver property tests and
// the pivot-kernel oracle test.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/lp.h"
#include "tensor/rng.h"

namespace sq::solver::testutil {

/// A random small MILP over `n` binaries: assignment-style equalities over
/// variable groups plus random <= knapsack rows.  Returns problem + the
/// binaries.
struct RandomMilp {
  LpProblem p;
  std::vector<int> binaries;
  int n = 0;
};

inline RandomMilp make_random_milp(std::uint64_t seed, int n_groups, int n_choices) {
  sq::tensor::Rng rng(seed);
  RandomMilp m;
  m.n = n_groups * n_choices;
  std::vector<std::vector<int>> z(static_cast<std::size_t>(n_groups));
  for (int g = 0; g < n_groups; ++g) {
    for (int c = 0; c < n_choices; ++c) {
      const int v = m.p.add_variable(rng.uniform(0.1, 3.0));
      z[static_cast<std::size_t>(g)].push_back(v);
      m.binaries.push_back(v);
    }
  }
  // One-hot per group.
  for (int g = 0; g < n_groups; ++g) {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = 1.0;
    for (const int v : z[static_cast<std::size_t>(g)]) c.terms.push_back({v, 1.0});
    m.p.add_constraint(std::move(c));
  }
  // Two random knapsack rows coupling the groups.
  for (int row = 0; row < 2; ++row) {
    Constraint c;
    c.sense = Sense::kLe;
    double total = 0.0;
    for (const int v : m.binaries) {
      const double w = rng.uniform(0.0, 2.0);
      c.terms.push_back({v, w});
      total += w;
    }
    // Capacity between "roughly half the groups can take their heaviest
    // choice" and "everything fits" so both feasible and binding cases
    // appear across seeds.
    c.rhs = rng.uniform(0.25, 0.9) * total / n_choices;
    m.p.add_constraint(std::move(c));
  }
  return m;
}

/// A bounded random LP over `n` variables: four random <= rows with
/// nonnegative coefficients plus a box x_i <= 10, objective in [-1, 1].
/// Draws from `rng`, which the caller may keep sampling afterwards.
inline LpProblem make_random_boxed_lp(sq::tensor::Rng& rng, int n) {
  LpProblem p;
  for (int i = 0; i < n; ++i) p.add_variable(rng.uniform(-1.0, 1.0));
  for (int r = 0; r < 4; ++r) {
    Constraint c;
    c.sense = Sense::kLe;
    for (int i = 0; i < n; ++i) c.terms.push_back({i, rng.uniform(0.0, 1.0)});
    c.rhs = rng.uniform(1.0, 5.0);
    p.add_constraint(std::move(c));
  }
  // Box the variables so the LP is always bounded.
  for (int i = 0; i < n; ++i) {
    p.add_constraint({{{i, 1.0}}, Sense::kLe, 10.0, ""});
  }
  return p;
}

}  // namespace sq::solver::testutil
