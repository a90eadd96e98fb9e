// Property tests: the branch-and-bound solver cross-checked against
// exhaustive enumeration on randomly generated small MILPs, and the
// simplex against feasibility oracles.  These are the strongest guards we
// have on the GUROBI stand-in's correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "solver/lp.h"
#include "solver/milp.h"
#include "solver_test_util.h"
#include "tensor/rng.h"

namespace sq::solver {
namespace {

using testutil::make_random_boxed_lp;
using testutil::make_random_milp;
using testutil::RandomMilp;

/// Exhaustive optimum over all one-hot assignments (n_choices^n_groups).
double brute_force(const RandomMilp& m, int n_groups, int n_choices) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> x(static_cast<std::size_t>(m.p.num_vars()), 0.0);
  std::vector<int> pick(static_cast<std::size_t>(n_groups), 0);
  while (true) {
    std::fill(x.begin(), x.end(), 0.0);
    for (int g = 0; g < n_groups; ++g) {
      x[static_cast<std::size_t>(g * n_choices + pick[static_cast<std::size_t>(g)])] =
          1.0;
    }
    if (m.p.max_violation(x) <= 1e-9) {
      best = std::min(best, m.p.objective_value(x));
    }
    int g = 0;
    while (g < n_groups) {
      if (++pick[static_cast<std::size_t>(g)] < n_choices) break;
      pick[static_cast<std::size_t>(g)] = 0;
      ++g;
    }
    if (g == n_groups) break;
  }
  return best;
}

class MilpVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MilpVsBruteForce, MatchesExhaustiveOptimum) {
  const int n_groups = 6, n_choices = 3;  // 729 assignments
  const RandomMilp m = make_random_milp(GetParam(), n_groups, n_choices);
  const double truth = brute_force(m, n_groups, n_choices);

  MilpOptions opts;
  opts.time_limit_s = 30.0;
  const MilpResult r = BranchAndBound(opts).solve(m.p, m.binaries);
  if (std::isinf(truth)) {
    EXPECT_EQ(r.status, MilpStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(r.objective, truth, 1e-6) << "seed " << GetParam();
    EXPECT_LE(m.p.max_violation(r.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MilpVsBruteForce,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u,
                                           89u, 144u, 233u));

class SimplexFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexFeasibility, OptimalPointsAreFeasibleAndNoWorseThanSamples) {
  // Random LPs: whenever the simplex reports optimal, the point must be
  // feasible, and no randomly sampled feasible point may beat it.
  sq::tensor::Rng rng(GetParam());
  const int n = 5;
  const LpProblem p = make_random_boxed_lp(rng, n);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.x), 1e-7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform(0.0, 10.0);
    if (p.max_violation(x) <= 1e-9) {
      EXPECT_GE(p.objective_value(x), s.objective - 1e-7) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexFeasibility,
                         ::testing::Values(7u, 11u, 19u, 23u, 31u, 41u, 53u, 61u));

}  // namespace
}  // namespace sq::solver
