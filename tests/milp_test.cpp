// Tests for the branch-and-bound MILP solver.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "solver/milp.h"
#include "tensor/rng.h"

namespace sq::solver {
namespace {

TEST(Milp, BinaryKnapsackViaAssignment) {
  // Three items, two slots, slot 0 capacity 1: classic small MILP with a
  // fractional LP relaxation.
  LpProblem p;
  const double cost[3][2] = {{1.0, 2.5}, {2.0, 1.2}, {1.5, 1.4}};
  int z[3][2];
  std::vector<int> bins;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      z[i][j] = p.add_variable(cost[i][j]);
      bins.push_back(z[i][j]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    p.add_constraint({{{z[i][0], 1.0}, {z[i][1], 1.0}}, Sense::kEq, 1.0, ""});
  }
  p.add_constraint({{{z[0][0], 1.0}, {z[1][0], 1.0}, {z[2][0], 1.0}}, Sense::kLe, 1.0, ""});
  const MilpResult r = BranchAndBound().solve(p, bins);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.6, 1e-9);  // item0->slot0, others slot1
  EXPECT_GT(r.x[static_cast<std::size_t>(z[0][0])], 0.5);
}

TEST(Milp, DetectsInfeasibility) {
  LpProblem p;
  const int a = p.add_variable(1.0);
  const int b = p.add_variable(1.0);
  p.add_constraint({{{a, 1.0}, {b, 1.0}}, Sense::kEq, 1.0, ""});
  p.add_constraint({{{a, 1.0}}, Sense::kGe, 2.0, ""});  // forces a >= 2 > 1
  const MilpResult r = BranchAndBound().solve(p, {a, b});
  EXPECT_EQ(r.status, MilpStatus::kInfeasible);
}

TEST(Milp, WarmStartAccepted) {
  LpProblem p;
  const int a = p.add_variable(1.0);
  const int b = p.add_variable(2.0);
  p.add_constraint({{{a, 1.0}, {b, 1.0}}, Sense::kEq, 1.0, ""});
  const std::vector<double> warm = {0.0, 1.0};  // feasible, obj 2
  const MilpResult r = BranchAndBound().solve(p, {a, b}, warm);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);  // improves past the warm start
}

TEST(Milp, InvalidWarmStartIgnored) {
  LpProblem p;
  const int a = p.add_variable(1.0);
  const int b = p.add_variable(2.0);
  p.add_constraint({{{a, 1.0}, {b, 1.0}}, Sense::kEq, 1.0, ""});
  const std::vector<double> warm = {1.0, 1.0};  // violates the equality
  const MilpResult r = BranchAndBound().solve(p, {a, b}, warm);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(Milp, IntegerRoundingMattersVsLp) {
  // min -x1 - x2 s.t. 2x1 + 2x2 <= 3 with binaries: LP gives 1.5 items,
  // MILP must settle for exactly one.
  LpProblem p;
  const int x1 = p.add_variable(-1.0);
  const int x2 = p.add_variable(-1.0);
  p.add_constraint({{{x1, 2.0}, {x2, 2.0}}, Sense::kLe, 3.0, ""});
  // Bound binaries explicitly since no assignment equality implies <= 1.
  p.add_constraint({{{x1, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x2, 1.0}}, Sense::kLe, 1.0, ""});
  const MilpResult r = BranchAndBound().solve(p, {x1, x2});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-9);
}

TEST(Milp, TimeLimitProducesIncumbentAndBound) {
  // Random assignment problem large enough to take a few nodes; a generous
  // cap still proves optimality, a zero-second cap must truncate.
  sq::tensor::Rng rng(3);
  LpProblem p;
  const int n = 12, m = 4;
  std::vector<int> bins;
  std::vector<std::vector<int>> z(n, std::vector<int>(m));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          p.add_variable(rng.uniform(1.0, 2.0));
      bins.push_back(z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  for (int i = 0; i < n; ++i) {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = 1.0;
    for (int j = 0; j < m; ++j) {
      c.terms.push_back({z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    }
    p.add_constraint(std::move(c));
  }
  for (int j = 0; j < m; ++j) {
    Constraint c;
    c.sense = Sense::kLe;
    c.rhs = 3.0;
    for (int i = 0; i < n; ++i) {
      c.terms.push_back({z[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
    }
    p.add_constraint(std::move(c));
  }

  MilpOptions gen;
  gen.time_limit_s = 30.0;
  const MilpResult full = BranchAndBound(gen).solve(p, bins);
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_LE(full.best_bound, full.objective + 1e-6);

  MilpOptions tight;
  tight.time_limit_s = 0.0;
  const MilpResult cut = BranchAndBound(tight).solve(p, bins);
  EXPECT_TRUE(cut.hit_time_limit);
  EXPECT_NE(cut.status, MilpStatus::kOptimal);
}

TEST(Milp, NodeCapRespected) {
  LpProblem p;
  std::vector<int> bins;
  // Independent <= rows make many fractional branches.
  for (int i = 0; i < 10; ++i) {
    const int v = p.add_variable(-1.0);
    bins.push_back(v);
    p.add_constraint({{{v, 2.0}}, Sense::kLe, 1.0, ""});
  }
  MilpOptions opts;
  opts.max_nodes = 3;
  const MilpResult r = BranchAndBound(opts).solve(p, bins);
  EXPECT_LE(r.nodes, 3);
}

TEST(Milp, NodeCapStopIsNotReportedAsTimeLimitHit) {
  LpProblem p;
  std::vector<int> bins;
  for (int i = 0; i < 10; ++i) {
    const int v = p.add_variable(-1.0);
    bins.push_back(v);
    p.add_constraint({{{v, 2.0}}, Sense::kLe, 1.0, ""});
  }
  MilpOptions opts;
  opts.max_nodes = 3;
  opts.time_limit_s = 1e9;
  const MilpResult r = BranchAndBound(opts).solve(p, bins);
  EXPECT_EQ(r.nodes, 3);
  EXPECT_NE(r.status, MilpStatus::kOptimal);
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(Milp, PivotsSumTheIterationsOfEveryNodeLp) {
  LpProblem p;
  std::vector<int> bins;
  for (int i = 0; i < 6; ++i) {
    const int v = p.add_variable(-1.0 - 0.1 * i);
    bins.push_back(v);
    p.add_constraint({{{v, 2.0}}, Sense::kLe, 1.0, ""});
  }
  std::int64_t iterations = 0;
  int calls = 0;
  const MilpResult r =
      BranchAndBound({}, [&](const LpProblem& lp, const std::vector<std::uint8_t>& mask,
                             const std::vector<double>& value) {
        const LpSolution s = SimplexSolver().solve(lp, mask, value);
        iterations += s.iterations;
        ++calls;
        return s;
      }).solve(p, bins);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_EQ(r.nodes, calls);
  EXPECT_EQ(r.pivots, iterations);
  EXPECT_GE(r.pivots, r.nodes);  // even an optimal slack basis takes one pricing pass
  // The default LP path does the same work.
  const MilpResult plain = BranchAndBound().solve(p, bins);
  EXPECT_EQ(plain.nodes, r.nodes);
  EXPECT_EQ(plain.pivots, r.pivots);
}

TEST(Milp, ContinuousVariablesStayFractional) {
  // One binary, one continuous: solution keeps the continuous var exact.
  LpProblem p;
  const int b = p.add_variable(-1.0);
  const int t = p.add_variable(1.0);
  p.add_constraint({{{b, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{t, 1.0}, {b, -0.5}}, Sense::kGe, 0.0, ""});  // t >= b/2
  const MilpResult r = BranchAndBound().solve(p, {b});
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(b)], 1.0, 1e-9);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(t)], 0.5, 1e-9);
}

}  // namespace
}  // namespace sq::solver
