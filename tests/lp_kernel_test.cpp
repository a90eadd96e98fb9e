// Oracle test for the simplex pivot and pricing kernels: every ISA path this
// CPU can run must reproduce the frozen reference simplex
// (oracles/lp_reference.cpp) byte for byte — status, objective bits, x
// bits (signed zeros included) and iteration count — and BranchAndBound
// over the kernels must walk the same tree (nodes, pivots, incumbent bytes) as over the reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristics.h"
#include "core/ilp.h"
#include "core_test_util.h"
#include "oracles/lp_reference.h"
#include "solver/lp.h"
#include "solver/milp.h"
#include "solver_test_util.h"
#include "tensor/rng.h"

namespace sq::solver {
namespace {

using oracle::reference_solve;

/// ISA levels this machine can actually run (always includes "base").
std::vector<const char*> available_isas() {
  std::vector<const char*> isas{"base"};
  for (const char* name : {"avx2", "avx512"}) {
    if (set_lp_isa(name)) isas.push_back(name);
  }
  set_lp_isa("auto");
  return isas;
}

struct IsaGuard {
  ~IsaGuard() { set_lp_isa("auto"); }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

::testing::AssertionResult same_solution(const LpSolution& got, const LpSolution& want) {
  if (got.status != want.status) {
    return ::testing::AssertionFailure() << "status " << static_cast<int>(got.status)
                                         << " vs " << static_cast<int>(want.status);
  }
  if (got.iterations != want.iterations) {
    return ::testing::AssertionFailure() << "iterations " << got.iterations << " vs "
                                         << want.iterations;
  }
  if (!same_bits(got.objective, want.objective)) {
    return ::testing::AssertionFailure() << "objective " << got.objective << " vs "
                                         << want.objective;
  }
  if (got.x.size() != want.x.size()) {
    return ::testing::AssertionFailure() << "x size " << got.x.size() << " vs "
                                         << want.x.size();
  }
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    if (!same_bits(got.x[i], want.x[i])) {
      return ::testing::AssertionFailure() << "x[" << i << "] " << got.x[i] << " vs "
                                           << want.x[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// One LP solve to replay: problem, fixings and iteration cap.
struct LpCase {
  std::string label;
  LpProblem p;
  std::vector<std::uint8_t> mask;
  std::vector<double> value;
  int max_iterations = 20000;
};

/// Pin each variable with probability `p_fix` at a value from `draw`, the
/// way branch-and-bound fixes binaries (the fixed terms move to the rhs and
/// can flip row signs).
void add_fixings(LpCase& c, sq::tensor::Rng& rng, double p_fix,
                 const std::function<double()>& draw) {
  const auto n = static_cast<std::size_t>(c.p.num_vars());
  c.mask.assign(n, 0);
  c.value.assign(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.bernoulli(p_fix)) {
      c.mask[v] = 1;
      c.value[v] = draw();
    }
  }
}

/// A mixed-sense LP: sparse coefficients of both signs, rhs of both signs
/// or a signed zero (degenerate pivots; a -0.0 rhs stays in the tableau and
/// its sign must survive exactly as the reference computes it), occasional
/// duplicated rows (redundant equalities keep an artificial basic at zero)
/// and no box on some instances (so some are unbounded).
LpProblem make_mixed_lp(sq::tensor::Rng& rng) {
  LpProblem p;
  const int n = static_cast<int>(rng.range(2, 14));
  const int m = static_cast<int>(rng.range(1, 12));
  for (int i = 0; i < n; ++i) p.add_variable(rng.uniform(-1.0, 1.0));
  for (int r = 0; r < m; ++r) {
    if (r > 0 && rng.bernoulli(0.1)) {
      p.add_constraint(p.constraints()[rng.below(static_cast<std::uint64_t>(r))]);
      continue;
    }
    Constraint c;
    c.sense = static_cast<Sense>(rng.below(3));
    for (int i = 0; i < n; ++i) {
      if (rng.bernoulli(0.6)) c.terms.push_back({i, rng.uniform(-2.0, 2.0)});
    }
    c.rhs = rng.uniform(-3.0, 3.0);
    if (rng.bernoulli(0.4)) c.rhs = rng.bernoulli(0.5) ? -0.0 : 0.0;
    p.add_constraint(std::move(c));
  }
  if (rng.bernoulli(0.8)) {
    for (int i = 0; i < n; ++i) p.add_constraint({{{i, 1.0}}, Sense::kLe, 5.0, ""});
  }
  return p;
}

/// >= 500 seeded LPs over three generators, with random fixings and, for a
/// slice of them, a tiny iteration cap (reaches Bland pricing and
/// kIterLimit).
std::vector<LpCase> random_cases() {
  std::vector<LpCase> cases;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sq::tensor::Rng rng(seed * 7919);
    const int groups = 2 + static_cast<int>(seed % 5);
    const int choices = 2 + static_cast<int>(seed % 4);
    LpCase c{"milp seed " + std::to_string(seed),
             testutil::make_random_milp(seed, groups, choices).p, {}, {}, 20000};
    add_fixings(c, rng, seed % 4 == 0 ? 0.0 : 0.15,
                [&rng] { return rng.bernoulli(0.2) ? 1.0 : 0.0; });
    if (seed % 10 == 0) c.max_iterations = 2 + static_cast<int>(seed % 7);
    cases.push_back(std::move(c));
  }
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    sq::tensor::Rng rng(seed);
    LpCase c{"boxed seed " + std::to_string(seed),
             testutil::make_random_boxed_lp(rng, 2 + static_cast<int>(seed % 9)), {}, {},
             20000};
    add_fixings(c, rng, 0.25, [&rng] { return rng.uniform(0.0, 3.0); });
    cases.push_back(std::move(c));
  }
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    sq::tensor::Rng rng(seed + 100000);
    LpCase c{"mixed seed " + std::to_string(seed), make_mixed_lp(rng), {}, {}, 20000};
    add_fixings(c, rng, 0.2, [&rng] { return rng.uniform(-1.0, 2.0); });
    if (seed % 8 == 0) c.max_iterations = 1 + static_cast<int>(seed % 5);
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(LpKernel, ForcingUnknownOrUnsupportedIsaFails) {
  IsaGuard guard;
  EXPECT_FALSE(set_lp_isa("neon"));
  EXPECT_TRUE(set_lp_isa("base"));
  EXPECT_STREQ(lp_isa(), "base");
  EXPECT_TRUE(set_lp_isa("auto"));
}

TEST(LpKernel, RandomLpsMatchReferenceBytesOnEveryIsa) {
  IsaGuard guard;
  const std::vector<LpCase> cases = random_cases();
  ASSERT_GE(cases.size(), 500u);
  std::vector<LpSolution> want;
  int statuses[4] = {0, 0, 0, 0};
  for (const auto& c : cases) {
    want.push_back(reference_solve(c.p, c.mask, c.value, c.max_iterations));
    ++statuses[static_cast<int>(want.back().status)];
  }
  // The generators must reach every outcome, or the comparison is vacuous.
  for (const LpStatus st : {LpStatus::kOptimal, LpStatus::kInfeasible, LpStatus::kUnbounded,
                            LpStatus::kIterLimit}) {
    EXPECT_GT(statuses[static_cast<int>(st)], 0) << "status " << static_cast<int>(st);
  }
  for (const char* isa : available_isas()) {
    ASSERT_TRUE(set_lp_isa(isa));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& c = cases[i];
      EXPECT_TRUE(same_solution(
          SimplexSolver(c.max_iterations).solve(c.p, c.mask, c.value), want[i]))
          << isa << " " << c.label;
    }
  }
}

/// The ilp_test.cpp instances, as MILPs.
struct IlpCase {
  std::string label;
  sq::core::IlpModel model;
};

std::vector<IlpCase> ilp_cases() {
  using sq::core::testutil::Harness;
  using sq::model::ModelId;
  const sq::sim::BatchWorkload batch{8, 512, 32, 2048};
  std::vector<IlpCase> cases;
  auto add = [&](std::string label, const sq::core::PlanContext& ctx, bool warm,
                 bool quality_only) {
    const auto w = warm ? sq::core::greedy_plan(ctx) : std::nullopt;
    cases.push_back({std::move(label), sq::core::build_ilp(ctx, w, quality_only)});
  };
  {
    const Harness h(ModelId::kOpt13B, 9, batch);
    add("opt13b c9", h.context(4, 8, 8), true, false);
  }
  {
    const Harness h(ModelId::kOpt30B, 5, batch);
    add("opt30b c5", h.context(2, 8, 8), true, false);
    add("opt30b c5 quality-only", h.context(2, 8, 8), false, true);
    add("opt30b c5 cold", h.context(2, 8, 8), false, false);
  }
  {
    const Harness h(ModelId::kOpt30B, 6, batch);
    add("opt30b c6", h.context(2, 8, 8), true, false);
  }
  {
    const Harness h(ModelId::kLlama33_70B, 1, batch);
    add("llama70b c1 infeasible", h.context(2, 8, 16), false, false);
  }
  {
    Harness h(ModelId::kOpt13B, 9, batch, 0.0);
    h.inputs.omega_budget = 0.0;
    add("opt13b c9 fp16 budget", h.context(4, 8, 8), true, false);
  }
  return cases;
}

TEST(LpKernel, BranchAndBoundWalksTheReferenceTreeOnEveryIsa) {
  IsaGuard guard;
  MilpOptions opts;
  opts.time_limit_s = 1e9;  // The node sequence must not depend on host speed.
  for (const auto& c : ilp_cases()) {
    const auto& m = c.model;
    const MilpResult want =
        BranchAndBound(opts, [](const LpProblem& p, const std::vector<std::uint8_t>& mask,
                                const std::vector<double>& value) {
          return reference_solve(p, mask, value);
        }).solve(m.problem, m.binaries, m.warm_start);
    EXPECT_GT(want.nodes, 0) << c.label;
    for (const char* isa : available_isas()) {
      ASSERT_TRUE(set_lp_isa(isa));
      const MilpResult got = BranchAndBound(opts).solve(m.problem, m.binaries, m.warm_start);
      const std::string at = std::string(isa) + " " + c.label;
      EXPECT_EQ(got.status, want.status) << at;
      EXPECT_EQ(got.nodes, want.nodes) << at;
      EXPECT_EQ(got.pivots, want.pivots) << at;
      EXPECT_TRUE(same_bits(got.objective, want.objective)) << at;
      EXPECT_TRUE(same_bits(got.best_bound, want.best_bound)) << at;
      ASSERT_EQ(got.x.size(), want.x.size()) << at;
      for (std::size_t i = 0; i < got.x.size(); ++i) {
        EXPECT_TRUE(same_bits(got.x[i], want.x[i])) << at << " x[" << i << "]";
      }
    }
  }
}

TEST(LpKernel, ConcurrentSolvesMatchReferenceWhileIsaSwitches) {
  // The planner runs ILP solves on a pool; every solve reads the dispatch
  // pointer.  Solves racing a dispatch switch must still match the oracle.
  IsaGuard guard;
  std::vector<LpCase> cases = random_cases();
  cases.resize(120);
  std::vector<LpSolution> want;
  for (const auto& c : cases) {
    want.push_back(reference_solve(c.p, c.mask, c.value, c.max_iterations));
  }
  const std::vector<const char*> isas = available_isas();
  std::atomic<int> mismatches{0};
  std::atomic<int> running{3};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (std::size_t i = static_cast<std::size_t>(t); i < cases.size(); i += 3) {
          const auto& c = cases[i];
          if (!same_solution(SimplexSolver(c.max_iterations).solve(c.p, c.mask, c.value),
                             want[i])) {
            mismatches.fetch_add(1);
          }
        }
      }
      running.fetch_sub(1);
    });
  }
  for (std::size_t k = 0; running.load() > 0; ++k) {
    set_lp_isa(isas[k % isas.size()]);
    std::this_thread::yield();
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sq::solver
