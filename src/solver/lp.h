// Dense two-phase primal simplex.
//
// The paper hands its ILP (4)-(16) to GUROBI; we have no solver binaries,
// so the repository carries its own: this LP core plus the branch-and-bound
// wrapper in milp.h.  The formulation the assigner generates is small after
// layer grouping (tens of rows, hundreds of columns), so a dense tableau
// with Dantzig pricing (Bland fallback for anti-cycling) is entirely
// adequate and easy to audit.
//
// Canonical form: minimize c.x subject to per-row { a.x (<=|>=|=) b } and
// x >= 0 elementwise.  Upper bounds on variables are not represented
// directly; the MILP layer handles binary fixing by substitution and the
// assigner's formulation implies z <= 1 through its assignment equalities.
//
// Determinism contract.  The pivot (row elimination) and the Dantzig
// pricing scan run in kernels compiled for SSE2 (the x86-64 baseline),
// AVX2 and AVX-512 and picked once at startup with __builtin_cpu_supports
// (set_lp_isa below forces one).  Every path yields the same bits as the
// scalar loops they replaced — every pivot, every LpSolution (signed zeros
// included), so every branch-and-bound tree and every plan — because:
//
//   1. Each pivot updates full dense rows: every tableau element is one
//      independent chain dst[c] - f * src[c], an explicit multiply and then
//      a subtract, and lp.cpp is compiled with -ffp-contract=off so no path
//      can fuse them into an FMA.  Vector width only changes how many
//      chains retire per instruction.
//   2. No zero-skipping inside a row.  Skipping src[c] == 0 looks free but
//      is not exact: -0.0 - f * 0.0 is +0.0 when f < 0, and in the rhs
//      column that sign is the sign of an x entry.  It is not faster
//      either: skipping all-zero 8-wide blocks ran about 1.5x slower on the
//      assigner's ILPs (the branch mispredicts).  Whole rows whose
//      pivot-column entry is below kEps are skipped, as they always were.
//   3. Artificial columns go dead after phase 1 — pricing stops before
//      them and extraction reads only the rhs — so phase 2 stops scaling
//      and updating them.  Every column that is still read gets exactly
//      the operations it always got.
//   4. Pricing returns the first column holding the most negative reduced
//      cost, as the scalar strict-< scan does: the vector paths take a
//      NaN-ignoring minimum, then the first column equal to it.
//
// tests/lp_kernel_test.cpp holds these against a frozen copy of the scalar
// simplex on every path the host can run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sq::solver {

/// Row comparison sense.
enum class Sense { kLe, kGe, kEq };

/// Sparse linear expression term: coefficient on variable `var`.
struct Term {
  int var = 0;
  double coeff = 0.0;
};

/// One linear constraint: sum(terms) sense rhs.
struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;  ///< Optional, for debugging.
};

/// A minimization LP over nonnegative variables.
class LpProblem {
 public:
  /// Add a variable with objective coefficient `obj`.  Returns its index.
  int add_variable(double obj, std::string name = "");

  /// Add a constraint; all referenced variables must already exist.
  void add_constraint(Constraint c);

  /// Number of variables / constraints.
  int num_vars() const { return static_cast<int>(obj_.size()); }
  int num_constraints() const { return static_cast<int>(rows_.size()); }

  /// Objective coefficients.
  const std::vector<double>& objective() const { return obj_; }
  /// Constraint rows.
  const std::vector<Constraint>& constraints() const { return rows_; }
  /// Variable name (may be empty).
  const std::string& var_name(int v) const { return names_[static_cast<std::size_t>(v)]; }

  /// Evaluate the objective at a point.
  double objective_value(const std::vector<double>& x) const;

  /// Max violation of any constraint at `x` (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> obj_;
  std::vector<std::string> names_;
  std::vector<Constraint> rows_;
};

/// Name of the dispatched pivot-kernel path ("avx512", "avx2" or "base").
/// Informational: all paths produce identical bits.
const char* lp_isa();

/// Test hook: force a pivot-kernel path by name ("base", "avx2",
/// "avx512") or restore runtime selection ("auto").  Returns false —
/// leaving the dispatch unchanged — when this CPU cannot run the requested
/// path or the name is unknown.  Thread-safe; takes effect on the next
/// solve.
bool set_lp_isa(const char* name);

/// Simplex outcome.
enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

/// Solution of an LP solve.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;  ///< Size num_vars (zeros unless kOptimal).
  int iterations = 0;
};

/// Dense two-phase primal simplex solver.
///
/// `fixed` (optional, size num_vars) pins variables to given values; fixed
/// variables are substituted out before the solve, which is how the MILP
/// branch-and-bound explores 0/1 branches without upper-bound rows.
class SimplexSolver {
 public:
  /// Iteration cap across both phases (safety net; the assigner's LPs take
  /// a few hundred iterations).
  explicit SimplexSolver(int max_iterations = 20000)
      : max_iterations_(max_iterations) {}

  /// Solve `p`, optionally with fixings: fixed_mask[v] true means variable
  /// v is pinned at fixed_value[v].
  LpSolution solve(const LpProblem& p, const std::vector<std::uint8_t>& fixed_mask = {},
                   const std::vector<double>& fixed_value = {}) const;

 private:
  int max_iterations_;
};

}  // namespace sq::solver
