// Branch-and-bound mixed-integer solver over the simplex core.
//
// Plays GUROBI's role for the assigner ILP: binary decision variables
// (layer-to-device-at-bitwidth assignments) plus continuous ones (the
// straggler times T_max).  Branching fixes binaries by substitution — no
// bound rows — relying on the formulation's assignment equalities to cap
// relaxed binaries at 1.  Supports a wall-clock time limit (Table VI runs
// the solver with a 60 s cap) and warm-start incumbents from heuristics.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/lp.h"

namespace sq::solver {

/// Branch-and-bound options.
struct MilpOptions {
  double time_limit_s = 60.0;   ///< Wall-clock cap (paper Sec. VI-F).
  double rel_gap = 1e-6;        ///< Stop when (incumbent-bound)/|incumbent| below.
  int max_nodes = 500'000;      ///< Safety cap on explored nodes.
  double int_tol = 1e-6;        ///< Integrality tolerance.
};

/// Result status of a MILP solve.
enum class MilpStatus {
  kOptimal,     ///< Proven optimal within gap.
  kFeasible,    ///< Incumbent found but search truncated (time/node cap).
  kInfeasible,  ///< No integer-feasible point exists.
  kNoSolution,  ///< Truncated before any incumbent was found.
};

/// Outcome of a MILP solve.
struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  double objective = 0.0;      ///< Incumbent objective (if any).
  std::vector<double> x;       ///< Incumbent point (size num_vars).
  double best_bound = 0.0;     ///< Global lower bound at termination.
  int nodes = 0;               ///< B&B nodes explored.
  /// Simplex iterations summed over the solved nodes (LpSolution::
  /// iterations): an exact, host-independent work counter.
  std::int64_t pivots = 0;
  double seconds = 0.0;        ///< Wall-clock solve time.
  bool hit_time_limit = false; ///< Search stopped at the wall-clock cap.
};

/// Solves one node's LP relaxation: (problem, fixed_mask, fixed_value), as
/// SimplexSolver::solve takes them.
using LpSolveFn = std::function<LpSolution(const LpProblem&, const std::vector<std::uint8_t>&,
                                           const std::vector<double>&)>;

/// Branch-and-bound solver for LpProblem + binary-variable markings.
class BranchAndBound {
 public:
  explicit BranchAndBound(MilpOptions opts = {}) : opts_(opts) {}
  /// Search over `lp` instead of SimplexSolver: the seam through which
  /// tests replay the tree on a reference simplex.
  BranchAndBound(MilpOptions opts, LpSolveFn lp) : opts_(opts), lp_(std::move(lp)) {}

  /// Solve `p` with `binary_vars` restricted to {0, 1}.  `warm_start`, if
  /// nonempty, must be an integer-feasible point used as the initial
  /// incumbent (checked; ignored when infeasible).
  MilpResult solve(const LpProblem& p, const std::vector<int>& binary_vars,
                   const std::vector<double>& warm_start = {}) const;

 private:
  MilpOptions opts_;
  LpSolveFn lp_;  ///< Empty: SimplexSolver.
};

}  // namespace sq::solver
