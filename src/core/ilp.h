// ILP formulation of the joint bitwidth-assignment / layer-partition
// problem (paper Eq. (4)-(16)), built on the PlanContext tables and solved
// with the in-repo branch-and-bound solver.
//
// Variables: binary z_{g,j,b} (layer group g on stage j at bitwidth b)
// plus continuous straggler times T_max^pre and T_max^dec.  Constraints:
// one assignment per group (9)-(11 collapsed), per-stage memory with the
// master's embedding block (12)-(13), straggler definitions (5)-(6),
// communication bounds (7), monotone stage indices encoding the contiguous
// partition (15)-(16), and an optional quality budget.  The objective is
// the generalized pipeline latency plus theta times the quality penalty.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/context.h"
#include "core/heuristics.h"
#include "solver/milp.h"

namespace sq::core {

/// Result of one ILP solve.
struct IlpOutcome {
  bool feasible = false;
  HeuristicPlan plan;        ///< Extracted assignment with evaluation.
  double objective = 0.0;    ///< MILP objective (matches plan.eval.objective).
  double best_bound = 0.0;   ///< Solver lower bound.
  int nodes = 0;             ///< B&B nodes.
  std::int64_t pivots = 0;   ///< Simplex iterations over all nodes.
  double seconds = 0.0;      ///< Solve wall time.
  bool hit_time_limit = false;
  bool proven_optimal = false;
  /// The search stopped at the time or node cap without proving the
  /// incumbent optimal (a proven-infeasible solve is not truncated).
  bool truncated = false;
};

/// The MILP of Eq. (4)-(16) for one context, as BranchAndBound takes it.
struct IlpModel {
  sq::solver::LpProblem problem;
  /// The z_{g,j,b} variables at index (g * J + j) * B + b; all binary.
  std::vector<int> binaries;
  /// Integer-feasible incumbent from the warm plan; empty without one.
  std::vector<double> warm_start;
};

/// Build the ILP for `ctx` (see solve_ilp for the arguments).
IlpModel build_ilp(const PlanContext& ctx, const std::optional<HeuristicPlan>& warm,
                   bool quality_only = false);

/// Build and solve the ILP for `ctx`.  `warm`, when present, seeds the
/// solver with an integer-feasible incumbent.  `quality_only` drops the
/// latency terms (the `adabits` simplified ILP of Sec. IV-C).
IlpOutcome solve_ilp(const PlanContext& ctx, const std::optional<HeuristicPlan>& warm,
                     const sq::solver::MilpOptions& opts, bool quality_only = false);

}  // namespace sq::core
