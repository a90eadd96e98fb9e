// Frozen reference simplex: the test oracle for the pivot/pricing kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/lp.h"

namespace sq::solver::oracle {

/// Same contract as SimplexSolver(max_iterations).solve(p, fixed_mask,
/// fixed_value), computed by the pre-kernel scalar loops.
LpSolution reference_solve(const LpProblem& p, const std::vector<std::uint8_t>& fixed_mask = {},
                           const std::vector<double>& fixed_value = {},
                           int max_iterations = 20000);

}  // namespace sq::solver::oracle
