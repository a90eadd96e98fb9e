#include "solver/milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

namespace sq::solver {

namespace {

using Clock = std::chrono::steady_clock;

struct Node {
  std::vector<std::uint8_t> fixed_mask;
  std::vector<double> fixed_value;
  double parent_bound = -std::numeric_limits<double>::infinity();
  int depth = 0;
};

struct NodeOrder {
  bool operator()(const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) const {
    if (a->parent_bound != b->parent_bound) return a->parent_bound > b->parent_bound;
    return a->depth < b->depth;  // Prefer deeper nodes on ties (diving).
  }
};

/// Index of the most fractional binary in `x`, or -1 if integral.
int most_fractional(const std::vector<double>& x, const std::vector<int>& bins,
                    double tol) {
  int best = -1;
  double best_frac = tol;
  for (int v : bins) {
    const double val = x[static_cast<std::size_t>(v)];
    const double frac = std::abs(val - std::round(val));
    if (frac > best_frac) {
      best_frac = frac;
      best = v;
    }
  }
  return best;
}

bool integer_feasible(const LpProblem& p, const std::vector<double>& x,
                      const std::vector<int>& bins, double tol) {
  if (x.size() != static_cast<std::size_t>(p.num_vars())) return false;
  for (int v : bins) {
    const double val = x[static_cast<std::size_t>(v)];
    if (std::abs(val - std::round(val)) > tol) return false;
    if (val < -tol || val > 1.0 + tol) return false;
  }
  return p.max_violation(x) <= 1e-6;
}

}  // namespace

MilpResult BranchAndBound::solve(const LpProblem& p, const std::vector<int>& binary_vars,
                                 const std::vector<double>& warm_start) const {
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  MilpResult res;
  const SimplexSolver lp;
  const int n = p.num_vars();

  double incumbent = std::numeric_limits<double>::infinity();
  std::vector<double> incumbent_x;
  if (!warm_start.empty() && integer_feasible(p, warm_start, binary_vars, opts_.int_tol)) {
    incumbent = p.objective_value(warm_start);
    incumbent_x = warm_start;
  }

  std::priority_queue<std::shared_ptr<Node>, std::vector<std::shared_ptr<Node>>,
                      NodeOrder>
      open;
  {
    auto root = std::make_shared<Node>();
    root->fixed_mask.assign(static_cast<std::size_t>(n), 0);
    root->fixed_value.assign(static_cast<std::size_t>(n), 0.0);
    open.push(std::move(root));
  }

  double global_bound = -std::numeric_limits<double>::infinity();
  bool truncated = false;

  while (!open.empty()) {
    // One clock reading decides both the stop and its label, so a node-cap
    // stop is never reported as a time-limit hit.
    const bool out_of_time = elapsed() >= opts_.time_limit_s;
    if (res.nodes >= opts_.max_nodes || out_of_time) {
      truncated = true;
      res.hit_time_limit = out_of_time;
      global_bound = open.top()->parent_bound;
      break;
    }
    auto node = open.top();
    open.pop();

    // Bound pruning against the incumbent.
    if (node->parent_bound >= incumbent - std::abs(incumbent) * opts_.rel_gap) {
      global_bound = std::max(global_bound, node->parent_bound);
      // Best-first: every remaining node is at least as bad.
      break;
    }

    const LpSolution rel = lp_ ? lp_(p, node->fixed_mask, node->fixed_value)
                               : lp.solve(p, node->fixed_mask, node->fixed_value);
    ++res.nodes;
    res.pivots += rel.iterations;
    if (rel.status == LpStatus::kInfeasible) continue;
    if (rel.status == LpStatus::kUnbounded) {
      // Relaxation unbounded at the root means the MILP is ill-posed;
      // deeper in the tree it cannot improve a bounded incumbent safely —
      // treat as no information and skip.
      continue;
    }
    if (rel.status == LpStatus::kIterLimit) continue;
    if (rel.objective >= incumbent - std::abs(incumbent) * opts_.rel_gap) continue;

    const int branch_var = most_fractional(rel.x, binary_vars, opts_.int_tol);
    if (branch_var < 0) {
      // Integral point.
      if (rel.objective < incumbent) {
        incumbent = rel.objective;
        incumbent_x = rel.x;
        for (int v : binary_vars) {
          incumbent_x[static_cast<std::size_t>(v)] =
              std::round(incumbent_x[static_cast<std::size_t>(v)]);
        }
      }
      continue;
    }

    const double frac = rel.x[static_cast<std::size_t>(branch_var)];
    // Child closer to the LP value is pushed last-equal-bound so the queue
    // dives toward it first.
    for (const double val : {frac >= 0.5 ? 1.0 : 0.0, frac >= 0.5 ? 0.0 : 1.0}) {
      auto child = std::make_shared<Node>();
      child->fixed_mask = node->fixed_mask;
      child->fixed_value = node->fixed_value;
      child->fixed_mask[static_cast<std::size_t>(branch_var)] = 1;
      child->fixed_value[static_cast<std::size_t>(branch_var)] = val;
      child->parent_bound = rel.objective;
      child->depth = node->depth + 1;
      open.push(std::move(child));
    }
  }

  res.seconds = elapsed();
  if (!truncated && open.empty()) {
    global_bound = incumbent;  // Search exhausted.
  }
  res.best_bound = std::isfinite(global_bound) ? global_bound : incumbent;

  if (incumbent_x.empty()) {
    res.status = truncated ? MilpStatus::kNoSolution : MilpStatus::kInfeasible;
    return res;
  }
  res.objective = incumbent;
  res.x = std::move(incumbent_x);
  const double gap = std::abs(incumbent) > 0
                         ? (incumbent - res.best_bound) / std::abs(incumbent)
                         : incumbent - res.best_bound;
  const bool proven =
      !truncated || (std::isfinite(global_bound) && gap <= opts_.rel_gap);
  res.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
  return res;
}

}  // namespace sq::solver
