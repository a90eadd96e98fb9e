#include "core/ilp.h"

#include <algorithm>
#include <cmath>

namespace sq::core {

namespace {

/// Memory is expressed in GiB inside the ILP to keep the constraint matrix
/// well-conditioned for the dense simplex.
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Position of z_{g,j,b} in IlpModel::binaries.
std::size_t z_index(int g, int j, int bi, int J, int B) {
  return (static_cast<std::size_t>(g) * J + static_cast<std::size_t>(j)) * B +
         static_cast<std::size_t>(bi);
}

}  // namespace

IlpModel build_ilp(const PlanContext& ctx, const std::optional<HeuristicPlan>& warm,
                   bool quality_only) {
  using sq::solver::Constraint;
  using sq::solver::Sense;

  const int G = ctx.num_groups(), J = ctx.num_stages(), B = ctx.num_bits();
  const double theta = ctx.inputs().theta;

  IlpModel model;
  auto& p = model.problem;
  // z variables, objective (4): per-group latency sums + theta * omega.
  auto& z = model.binaries;
  z.reserve(static_cast<std::size_t>(G) * J * B);
  auto zid = [&](int g, int j, int bi) { return z[z_index(g, j, bi, J, B)]; };
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < J; ++j) {
      for (int bi = 0; bi < B; ++bi) {
        double coeff = theta * ctx.omega(g, bi);
        if (!quality_only) coeff += ctx.l_pre(g, j, bi) + ctx.l_dec(g, j, bi);
        z.push_back(p.add_variable(coeff));
      }
    }
  }
  // Straggler variables.
  const int t_pre = p.add_variable(quality_only ? 0.0 : ctx.t_pre_coeff(), "Tpre");
  const int t_dec = p.add_variable(quality_only ? 0.0 : ctx.t_dec_coeff(), "Tdec");

  // (9)-(11): exactly one (stage, bit) per group.
  for (int g = 0; g < G; ++g) {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = 1.0;
    for (int j = 0; j < J; ++j) {
      for (int bi = 0; bi < B; ++bi) c.terms.push_back({zid(g, j, bi), 1.0});
    }
    p.add_constraint(std::move(c));
  }

  // (5)-(6): straggler definitions, with the master-stage constants folded
  // into the right-hand side: T_max - sum z*l >= c_j.
  if (!quality_only) {
    for (int j = 0; j < J; ++j) {
      Constraint pre;
      pre.sense = Sense::kGe;
      pre.rhs = ctx.const_pre(j);
      pre.terms.push_back({t_pre, 1.0});
      Constraint dec;
      dec.sense = Sense::kGe;
      dec.rhs = ctx.const_dec(j);
      dec.terms.push_back({t_dec, 1.0});
      for (int g = 0; g < G; ++g) {
        for (int bi = 0; bi < B; ++bi) {
          pre.terms.push_back({zid(g, j, bi), -ctx.l_pre(g, j, bi)});
          dec.terms.push_back({zid(g, j, bi), -ctx.l_dec(g, j, bi)});
        }
      }
      p.add_constraint(std::move(pre));
      p.add_constraint(std::move(dec));
      // (7): asynchronous communication bounds (constants).
      if (ctx.comm_pre(j) > 0.0) {
        p.add_constraint({{{t_pre, 1.0}}, Sense::kGe, ctx.comm_pre(j), ""});
      }
      if (ctx.comm_dec(j) > 0.0) {
        p.add_constraint({{{t_dec, 1.0}}, Sense::kGe, ctx.comm_dec(j), ""});
      }
    }
  }

  // (12)-(13): per-stage memory (budgets already include the embedding
  // block and TP scaling), in GiB.
  for (int j = 0; j < J; ++j) {
    Constraint c;
    c.sense = Sense::kLe;
    c.rhs = ctx.mem_budget(j) / kGiB;
    for (int g = 0; g < G; ++g) {
      for (int bi = 0; bi < B; ++bi) {
        c.terms.push_back({zid(g, j, bi), ctx.mem(g, j, bi) / kGiB});
      }
    }
    p.add_constraint(std::move(c));
  }

  // (15): anchor — group 0 on stage 0.
  {
    Constraint c;
    c.sense = Sense::kEq;
    c.rhs = 1.0;
    for (int bi = 0; bi < B; ++bi) c.terms.push_back({zid(0, 0, bi), 1.0});
    p.add_constraint(std::move(c));
  }

  // (16): contiguity via monotone stage indices:
  // sum_j j*z_g - sum_j j*z_{g-1} >= 0.
  for (int g = 1; g < G; ++g) {
    Constraint c;
    c.sense = Sense::kGe;
    c.rhs = 0.0;
    for (int j = 0; j < J; ++j) {
      for (int bi = 0; bi < B; ++bi) {
        if (j > 0) {
          c.terms.push_back({zid(g, j, bi), static_cast<double>(j)});
          c.terms.push_back({zid(g - 1, j, bi), -static_cast<double>(j)});
        }
      }
    }
    p.add_constraint(std::move(c));
  }

  // Optional quality budget: sum z*omega <= budget.
  if (ctx.inputs().omega_budget >= 0.0) {
    Constraint c;
    c.sense = Sense::kLe;
    c.rhs = ctx.inputs().omega_budget;
    for (int g = 0; g < G; ++g) {
      for (int j = 0; j < J; ++j) {
        for (int bi = 0; bi < B; ++bi) {
          if (ctx.omega(g, bi) != 0.0) c.terms.push_back({zid(g, j, bi), ctx.omega(g, bi)});
        }
      }
    }
    p.add_constraint(std::move(c));
  }

  // Warm start: expand a heuristic assignment into the variable space.
  auto& warm_x = model.warm_start;
  if (warm) {
    warm_x.assign(static_cast<std::size_t>(p.num_vars()), 0.0);
    for (int g = 0; g < G; ++g) {
      warm_x[static_cast<std::size_t>(
          zid(g, warm->group_stage[static_cast<std::size_t>(g)],
              warm->group_bit[static_cast<std::size_t>(g)]))] = 1.0;
    }
    warm_x[static_cast<std::size_t>(t_pre)] = warm->eval.t_pre_max;
    warm_x[static_cast<std::size_t>(t_dec)] = warm->eval.t_dec_max;
  }
  return model;
}

IlpOutcome solve_ilp(const PlanContext& ctx, const std::optional<HeuristicPlan>& warm,
                     const sq::solver::MilpOptions& opts, bool quality_only) {
  const IlpModel model = build_ilp(ctx, warm, quality_only);
  const auto r = sq::solver::BranchAndBound(opts).solve(model.problem, model.binaries,
                                                        model.warm_start);

  IlpOutcome out;
  out.nodes = r.nodes;
  out.pivots = r.pivots;
  out.seconds = r.seconds;
  out.best_bound = r.best_bound;
  out.hit_time_limit = r.hit_time_limit;
  out.proven_optimal = r.status == sq::solver::MilpStatus::kOptimal;
  out.truncated = r.status == sq::solver::MilpStatus::kFeasible ||
                  r.status == sq::solver::MilpStatus::kNoSolution;
  if (r.status != sq::solver::MilpStatus::kOptimal &&
      r.status != sq::solver::MilpStatus::kFeasible) {
    return out;
  }

  // Extract the assignment.
  const int G = ctx.num_groups(), J = ctx.num_stages(), B = ctx.num_bits();
  auto zid = [&](int g, int j, int bi) { return model.binaries[z_index(g, j, bi, J, B)]; };
  HeuristicPlan plan;
  plan.group_stage.assign(static_cast<std::size_t>(G), 0);
  plan.group_bit.assign(static_cast<std::size_t>(G), 0);
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < J; ++j) {
      for (int bi = 0; bi < B; ++bi) {
        if (r.x[static_cast<std::size_t>(zid(g, j, bi))] > 0.5) {
          plan.group_stage[static_cast<std::size_t>(g)] = j;
          plan.group_bit[static_cast<std::size_t>(g)] = bi;
        }
      }
    }
  }
  plan.eval = ctx.evaluate(plan.group_stage, plan.group_bit);
  if (!plan.eval.feasible) return out;  // Defensive; should not happen.
  out.feasible = true;
  out.objective = plan.eval.objective;
  out.plan = std::move(plan);
  return out;
}

}  // namespace sq::core
