// PlanContext: the prepared data behind one ILP instance — per
// (layer-group, stage, bitwidth) latency and memory tables, communication
// bounds, master-stage constants, and the scaled quality indicator.
// Shared by the ILP formulation, the greedy incumbent generator, the
// adabits/bitwidth-transfer heuristics, and the baselines, so all of them
// price candidate plans identically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cost/latency_model.h"
#include "core/topology.h"
#include "hw/cluster.h"
#include "model/llm.h"
#include "quant/indicator.h"
#include "sim/plan.h"

namespace sq::core {

using sq::hw::Bitwidth;

/// Inputs that stay fixed across topologies/micro-batch pairs.
struct PlanInputs {
  const sq::model::LlmSpec* model = nullptr;
  const sq::hw::Cluster* cluster = nullptr;
  const sq::cost::LatencyCostModel* latency = nullptr;
  sq::sim::BatchWorkload workload;            ///< Planning batch shape.
  std::vector<Bitwidth> bits;                 ///< Candidate bitwidths.
  Bitwidth kv_bits = Bitwidth::kFp16;
  /// Indicator values in PPL units: omega_ppl[layer][bit index].
  std::vector<std::vector<double>> omega_ppl;
  double theta = 10.0;          ///< Quality scalar of objective (4).
  double omega_budget = -1.0;   ///< Max total omega (PPL units); <0 = off.
};

/// Evaluation of a concrete (device, bitwidth) assignment of layer groups.
struct AssignmentEval {
  bool feasible = false;       ///< Memory + structure constraints hold.
  double latency_s = 0.0;      ///< Pipeline batch latency, objective (4) part 1.
  double omega = 0.0;          ///< Total quality penalty (PPL units).
  double objective = 0.0;      ///< latency + theta * omega.
  double t_pre_max = 0.0;      ///< Straggler prefill stage time, seconds.
  double t_dec_max = 0.0;      ///< Straggler decode step time, seconds.
};

/// Prepared tables for one (topology, eta, xi) choice.
class PlanContext {
 public:
  /// Build tables.  `group_size` merges that many consecutive decoder
  /// layers into one decision group (paper Sec. VI-F); the last group may
  /// be smaller.  Requires the latency model to have profiles for every
  /// (device type, bit, TP degree) in play.  The context keeps pointers to
  /// `in` and `topo`: both must outlive it.
  PlanContext(const PlanInputs& in, const Topology& topo, std::uint64_t eta,
              std::uint64_t xi, int group_size);
  PlanContext(const PlanInputs& in, Topology&& topo, std::uint64_t eta,
              std::uint64_t xi, int group_size) = delete;

  /// Point the context at `in`, which must equal its current inputs in
  /// every field the tables are built from (model, cluster, latency model,
  /// workload, bits, KV bits, indicator table).  Only `theta` and
  /// `omega_budget` may differ: they are read by `evaluate` alone, so one
  /// set of tables serves both objectives (e.g. the speed-only baselines).
  void rebind(const PlanInputs& in);

  // ---- Dimensions ----
  int num_groups() const { return num_groups_; }
  int num_stages() const { return static_cast<int>(topo_->groups.size()); }
  int num_bits() const { return static_cast<int>(in_->bits.size()); }

  /// Layer range [first, last) of group g.
  std::pair<int, int> group_range(int g) const {
    return {g * group_size_, std::min(in_->model->n_layers, (g + 1) * group_size_)};
  }

  // ---- Tables (seconds / bytes / PPL units) ----
  /// Prefill time of group g on stage j at bit index bi (whole micro-batch,
  /// all chunks), seconds.
  double l_pre(int g, int j, int bi) const { return cost_[idx(g, j, bi)].pre; }
  /// Per-token decode time of group g on stage j at bit index bi, seconds.
  double l_dec(int g, int j, int bi) const { return cost_[idx(g, j, bi)].dec; }
  /// Memory of group g on stage j at bit index bi: its layers'
  /// sim::layer_charge, bytes, before TP division (budgets are
  /// pre-multiplied instead).
  double mem(int g, int j, int bi) const { return cost_[idx(g, j, bi)].mem; }
  /// Memory budget of stage j's layer charges (sim::stage_layer_budget),
  /// bytes.
  double mem_budget(int j) const { return stage_[static_cast<std::size_t>(j)].m_eff; }
  /// Master-stage constant added to stage j's prefill/decode time, seconds.
  double const_pre(int j) const { return stage_[static_cast<std::size_t>(j)].c_pre; }
  double const_dec(int j) const { return stage_[static_cast<std::size_t>(j)].c_dec; }
  /// Communication lower bound on the straggler time after stage j, seconds.
  double comm_pre(int j) const { return stage_[static_cast<std::size_t>(j)].comm_pre; }
  double comm_dec(int j) const { return stage_[static_cast<std::size_t>(j)].comm_dec; }
  /// Quality penalty of group g at bit index bi (PPL units).
  double omega(int g, int bi) const {
    return omega_[static_cast<std::size_t>(g) * static_cast<std::size_t>(num_bits()) +
                  static_cast<std::size_t>(bi)];
  }

  /// Objective coefficients of the straggler variables: (mu_pre - 1) and
  /// (mu_dec * (n-1) - 1).
  double t_pre_coeff() const { return t_pre_coeff_; }
  double t_dec_coeff() const { return t_dec_coeff_; }

  /// The inputs / topology / micro-batches this context was built for.
  const PlanInputs& inputs() const { return *in_; }
  const Topology& topology() const { return *topo_; }
  std::uint64_t eta() const { return eta_; }
  std::uint64_t xi() const { return xi_; }

  /// Price a concrete assignment: group_stage[g] in [0, num_stages),
  /// non-decreasing; group_bit[g] in [0, num_bits).  Checks memory,
  /// monotonicity and the quality budget.
  AssignmentEval evaluate(std::span<const int> group_stage,
                          std::span<const int> group_bit) const;

  /// Materialize an ExecutionPlan from an assignment (stages with zero
  /// groups are dropped; per-layer bits expanded from groups).
  sq::sim::ExecutionPlan to_plan(std::span<const int> group_stage,
                                 std::span<const int> group_bit,
                                 const std::string& scheme) const;

 private:
  std::size_t idx(int g, int j, int bi) const {
    return (static_cast<std::size_t>(g) * static_cast<std::size_t>(num_stages()) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(num_bits()) +
           static_cast<std::size_t>(bi);
  }

  /// One (group, stage, bit) cell of the tables.
  struct Cost {
    double pre, dec, mem;
  };
  /// Per-stage budget, master constants and communication bounds.
  struct StageConst {
    double m_eff = 0.0, c_pre = 0.0, c_dec = 0.0, comm_pre = 0.0, comm_dec = 0.0;
  };

  const PlanInputs* in_;
  const Topology* topo_;
  std::uint64_t eta_, xi_;
  int group_size_ = 1, num_groups_ = 0;
  std::vector<Cost> cost_;         ///< [g][j][bi], see idx().
  std::vector<StageConst> stage_;  ///< [j]
  std::vector<double> omega_;      ///< [g][bi]
  double t_pre_coeff_ = 0.0, t_dec_coeff_ = 0.0;
};

/// Uniform layer grouping: `group_size` consecutive layers per group
/// (0 = auto: the smallest size giving at most 16 groups).
std::vector<std::pair<int, int>> make_groups(int n_layers, int group_size);

}  // namespace sq::core
