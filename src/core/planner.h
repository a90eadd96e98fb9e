// SplitQuant's offline assigner (paper Sec. III/IV): given the model, the
// heterogeneous cluster, a workload profile and a quality target, jointly
// decide (i) per-layer quantization bitwidths, (ii) the layer-to-stage
// partition over an enumerated device topology, and (iii) the
// prefill/decode micro-batch sizes.  This is the public entry point of the
// library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/latency_model.h"
#include "core/context.h"
#include "core/heuristics.h"
#include "hw/cluster.h"
#include "model/llm.h"
#include "quality/quality_model.h"
#include "sim/plan.h"

namespace sq::core {

/// Which layer-sensitivity indicator drives bitwidth selection (Table V).
enum class IndicatorKind {
  kVariance,  ///< SplitQuant's variance indicator (Proposition 1).
  kHessian,   ///< HAWQ-style Hessian eigenvalue indicator (expensive).
  kRandom,    ///< Random control.
};

/// Planner configuration (paper "Input Configuration" + solver knobs).
struct PlannerConfig {
  /// Candidate bitwidths.  INT3 is only usable on the custom backend
  /// (paper Sec. VI-A); it is filtered out unless `custom_backend`.
  std::vector<Bitwidth> bits = {Bitwidth::kFp16, Bitwidth::kInt8, Bitwidth::kInt4,
                                Bitwidth::kInt3};
  bool custom_backend = false;
  double theta = 10.0;            ///< Quality scalar of objective (4).
  /// Quality budget in PPL-delta units (>= 0 enables the constraint; the
  /// heterogeneous-cluster experiments pin it to the Uniform baseline's
  /// degradation so gains are pure efficiency).
  double max_ppl_delta = -1.0;
  int group_size = 0;             ///< Layers per ILP group (0 = auto).
  double ilp_time_limit_s = 10.0; ///< Per ILP solve (Table VI uses 60 s).
  bool use_heuristic = false;     ///< Bitwidth transfer instead of the ILP.
  int max_topologies = 12;        ///< Device-ordering enumeration cap.
  int max_microbatch_pairs = 4;   ///< (eta, xi) pairs solved per topology.
  /// Finalists validated with a short profiling run (ground-truth
  /// simulation of the planning batch) before the final pick; settles
  /// cost-model near-ties.  <= 1 disables.
  int validate_top_k = 6;
  bool allow_tp = true;           ///< Enumerate intra-node TP meshes.
  Bitwidth kv_bits = Bitwidth::kFp16;
  IndicatorKind indicator = IndicatorKind::kVariance;
  std::uint64_t seed = 17;
  /// Worker threads for the candidate search (greedy scoring, refinement,
  /// ILP solves, validation runs): 0 = hardware concurrency, 1 = run every
  /// task inline on the caller's thread.  The chosen plan is identical
  /// bit-for-bit for every thread count — candidates carry a stable
  /// enumeration index and all reductions tie-break on it, never on
  /// completion order.
  int num_threads = 0;
};

/// Planner output.
struct PlanResult {
  bool feasible = false;
  std::string failure;              ///< Reason when infeasible.
  sq::sim::ExecutionPlan plan;      ///< The chosen plan.
  std::string topology;             ///< Human-readable topology.
  std::uint64_t planned_batch = 0;  ///< Concurrency the plan targets.
  double predicted_latency_s = 0.0; ///< Objective (4) latency part.
  double predicted_throughput = 0.0;///< Output tokens / s estimate.
  double total_omega = 0.0;         ///< Quality penalty (PPL-delta units).
  double est_ppl = 0.0;             ///< Estimated perplexity.
  double est_accuracy = 0.0;        ///< Estimated zero-shot accuracy, %.
  double solve_seconds = 0.0;       ///< Total assigner wall time.
  int ilp_solves = 0;               ///< MILP invocations.
  int ilp_nodes = 0;                ///< Total B&B nodes.
  std::int64_t ilp_pivots = 0;      ///< Total simplex iterations (exact).
  int ilp_truncated = 0;            ///< Solves stopped at a cap, unproven.
  int topologies_tried = 0;
  int pairs_tried = 0;
};

/// The assigner.  Construct once per (model, cluster, workload); `plan`
/// and the baseline planners can then be called with different configs.
class Planner {
 public:
  /// `latency` must already be profiled for every GPU type in `cluster`
  /// over the candidate bitwidths (Planner::profile_all does this).
  Planner(const sq::model::LlmSpec& model, const sq::hw::Cluster& cluster,
          const sq::sim::BatchWorkload& workload,
          const sq::cost::LatencyCostModel& latency,
          const sq::quality::QualityModel& quality);

  /// Profile every device type of `cluster` into `latency` (helper).
  static void profile_all(sq::cost::LatencyCostModel& latency,
                          const sq::hw::Cluster& cluster,
                          std::span<const Bitwidth> bits);

  /// Full SplitQuant planning: topology + micro-batch enumeration, ILP (or
  /// bitwidth-transfer heuristic) per candidate, best plan returned.
  PlanResult plan(const PlannerConfig& cfg) const;

  /// Uniform baseline: natural device order, even partition, one uniform
  /// bitwidth lowered until the model fits.
  PlanResult plan_uniform(const PlannerConfig& cfg) const;

  /// Het baseline: enumerated parallelism, workload-aware (prefill-time)
  /// balancing, uniform quantization lowered until feasible.
  PlanResult plan_het(const PlannerConfig& cfg) const;

  /// `adabits` ablation: pure adaptive quantization on an even partition
  /// (Sec. VI-H / Fig. 12).
  PlanResult plan_adabits(const PlannerConfig& cfg) const;

  /// The planning workload (batch size possibly capped to fit memory).
  const sq::sim::BatchWorkload& workload() const { return workload_; }

 private:
  PlanInputs make_inputs(const PlannerConfig& cfg, std::uint64_t batch) const;
  std::uint64_t plan_concurrency(const PlannerConfig& cfg) const;
  std::vector<std::uint64_t> batch_candidates(const PlannerConfig& cfg) const;
  PlanResult finalize(const PlanContext& ctx, const HeuristicPlan& hp,
                      const std::string& scheme, double solve_s) const;
  /// Profiling-run score of a plan on calibration shapes: measured
  /// per-request latency plus the theta-weighted quality penalty (lower is
  /// better); infinity on OOM.
  double validation_score(const sq::sim::ExecutionPlan& plan, std::uint64_t batch,
                          double theta, double omega) const;

  const sq::model::LlmSpec& model_;
  const sq::hw::Cluster& cluster_;
  sq::sim::BatchWorkload workload_;
  const sq::cost::LatencyCostModel& latency_;
  const sq::quality::QualityModel& quality_;
};

}  // namespace sq::core
