// Offline serving engine (paper Fig. 6, "Distributed Execution").
//
// Executes an execution plan over a stream of offline batches: the master
// engine embeds tokens and converts logits, stage workers run their layer
// ranges, and the scheduler adapts micro-batching per batch.  Execution is
// simulated (sq::sim::simulate_batch is the "GPU"), but all the serving
// logic — batching, concurrency capping via the paged KV allocator,
// per-batch padding, throughput accounting — is real and is what the
// end-to-end benchmarks (Figs. 9/10, Table IV) measure.
//
// An engine serves one replica group (ReplicaGroup: a cluster, its device
// map into the ids a fault schedule speaks, and a plan).  The same engine
// serves under a fault schedule (shared heterogeneous fleets where devices
// fail, throttle and straggle mid-batch); a fault-free run is the recovery
// loop with an empty schedule:
//
//   * Checkpointing.  Progress is tracked at wave granularity: a completed
//     wave's requests are never re-executed; an aborted wave re-runs its
//     requests from scratch, so no request is ever lost.
//   * Transient faults retry with backoff: the engine waits out the
//     failure window (plus kBackoffS) and re-runs the wave, up to
//     kMaxRetries times.
//   * Permanent faults trigger plan repair (repair_group, the one repair
//     step every engine shares): the failed device leaves the group,
//     sustained stragglers are re-rated, and a Replanner re-plans the rest
//     through the escalation ladder (replan_ladder).  Stage times of
//     unchanged devices hit the shared memoized caches, so repair is
//     incremental.  The repaired group serves the remaining workload; its
//     device map keeps naming every survivor by its original id, so later
//     fault events still find their device.
//   * Graceful degradation: when no attempt of the ladder yields a plan,
//     the remaining workload is lost and reported, never crashed on.
//
// Everything stays bit-deterministic for a fixed seed and thread count:
// the serving clock is simulated, the replanning *charge* is the fixed
// kReplanPenaltyS (real planner wall time is recorded separately, for
// observability only), and the planner itself picks identical plans at
// every thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "runtime/request_scheduler.h"
#include "runtime/weight_prep.h"
#include "sim/faults.h"
#include "sim/pipeline.h"
#include "sim/plan.h"
#include "workload/profile.h"

namespace sq::runtime {

/// Backend flavor (paper Sec. V).
enum class Backend {
  kVllmStyle,  ///< Optimized engine: chunked prefill, full kernel set.
  kCustom,     ///< PyTorch-native fallback for legacy GPUs: supports 3-bit,
               ///< pays an efficiency discount.
};

/// Throughput factor of a backend relative to the vLLM-style engine.
double backend_efficiency(Backend backend);

/// Aggregate results of serving a workload.
struct ServeStats {
  bool feasible = true;          ///< False: weights never fit (hard OOM).
  std::string failure;           ///< Reason when not feasible.
  std::uint64_t batches = 0;     ///< Batches executed.
  std::uint64_t waves = 0;       ///< Serving waves (>= batches when capped).
  double total_seconds = 0.0;    ///< Simulated wall time.
  double output_tokens = 0.0;    ///< Tokens generated.
  double throughput_tok_s = 0.0; ///< Output tokens per second.
  double mean_bubble = 0.0;      ///< Mean pipeline idle fraction.
  std::uint64_t capped_batches = 0;  ///< Batches that needed concurrency caps.
};

/// Event-log rendering of `seconds` ("12.345s"), shared by every engine's
/// deterministic event log.
std::string format_seconds(double seconds);

/// Result of one replanner call: a plan for a changed cluster (degraded by
/// faults, or grown/shrunk by membership changes).
struct ReplanOutcome {
  bool feasible = false;
  std::string failure;             ///< Reason when infeasible.
  sq::sim::ExecutionPlan plan;     ///< Plan over the CHANGED cluster.
  double predicted_tok_s = 0.0;    ///< Planner throughput estimate.
  double solve_seconds = 0.0;      ///< Real planner wall time (obs only).
};

/// Replan callback: produce a plan for a changed cluster.  `attempt`
/// escalates from 0 when the previous attempt was infeasible (0 = original
/// constraints, 1 = relaxed quality budget, 2+ = most robust fallback);
/// see sq::core::make_replanner.
using Replanner =
    std::function<ReplanOutcome(const sq::hw::Cluster& changed, int attempt)>;

/// Obs instruments one replan ladder records into.
struct LadderObs {
  const char* attempts;  ///< Counter bumped per replanner call.
  const char* wall_s;    ///< Histogram of each call's planner wall time.
};

/// The graceful-degradation ladder: call `replan` on `cluster` with
/// attempt 0, 1, ... until an outcome is feasible or max(1, max_attempts)
/// calls were made, and return the last outcome.  A null `replan` makes no
/// call and returns an infeasible outcome.  `calls` counts the calls and
/// `wall_s` sums their solve_seconds (either may be null); `obs` names the
/// instruments to record into (null = unobserved).
ReplanOutcome replan_ladder(const Replanner& replan,
                            const sq::hw::Cluster& cluster, int max_attempts,
                            std::uint64_t* calls = nullptr,
                            double* wall_s = nullptr,
                            const LadderObs* obs = nullptr);

/// Recovery and re-planning constants, shared by every engine.
/// Wave re-runs per transient fault.
inline constexpr int kMaxRetries = 3;
/// Simulated seconds waited after a transient window, before the re-run.
inline constexpr double kBackoffS = 0.25;
/// Escalation ladder length per repair or membership change.
inline constexpr int kMaxReplanAttempts = 3;
/// Simulated seconds charged per plan switch (repair or membership
/// change).  Stands in for plan distribution and weight re-sharding; a
/// fixed charge keeps the timeline deterministic regardless of real
/// planner wall time.
inline constexpr double kReplanPenaltyS = 2.0;

/// Recovery knobs.  The default is the fault-free run.
struct RecoveryOptions {
  /// Null = fault-free.  Device ids are the bound group's original ids
  /// (ReplicaGroup::to_original).
  const sq::sim::FaultSchedule* faults = nullptr;
  Replanner replan;            ///< Null = no-repair baseline: a permanent
                               ///< failure loses the remaining workload.
};

/// One replica group's serving state: a cluster, where its devices sit in
/// the cluster a fault schedule speaks of, and the plan serving it.  A
/// single-pipeline deployment is the group with an identity device map; a
/// sharded fleet holds one group per disjoint sub-cluster.  Plan repair and
/// membership changes replace it as a whole.
struct ReplicaGroup {
  sq::hw::Cluster cluster;        ///< The group's (sub-)cluster.
  /// Flat device index -> original id (fleet flat index, or the stable
  /// base id of an elastic member).  Identity when empty.  Fault schedules
  /// name devices by these ids.
  std::vector<int> to_original;
  sq::sim::ExecutionPlan plan;    ///< Addresses `cluster`.
  /// Planner-predicted serving rate (output tokens / s); the fleet's LPT
  /// speed weight and the autoscaler's signal.  0 = unknown.
  double predicted_tok_s = 0.0;

  /// Flat index of the device with original id `id`; -1 when the group
  /// does not hold it.
  int flat_of(int id) const;

  /// Adopt `r`, a plan for `deg` (this cluster minus some devices):
  /// surviving devices keep their original ids.
  void shrink(const sq::hw::DegradedCluster& deg, ReplanOutcome r);
};

/// The one permanent-fault repair step: drop the devices `failed` (flat
/// indices of `g`) from the group, bake the sustained `derates` (flat
/// indices) into the survivors' specs, re-plan the rest through
/// replan_ladder and adopt a feasible outcome (ReplicaGroup::shrink).
/// `calls`, `obs` and `wall_s` are replan_ladder's.  Returns "" on
/// success, otherwise why the group could not be repaired (and `g` is
/// unchanged).
std::string repair_group(ReplicaGroup& g, const std::vector<int>& failed,
                         const std::vector<sq::hw::DeviceDerate>& derates,
                         const Replanner& replan, std::uint64_t* calls,
                         const LadderObs* obs, double* wall_s = nullptr);

/// The events of `s` that serving on `g` still replays after a repair of
/// `g`: those on devices the group holds, minus the sustained stragglers
/// the repair baked into its specs (replaying them would count the loss
/// twice).
sq::sim::FaultSchedule after_repair(const sq::sim::FaultSchedule& s,
                                    const ReplicaGroup& g);

/// Aggregate results of (possibly fault-tolerant) batch serving.
struct RecoveryStats {
  /// Aggregates over COMPLETED work only; `serve.total_seconds` counts
  /// productive simulated time, excluding lost/backoff/replan windows.
  ServeStats serve;
  std::uint64_t faults_hit = 0;          ///< Aborts observed (incl. retries).
  std::uint64_t retries = 0;             ///< Transient-fault wave re-runs.
  std::uint64_t repairs_attempted = 0;   ///< Replanner invocations.
  std::uint64_t repairs_succeeded = 0;   ///< Repairs that produced a plan.
  int final_generation = 0;              ///< Plan generation serving ended on.
  std::uint64_t lost_requests = 0;       ///< Requests never completed
                                         ///< (no-repair baseline only).
  double lost_us = 0.0;      ///< Simulated work discarded by aborts.
  double backoff_us = 0.0;   ///< Simulated waiting on transient recovery.
  double replan_us = 0.0;    ///< Simulated replanning charge.
  double replan_wall_s = 0.0;  ///< Real planner wall time (NOT
                               ///< deterministic; excluded from bit-compares).
  /// Output tokens over the full wall clock including lost, backoff and
  /// replanning windows — the recovery-aware throughput the fault bench
  /// gates on.  Equals serve.throughput_tok_s on a fault-free run.
  double goodput_tok_s = 0.0;
  /// Wall-clock seconds of the full timeline (productive + lost + backoff
  /// + replanning).
  double wall_seconds = 0.0;
  /// Deterministic human-readable fault/repair timeline ("[12.3s] fail
  /// dev2 ...", one entry per event; devices by the bound cluster's flat
  /// index); identical across thread counts.
  std::vector<std::string> events;
  /// The plan serving ended on: the bound plan when no repair happened,
  /// otherwise the last repaired plan (stage indices address
  /// `final_cluster`; repair_generation / excluded_devices carry the
  /// provenance, excluded_devices as flat indices of the bound cluster).
  sq::sim::ExecutionPlan final_plan;
  /// The group serving ended on, next to `final_plan`: its cluster and its
  /// device map (see ReplicaGroup).
  sq::hw::Cluster final_cluster;
  std::vector<int> final_to_original;
};

/// The engine: binds (replica group, model, backend).
class OfflineEngine {
 public:
  /// Serve `group`; fault schedules then name its devices by their
  /// original ids (ReplicaGroup::to_original).  `memoize` toggles the
  /// shared stage-time cache of the simulator; it never changes results,
  /// only wall-clock time (off = the legacy recompute-everything path).
  OfflineEngine(ReplicaGroup group, sq::model::LlmSpec model,
                Backend backend = Backend::kVllmStyle,
                sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                      .seed = 11},
                bool memoize = true);

  /// Serve `plan` on the whole of `cluster` (the identity device map).
  OfflineEngine(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                sq::sim::ExecutionPlan plan, Backend backend = Backend::kVllmStyle,
                sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                      .seed = 11},
                bool memoize = true);

  /// Serve a list of padded batches, under the fault schedule in `opts`
  /// when one is given; returns aggregate statistics.
  RecoveryStats serve(const std::vector<sq::sim::BatchWorkload>& batches,
                      const RecoveryOptions& opts = {}) const;

  /// Convenience: batch raw requests (sorted, padded, filtered to the
  /// model's context limit; sq::workload::make_batches) and serve them.
  RecoveryStats serve_requests(const std::vector<sq::workload::Request>& requests,
                               std::uint64_t batch_size,
                               const RecoveryOptions& opts = {}) const;

  /// Continuous-batching mode: serve an arrival timeline through the
  /// iteration-level RequestScheduler instead of whole-batch waves.  When
  /// a permanent failure stops the scheduler, repair the group (the same
  /// repair step as `serve`), charge kReplanPenaltyS on the serving clock,
  /// and resume the still-incomplete requests on the repaired plan; with
  /// no repair possible they are lost.  The fault schedule speaks original
  /// device ids and absolute times on the serving clock.  `copts.faults`
  /// and `copts.to_original` are managed by the engine; `copts.resume`
  /// applies to the first plan generation only (a repaired generation
  /// starts its requests fresh: their KV died with the device); the other
  /// knobs pass through.  Without faults the result is exactly the
  /// scheduler's.  Bit-identical across thread counts.
  RequestStats serve_continuous(
      const std::vector<sq::workload::TimedRequest>& arrivals,
      const ContinuousOptions& copts = {},
      const RecoveryOptions& ropts = {}) const;

  /// Record serving metrics and simulated-clock trace spans into the
  /// global obs registry during serve (micro-batch sizes chosen,
  /// concurrency-cap events, KV occupancy high-water marks, per-stage
  /// spans per wave; fault/repair counters when a schedule is given).  Off
  /// by default; recording never changes the stats — it only observes
  /// them.  The planner's parallel validation engines leave this off, so
  /// the ordered trace is only ever produced by sequential serve loops.
  void set_observe(bool on) { observe_ = on; }
  bool observe() const { return observe_; }

  /// Attach a weight-preparation hook: when set, serve()/serve_continuous()
  /// first quantize the plan's per-layer bitwidths into the process-wide
  /// QuantCache (parallel fan-out, deduplicated across engines); after a
  /// plan repair only layers whose bits CHANGED are re-quantized.  Purely
  /// a warm-up — serving results are bit-identical with or without it.
  void set_weight_prep(std::shared_ptr<const WeightPrep> prep) {
    prep_ = std::move(prep);
  }
  const std::shared_ptr<const WeightPrep>& weight_prep() const { return prep_; }

  /// The bound plan.
  const sq::sim::ExecutionPlan& plan() const { return group_.plan; }

  /// Backend efficiency factor in effect.
  double backend_efficiency() const;

 private:
  /// Plan repair after the device with original id `id` failed, shared by
  /// the wave and generation loops (see engine.cpp).
  template <class Stats>
  bool repair(ReplicaGroup& g, sq::sim::FaultSchedule& faults, int id,
              const Replanner& replan, double abort_us, double resume_us,
              double* wall_s, Stats& stats) const;

  ReplicaGroup group_;
  sq::model::LlmSpec model_;
  Backend backend_;
  sq::sim::KernelModelOptions kernel_;
  bool memoize_;
  bool observe_ = false;
  std::shared_ptr<const WeightPrep> prep_;  ///< Optional; see set_weight_prep.
};

}  // namespace sq::runtime
