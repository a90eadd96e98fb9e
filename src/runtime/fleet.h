// Fleet serving: a sharded deployment of disjoint replica groups serving a
// multi-job offline workload concurrently.
//
// The FleetEngine takes K replica groups (sub-clusters of one fleet, each
// with its own execution plan — typically produced by the sharded planner
// in src/core/sharding.h) and a list of named jobs, and schedules the jobs
// across the groups:
//
//   * Assignment is longest-processing-time-first: jobs are ordered by a
//     deterministic work proxy (total tokens, descending, stable on input
//     index) and greedily placed on the group with the earliest predicted
//     finish time under its planner-estimated serving rate, tie-breaking on
//     the lowest group index.  A job is only placed on groups whose plan
//     can hold at least one of its requests (weights + KV); a job no group
//     can hold is rejected gracefully, never crashed on.
//   * Execution fans the groups out over a work queue drained by
//     `num_threads` scheduler workers; a group's own jobs always run in
//     order (its fault timeline carries across jobs).  Results are
//     bit-identical for every worker count: the assignment is computed
//     before any serving starts, every outcome is written to its own slot,
//     and all reductions run in (group, queue-position) order — threads
//     only ever move wall-clock time, exactly like the planner's fan-out.
//   * Faults stay group-local.  Every group's engine is bound to its
//     ReplicaGroup and reads the fleet-level schedule (fleet device ids)
//     through the group's device map, so an event only ever hits the group
//     holding its device.  A permanent device failure repairs — or, when
//     repair is impossible, retires — only its own group; the fleet adopts
//     the group the engine reports serving ended on.  Jobs still queued on
//     a retired group are re-assigned to the surviving groups in the next
//     scheduling round.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "runtime/engine.h"
#include "sim/faults.h"
#include "sim/plan.h"

namespace sq::runtime {

/// One offline job: a named list of padded batches (see
/// sq::workload::make_batches) OR a continuous-batching arrival timeline
/// (see sq::workload::generate_arrivals).  Exactly one of the two lists
/// may be non-empty; a job with both is a structural error.
struct FleetJob {
  std::string name;
  std::vector<sq::sim::BatchWorkload> batches;
  /// Continuous-mode request timeline; arrival instants are relative to
  /// the moment the job starts on its group.  Served through the group's
  /// engine in iteration-level continuous-batching mode.
  std::vector<sq::workload::TimedRequest> arrivals;

  /// Deterministic work-size proxy for LPT ordering: total tokens touched
  /// (prompt + generated) over all batches / arrival requests.
  double work_tokens() const;
};

/// One "<name>:<requests>" item of a --jobs spec.
struct JobSpecItem {
  std::string name;
  std::uint64_t requests = 0;
};

/// Outcome of parsing a --jobs spec string.
struct JobsParse {
  bool ok = false;
  std::string error;  ///< One-line diagnostic when !ok.
  std::vector<JobSpecItem> items;
};

/// Parse a --jobs spec: comma-separated "<name>:<requests>" items (name
/// non-empty, no ':' inside; requests a base-10 integer >= 1, capped at
/// 1e6).  Empty segments are ignored; an empty string parses ok with no
/// items.  Never throws: malformed input returns ok = false with a
/// diagnostic naming the offending item.
JobsParse parse_jobs_spec(const std::string& spec);

/// How one job fared.
struct JobOutcome {
  std::string job;
  int group = -1;        ///< Serving group; -1 = rejected (no capable group).
  bool completed = false;
  std::string failure;   ///< Rejection / abort reason when !completed.
  RecoveryStats recovery;  ///< Per-job serving stats (batch jobs).
  /// Per-job serving stats for continuous (arrival-timeline) jobs; default
  /// for batch jobs.  Times are job-local (0 = job start on its group).
  RequestStats continuous;
  double start_s = 0.0;  ///< Start on the group's simulated timeline.
  double end_s = 0.0;    ///< End (start + full recovery wall).

  /// Committed output tokens (whichever of the two stats served the job).
  double output_tokens() const {
    return recovery.serve.output_tokens + continuous.output_tokens;
  }
};

/// Fleet scheduling knobs.
struct FleetOptions {
  /// Fleet-level fault schedule speaking fleet device ids
  /// (ReplicaGroup::to_original); null = fault-free.  Events on devices
  /// outside every group are inert.
  const sq::sim::FaultSchedule* faults = nullptr;
  /// Per-group plan repair (RecoveryOptions::replan); null = no repair: a
  /// permanent failure retires the group.
  Replanner replan;
  /// Scheduler worker threads draining the group queue: 0 = hardware
  /// concurrency, 1 = sequential.  FleetStats are bit-identical across all
  /// values.
  int num_threads = 1;
};

/// Aggregate results of a fleet run.
struct FleetStats {
  bool feasible = true;     ///< False only for structural errors (no groups,
                            ///< invalid group plan).
  std::string failure;
  std::vector<JobOutcome> jobs;  ///< In input job order.
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_rejected = 0;   ///< No group could ever hold the job.
  std::uint64_t jobs_reassigned = 0; ///< Re-queued off a retired group.
  std::uint64_t groups_retired = 0;
  std::vector<double> group_busy_s;       ///< Simulated busy time per group.
  std::vector<std::uint64_t> group_jobs;  ///< Jobs served per group.
  double output_tokens = 0.0;   ///< Committed output tokens over all jobs.
  /// Fleet makespan: the busiest group's simulated timeline (groups serve
  /// concurrently, so this is the wall clock of the whole run).
  double makespan_s = 0.0;
  /// Aggregate fleet throughput: output_tokens / makespan_s.  This is the
  /// number the sharded-serving bench sweeps against the single-pipeline
  /// baseline.
  double aggregate_tok_s = 0.0;
  std::uint64_t faults_hit = 0;
  std::uint64_t retries = 0;
  std::uint64_t repairs = 0;
  /// Deterministic event log in (group, job) order; entries are prefixed
  /// with the group index and job name.
  std::vector<std::string> events;
};

// ---- Job bookkeeping shared by FleetEngine and ElasticFleetEngine. -----

/// `ids` (indices into `jobs`) in longest-processing-time order: work
/// proxy descending, `ids` order on ties.
std::vector<std::size_t> lpt_order(const std::vector<FleetJob>& jobs,
                                   std::vector<std::size_t> ids);

/// The event-log line of a served job: "job '<name>' [<start> .. <end>]"
/// followed by "<N> tokens" (plus " (<c>/<s> requests)" for a continuous
/// job) or "FAILED: <why>".
std::string job_event(const FleetJob& job, const JobOutcome& out);

/// Derive the job totals of `stats` (completed jobs, output tokens,
/// faults, retries, repairs, per-group job counts) from its jobs, then the
/// makespan (busiest of `group_busy_s`) and the aggregate rate.
void finalize_fleet_stats(FleetStats& stats);

/// The fleet engine: binds (model, replica groups, backend) and serves
/// multi-job workloads.
class FleetEngine {
 public:
  FleetEngine(sq::model::LlmSpec model, std::vector<ReplicaGroup> groups,
              Backend backend = Backend::kVllmStyle,
              sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                    .seed = 11},
              bool memoize = true);

  /// Serve `jobs` across the replica groups.  Deterministic for a fixed
  /// input at every `opts.num_threads`.
  FleetStats serve(const std::vector<FleetJob>& jobs,
                   const FleetOptions& opts = {}) const;

  /// Record fleet metrics (fleet.* counters, per-group job spans on the
  /// simulated clock) into the global obs registry during serve.  Off by
  /// default; recording never changes FleetStats.  Per-group engines keep
  /// their own observability off — their span streams would interleave
  /// nondeterministically across concurrent groups — so the fleet emits
  /// one deterministic, group-ordered stream instead.
  void set_observe(bool on) { observe_ = on; }
  bool observe() const { return observe_; }

  /// Attach a weight-preparation hook, propagated to every per-group
  /// OfflineEngine.  Replica groups serving the same plan share the
  /// process-wide QuantCache, so each distinct (weights, bits) pair is
  /// quantized once fleet-wide regardless of replica count.
  void set_weight_prep(std::shared_ptr<const WeightPrep> prep) {
    prep_ = std::move(prep);
  }
  const std::shared_ptr<const WeightPrep>& weight_prep() const { return prep_; }

  const std::vector<ReplicaGroup>& groups() const { return groups_; }

 private:
  sq::model::LlmSpec model_;
  std::vector<ReplicaGroup> groups_;
  Backend backend_;
  sq::sim::KernelModelOptions kernel_;
  bool memoize_;
  bool observe_ = false;
  std::shared_ptr<const WeightPrep> prep_;  ///< Optional; see setter.
};

}  // namespace sq::runtime
