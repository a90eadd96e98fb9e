// Continuous-batching request scheduler (Orca/vLLM-style iteration-level
// scheduling) over the SplitQuant pipeline.
//
// Whole-batch serving (OfflineEngine::serve) pads every request of a batch
// to a common shape and runs the batch to completion before the next one
// starts; when request lengths are skewed or arrivals are bursty, that
// leaves the pipeline idle between waves and pays for padding tokens no
// request asked for.  The RequestScheduler instead makes an admission and
// composition decision at *iteration* granularity:
//
//   * Deterministic request queue.  Arrivals (src/workload/arrivals.h) are
//     a seeded timeline; the waiting queue is FIFO on (arrival instant,
//     input index) and admission is strictly head-of-line, so the schedule
//     is a pure function of the inputs.
//   * Iteration-level admission against the paged KV allocator.  Each
//     pipeline stage owns a KvCacheAllocator sized to the memory its
//     devices have left after their fixed bytes (weights, activations and,
//     on the master, embeddings) under the engine's accounting of
//     sim/memory.h (sim::device_fixed_memory), which plan_memory and
//     max_concurrency use too.  A request is admitted only when its full
//     prompt KV reserves on every stage.
//   * Prefill/decode interleaving under the plan's micro-batch limits: at
//     most eta requests are in their (chunked) prefill at a time, and
//     running decode requests step one token per iteration in xi-sized
//     micro-batches, flowing through the same pipeline recurrence the
//     batch simulator uses (stage-free times persist across iterations, so
//     consecutive iterations overlap exactly like simulate_batch's
//     micro-batches).
//   * Eviction / re-admission.  When a decode step cannot reserve its next
//     KV block, the youngest-admitted request is preempted: its KV is
//     released and it re-enters the waiting queue for recompute-style
//     re-admission (vLLM's recovery policy).
//   * Faults.  Under a FaultSchedule, compute stretches through slowdown
//     windows and an iteration that touches an active failure window is
//     discarded: transient windows are waited out and the iteration
//     re-runs; a permanent failure stops the scheduler with typed stats so
//     the engine (OfflineEngine::serve_continuous) can repair the plan and
//     resume.
//
// Determinism contract: RequestStats are bit-identical across repeated runs
// with the same inputs, including under fault schedules.  One serve runs on
// the calling thread: an iteration's per-(group, stage) times are a few
// kernel-model evaluations, cheaper than a thread hand-off or a cache
// probe, so they are computed inline, and every scheduling decision and
// reduction runs in input order.  Independent serves may run concurrently.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/llm.h"
#include "sim/faults.h"
#include "sim/kernel_model.h"
#include "sim/plan.h"
#include "workload/arrivals.h"

namespace sq::runtime {

/// How one request fared.
struct RequestOutcome {
  std::uint64_t id = 0;        ///< Index into the input arrival list.
  bool completed = false;
  /// Terminally unservable (KV pool too small, or stranded by an
  /// unrepaired permanent failure); never both completed and lost.
  bool lost = false;
  double arrive_s = 0.0;       ///< Arrival instant (input).
  double admit_s = -1.0;       ///< First admission; -1 = never admitted.
  double finish_s = -1.0;      ///< Completion; -1 = not completed.
  std::uint64_t prompt_tokens = 0;
  std::uint64_t output_tokens = 0;  ///< Committed tokens (0 unless completed).
  std::uint64_t preemptions = 0;    ///< Times evicted and re-queued.
  /// Serving stopped (stop horizon or permanent fault) while this request
  /// was admitted and incomplete.  Never set on completed/lost requests.
  bool in_flight = false;
  bool prefill_done = false;          ///< In-flight: prefill had finished.
  /// In-flight: tokens generated so far (0 while still prefilling).  Feed
  /// back through ContinuousOptions::resume to continue without redoing
  /// the work.
  std::uint64_t progress_tokens = 0;
};

/// Aggregate results of continuous serving.  Bit-identical across repeated
/// runs for fixed inputs.
struct RequestStats {
  bool feasible = true;   ///< False: plan invalid / weights never fit.
  std::string failure;    ///< Reason when not feasible, or the fault note.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;  ///< Requests that can never be served (KV pool
                           ///< too small, or stranded by an unrepaired
                           ///< permanent failure).
  std::uint64_t preemptions = 0;
  std::uint64_t admission_blocked = 0;  ///< Head-of-line KV admission stalls.
  std::uint64_t iterations = 0;
  double output_tokens = 0.0;   ///< Committed output tokens (completed only).
  /// End of serving on the simulated clock (seconds from 0), including
  /// idle, fault-stall and — through the engine's repair loop — repair
  /// windows.  The goodput denominator.
  double total_seconds = 0.0;
  double goodput_tok_s = 0.0;   ///< output_tokens / total_seconds.
  double mean_latency_s = 0.0;  ///< Completed requests, arrive -> finish.
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double mean_queue_s = 0.0;    ///< Completed requests, arrive -> admit.
  double kv_peak_utilization = 0.0;  ///< Max stage-allocator utilization.
  std::uint64_t faults_hit = 0;      ///< Iterations aborted by failures.
  std::uint64_t retries = 0;         ///< Transient windows waited out.
  /// Typed permanent-failure outcome: serving stopped at `fault_s` because
  /// device `fault_device` (ORIGINAL cluster index) failed permanently.
  /// The engine repairs and resumes; standalone use leaves the requests
  /// it did not finish incomplete.
  bool fault_permanent = false;
  int fault_device = -1;
  double fault_s = 0.0;
  /// Serving reached ContinuousOptions::stop_us with work outstanding and
  /// paused there: incomplete requests carry in_flight/progress outcomes.
  /// The elastic engine uses this to serve up to a membership event.
  bool stopped = false;
  double stop_s = 0.0;  ///< Instant to resume from (seconds).
  /// Deterministic event log ("[1.234s] ...").
  std::vector<std::string> events;
  std::vector<RequestOutcome> requests;  ///< In input order.
  // Repair provenance, filled by OfflineEngine::serve_continuous and the
  // elastic engine (zero / default when serving never repaired).
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_succeeded = 0;
  int final_generation = 0;
  sq::sim::ExecutionPlan final_plan;  ///< Plan serving ended on.
  /// The group serving ended on, next to `final_plan`: its cluster and its
  /// flat index -> original id map (runtime::ReplicaGroup).
  sq::hw::Cluster final_cluster;
  std::vector<int> final_to_original;
};

/// Recompute `goodput_tok_s` and the latency/queue aggregates of `stats`
/// from its per-request outcomes and `total_seconds`.  The scheduler calls
/// this itself; the engines re-call it after merging the outcomes of
/// several serving segments into one RequestStats.
void finalize_request_aggregates(RequestStats& stats);

/// Stats of a run that has served nothing yet: every request of `arrivals`
/// submitted and pending (ids and arrival instants set).  The starting
/// point merge_segment folds sub-serves into.
RequestStats pending_stats(const std::vector<sq::workload::TimedRequest>& arrivals);

/// Fold the stats `seg` of one sub-serve into `total`.  `seg` served the
/// requests `ids` of `total` (index-parallel with seg.requests) on the same
/// absolute clock.  Counters add up, the KV peak and `total_seconds` take
/// the max, events append.  Per request, prompt_tokens and the in-flight
/// state are the segment's, preemptions add up, admit_s keeps the first
/// admission, and completed/lost outcomes are copied.  Returns the ids
/// that neither completed nor were lost, in `ids` order.
std::vector<std::size_t> merge_segment(RequestStats& total,
                                       const RequestStats& seg,
                                       const std::vector<std::size_t>& ids);

/// Mark the requests `ids` of `stats` lost (no longer in flight) and count
/// them in `stats.lost`.
void lose_requests(RequestStats& stats, const std::vector<std::size_t>& ids);

/// Continuous-serving knobs.
struct ContinuousOptions {
  /// Ignored: a serve runs on the calling thread.  Kept only so existing
  /// callers that set it still compile; slated for removal.
  int num_threads = 1;
  std::uint64_t chunk_tokens = 2048;  ///< Chunked-prefill unit.
  /// Extra cap on concurrently admitted requests; 0 = KV-limited only.
  std::uint64_t max_running = 0;
  /// Serving starts at this instant on the simulated clock (arrivals
  /// before it are immediately available).  The engine uses it to resume
  /// after a repair; times in the fault schedule are always absolute on
  /// this same clock.
  double start_us = 0.0;
  /// Serving pauses once the simulated clock reaches this instant: no new
  /// iteration starts at or past it (one already under way completes).
  /// Stats then carry stopped/stop_s and per-request progress so a caller
  /// can resume — the elastic engine serves segment-by-segment between
  /// membership events this way.  Default: never stop.
  double stop_us = std::numeric_limits<double>::infinity();
  /// Per-request resume progress, index-parallel with the arrival list:
  /// -1 = fresh request, >= 0 = prefill already done with that many tokens
  /// generated (KV for prompt+progress re-reserves on admission; values
  /// are clamped into the request's valid range).  Null = all fresh.
  const std::vector<std::int64_t>* resume = nullptr;
  const sq::sim::FaultSchedule* faults = nullptr;  ///< Null = fault-free.
  /// Current flat device index -> ORIGINAL index for the fault schedule
  /// (after a plan repair); null = identity.
  const std::vector<int>* to_original = nullptr;
};

/// The scheduler: binds (cluster, model, plan, backend efficiency) like
/// the engines do and serves arrival timelines.
class RequestScheduler {
 public:
  RequestScheduler(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                   sq::sim::ExecutionPlan plan, double backend_efficiency = 1.0,
                   sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                         .seed = 11});

  /// Serve an arrival timeline (sorted or not; ties break on input index).
  RequestStats serve(const std::vector<sq::workload::TimedRequest>& arrivals,
                     const ContinuousOptions& opts = {}) const;

  /// Record serve.request.* metrics and per-request trace spans into the
  /// global obs registry during serve.  Off by default; recording never
  /// changes RequestStats.
  void set_observe(bool on) { observe_ = on; }
  bool observe() const { return observe_; }

  const sq::sim::ExecutionPlan& plan() const { return plan_; }

 private:
  sq::hw::Cluster cluster_;
  sq::model::LlmSpec model_;
  sq::sim::ExecutionPlan plan_;
  double backend_efficiency_;
  sq::sim::KernelModelOptions kernel_;
  bool observe_ = false;
};

}  // namespace sq::runtime
