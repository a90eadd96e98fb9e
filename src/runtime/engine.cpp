#include "runtime/engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sq::runtime {

namespace {

/// Deterministic seconds rendering for the event log ("12.345s").
std::string fmt_s(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fs", us * 1e-6);
  return buf;
}

/// Serving state that plan repair rewrites mid-run.  It starts as the
/// engine's (cluster, plan) under the caller's schedule; after a repair the
/// schedule is a filtered copy that drops windows already baked into the
/// degraded cluster (failed devices, derated stragglers), so capability
/// loss is never double-counted.
struct ActiveState {
  ActiveState(const sq::hw::Cluster& c, const sq::sim::ExecutionPlan& p,
              const sq::sim::FaultSchedule* faults)
      : cluster(c),
        plan(p),
        schedule(faults != nullptr && !faults->events.empty() ? faults
                                                              : nullptr) {}

  sq::hw::Cluster cluster;
  sq::sim::ExecutionPlan plan;
  const sq::sim::FaultSchedule* schedule;  ///< Null = fault-free.
  sq::sim::FaultSchedule repaired;  ///< Owns `schedule` after a repair.
  std::vector<int> device_map;  ///< Current flat index -> original; empty = id.
  std::vector<int> failed;      ///< Permanent losses so far, original index.

  const std::vector<int>* to_original() const {
    return device_map.empty() ? nullptr : &device_map;
  }
};

/// Permanent plan repair, shared by the wave and generation loops: degrade
/// the ORIGINAL cluster by every failure seen so far plus sustained
/// straggler deratings, re-run the planner through the escalation ladder,
/// and swap `a` over to the repaired plan.  On success the event log gains
/// the repair line (serving resumes at `resume_us`).  `Stats` is
/// RecoveryStats or RequestStats; `wall_s` sums planner wall time (may be
/// null).  Returns false when serving cannot continue.
template <class Stats>
bool repair(ActiveState& a, const sq::hw::Cluster& original,
            const RecoveryOptions& opts, const WeightPrep* prep, bool ob,
            double abort_us, double resume_us, double* wall_s, Stats& stats) {
  if (!opts.replan) return false;
  std::vector<sq::hw::DeviceDerate> derates;
  for (const auto& e : opts.faults->events) {
    if (e.permanent_slowdown()) derates.push_back({e.device, e.factor});
  }
  const sq::hw::DegradedCluster deg =
      sq::hw::degrade_cluster(original, a.failed, derates);
  if (!deg.feasible || deg.cluster.device_count() == 0) return false;

  static constexpr LadderObs kObs{"fault.repairs.attempted",
                                  "fault.replan_wall_s"};
  ReplanOutcome outcome =
      replan_ladder(opts.replan, deg.cluster, opts.max_replan_attempts,
                    &stats.repairs_attempted, wall_s, ob ? &kObs : nullptr);
  if (!outcome.feasible) return false;

  ++stats.repairs_succeeded;
  ++stats.final_generation;
  a.cluster = deg.cluster;
  const auto old_bits = a.plan.layer_bits;
  a.plan = std::move(outcome.plan);
  a.plan.repair_generation = stats.final_generation;
  a.plan.excluded_devices = a.failed;
  std::sort(a.plan.excluded_devices.begin(), a.plan.excluded_devices.end());
  // Incremental re-preparation: only layers whose bit assignment changed
  // in the repaired plan are re-quantized; the rest hit the QuantCache.
  if (prep != nullptr) prep->reprepare(old_bits, a.plan.layer_bits);
  a.device_map = deg.to_original;

  a.repaired.events.clear();
  for (const auto& e : opts.faults->events) {
    const bool excluded =
        std::find(a.failed.begin(), a.failed.end(), e.device) != a.failed.end();
    if (!excluded && !e.permanent_slowdown()) a.repaired.events.push_back(e);
  }
  a.schedule = a.repaired.events.empty() ? nullptr : &a.repaired;

  stats.events.push_back("[" + fmt_s(abort_us) + "] repair: generation " +
                         std::to_string(stats.final_generation) + " on " +
                         a.cluster.summary() + ", resume at " +
                         fmt_s(resume_us));
  if (ob) sq::obs::counter("fault.repairs.succeeded").add();
  return true;
}

}  // namespace

ReplanOutcome replan_ladder(const Replanner& replan,
                            const sq::hw::Cluster& cluster, int max_attempts,
                            std::uint64_t* calls, double* wall_s,
                            const LadderObs* obs) {
  ReplanOutcome outcome;
  if (!replan) {
    outcome.failure = "no replanner configured";
    return outcome;
  }
  for (int attempt = 0; attempt < std::max(1, max_attempts); ++attempt) {
    if (calls != nullptr) ++*calls;
    if (obs != nullptr) sq::obs::counter(obs->attempts).add();
    outcome = replan(cluster, attempt);
    if (wall_s != nullptr) *wall_s += outcome.solve_seconds;
    if (obs != nullptr) {
      sq::obs::histogram(obs->wall_s, sq::obs::BucketLayout::kSeconds)
          .observe(outcome.solve_seconds);
    }
    if (outcome.feasible) break;
  }
  return outcome;
}

OfflineEngine::OfflineEngine(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                             sq::sim::ExecutionPlan plan, Backend backend,
                             sq::sim::KernelModelOptions kernel, bool memoize)
    : cluster_(std::move(cluster)),
      model_(std::move(model)),
      plan_(std::move(plan)),
      backend_(backend),
      kernel_(kernel),
      memoize_(memoize) {}

double backend_efficiency(Backend backend) {
  // The custom PyTorch-native backend trades kernel polish for hardware
  // reach (Sec. V); the discount is calibrated to keep its throughput in
  // the same band the paper reports for the custom-backend experiments.
  return backend == Backend::kVllmStyle ? 1.0 : 0.72;
}

double OfflineEngine::backend_efficiency() const {
  return sq::runtime::backend_efficiency(backend_);
}

RecoveryStats OfflineEngine::serve(
    const std::vector<sq::sim::BatchWorkload>& batches,
    const RecoveryOptions& opts) const {
  RecoveryStats stats;
  const std::string err = plan_.validate(model_, cluster_);
  if (!err.empty()) {
    stats.serve.feasible = false;
    stats.serve.failure = "invalid plan: " + err;
    return stats;
  }
  if (prep_) prep_->prepare(plan_.layer_bits);

  sq::sim::PipelineOptions popts;
  popts.kernel = kernel_;
  popts.backend_efficiency = backend_efficiency();
  popts.memoize = memoize_;

  // Observability: metrics and trace spans are recorded only when this
  // engine was marked observable AND the registry is enabled; recording is
  // read-only with respect to the stats (asserted by obs_test.cpp).
  // fault.* instruments are recorded only when a schedule is given.
  const bool ob = observe_ && sq::obs::enabled();
  const bool ob_faults = ob && opts.faults != nullptr;
  sq::obs::TraceSink sink;
  if (ob) popts.trace = &sink;

  ActiveState a(cluster_, plan_, opts.faults);
  if (ob && a.schedule != nullptr) {
    sq::obs::counter("fault.injected").add(a.schedule->events.size());
  }

  double clock_us = 0.0;   // Full timeline: productive + lost + backoff + replan.
  double bubble_sum = 0.0;
  bool stopped = false;    // Remaining workload lost (no-repair / infeasible).

  // Remaining requests after the current batch, for lost-request accounting.
  const auto requests_after = [&](std::size_t b) {
    std::uint64_t n = 0;
    for (std::size_t i = b + 1; i < batches.size(); ++i) {
      n += batches[i].batch_size;
    }
    return n;
  };

  for (std::size_t b = 0; b < batches.size() && !stopped; ++b) {
    const sq::sim::BatchWorkload& batch = batches[b];
    BatchSchedule sched = schedule_batch(a.cluster, model_, a.plan, batch);
    if (!sched.weights_fit) {
      stats.serve.feasible = false;
      stats.serve.failure = "OOM: plan weights exceed device memory";
      return stats;
    }
    if (sched.waves.size() > 1) {
      ++stats.serve.capped_batches;
      if (ob) {
        sq::obs::counter("runtime.concurrency_cap_events").add();
        sq::obs::histogram("runtime.concurrency_cap", sq::obs::BucketLayout::kPow2)
            .observe(static_cast<double>(sched.waves.front()));
      }
    }

    std::uint64_t done_in_batch = 0;
    std::size_t wi = 0;
    int wave_retries = 0;
    while (wi < sched.waves.size()) {
      const std::uint64_t wave = sched.waves[wi];
      sq::sim::BatchWorkload w = batch;
      w.batch_size = wave;
      sq::sim::ExecutionPlan p = a.plan;
      p.prefill_microbatch = std::min<std::uint64_t>(sched.eta, wave);
      p.decode_microbatch = std::min<std::uint64_t>(sched.xi, wave);

      sq::sim::FaultView fv;
      fv.schedule = a.schedule;
      fv.base_us = clock_us;
      fv.to_original = a.to_original();
      popts.faults = a.schedule != nullptr ? &fv : nullptr;
      sink.base_us = clock_us;

      const auto r = sq::sim::simulate_batch(a.cluster, model_, p, w, popts);
      if (r.oom) {
        stats.serve.feasible = false;
        stats.serve.failure =
            "OOM during execution on device " + std::to_string(r.oom_device);
        return stats;
      }

      if (!r.faulted) {
        if (ob) {
          sq::obs::counter("runtime.waves").add();
          using sq::obs::BucketLayout;
          sq::obs::histogram("runtime.wave_size", BucketLayout::kPow2)
              .observe(static_cast<double>(wave));
          sq::obs::histogram("runtime.prefill_microbatch", BucketLayout::kPow2)
              .observe(static_cast<double>(p.prefill_microbatch));
          sq::obs::histogram("runtime.decode_microbatch", BucketLayout::kPow2)
              .observe(static_cast<double>(p.decode_microbatch));
          sq::obs::histogram("runtime.wave_bubble", BucketLayout::kRatio)
              .observe(r.bubble_fraction);
          // KV occupancy high-water mark: tightest device's KV reservation
          // share of its usable memory this wave.
          double kv_occ = 0.0;
          for (const auto& dm : r.memory.devices) {
            const double usable = static_cast<double>(
                a.cluster.spec(dm.device).usable_memory_bytes());
            if (usable > 0.0) {
              kv_occ = std::max(kv_occ, static_cast<double>(dm.kv_cache) / usable);
            }
          }
          sq::obs::gauge("runtime.kv_occupancy.hwm").set(kv_occ);
        }
        clock_us += r.total_us;
        stats.serve.total_seconds += r.total_us * 1e-6;
        stats.serve.output_tokens +=
            static_cast<double>(wave) * static_cast<double>(w.gen_tokens);
        bubble_sum += r.bubble_fraction;
        ++stats.serve.waves;
        done_in_batch += wave;
        ++wi;
        wave_retries = 0;
        continue;
      }

      // The wave hit a failure window: everything simulated up to the abort
      // is discarded (the wave re-runs from scratch after recovery).
      ++stats.faults_hit;
      const double abort_global_us = clock_us + r.total_us;
      stats.lost_us += r.total_us;
      clock_us = abort_global_us;
      stats.events.push_back(
          "[" + fmt_s(abort_global_us) + "] " +
          (r.fault_transient ? "transient" : "permanent") + " failure on device " +
          std::to_string(r.fault_device) + ", wave of " + std::to_string(wave) +
          " aborted after " + fmt_s(r.total_us));
      if (ob) {
        sq::obs::counter("fault.aborts").add();
        sq::obs::histogram("fault.lost_us", sq::obs::BucketLayout::kTimeUs)
            .observe(r.total_us);
      }

      if (r.fault_transient && wave_retries < opts.max_retries) {
        // Wait out the window plus backoff, then re-run the same wave.
        ++wave_retries;
        ++stats.retries;
        const double window_end_global = (clock_us - r.total_us) + r.fault_until_us;
        const double wait_us =
            std::max(0.0, window_end_global - clock_us) + opts.backoff_s * 1e6;
        stats.backoff_us += wait_us;
        clock_us += wait_us;
        stats.events.push_back("[" + fmt_s(abort_global_us) + "] retry " +
                               std::to_string(wave_retries) + " after backoff, at " +
                               fmt_s(clock_us));
        if (ob) sq::obs::counter("fault.retries").add();
        continue;
      }

      // Permanent failure (or transient retry budget exhausted — the device
      // is then treated as lost for the remainder of the run).
      a.failed.push_back(r.fault_device);
      const double penalty_us = opts.replan_penalty_s * 1e6;
      if (repair(a, cluster_, opts, prep_.get(), ob, abort_global_us,
                 clock_us + penalty_us, &stats.replan_wall_s, stats)) {
        stats.replan_us += penalty_us;
        clock_us += penalty_us;
        if (ob) {
          sq::obs::histogram("fault.replan_s", sq::obs::BucketLayout::kSeconds)
              .observe(opts.replan_penalty_s);
          sq::obs::Span span;
          span.name = "recovery.repair";
          span.start_us = abort_global_us;
          span.end_us = clock_us;
          span.attrs = {{"generation", static_cast<double>(stats.final_generation)},
                        {"failed_device", static_cast<double>(a.failed.back())}};
          sink.base_us = 0.0;
          sink.add(std::move(span));
        }
        // Re-schedule the requests this batch still owes under the new plan.
        sq::sim::BatchWorkload rest = batch;
        rest.batch_size = batch.batch_size - done_in_batch;
        sched = schedule_batch(a.cluster, model_, a.plan, rest);
        if (!sched.weights_fit) {
          stats.serve.failure = "repair infeasible: repaired plan weights OOM";
        } else {
          wi = 0;
          wave_retries = 0;
          continue;
        }
      }
      // No repair possible: the remaining workload is lost.
      stats.lost_requests +=
          (batch.batch_size - done_in_batch) + requests_after(b);
      if (stats.serve.failure.empty()) {
        stats.serve.failure =
            opts.replan ? "no feasible repair plan; remaining workload lost"
                        : "device failed with repair disabled; remaining "
                          "workload lost";
      }
      stats.events.push_back("[" + fmt_s(abort_global_us) + "] " +
                             stats.serve.failure + " (" +
                             std::to_string(stats.lost_requests) + " requests)");
      stopped = true;
      break;
    }
    if (!stopped) ++stats.serve.batches;
  }

  if (ob) {
    sq::obs::counter("runtime.batches").add(stats.serve.batches);
    if (ob_faults) {
      sq::obs::gauge("fault.lost_us.total").set(stats.lost_us);
      if (stats.lost_requests > 0) {
        sq::obs::counter("fault.lost_requests").add(stats.lost_requests);
      }
    }
    sq::obs::Registry::global().record_spans(sink.take());
  }
  stats.final_plan = std::move(a.plan);
  stats.wall_seconds = clock_us * 1e-6;
  if (stats.serve.total_seconds > 0.0) {
    stats.serve.throughput_tok_s =
        stats.serve.output_tokens / stats.serve.total_seconds;
  }
  if (stats.wall_seconds > 0.0) {
    stats.goodput_tok_s = stats.serve.output_tokens / stats.wall_seconds;
  }
  if (stats.serve.waves > 0) {
    stats.serve.mean_bubble = bubble_sum / static_cast<double>(stats.serve.waves);
  }
  return stats;
}

RecoveryStats OfflineEngine::serve_requests(
    const std::vector<sq::workload::Request>& requests, std::uint64_t batch_size,
    const RecoveryOptions& opts) const {
  return serve(sq::workload::make_batches(requests, model_, batch_size), opts);
}

RequestStats OfflineEngine::serve_continuous(
    const std::vector<sq::workload::TimedRequest>& arrivals,
    const ContinuousOptions& copts, const RecoveryOptions& ropts) const {
  if (prep_) prep_->prepare(plan_.layer_bits);
  RequestStats total = pending_stats(arrivals);

  const bool ob = observe_ && sq::obs::enabled();
  ActiveState a(cluster_, plan_, ropts.faults);
  if (ob && a.schedule != nullptr) {
    sq::obs::counter("fault.injected").add(a.schedule->events.size());
  }

  std::vector<std::size_t> remaining(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) remaining[i] = i;
  double resume_us = copts.start_us;

  // One scheduler run per plan generation; a permanent failure ends the
  // generation, and the requests it did not finish resume on the repaired
  // plan.  Arrivals keep their absolute times, so every generation's clock
  // is the global clock.
  while (!remaining.empty()) {
    std::vector<sq::workload::TimedRequest> sub;
    sub.reserve(remaining.size());
    for (const std::size_t id : remaining) sub.push_back(arrivals[id]);

    RequestScheduler sched(a.cluster, model_, a.plan, backend_efficiency(),
                           kernel_, memoize_);
    sched.set_observe(observe_);
    ContinuousOptions c = copts;
    c.start_us = resume_us;
    c.faults = a.schedule;
    c.to_original = a.to_original();
    const RequestStats st = sched.serve(sub, c);
    std::vector<std::size_t> incomplete = merge_segment(total, st, remaining);

    if (!st.feasible) {
      // Structural failure (invalid/OOM plan): unrecoverable.
      total.feasible = false;
      total.failure = st.failure;
      lose_requests(total, incomplete);
      break;
    }
    total.stopped = st.stopped;
    total.stop_s = st.stop_s;
    if (!st.fault_permanent) break;  // clean finish (or stop) on this plan

    a.failed.push_back(st.fault_device);
    if (incomplete.empty()) break;  // the failure stranded nothing
    const double abort_us = st.fault_s * 1e6;
    resume_us = abort_us + ropts.replan_penalty_s * 1e6;
    if (!repair(a, cluster_, ropts, prep_.get(), ob, abort_us, resume_us,
                nullptr, total)) {
      total.fault_permanent = true;
      total.fault_device = st.fault_device;
      total.fault_s = st.fault_s;
      total.failure =
          ropts.replan ? "no feasible repair plan; remaining requests lost"
                       : "device failed with repair disabled; remaining "
                         "requests lost";
      lose_requests(total, incomplete);
      total.events.push_back("[" + fmt_s(abort_us) + "] " + total.failure +
                             " (" + std::to_string(incomplete.size()) +
                             " requests)");
      if (ob) {
        sq::obs::counter("fault.lost_requests").add(incomplete.size());
      }
      break;
    }
    remaining = std::move(incomplete);
  }

  total.final_plan = std::move(a.plan);
  finalize_request_aggregates(total);
  return total;
}

}  // namespace sq::runtime
