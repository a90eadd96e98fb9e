#include "runtime/engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sq::runtime {

std::string format_seconds(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  return buf;
}

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

int ReplicaGroup::flat_of(int id) const {
  if (to_original.empty()) return id >= 0 && id < cluster.device_count() ? id : -1;
  const auto it = std::find(to_original.begin(), to_original.end(), id);
  return it == to_original.end() ? -1
                                 : static_cast<int>(it - to_original.begin());
}

void ReplicaGroup::shrink(const sq::hw::DegradedCluster& deg, ReplanOutcome r) {
  std::vector<int> chained = deg.to_original;
  if (!to_original.empty()) {
    for (int& i : chained) i = to_original[static_cast<std::size_t>(i)];
  }
  cluster = deg.cluster;
  to_original = std::move(chained);
  plan = std::move(r.plan);
  predicted_tok_s = r.predicted_tok_s;
}

std::string repair_group(ReplicaGroup& g, const std::vector<int>& failed,
                         const std::vector<sq::hw::DeviceDerate>& derates,
                         const Replanner& replan, std::uint64_t* calls,
                         const LadderObs* obs, double* wall_s) {
  const sq::hw::DegradedCluster deg =
      sq::hw::degrade_cluster(g.cluster, failed, derates);
  if (!deg.feasible) return deg.failure;
  ReplanOutcome r = replan_ladder(replan, deg.cluster, kMaxReplanAttempts,
                                  calls, wall_s, obs);
  if (!r.feasible) return "no feasible repair plan: " + r.failure;
  g.shrink(deg, std::move(r));
  return "";
}

sq::sim::FaultSchedule after_repair(const sq::sim::FaultSchedule& s,
                                    const ReplicaGroup& g) {
  sq::sim::FaultSchedule out;
  for (const auto& e : s.events) {
    if (!e.permanent_slowdown() && g.flat_of(e.device) >= 0) {
      out.events.push_back(e);
    }
  }
  return out;
}

OfflineEngine::OfflineEngine(ReplicaGroup group, sq::model::LlmSpec model,
                             Backend backend, sq::sim::KernelModelOptions kernel)
    : group_(std::move(group)),
      model_(std::move(model)),
      backend_(backend),
      kernel_(kernel) {}

OfflineEngine::OfflineEngine(sq::hw::Cluster cluster, sq::model::LlmSpec model,
                             sq::sim::ExecutionPlan plan, Backend backend,
                             sq::sim::KernelModelOptions kernel)
    : OfflineEngine(ReplicaGroup{std::move(cluster), {}, std::move(plan)},
                    std::move(model), backend, kernel) {}

/// Plan repair after the device with original id `id` failed: the shared
/// repair step drops it from `g` (the first repair also bakes the
/// schedule's sustained stragglers into the survivors' specs), then the
/// repaired plan takes the engine's provenance (generation; excluded
/// devices as flat indices of the bound group), `faults` keeps only what
/// the repaired group still replays, and the event log gains the repair
/// line (serving resumes at `resume_us`).  `Stats` is RecoveryStats or
/// RequestStats; `wall_s` sums planner wall time (may be null).  Returns
/// false when serving cannot continue.
template <class Stats>
bool OfflineEngine::repair(ReplicaGroup& g, sq::sim::FaultSchedule& faults,
                           int id, const Replanner& replan, double abort_us,
                           double resume_us, double* wall_s,
                           Stats& stats) const {
  std::vector<sq::hw::DeviceDerate> derates;  // -1: a device g does not hold
  for (const auto& e : faults.events) {
    if (e.permanent_slowdown()) derates.push_back({g.flat_of(e.device), e.factor});
  }
  const bool ob = observe_ && sq::obs::enabled();
  static constexpr LadderObs kObs{"fault.repairs.attempted",
                                  "fault.replan_wall_s"};
  const auto old_bits = g.plan.layer_bits;
  const std::string why = repair_group(g, {g.flat_of(id)}, derates, replan,
                                      &stats.repairs_attempted,
                                      ob ? &kObs : nullptr, wall_s);
  if (!why.empty()) return false;
  ++stats.repairs_succeeded;
  ++stats.final_generation;
  g.plan.repair_generation = stats.final_generation;
  g.plan.excluded_devices.clear();
  for (int d = 0; d < group_.cluster.device_count(); ++d) {
    const int orig =
        group_.to_original.empty() ? d : group_.to_original[static_cast<std::size_t>(d)];
    if (g.flat_of(orig) < 0) g.plan.excluded_devices.push_back(d);
  }
  // Incremental re-preparation: only layers whose bit assignment changed
  // in the repaired plan are re-quantized; the rest hit the QuantCache.
  if (prep_ != nullptr) prep_->reprepare(old_bits, g.plan.layer_bits);
  faults = after_repair(faults, g);

  stats.events.push_back("[" + format_seconds(abort_us * 1e-6) +
                         "] repair: generation " +
                         std::to_string(stats.final_generation) + " on " +
                         g.cluster.summary() + ", resume at " +
                         format_seconds(resume_us * 1e-6));
  if (ob) sq::obs::counter("fault.repairs.succeeded").add();
  return true;
}

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
  const std::string err = group_.plan.validate(model_, group_.cluster);
  if (!err.empty()) {
    stats.serve.feasible = false;
    stats.serve.failure = "invalid plan: " + err;
    return stats;
  }
  if (prep_) prep_->prepare(group_.plan.layer_bits);

  sq::sim::PipelineOptions popts;
  popts.kernel = kernel_;
  popts.backend_efficiency = backend_efficiency();

  // Observability: metrics and trace spans are recorded only when this
  // engine was marked observable AND the registry is enabled; recording is
  // read-only with respect to the stats (asserted by obs_test.cpp).
  // fault.* instruments are recorded only when a schedule is given.
  const bool ob = observe_ && sq::obs::enabled();
  const bool ob_faults = ob && opts.faults != nullptr;
  sq::obs::TraceSink sink;
  if (ob) popts.trace = &sink;

  // The group being served (the bound one until a repair replaces it) and
  // the fault schedule it replays.
  ReplicaGroup g = group_;
  sq::sim::FaultSchedule faults =
      opts.faults != nullptr ? *opts.faults : sq::sim::FaultSchedule{};
  if (ob && !faults.empty()) {
    sq::obs::counter("fault.injected").add(faults.events.size());
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
    BatchSchedule sched = schedule_batch(g.cluster, model_, g.plan, batch);
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
      sq::sim::ExecutionPlan p = g.plan;
      p.prefill_microbatch = std::min<std::uint64_t>(sched.eta, wave);
      p.decode_microbatch = std::min<std::uint64_t>(sched.xi, wave);

      sq::sim::FaultView fv;
      fv.schedule = &faults;
      fv.base_us = clock_us;
      fv.to_original = g.to_original.empty() ? nullptr : &g.to_original;
      popts.faults = faults.empty() ? nullptr : &fv;
      sink.base_us = clock_us;

      const auto r = sq::sim::simulate_batch(g.cluster, model_, p, w, popts);
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
                g.cluster.spec(dm.device).usable_memory_bytes());
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
      // Failures are logged by the bound group's flat index.
      const int failed_dev = group_.flat_of(r.fault_device);
      stats.events.push_back(
          "[" + format_seconds(abort_global_us * 1e-6) + "] " +
          (r.fault_transient ? "transient" : "permanent") + " failure on device " +
          std::to_string(failed_dev) + ", wave of " + std::to_string(wave) +
          " aborted after " + format_seconds(r.total_us * 1e-6));
      if (ob) {
        sq::obs::counter("fault.aborts").add();
        sq::obs::histogram("fault.lost_us", sq::obs::BucketLayout::kTimeUs)
            .observe(r.total_us);
      }

      if (r.fault_transient && wave_retries < kMaxRetries) {
        // Wait out the window plus backoff, then re-run the same wave.
        ++wave_retries;
        ++stats.retries;
        const double window_end_global = (clock_us - r.total_us) + r.fault_until_us;
        const double wait_us =
            std::max(0.0, window_end_global - clock_us) + kBackoffS * 1e6;
        stats.backoff_us += wait_us;
        clock_us += wait_us;
        stats.events.push_back("[" + format_seconds(abort_global_us * 1e-6) +
                               "] retry " + std::to_string(wave_retries) +
                               " after backoff, at " +
                               format_seconds(clock_us * 1e-6));
        if (ob) sq::obs::counter("fault.retries").add();
        continue;
      }

      // Permanent failure (or transient retry budget exhausted — the device
      // is then treated as lost for the remainder of the run).
      const double penalty_us = kReplanPenaltyS * 1e6;
      if (repair(g, faults, r.fault_device, opts.replan, abort_global_us,
                 clock_us + penalty_us, &stats.replan_wall_s, stats)) {
        stats.replan_us += penalty_us;
        clock_us += penalty_us;
        if (ob) {
          sq::obs::histogram("fault.replan_s", sq::obs::BucketLayout::kSeconds)
              .observe(kReplanPenaltyS);
          sq::obs::Span span;
          span.name = "recovery.repair";
          span.start_us = abort_global_us;
          span.end_us = clock_us;
          span.attrs = {{"generation", static_cast<double>(stats.final_generation)},
                        {"failed_device", static_cast<double>(failed_dev)}};
          sink.base_us = 0.0;
          sink.add(std::move(span));
        }
        // Re-schedule the requests this batch still owes under the new plan.
        sq::sim::BatchWorkload rest = batch;
        rest.batch_size = batch.batch_size - done_in_batch;
        sched = schedule_batch(g.cluster, model_, g.plan, rest);
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
      stats.events.push_back("[" + format_seconds(abort_global_us * 1e-6) + "] " +
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
  stats.final_plan = std::move(g.plan);
  stats.final_cluster = std::move(g.cluster);
  stats.final_to_original = std::move(g.to_original);
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
  if (prep_) prep_->prepare(group_.plan.layer_bits);
  RequestStats total = pending_stats(arrivals);

  const bool ob = observe_ && sq::obs::enabled();
  ReplicaGroup g = group_;
  sq::sim::FaultSchedule faults =
      ropts.faults != nullptr ? *ropts.faults : sq::sim::FaultSchedule{};
  if (ob && !faults.empty()) {
    sq::obs::counter("fault.injected").add(faults.events.size());
  }

  std::vector<std::size_t> remaining(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) remaining[i] = i;
  ContinuousOptions c = copts;

  // One scheduler run per plan generation; a permanent failure ends the
  // generation, and the requests it did not finish resume on the repaired
  // plan.  Arrivals keep their absolute times, so every generation's clock
  // is the global clock.
  while (!remaining.empty()) {
    std::vector<sq::workload::TimedRequest> sub;
    sub.reserve(remaining.size());
    for (const std::size_t id : remaining) sub.push_back(arrivals[id]);

    RequestScheduler sched(g.cluster, model_, g.plan, backend_efficiency(),
                           kernel_);
    sched.set_observe(observe_);
    c.faults = faults.empty() ? nullptr : &faults;
    c.to_original = g.to_original.empty() ? nullptr : &g.to_original;
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
    if (incomplete.empty()) break;  // the failure stranded nothing

    const double abort_us = st.fault_s * 1e6;
    // The next generation starts its requests fresh: `copts.resume` is
    // index-parallel with `arrivals`, not with the stranded subset, and
    // the KV it stood for died with the device.
    c.start_us = abort_us + kReplanPenaltyS * 1e6;
    c.resume = nullptr;
    if (!repair(g, faults, st.fault_device, ropts.replan, abort_us,
                c.start_us, nullptr, total)) {
      total.fault_permanent = true;
      total.fault_device = st.fault_device;
      total.fault_s = st.fault_s;
      total.failure =
          ropts.replan ? "no feasible repair plan; remaining requests lost"
                       : "device failed with repair disabled; remaining "
                         "requests lost";
      lose_requests(total, incomplete);
      total.events.push_back("[" + format_seconds(abort_us * 1e-6) + "] " +
                             total.failure + " (" +
                             std::to_string(incomplete.size()) + " requests)");
      if (ob) {
        sq::obs::counter("fault.lost_requests").add(incomplete.size());
      }
      break;
    }
    remaining = std::move(incomplete);
  }

  total.final_plan = std::move(g.plan);
  total.final_cluster = std::move(g.cluster);
  total.final_to_original = std::move(g.to_original);
  finalize_request_aggregates(total);
  return total;
}

}  // namespace sq::runtime
