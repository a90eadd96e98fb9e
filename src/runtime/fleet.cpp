#include "runtime/fleet.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "common/spec_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sq::runtime {

namespace {

/// Mutable state of one replica group.  Owned by exactly one scheduler
/// worker at a time (groups are the unit of parallel execution), so no
/// synchronization is needed.
struct GroupState {
  ReplicaGroup group;                 ///< Repairs adopted as they happen.
  /// The fleet schedule as this group replays it, on the fleet clock
  /// (after_repair once a repair baked its stragglers in).
  sq::sim::FaultSchedule schedule;
  double elapsed_us = 0.0;            ///< Group-local simulated clock.
  bool retired = false;
  std::vector<std::string> events;
};

/// True when every batch of `job` can hold at least one request on the
/// group's current (cluster, plan): weights fit and the tightest stage has
/// KV room for a single full-context request.  A continuous job is probed
/// with its largest request, clamped to the model's context limit as the
/// request scheduler clamps it.
bool can_run(const ReplicaGroup& g, const sq::model::LlmSpec& model,
             const FleetJob& job) {
  for (const auto& b : job.batches) {
    if (max_concurrency(g.cluster, model, g.plan, b) == 0) return false;
  }
  if (!job.arrivals.empty()) {
    std::uint64_t prompt = 1;
    std::uint64_t gen = 1;
    for (const auto& a : job.arrivals) {
      prompt = std::max(prompt, a.request.prompt_tokens);
      gen = std::max(gen, a.request.output_tokens);
    }
    const sq::workload::Request len = sq::workload::clamp_to_context({prompt, gen}, model.pos_s);
    sq::sim::BatchWorkload probe;
    probe.batch_size = 1;
    probe.prompt_len = len.prompt_tokens;
    probe.gen_tokens = len.output_tokens;
    if (max_concurrency(g.cluster, model, g.plan, probe) == 0) return false;
  }
  return true;
}

}  // namespace

std::vector<std::size_t> lpt_order(const std::vector<FleetJob>& jobs,
                                   std::vector<std::size_t> ids) {
  std::stable_sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
    return jobs[a].work_tokens() > jobs[b].work_tokens();
  });
  return ids;
}

std::string job_event(const FleetJob& job, const JobOutcome& out) {
  std::string line = "job '" + job.name + "' [" + format_seconds(out.start_s) +
                     " .. " + format_seconds(out.end_s) + "] ";
  if (!out.completed) return line + "FAILED: " + out.failure;
  line += std::to_string(static_cast<long long>(out.output_tokens())) + " tokens";
  if (job.arrivals.empty()) return line;
  return line + " (" + std::to_string(out.continuous.completed) + "/" +
         std::to_string(out.continuous.submitted) + " requests)";
}

void finalize_fleet_stats(FleetStats& stats) {
  stats.group_jobs.assign(stats.group_busy_s.size(), 0);
  for (const JobOutcome& out : stats.jobs) {
    if (out.completed) ++stats.jobs_completed;
    // Token counts are whole numbers, so the sum is exact in any order.
    stats.output_tokens += out.output_tokens();
    stats.faults_hit += out.recovery.faults_hit + out.continuous.faults_hit;
    stats.retries += out.recovery.retries + out.continuous.retries;
    stats.repairs +=
        out.recovery.repairs_succeeded + out.continuous.repairs_succeeded;
    if (out.group >= 0 && out.end_s > out.start_s) {
      ++stats.group_jobs[static_cast<std::size_t>(out.group)];
    }
  }
  stats.makespan_s = 0.0;
  for (const double b : stats.group_busy_s) {
    stats.makespan_s = std::max(stats.makespan_s, b);
  }
  if (stats.makespan_s > 0.0) {
    stats.aggregate_tok_s = stats.output_tokens / stats.makespan_s;
  }
}

double FleetJob::work_tokens() const {
  double t = 0.0;
  for (const auto& b : batches) {
    t += static_cast<double>(b.batch_size) *
         static_cast<double>(b.prompt_len + b.gen_tokens);
  }
  for (const auto& a : arrivals) {
    t += static_cast<double>(a.request.prompt_tokens + a.request.output_tokens);
  }
  return t;
}

JobsParse parse_jobs_spec(const std::string& spec) {
  JobsParse out;
  for (const std::string& item : sq::common::split_spec_items(spec)) {
    const auto bad = [&](const std::string& why) {
      out.ok = false;
      out.error = "bad --jobs item '" + item + "': " + why;
      out.items.clear();
      return out;
    };
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      return bad("want <name>:<requests>");
    }
    const std::string name = item.substr(0, colon);
    const std::string count = item.substr(colon + 1);
    if (name.find(':') != std::string::npos) return bad("name contains ':'");
    for (const char c : name) {
      if (sq::common::spec_space(c)) return bad("name contains whitespace");
    }
    // Strict base-10 (common/spec_util.h): whitespace, signs and trailing
    // junk are all rejected.
    long long n = 0;
    if (!sq::common::parse_spec_uint(count, &n)) {
      return bad("count is not a number");
    }
    if (n < 1) return bad("count must be >= 1");
    if (n > 1000000) return bad("count exceeds 1e6");
    out.items.push_back({name, static_cast<std::uint64_t>(n)});
  }
  out.ok = true;
  return out;
}

FleetEngine::FleetEngine(sq::model::LlmSpec model,
                         std::vector<ReplicaGroup> groups, Backend backend,
                         sq::sim::KernelModelOptions kernel)
    : model_(std::move(model)),
      groups_(std::move(groups)),
      backend_(backend),
      kernel_(kernel) {}

FleetStats FleetEngine::serve(const std::vector<FleetJob>& jobs,
                              const FleetOptions& opts) const {
  FleetStats stats;
  if (groups_.empty()) {
    stats.feasible = false;
    stats.failure = "fleet has no replica groups";
    return stats;
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].batches.empty() && !jobs[j].arrivals.empty()) {
      stats.feasible = false;
      stats.failure = "job '" + jobs[j].name +
                      "' has both batches and arrivals (want exactly one)";
      return stats;
    }
  }

  const std::size_t n_groups = groups_.size();
  std::vector<GroupState> state(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const ReplicaGroup& rg = groups_[g];
    const std::string err = rg.plan.validate(model_, rg.cluster);
    if (!err.empty()) {
      stats.feasible = false;
      stats.failure =
          "group " + std::to_string(g) + " plan invalid: " + err;
      return stats;
    }
    state[g].group = rg;
    if (opts.faults != nullptr) state[g].schedule = *opts.faults;
  }
  // LPT speed weight: the planner-predicted rate the group started with.
  const auto rate_tok_s = [&](std::size_t g) {
    return groups_[g].predicted_tok_s > 0.0 ? groups_[g].predicted_tok_s : 1.0;
  };

  stats.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) stats.jobs[j].job = jobs[j].name;

  // ---- Scheduling rounds: LPT assignment, parallel group execution,
  // re-assignment of jobs stranded on retired groups. -------------------
  sq::common::ThreadPool* pool = nullptr;
  std::unique_ptr<sq::common::ThreadPool> owned_pool;
  const int n_threads = sq::common::resolve_threads(opts.num_threads);
  if (n_threads > 1 && n_groups > 1 && !sq::common::on_pool_worker()) {
    owned_pool = std::make_unique<sq::common::ThreadPool>(
        std::min<int>(n_threads, static_cast<int>(n_groups)));
    pool = owned_pool.get();
  }

  std::vector<std::size_t> pending(jobs.size());
  std::iota(pending.begin(), pending.end(), 0);

  while (!pending.empty()) {
    std::vector<std::size_t> active;
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (!state[g].retired) active.push_back(g);
    }
    if (active.empty()) {
      for (const std::size_t j : pending) {
        JobOutcome& out = stats.jobs[j];
        out.failure = "no serving groups remain (all retired)";
        stats.events.push_back("job '" + jobs[j].name + "' lost: " + out.failure);
      }
      break;
    }

    // Greedy finish-time assignment over the groups' predicted rates,
    // starting from each group's already-elapsed timeline.
    std::vector<double> load_s(n_groups, 0.0);
    for (const std::size_t g : active) load_s[g] = state[g].elapsed_us * 1e-6;
    std::vector<std::vector<std::size_t>> queue(n_groups);
    std::vector<std::size_t> still_pending;
    for (const std::size_t j : lpt_order(jobs, pending)) {
      std::size_t best = n_groups;
      double best_t = std::numeric_limits<double>::infinity();
      for (const std::size_t g : active) {
        if (!can_run(state[g].group, model_, jobs[j])) continue;
        const double t = load_s[g] + jobs[j].work_tokens() / rate_tok_s(g);
        if (t < best_t) {
          best_t = t;
          best = g;
        }
      }
      if (best == n_groups) {
        JobOutcome& out = stats.jobs[j];
        out.group = -1;
        out.failure = "rejected: no replica group can hold the job";
        ++stats.jobs_rejected;
        stats.events.push_back("job '" + jobs[j].name + "' " + out.failure);
        continue;
      }
      queue[best].push_back(j);
      load_s[best] += jobs[j].work_tokens() / rate_tok_s(best);
    }

    // Execute every group's queue; a group's jobs run in order, groups run
    // concurrently.  Each task only touches its own GroupState and its own
    // JobOutcome slots, so results never depend on worker interleaving.
    sq::common::parallel_for(pool, n_groups, [&](std::size_t g) {
      GroupState& st = state[g];
      for (std::size_t qi = 0; qi < queue[g].size(); ++qi) {
        if (st.retired) break;  // Remaining queue re-assigned below.
        const std::size_t j = queue[g][qi];
        const FleetJob& job = jobs[j];

        const sq::sim::FaultSchedule shifted =
            sq::sim::schedule_from(st.schedule, st.elapsed_us);
        RecoveryOptions ropts;
        ropts.faults = shifted.empty() ? nullptr : &shifted;
        ropts.replan = opts.replan;

        OfflineEngine eng(st.group, model_, backend_, kernel_);
        if (prep_) eng.set_weight_prep(prep_);
        JobOutcome& out = stats.jobs[j];
        out.group = static_cast<int>(g);
        out.start_s = st.elapsed_us * 1e-6;
        // After serving: account the job on the group's timeline and, when
        // the engine repaired the group, carry on with the group serving
        // ended on (the fresh plan lost the shard stamps; re-apply them so
        // provenance survives repair).
        const auto finish = [&](const auto& rs, double wall_s,
                                const std::string& why) {
          out.end_s = out.start_s + wall_s;
          if (!out.completed) out.failure = why.empty() ? "serving aborted" : why;
          st.elapsed_us += wall_s * 1e6;
          st.events.push_back(job_event(job, out));
          for (const auto& e : rs.events) st.events.push_back("  " + e);
          if (rs.final_generation == 0) return;
          sq::sim::ExecutionPlan plan = rs.final_plan;
          plan.shard_index = st.group.plan.shard_index;
          plan.num_shards = st.group.plan.num_shards;
          st.group = {rs.final_cluster, rs.final_to_original, std::move(plan),
                      st.group.predicted_tok_s};
          st.schedule = after_repair(st.schedule, st.group);
        };
        if (job.arrivals.empty()) {
          out.recovery = eng.serve(job.batches, ropts);
          out.completed =
              out.recovery.serve.feasible && out.recovery.lost_requests == 0;
          finish(out.recovery, out.recovery.wall_seconds,
                 out.recovery.serve.failure);
        } else {
          // The arrival timeline starts at the job's start instant on this
          // group; the re-based schedule speaks the same job-local clock,
          // so the scheduler's absolute-time contract holds.  Lost requests
          // (unservable alone) fail the job's completeness accounting but
          // do not retire the group — only structural failures and
          // unrepaired permanent faults do.
          out.continuous = eng.serve_continuous(job.arrivals, {}, ropts);
          out.completed =
              out.continuous.feasible && !out.continuous.fault_permanent;
          finish(out.continuous, out.continuous.total_seconds,
                 out.continuous.failure);
        }
        if (!out.completed) {
          st.retired = true;
          st.events.push_back("group retired: " + out.failure);
        }
      }
    });

    // Sequential reduction in (group, queue position) order.  A group's
    // jobs run strictly in queue order and the worker stops right after a
    // failure, so everything queued behind the first failure never ran and
    // goes back to the pending pool.
    for (std::size_t g = 0; g < n_groups; ++g) {
      bool seen_failure = false;
      for (const std::size_t j : queue[g]) {
        if (seen_failure) {
          still_pending.push_back(j);
          continue;
        }
        // The failing job itself is consumed: its in-flight requests are
        // lost exactly as in single-group fault-tolerant serving.
        seen_failure = !stats.jobs[j].completed;
      }
      if (seen_failure) ++stats.groups_retired;
    }
    std::sort(still_pending.begin(), still_pending.end());
    stats.jobs_reassigned += still_pending.size();
    pending = std::move(still_pending);
  }

  // ---- Final aggregates (group-major, deterministic). ------------------
  stats.group_busy_s.assign(n_groups, 0.0);
  for (std::size_t g = 0; g < n_groups; ++g) {
    stats.group_busy_s[g] = state[g].elapsed_us * 1e-6;
    for (const auto& line : state[g].events) {
      stats.events.push_back("group " + std::to_string(g) + ": " + line);
    }
  }
  finalize_fleet_stats(stats);

  if (observe_ && sq::obs::enabled()) {
    sq::obs::gauge("fleet.groups").set(static_cast<double>(n_groups));
    sq::obs::counter("fleet.jobs.submitted").add(jobs.size());
    sq::obs::counter("fleet.jobs.completed").add(stats.jobs_completed);
    sq::obs::counter("fleet.jobs.rejected").add(stats.jobs_rejected);
    sq::obs::counter("fleet.jobs.reassigned").add(stats.jobs_reassigned);
    sq::obs::counter("fleet.groups.retired").add(stats.groups_retired);
    sq::obs::counter("fleet.faults").add(stats.faults_hit);
    sq::obs::counter("fleet.repairs").add(stats.repairs);
    sq::obs::gauge("fleet.makespan_s").set(stats.makespan_s);
    sq::obs::gauge("fleet.aggregate_tok_s").set(stats.aggregate_tok_s);
    auto& job_hist =
        sq::obs::histogram("fleet.job_seconds", sq::obs::BucketLayout::kSeconds);
    // One deterministic, group-ordered span stream (group timelines are
    // concurrent; the `group` attribute disambiguates overlaps).
    sq::obs::TraceSink sink;
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t j = 0; j < stats.jobs.size(); ++j) {
        const JobOutcome& out = stats.jobs[j];
        if (out.group != static_cast<int>(g) || out.end_s <= out.start_s) {
          continue;
        }
        job_hist.observe(out.end_s - out.start_s);
        sq::obs::Span span;
        span.name = "fleet.job";
        span.start_us = out.start_s * 1e6;
        span.end_us = out.end_s * 1e6;
        span.attrs = {{"group", static_cast<double>(g)},
                      {"job", static_cast<double>(j)},
                      {"tokens", out.output_tokens()},
                      {"completed", out.completed ? 1.0 : 0.0}};
        sink.add(std::move(span));
      }
    }
    sq::obs::Registry::global().record_spans(sink.take());
  }
  return stats;
}

}  // namespace sq::runtime
