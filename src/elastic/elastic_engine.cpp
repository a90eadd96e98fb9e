#include "elastic/elastic_engine.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "runtime/request_scheduler.h"
#include "sim/faults.h"

namespace sq::elastic {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// "[<t>] ": the simulated-clock stamp (`us`) opening an event-log line.
std::string stamp(double us) {
  return "[" + sq::runtime::format_seconds(us * 1e-6) + "] ";
}

std::string fmt_pct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.1f%%", frac * 100.0);
  return buf;
}

/// Changes staged by event application, adopted after the in-flight
/// settlement (drain needs the OLD state to finish on).
struct PendingChange {
  sq::runtime::ReplicaGroup next;
  /// Accepted plan switches (penalty per switch); 0 = membership did not
  /// change (price events only).
  int switches = 0;
};

}  // namespace

const char* to_string(MigrationPolicy p) {
  switch (p) {
    case MigrationPolicy::kAuto: return "auto";
    case MigrationPolicy::kMigrate: return "migrate";
    case MigrationPolicy::kDrain: return "drain";
    case MigrationPolicy::kRestart: return "restart";
  }
  return "?";
}

bool migration_policy_from_string(const std::string& s, MigrationPolicy* out) {
  if (s == "auto") *out = MigrationPolicy::kAuto;
  else if (s == "migrate") *out = MigrationPolicy::kMigrate;
  else if (s == "drain") *out = MigrationPolicy::kDrain;
  else if (s == "restart") *out = MigrationPolicy::kRestart;
  else return false;
  return true;
}

ElasticFleetEngine::ElasticFleetEngine(sq::model::LlmSpec model,
                                       std::vector<sq::runtime::ReplicaGroup> groups,
                                       sq::runtime::Backend backend,
                                       sq::sim::KernelModelOptions kernel)
    : model_(std::move(model)),
      groups_(std::move(groups)),
      backend_(backend),
      kernel_(kernel) {}

ElasticStats ElasticFleetEngine::serve(
    const std::vector<sq::runtime::FleetJob>& jobs,
    const ElasticOptions& opts) const {
  ElasticStats out;

  // ---- Empty timeline: exact FleetEngine delegation (byte-identity). ---
  if (opts.timeline == nullptr || opts.timeline->empty()) {
    sq::runtime::FleetEngine fe(model_, groups_, backend_, kernel_);
    fe.set_observe(observe_);
    if (prep_) fe.set_weight_prep(prep_);
    out.fleet = fe.serve(jobs, opts.fleet);
    out.feasible = out.fleet.feasible;
    out.failure = out.fleet.failure;
    // The cost ledger still applies: the fleet held its devices for the
    // whole makespan.
    for (const auto& g : groups_) {
      out.device_seconds += g.cluster.device_count() * out.fleet.makespan_s;
      out.dollars += opts.cost.charge(g.cluster, out.fleet.makespan_s);
    }
    if (out.dollars > 0.0) {
      out.tokens_per_dollar = out.fleet.output_tokens / out.dollars;
    }
    return out;
  }

  // ---- Structural checks for the elastic path. -------------------------
  out.fleet.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) out.fleet.jobs[j].job = jobs[j].name;
  const auto structural_fail = [&](const std::string& why) {
    out.feasible = false;
    out.failure = why;
    out.fleet.feasible = false;
    out.fleet.failure = why;
    return out;
  };
  if (groups_.size() != 1) {
    return structural_fail("elastic serving requires exactly one replica "
                           "group (got " + std::to_string(groups_.size()) + ")");
  }
  for (const auto& job : jobs) {
    if (!job.batches.empty()) {
      return structural_fail("elastic serving requires continuous jobs; job '" +
                             job.name + "' has batches");
    }
  }
  {
    const std::string err = groups_[0].plan.validate(model_, groups_[0].cluster);
    if (!err.empty()) return structural_fail("group 0 plan invalid: " + err);
  }

  const bool ob = observe_ && sq::obs::enabled();
  const MembershipTimeline& timeline = *opts.timeline;
  CostModel cost = opts.cost;

  // ---- Elastic serving state: the group, its devices named by stable
  // base ids (ReplicaGroup::to_original). ---------------------------------
  sq::runtime::ReplicaGroup ms = groups_[0];
  if (ms.to_original.empty()) {
    ms.to_original.resize(static_cast<std::size_t>(ms.cluster.device_count()));
    std::iota(ms.to_original.begin(), ms.to_original.end(), 0);
  }
  // Joined devices get fresh base ids past every initial id, in join
  // order.  Fault schedules speak base ids, so a schedule naming one of
  // these ids fails that joined device.
  int next_base = 0;
  for (const int b : ms.to_original) next_base = std::max(next_base, b + 1);
  std::vector<std::vector<int>> join_stack;  ///< Base ids per accepted join.
  int join_seq = 0;

  const double eff = sq::runtime::backend_efficiency(backend_);
  const sq::sim::KernelModel km(kernel_);

  double fc_us = 0.0;          ///< Fleet simulated clock.
  double last_charge_us = 0.0;
  double last_scale_us = -kInf;
  std::size_t ev = 0;          ///< Timeline cursor.
  std::string fatal;           ///< Capacity exhausted; set once.
  std::vector<sq::obs::Span> migration_spans;

  const auto charge_to = [&](double to_us) {
    if (to_us <= last_charge_us) return;
    const double dt = (to_us - last_charge_us) * 1e-6;
    out.device_seconds += ms.cluster.device_count() * dt;
    out.dollars += cost.charge(ms.cluster, dt);
    last_charge_us = to_us;
  };

  // Graceful-degradation replan ladders: membership changes replan with
  // `opts.replan`; fault repair replans with `opts.fleet.replan`, whose
  // null means a permanent failure loses the remaining requests.
  static constexpr sq::runtime::LadderObs kLadderObs{"elastic.replan.attempts",
                                                     "elastic.replan_wall_s"};
  const sq::runtime::LadderObs* ladder_obs = ob ? &kLadderObs : nullptr;
  const auto replan_membership = [&](const sq::hw::Cluster& c) {
    return sq::runtime::replan_ladder(opts.replan, c,
                                      sq::runtime::kMaxReplanAttempts, nullptr,
                                      nullptr, ladder_obs);
  };
  // The elastic loop keeps replaying the schedule's straggler windows, so
  // a fault repair bakes no derates into the specs.
  const auto repair = [&](sq::runtime::ReplicaGroup& g, int flat,
                          std::uint64_t* calls) {
    return sq::runtime::repair_group(g, {flat}, {}, opts.fleet.replan, calls,
                                     ladder_obs);
  };

  // ---- Membership event application (stages a PendingChange). ----------
  const auto apply_due_events = [&](double now_us, std::uint64_t backlog,
                                    PendingChange* p) {
    p->next = ms;
    p->switches = 0;
    while (ev < timeline.events.size() && timeline.events[ev].at_us <= now_us) {
      const MembershipEvent& e = timeline.events[ev];
      ++ev;
      ++out.events_applied;
      const bool cooling =
          (e.at_us - last_scale_us) < opts.autoscale.cooldown_s * 1e6;
      if (e.kind == MemberEventKind::kJoin) {
        ++out.joins_offered;
        sq::hw::Node node;
        node.name = "elastic-" + std::to_string(join_seq);
        node.gpu_type = e.gpu;
        node.gpu_count = e.count;
        node.intra_gbps = 300.0;
        const sq::hw::Cluster grown = sq::hw::grow_cluster(p->next.cluster, node);
        const sq::runtime::ReplanOutcome r = replan_membership(grown);
        bool accept = false;
        std::string reason;
        if (!r.feasible) {
          reason = "no feasible plan: " + r.failure;
        } else if (!opts.autoscale.enabled) {
          accept = true;
          reason = "autoscaler off";
        } else if (backlog < opts.autoscale.join_backlog) {
          reason = "backlog " + std::to_string(backlog) + " below threshold";
        } else if (cooling) {
          reason = "cooldown";
        } else {
          const double cur_rate = cost.cluster_rate_per_s(p->next.cluster);
          const double new_rate = cost.cluster_rate_per_s(grown);
          const double cur_tpd =
              cur_rate > 0.0 ? p->next.predicted_tok_s / cur_rate : 0.0;
          const double new_tpd =
              new_rate > 0.0 ? r.predicted_tok_s / new_rate : 0.0;
          if (cur_tpd > 0.0 &&
              new_tpd >= cur_tpd * (1.0 + opts.autoscale.price_margin)) {
            accept = true;
            reason = "tokens/$ " + fmt_pct(new_tpd / cur_tpd - 1.0);
          } else if (backlog >= opts.autoscale.pressure_backlog) {
            accept = true;
            reason = "backlog pressure (" + std::to_string(backlog) + ")";
          } else {
            reason = "tokens/$ gain below margin";
          }
        }
        if (accept) {
          ++out.joins_accepted;
          std::vector<int> fresh;
          for (int i = 0; i < e.count; ++i) fresh.push_back(next_base++);
          p->next.cluster = grown;
          p->next.to_original.insert(p->next.to_original.end(), fresh.begin(),
                                     fresh.end());
          p->next.plan = r.plan;
          p->next.predicted_tok_s = r.predicted_tok_s;
          ++p->switches;
          join_stack.push_back(std::move(fresh));
          ++join_seq;
          if (opts.autoscale.enabled) last_scale_us = e.at_us;
        } else {
          ++out.joins_rejected;
        }
        out.events.push_back(stamp(e.at_us) + "join " +
                             (accept ? "accepted: " : "rejected: ") +
                             std::to_string(e.count) + "x" +
                             sq::hw::to_string(e.gpu) + " (" + reason + ")");
      } else if (e.kind == MemberEventKind::kLeave) {
        ++out.leaves;
        std::vector<int> excl;
        if (e.whole_node) {
          for (int d = 0; d < p->next.cluster.device_count(); ++d) {
            if (p->next.cluster.device(d).node == e.index) excl.push_back(d);
          }
        } else if (e.index >= 0 && e.index < p->next.cluster.device_count()) {
          excl.push_back(e.index);
        }
        if (excl.empty()) {
          out.events.push_back(stamp(e.at_us) + "leave ignored: no " +
                               (e.whole_node ? "node " : "device ") +
                               std::to_string(e.index));
          continue;
        }
        const sq::hw::DegradedCluster deg =
            sq::hw::degrade_cluster(p->next.cluster, excl);
        if (!deg.feasible) {
          fatal = deg.failure;
          out.events.push_back(stamp(e.at_us) + "leave: " + fatal);
          return;
        }
        const sq::runtime::ReplanOutcome r = replan_membership(deg.cluster);
        if (!r.feasible) {
          fatal = "no feasible plan after leave: " + r.failure;
          out.events.push_back(stamp(e.at_us) + fatal);
          return;
        }
        p->next.shrink(deg, r);
        ++p->switches;
        out.events.push_back(stamp(e.at_us) + "leave: " +
                             std::to_string(excl.size()) + " device(s), now " +
                             p->next.cluster.summary());
      } else {  // kPrice
        ++out.price_events;
        cost.set_price(e.gpu, e.price);
        out.events.push_back(stamp(e.at_us) + "price: " +
                             std::string(sq::hw::to_string(e.gpu)) + " = $" +
                             std::to_string(e.price) + "/h");
        // Scale-to-price: release the most recent still-held join when
        // tokens/$ improves by the margin under the new prices.
        if (!opts.autoscale.enabled || cooling) continue;
        while (!join_stack.empty()) {
          std::vector<int> excl;
          bool all_held = true;
          for (const int b : join_stack.back()) {
            const int f = p->next.flat_of(b);
            if (f < 0) { all_held = false; break; }
            excl.push_back(f);
          }
          if (!all_held) {
            join_stack.pop_back();  // Already gone (left/failed); try next.
            continue;
          }
          const sq::hw::DegradedCluster deg =
              sq::hw::degrade_cluster(p->next.cluster, excl);
          if (!deg.feasible) break;
          const sq::runtime::ReplanOutcome r = replan_membership(deg.cluster);
          if (!r.feasible) break;
          const double cur_rate = cost.cluster_rate_per_s(p->next.cluster);
          const double shr_rate = cost.cluster_rate_per_s(deg.cluster);
          const double cur_tpd =
              cur_rate > 0.0 ? p->next.predicted_tok_s / cur_rate : 0.0;
          const double shr_tpd =
              shr_rate > 0.0 ? r.predicted_tok_s / shr_rate : 0.0;
          if (cur_tpd <= 0.0 ||
              shr_tpd < cur_tpd * (1.0 + opts.autoscale.price_margin)) {
            break;
          }
          ++out.scale_downs;
          p->next.shrink(deg, r);
          ++p->switches;
          join_stack.pop_back();
          last_scale_us = e.at_us;
          out.events.push_back(stamp(e.at_us) +
                               "scale-down: released a join, tokens/$ " +
                               fmt_pct(shr_tpd / cur_tpd - 1.0) + ", now " +
                               p->next.cluster.summary());
          break;  // one release per price event (hysteresis)
        }
      }
    }
  };

  // Adopt a staged change: its group takes over (only layers whose bits
  // changed re-prepare).  Returns the switch penalty, in us.
  const auto adopt = [&](PendingChange& p) {
    charge_to(fc_us);
    const auto old_bits = ms.plan.layer_bits;
    ms = std::move(p.next);
    out.replans += p.switches;
    if (prep_) prep_->reprepare(old_bits, ms.plan.layer_bits);
    return p.switches * sq::runtime::kReplanPenaltyS * 1e6;
  };

  // ---- Serve jobs LPT-sequentially on the elastic group. ---------------
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  order = sq::runtime::lpt_order(jobs, std::move(order));
  // Backlog contribution of jobs not yet started (autoscaler pressure).
  std::vector<std::uint64_t> future_work(order.size() + 1, 0);
  for (std::size_t k = order.size(); k-- > 0;) {
    future_work[k] = future_work[k + 1] + jobs[order[k]].arrivals.size();
  }

  const std::uint64_t pos_s = model_.pos_s;
  const auto clamped_prompt = [&](std::uint64_t prompt) {
    return std::max<std::uint64_t>(1, std::min(prompt, pos_s - 1));
  };

  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t j = order[k];
    const sq::runtime::FleetJob& job = jobs[j];
    sq::runtime::JobOutcome& jo = out.fleet.jobs[j];
    jo.group = 0;

    {
      PendingChange p;
      apply_due_events(fc_us, future_work[k], &p);
      if (fatal.empty() && p.switches > 0) {
        // No in-flight work between jobs: adopt directly, charge the
        // switch penalty as fleet time.
        fc_us += adopt(p);
        charge_to(fc_us);
      }
    }
    if (!fatal.empty()) {
      jo.failure = "no serving capacity remains: " + fatal;
      out.fleet.events.push_back("job '" + job.name + "' lost: " + jo.failure);
      continue;
    }

    const double fc0_us = fc_us;
    jo.start_s = fc0_us * 1e-6;
    const std::size_t n = job.arrivals.size();

    sq::runtime::RequestStats total = sq::runtime::pending_stats(job.arrivals);

    const sq::sim::FaultSchedule local_sched =
        opts.fleet.faults != nullptr
            ? sq::sim::schedule_from(*opts.fleet.faults, fc0_us)
            : sq::sim::FaultSchedule{};

    if (prep_) prep_->prepare(ms.plan.layer_bits);

    std::vector<std::size_t> remaining(n);
    std::iota(remaining.begin(), remaining.end(), 0);
    std::vector<std::int64_t> progress(n, -1);
    double jl_us = 0.0;  ///< Job-local clock.
    bool job_failed = false;

    // One serving segment over `ids` from jl_us to stop (kInf = to the
    // end); merges outcomes into `total` and returns the raw stats.
    const auto serve_segment = [&](const std::vector<std::size_t>& ids,
                                   double stop_local_us,
                                   std::vector<std::size_t>* incomplete) {
      std::vector<sq::workload::TimedRequest> sub;
      std::vector<std::int64_t> sub_resume;
      sub.reserve(ids.size());
      sub_resume.reserve(ids.size());
      for (const std::size_t id : ids) {
        sub.push_back(job.arrivals[id]);
        sub_resume.push_back(progress[id]);
      }
      sq::runtime::RequestScheduler sched(ms.cluster, model_, ms.plan, eff,
                                          kernel_);
      sched.set_observe(observe_);
      sq::runtime::ContinuousOptions c;
      c.start_us = jl_us;
      c.stop_us = stop_local_us;
      c.resume = &sub_resume;
      c.faults = local_sched.empty() ? nullptr : &local_sched;
      c.to_original = &ms.to_original;
      sq::runtime::RequestStats st = sched.serve(sub, c);
      *incomplete = sq::runtime::merge_segment(total, st, ids);
      for (std::size_t si = 0; si < ids.size(); ++si) {
        const sq::runtime::RequestOutcome& o = st.requests[si];
        if (o.completed || o.lost) {
          progress[ids[si]] = -1;
        } else if (o.in_flight) {
          progress[ids[si]] = o.prefill_done
                                  ? static_cast<std::int64_t>(o.progress_tokens)
                                  : std::int64_t{-1};
        }
      }
      return st;
    };

    const auto lose_remaining = [&](const std::string& why) {
      sq::runtime::lose_requests(total, remaining);
      total.events.push_back(stamp(jl_us) + why + " (" +
                             std::to_string(remaining.size()) + " requests)");
      remaining.clear();
      job_failed = true;
      if (total.failure.empty()) total.failure = why;
    };

    while (!remaining.empty()) {
      const double next_ev_us =
          ev < timeline.events.size() ? timeline.events[ev].at_us : kInf;
      const double stop_local = next_ev_us == kInf ? kInf : next_ev_us - fc0_us;

      std::vector<std::size_t> incomplete;
      const sq::runtime::RequestStats st =
          serve_segment(remaining, stop_local, &incomplete);
      if (!st.feasible) {
        total.failure = st.failure;
        lose_remaining("serving infeasible: " + st.failure);
        break;
      }
      jl_us = (st.stopped ? st.stop_s : st.total_seconds) * 1e6;
      fc_us = fc0_us + jl_us;
      charge_to(fc_us);
      remaining = std::move(incomplete);

      if (st.fault_permanent) {
        // Permanent failure: the device's KV is GONE — unlike a graceful
        // leave, in-flight work always restarts.  The engines' one repair
        // step excludes the device and replans; serving resumes after it.
        for (const std::size_t id : remaining) {
          if (progress[id] >= 0) {
            ++out.restarts;
            progress[id] = -1;
          }
        }
        const int flat = ms.flat_of(st.fault_device);
        if (flat < 0) {
          lose_remaining("failed device unknown to the elastic group");
          break;
        }
        const auto old_bits = ms.plan.layer_bits;
        fatal = repair(ms, flat, &total.repairs_attempted);
        if (!fatal.empty()) {
          lose_remaining(fatal);
          break;
        }
        if (prep_) prep_->reprepare(old_bits, ms.plan.layer_bits);
        ++total.repairs_succeeded;
        ++total.final_generation;
        ++out.replans;
        jl_us += sq::runtime::kReplanPenaltyS * 1e6;
        fc_us = fc0_us + jl_us;
        charge_to(fc_us);
        total.events.push_back(stamp(jl_us) + "repaired after device " +
                               std::to_string(st.fault_device) + " failed: " +
                               ms.cluster.summary());
        continue;
      }
      if (!st.stopped) break;  // Every request resolved.

      // ---- Stopped at membership events: apply, settle, resume. --------
      PendingChange p;
      apply_due_events(fc_us, remaining.size() + future_work[k + 1], &p);
      if (!fatal.empty()) {
        lose_remaining("no serving capacity remains: " + fatal);
        break;
      }
      if (p.switches == 0) continue;  // Price-only: nothing to settle.

      const MigrationPolicy policy = opts.migration;
      if (policy == MigrationPolicy::kDrain) {
        // Finish everything holding KV state on the OLD plan first; the
        // membership change waits (a leave's device lingers and keeps
        // costing; a join's capacity idles).
        std::vector<std::size_t> drain_ids;
        for (const std::size_t id : remaining) {
          if (progress[id] >= 0) drain_ids.push_back(id);
        }
        if (!drain_ids.empty()) {
          out.drains += drain_ids.size();
          std::vector<std::size_t> drain_left;
          const sq::runtime::RequestStats ds =
              serve_segment(drain_ids, kInf, &drain_left);
          jl_us = ds.total_seconds * 1e6;
          fc_us = fc0_us + jl_us;
          charge_to(fc_us);
          std::vector<std::size_t> merged;
          for (const std::size_t id : remaining) {
            const auto& o = total.requests[id];
            if (!o.completed && !o.lost) merged.push_back(id);
          }
          remaining = std::move(merged);
          for (const std::size_t id : drain_left) progress[id] = -1;
          if (ds.fault_permanent) {
            // A failure raced the drain: drop the drained progress and
            // exclude the device from the pending cluster too.
            const int flat = p.next.flat_of(ds.fault_device);
            if (flat >= 0) {
              fatal = repair(p.next, flat, &total.repairs_attempted);
              if (!fatal.empty()) {
                lose_remaining("no serving capacity remains: " + fatal);
                break;
              }
              ++p.switches;
              ++total.repairs_succeeded;
              ++total.final_generation;
              total.events.push_back(stamp(jl_us) + "repaired after device " +
                                     std::to_string(ds.fault_device) +
                                     " failed: " + p.next.cluster.summary());
            }
          }
        }
      }

      // Adopt the staged membership change.
      const sq::hw::Bitwidth old_kv = ms.plan.kv_bits;
      jl_us += adopt(p);
      ++total.final_generation;

      // Live migration: every request holding KV state re-transfers it to
      // the new layout over the inter-node fabric (restart drops it).
      const double mig_begin_us = fc0_us + jl_us;
      if (policy == MigrationPolicy::kRestart) {
        for (const std::size_t id : remaining) {
          if (progress[id] < 0) continue;
          ++out.restarts;
          progress[id] = -1;
        }
      } else {  // kAuto / kMigrate (kDrain has no KV holders left)
        double moved_bytes = 0.0;
        double moved_us = 0.0;
        std::uint64_t moved = 0;
        for (const std::size_t id : remaining) {
          if (progress[id] < 0) continue;
          const std::uint64_t ctx =
              clamped_prompt(job.arrivals[id].request.prompt_tokens) +
              static_cast<std::uint64_t>(progress[id]);
          const double bytes =
              static_cast<double>(model_.n_layers) *
              static_cast<double>(model_.layer_kv_bytes(ctx, old_kv));
          moved_bytes += bytes;
          moved_us += km.comm_time_us(bytes, ms.cluster.ethernet_gBps());
          ++moved;
        }
        if (moved > 0) {
          out.migrations += moved;
          out.migrated_kv_bytes += moved_bytes;
          out.migration_s += moved_us * 1e-6;
          jl_us += moved_us;
          total.events.push_back(
              stamp(jl_us) + "migrated " + std::to_string(moved) +
              " in-flight request(s), " +
              std::to_string(static_cast<long long>(moved_bytes)) +
              " KV bytes in " + runtime::format_seconds(moved_us * 1e-6));
          if (ob) {
            migration_spans.push_back(
                {"elastic.migration",
                 mig_begin_us,
                 mig_begin_us + moved_us,
                 {{"requests", static_cast<double>(moved)},
                  {"kv_bytes", moved_bytes},
                  {"job", static_cast<double>(j)}}});
          }
        }
      }
      fc_us = fc0_us + jl_us;
      charge_to(fc_us);
    }

    total.total_seconds = jl_us * 1e-6;
    total.final_plan = ms.plan;
    total.final_cluster = ms.cluster;
    total.final_to_original = ms.to_original;
    sq::runtime::finalize_request_aggregates(total);

    jo.end_s = fc_us * 1e-6;
    jo.completed = !job_failed;
    if (!jo.completed) {
      jo.failure = total.failure.empty() ? "serving aborted" : total.failure;
    }
    jo.continuous = std::move(total);
    out.fleet.events.push_back(sq::runtime::job_event(job, jo));
  }

  charge_to(fc_us);

  // ---- Final aggregates. -----------------------------------------------
  out.fleet.group_busy_s = {fc_us * 1e-6};
  sq::runtime::finalize_fleet_stats(out.fleet);
  if (out.dollars > 0.0) {
    out.tokens_per_dollar = out.fleet.output_tokens / out.dollars;
  }
  for (const auto& e : out.events) out.fleet.events.push_back("elastic: " + e);

  if (ob) {
    sq::obs::counter("elastic.events").add(out.events_applied);
    sq::obs::counter("elastic.joins.offered").add(out.joins_offered);
    sq::obs::counter("elastic.joins.accepted").add(out.joins_accepted);
    sq::obs::counter("elastic.joins.rejected").add(out.joins_rejected);
    sq::obs::counter("elastic.leaves").add(out.leaves);
    sq::obs::counter("elastic.price_events").add(out.price_events);
    sq::obs::counter("elastic.scale_downs").add(out.scale_downs);
    sq::obs::counter("elastic.replans").add(out.replans);
    sq::obs::counter("elastic.migrations").add(out.migrations);
    sq::obs::counter("elastic.drains").add(out.drains);
    sq::obs::counter("elastic.restarts").add(out.restarts);
    sq::obs::gauge("elastic.migrated_kv_bytes").set(out.migrated_kv_bytes);
    sq::obs::gauge("elastic.device_seconds").set(out.device_seconds);
    sq::obs::gauge("elastic.dollars").set(out.dollars);
    sq::obs::gauge("elastic.tokens_per_dollar").set(out.tokens_per_dollar);
    sq::obs::TraceSink sink;
    for (auto& s : migration_spans) sink.add(std::move(s));
    sq::obs::Registry::global().record_spans(sink.take());
  }
  return out;
}

}  // namespace sq::elastic
