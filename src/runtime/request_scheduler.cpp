#include "runtime/request_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/metrics.h"
#include "runtime/kv_cache.h"
#include "sim/pipeline.h"

namespace sq::runtime {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic seconds rendering for the event log ("12.345s").
std::string fmt_s(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fs", us * 1e-6);
  return buf;
}

/// Per-request serving state (index-parallel with the arrival list).
struct ReqState {
  double arrive_us = 0.0;
  std::uint64_t prompt = 0;     ///< Clamped to the model's context limit.
  std::uint64_t output = 0;
  std::uint64_t chunks = 1;     ///< Prefill chunks (prompt evenly split).
  std::uint64_t chunk_len = 0;  ///< Tokens per prefill chunk.
  std::uint64_t next_chunk = 0; ///< Chunks completed so far.
  std::uint64_t generated = 0;  ///< Tokens produced (1 at prefill exit).
  double admit_us = -1.0;       ///< First admission instant.
  double ready_us = 0.0;        ///< When the request's next work may start.
  std::uint64_t preemptions = 0;
  bool done = false;            ///< Completed or lost.
  bool lost = false;
};

/// One iteration's pipeline unit: the prefill group (one chunk per member,
/// padded to the longest member chunk) or one xi-sized decode micro-batch
/// (padded to the largest member context).  Its members are the slice
/// [begin, begin + v) of the iteration's shared member list.
struct IterGroup {
  bool prefill = false;
  std::size_t begin = 0;
  std::uint64_t v = 0;          ///< Micro-batch size.
  std::uint64_t len = 0;        ///< Chunk length (prefill) / context (decode).
  std::uint64_t finishing = 0;  ///< Prefill members on their last chunk.
};

/// The instruments an observed serve writes, each resolved once per serve
/// so the iteration loop never takes the registry mutex.
struct ServeMetrics {
  using Counter = sq::obs::LazyMetric<sq::obs::Counter>;
  using Histogram = sq::obs::LazyMetric<sq::obs::Histogram>;
  Counter submitted{"serve.request.submitted"};
  Counter lost{"serve.request.lost"};
  Counter preempted{"serve.request.preempted"};
  Counter blocked{"serve.request.blocked"};
  Counter faults{"serve.request.faults"};
  Counter retries{"serve.request.retries"};
  Counter completed{"serve.request.completed"};
  Counter iterations{"serve.request.iterations"};
  sq::obs::LazyMetric<sq::obs::Gauge> kv_utilization{
      "serve.request.kv_utilization"};
  Histogram occupancy{"serve.request.occupancy", sq::obs::BucketLayout::kPow2};
  Histogram latency_s{"serve.request.latency_s", sq::obs::BucketLayout::kSeconds};
  Histogram queue_s{"serve.request.queue_s", sq::obs::BucketLayout::kSeconds};
  Histogram output_tokens{"serve.request.output_tokens",
                          sq::obs::BucketLayout::kPow2};
  KvMetrics kv;
};

}  // namespace

void finalize_request_aggregates(RequestStats& stats) {
  stats.goodput_tok_s = stats.total_seconds > 0.0
                            ? stats.output_tokens / stats.total_seconds
                            : 0.0;
  std::vector<double> lat;
  double lat_sum = 0.0;
  double queue_sum = 0.0;
  for (const RequestOutcome& out : stats.requests) {
    if (!out.completed) continue;
    lat.push_back(out.finish_s - out.arrive_s);
    lat_sum += out.finish_s - out.arrive_s;
    queue_sum += out.admit_s - out.arrive_s;
  }
  stats.mean_latency_s = 0.0;
  stats.mean_queue_s = 0.0;
  stats.p50_latency_s = 0.0;
  stats.p95_latency_s = 0.0;
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    const double k = static_cast<double>(lat.size());
    stats.mean_latency_s = lat_sum / k;
    stats.mean_queue_s = queue_sum / k;
    stats.p50_latency_s = lat[(lat.size() - 1) / 2];
    stats.p95_latency_s = lat[(lat.size() - 1) * 95 / 100];
  }
}

RequestStats pending_stats(
    const std::vector<sq::workload::TimedRequest>& arrivals) {
  RequestStats stats;
  stats.submitted = arrivals.size();
  stats.requests.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    stats.requests[i].id = i;
    stats.requests[i].arrive_s = arrivals[i].arrive_s;
  }
  return stats;
}

std::vector<std::size_t> merge_segment(RequestStats& total,
                                       const RequestStats& seg,
                                       const std::vector<std::size_t>& ids) {
  total.completed += seg.completed;
  total.lost += seg.lost;
  total.preemptions += seg.preemptions;
  total.admission_blocked += seg.admission_blocked;
  total.iterations += seg.iterations;
  total.faults_hit += seg.faults_hit;
  total.retries += seg.retries;
  total.output_tokens += seg.output_tokens;
  total.kv_peak_utilization =
      std::max(total.kv_peak_utilization, seg.kv_peak_utilization);
  total.total_seconds = std::max(total.total_seconds, seg.total_seconds);
  for (const auto& e : seg.events) total.events.push_back(e);

  std::vector<std::size_t> incomplete;
  for (std::size_t si = 0; si < ids.size(); ++si) {
    const RequestOutcome& out = seg.requests[si];
    RequestOutcome& dst = total.requests[ids[si]];
    dst.prompt_tokens = out.prompt_tokens;
    dst.preemptions += out.preemptions;
    if (out.admit_s >= 0.0 && dst.admit_s < 0.0) dst.admit_s = out.admit_s;
    dst.in_flight = out.in_flight;
    dst.prefill_done = out.prefill_done;
    dst.progress_tokens = out.progress_tokens;
    if (out.completed) {
      dst.completed = true;
      dst.finish_s = out.finish_s;
      dst.output_tokens = out.output_tokens;
    } else if (out.lost) {
      dst.lost = true;
    } else {
      incomplete.push_back(ids[si]);
    }
  }
  return incomplete;
}

void lose_requests(RequestStats& stats, const std::vector<std::size_t>& ids) {
  stats.lost += ids.size();
  for (const std::size_t id : ids) {
    stats.requests[id].lost = true;
    stats.requests[id].in_flight = false;
  }
}

RequestScheduler::RequestScheduler(sq::hw::Cluster cluster,
                                   sq::model::LlmSpec model,
                                   sq::sim::ExecutionPlan plan,
                                   double backend_efficiency,
                                   sq::sim::KernelModelOptions kernel)
    : cluster_(std::move(cluster)),
      model_(std::move(model)),
      plan_(std::move(plan)),
      backend_efficiency_(backend_efficiency),
      kernel_(kernel) {}

RequestStats RequestScheduler::serve(
    const std::vector<sq::workload::TimedRequest>& arrivals,
    const ContinuousOptions& opts) const {
  RequestStats stats;
  const std::size_t n = arrivals.size();
  stats.submitted = n;
  stats.final_plan = plan_;
  stats.requests.resize(n);

  const std::string err = plan_.validate(model_, cluster_);
  if (!err.empty()) {
    stats.feasible = false;
    stats.failure = "invalid plan: " + err;
    return stats;
  }

  const bool ob = observe_ && sq::obs::enabled();
  ServeMetrics met;
  if (ob) met.submitted->add(n);

  // ---- Request state (lengths clamped to the model's context limit) ----
  const std::uint64_t pos_s = model_.pos_s;
  const std::uint64_t chunk_tokens = std::max<std::uint64_t>(1, opts.chunk_tokens);
  std::vector<ReqState> req(n);
  std::uint64_t max_prompt = 1;
  for (std::size_t i = 0; i < n; ++i) {
    ReqState& r = req[i];
    r.arrive_us = arrivals[i].arrive_s * 1e6;
    r.prompt = std::max<std::uint64_t>(
        1, std::min(arrivals[i].request.prompt_tokens, pos_s - 1));
    r.output = std::max<std::uint64_t>(
        1, std::min(arrivals[i].request.output_tokens, pos_s - r.prompt));
    r.chunks = (r.prompt + chunk_tokens - 1) / chunk_tokens;
    r.chunk_len = (r.prompt + r.chunks - 1) / r.chunks;
    max_prompt = std::max(max_prompt, r.prompt);

    RequestOutcome& out = stats.requests[i];
    out.id = i;
    out.arrive_s = arrivals[i].arrive_s;
    out.prompt_tokens = r.prompt;

    // Resume progress from a previous (stopped) serve: prefill is done and
    // `p` tokens stand generated.  Clamped so the request still takes at
    // least one decode step when it can (output >= 2).
    if (opts.resume != nullptr && i < opts.resume->size() &&
        (*opts.resume)[i] >= 0) {
      const auto p = static_cast<std::uint64_t>((*opts.resume)[i]);
      r.next_chunk = r.chunks;
      r.generated = std::max<std::uint64_t>(
          1, std::min(p, r.output > 1 ? r.output - 1 : r.output));
    }
  }

  // ---- Per-stage KV budgets (sim/memory.cpp accounting) ----------------
  const std::size_t n_stages = plan_.stages.size();
  const std::uint64_t eta = std::max<std::uint64_t>(1, plan_.prefill_microbatch);
  const std::uint64_t xi = std::max<std::uint64_t>(1, plan_.decode_microbatch);
  const std::uint64_t chunk_repr = std::min(chunk_tokens, max_prompt);
  std::vector<KvCacheAllocator> alloc;
  alloc.reserve(n_stages);
  for (std::size_t s = 0; s < n_stages; ++s) {
    const auto& stage = plan_.stages[s];
    const auto tp = static_cast<std::uint64_t>(stage.tp());
    std::uint64_t weights = 0;
    for (int l = stage.layer_begin; l < stage.layer_end; ++l) {
      weights += model_.layer_weight_bytes(
          plan_.layer_bits[static_cast<std::size_t>(l)]);
    }
    const std::uint64_t act =
        std::max(model_.layer_peak_activation_bytes(eta, chunk_repr),
                 model_.layer_peak_activation_bytes(xi, 1));
    std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
    for (const int d : stage.devices) {
      std::uint64_t need = weights / tp + act / tp;
      if (s == 0 && d == stage.devices.front()) need += model_.embedding_bytes();
      const std::uint64_t usable = cluster_.spec(d).usable_memory_bytes();
      if (need >= usable) {
        stats.feasible = false;
        stats.failure = "OOM: plan weights exceed memory on device " +
                        std::to_string(d);
        return stats;
      }
      budget = std::min(budget, usable - need);
    }
    alloc.emplace_back(model_, budget * tp, stage.layer_count(), plan_.kv_bits);
    if (ob) alloc.back().set_metrics(&met.kv);
  }

  // ---- Queues (arrival order; ties on input index) ---------------------
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return req[a].arrive_us < req[b].arrive_us;
                   });
  const auto fifo_before = [&](std::size_t a, std::size_t b) {
    if (req[a].arrive_us != req[b].arrive_us) {
      return req[a].arrive_us < req[b].arrive_us;
    }
    return a < b;
  };
  std::vector<std::size_t> waiting;  // FIFO by (arrive, id).
  std::vector<std::size_t> running;  // Admission order.
  std::size_t next_arrival = 0;

  // ---- KV helpers ------------------------------------------------------
  const auto reserve_all = [&](std::size_t r, std::uint64_t ctx) {
    for (std::size_t s = 0; s < n_stages; ++s) {
      if (!alloc[s].reserve(r, ctx)) return false;
    }
    return true;
  };
  const auto release_all = [&](std::size_t r) {
    for (std::size_t s = 0; s < n_stages; ++s) alloc[s].release(r);
  };

  double clock = opts.start_us;
  std::uint64_t finished = 0;

  const auto mark_lost = [&](std::size_t r, const std::string& why) {
    release_all(r);
    req[r].done = true;
    req[r].lost = true;
    ++stats.lost;
    ++finished;
    stats.events.push_back("[" + fmt_s(clock) + "] lost request " +
                           std::to_string(r) + ": " + why);
    if (ob) met.lost->add();
  };
  // Recompute-style preemption of the youngest-admitted request: KV
  // released, progress reset, back to the FIFO position its arrival
  // instant gives it.
  const auto evict_youngest = [&] {
    const std::size_t victim = running.back();
    running.pop_back();
    release_all(victim);
    ReqState& v = req[victim];
    v.next_chunk = 0;
    v.generated = 0;
    ++v.preemptions;
    ++stats.preemptions;
    waiting.insert(
        std::upper_bound(waiting.begin(), waiting.end(), victim, fifo_before),
        victim);
    if (ob) met.preempted->add();
  };

  // ---- Kernel building blocks -----------------------------------------
  const sq::sim::KernelModel km(kernel_);
  const double eff = backend_efficiency_;
  const auto& master_spec = cluster_.spec(plan_.stages.front().devices.front());
  std::vector<double> inter_gbps(n_stages, 0.0);
  for (std::size_t s = 1; s < n_stages; ++s) {
    inter_gbps[s] = cluster_.link_gbps(plan_.stages[s - 1].devices.back(),
                                       plan_.stages[s].devices.front());
  }
  // Compute time of one group on stage `s`: a handful of kernel-model
  // evaluations, cheaper than any cache probe or thread hand-off.
  const auto stage_time = [&](const IterGroup& grp, std::size_t s) {
    if (grp.prefill) {
      sq::sim::BatchWorkload w;
      w.batch_size = grp.v;
      w.prompt_len = grp.len;
      w.gen_tokens = 1;
      w.chunk_tokens = grp.len;  // one chunk per iteration
      return sq::sim::stage_prefill_time_us(cluster_, model_, plan_, s, grp.v,
                                            w, km, eff);
    }
    return sq::sim::stage_decode_time_us(cluster_, model_, plan_, s, grp.v,
                                         grp.len, km, eff);
  };

  // ---- Fault machinery -------------------------------------------------
  const bool have_faults =
      opts.faults != nullptr && !opts.faults->events.empty();
  sq::sim::FaultView fv;
  fv.schedule = opts.faults;
  fv.base_us = 0.0;  // schedule times are absolute on the serving clock
  fv.to_original = opts.to_original;

  // ---- Pipeline recurrence state (persists across iterations) ----------
  std::vector<double> stage_free(n_stages, clock);
  double last_finish = clock;

  // Per-iteration scratch, reused so an iteration allocates nothing.
  std::vector<IterGroup> groups;
  std::vector<std::size_t> members;  // Every group's members, group by group.
  std::vector<double> free_local;
  std::vector<double> exits;

  while (finished < n) {
    // Stop horizon: no iteration starts at or past it.  One that was
    // already under way has fully committed, so the outstanding requests
    // pause at a clean iteration boundary with exact progress counts.
    if (clock >= opts.stop_us) {
      stats.stopped = true;
      break;
    }

    // Arrivals up to the current instant enter the FIFO queue.
    while (next_arrival < n && req[order[next_arrival]].arrive_us <= clock) {
      const std::size_t r = order[next_arrival++];
      waiting.insert(
          std::upper_bound(waiting.begin(), waiting.end(), r, fifo_before), r);
    }

    // KV growth for this iteration's decode step: every running decode
    // request needs room for the token it is about to write.  On failure
    // the youngest-admitted request is evicted (recompute re-admission);
    // a request that cannot grow even alone is lost.  Victims leave from
    // the back of `running`, so the sweep never visits an evicted request.
    for (std::size_t i = 0; i < running.size(); ++i) {
      const std::size_t r = running[i];
      ReqState& rs = req[r];
      if (rs.next_chunk < rs.chunks || rs.generated >= rs.output) continue;
      const std::uint64_t target = rs.prompt + rs.generated + 1;
      while (!reserve_all(r, target)) {
        const bool youngest = running.back() == r;
        if (youngest && running.size() == 1) {
          running.pop_back();
          mark_lost(r, "KV pool cannot hold context of " +
                           std::to_string(target) + " tokens");
          break;
        }
        evict_youngest();
        if (youngest) break;  // r itself preempted; retry via the queue
      }
    }

    // Head-of-line admission: fill free prefill slots while the prompt KV
    // reserves on every stage.
    std::uint64_t prefilling = 0;
    for (const std::size_t r : running) {
      if (req[r].next_chunk < req[r].chunks) ++prefilling;
    }
    while (!waiting.empty() && prefilling < eta &&
           (opts.max_running == 0 || running.size() < opts.max_running)) {
      const std::size_t r = waiting.front();
      // A resumed request re-reserves its full restored context (prompt +
      // generated); a fresh one reserves its prompt.
      const std::uint64_t ctx =
          req[r].prompt +
          (req[r].next_chunk >= req[r].chunks ? req[r].generated : 0);
      if (!reserve_all(r, ctx)) {
        release_all(r);  // drop any partial per-stage growth
        if (running.empty()) {
          waiting.erase(waiting.begin());
          mark_lost(r, "prompt KV of " + std::to_string(ctx) +
                           " tokens exceeds the pool");
          continue;
        }
        ++stats.admission_blocked;
        if (ob) met.blocked->add();
        break;
      }
      waiting.erase(waiting.begin());
      running.push_back(r);
      if (req[r].admit_us < 0.0) req[r].admit_us = clock;
      req[r].ready_us = std::max(req[r].arrive_us, clock);
      // Resumed requests enter in decode, not prefill — they must not
      // consume an eta slot.
      if (req[r].next_chunk < req[r].chunks) ++prefilling;
    }

    if (running.empty()) {
      if (next_arrival < n) {
        // Idle jump to the next arrival, clamped to the stop horizon so a
        // pause never stamps stop_s past it.
        clock = std::max(
            clock, std::min(req[order[next_arrival]].arrive_us, opts.stop_us));
        continue;
      }
      break;  // nothing runnable and nothing left to arrive
    }

    double util = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
      util = std::max(util, alloc[s].utilization());
    }
    stats.kv_peak_utilization = std::max(stats.kv_peak_utilization, util);
    if (ob) {
      met.kv_utilization->set(util);
      met.occupancy->observe(static_cast<double>(running.size()));
    }

    // ---- Compose the iteration: one prefill group (<= eta members, one
    // chunk each) plus xi-sized decode micro-batches, in admission order.
    groups.clear();
    members.clear();
    {
      IterGroup pre{.prefill = true};
      for (const std::size_t r : running) {
        if (req[r].next_chunk >= req[r].chunks) continue;
        members.push_back(r);
        pre.len = std::max(pre.len, req[r].chunk_len);
        if (req[r].next_chunk + 1 == req[r].chunks) ++pre.finishing;
      }
      pre.v = members.size();
      if (pre.v > 0) groups.push_back(pre);
      IterGroup dec{.begin = members.size()};
      for (const std::size_t r : running) {
        const ReqState& rs = req[r];
        if (rs.next_chunk < rs.chunks || rs.generated >= rs.output) continue;
        members.push_back(r);
        dec.len = std::max(dec.len, rs.prompt + rs.generated);
        if (members.size() - dec.begin == xi) {
          dec.v = xi;
          groups.push_back(dec);
          dec = IterGroup{.begin = members.size()};
        }
      }
      dec.v = members.size() - dec.begin;
      if (dec.v > 0) groups.push_back(dec);
    }

    // ---- Tentative pipeline cascade (committed only if no fault abort).
    free_local = stage_free;
    exits.assign(groups.size(), 0.0);
    double abort_at = kInf;
    int abort_dev = -1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const IterGroup& grp = groups[g];
      double ready = clock;
      for (std::size_t k = grp.begin; k < grp.begin + grp.v; ++k) {
        ready = std::max(ready, req[members[k]].ready_us);
      }
      const std::uint64_t tokens =
          grp.prefill ? grp.v * grp.len : grp.v;  // rows entering the pipeline
      double upstream = ready + km.embed_time_us(master_spec, model_, tokens) / eff;
      for (std::size_t s = 0; s < n_stages; ++s) {
        double comm = 0.0;
        if (s > 0) {
          const double bytes = 2.0 * static_cast<double>(tokens) *
                               static_cast<double>(model_.h1);
          comm = km.comm_time_us(bytes, inter_gbps[s]);
          if (have_faults) {
            comm *= fv.link_factor(plan_.stages[s - 1].devices.back(),
                                   plan_.stages[s].devices.front(), upstream);
          }
        }
        const double start = std::max(free_local[s], upstream + comm);
        const double dur = stage_time(grp, s);
        double end = start + dur;
        if (have_faults) {
          end = fv.advance(plan_.stages[s].devices, start, dur);
          const double f = fv.next_failure(plan_.stages[s].devices, start);
          if (f < end && f < abort_at) {
            abort_at = f;
            abort_dev = plan_.stages[s].devices.front();
            for (const int d : plan_.stages[s].devices) {
              if (fv.failure_at(d, f) != nullptr) {
                abort_dev = d;
                break;
              }
            }
          }
        }
        free_local[s] = end;
        upstream = end;
      }
      const std::uint64_t head_rows = grp.prefill ? grp.finishing : grp.v;
      exits[g] = upstream +
                 (head_rows > 0
                      ? km.lm_head_time_us(master_spec, model_, head_rows) / eff
                      : 0.0);
    }

    if (abort_at < kInf) {
      // The iteration touched an active failure window: discard it.
      ++stats.faults_hit;
      if (ob) met.faults->add();
      const sq::sim::FaultEvent* e = fv.failure_at(abort_dev, abort_at);
      const bool transient = e != nullptr && !e->permanent();
      stats.events.push_back(
          "[" + fmt_s(abort_at) + "] " +
          (transient ? "transient" : "permanent") + " failure on device " +
          std::to_string(fv.original_of(abort_dev)) + ", iteration " +
          std::to_string(stats.iterations) + " discarded");
      if (transient) {
        ++stats.retries;
        if (ob) met.retries->add();
        clock = std::max(clock, e->end_us() - fv.base_us);
        std::fill(stage_free.begin(), stage_free.end(), clock);
        continue;  // re-run the iteration after the window
      }
      stats.fault_permanent = true;
      stats.fault_device = fv.original_of(abort_dev);
      stats.fault_s = abort_at * 1e-6;
      stats.failure = "permanent failure on device " +
                      std::to_string(stats.fault_device);
      clock = std::max(clock, abort_at);
      for (const std::size_t r : running) release_all(r);
      break;  // incomplete requests stay !completed for the caller
    }

    // ---- Commit the iteration.
    stage_free.swap(free_local);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const IterGroup& grp = groups[g];
      for (std::size_t k = grp.begin; k < grp.begin + grp.v; ++k) {
        ReqState& rs = req[members[k]];
        if (grp.prefill) {
          ++rs.next_chunk;
          if (rs.next_chunk == rs.chunks) {
            rs.generated = 1;  // first token at prefill exit
            rs.ready_us = exits[g];
          }
        } else {
          ++rs.generated;
          rs.ready_us = exits[g];
        }
      }
    }
    for (std::size_t i = 0; i < running.size();) {
      const std::size_t r = running[i];
      ReqState& rs = req[r];
      if (rs.next_chunk == rs.chunks && rs.generated >= rs.output) {
        rs.done = true;
        release_all(r);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        ++finished;
        ++stats.completed;
        stats.output_tokens += static_cast<double>(rs.output);
        last_finish = std::max(last_finish, rs.ready_us);
        RequestOutcome& out = stats.requests[r];
        out.completed = true;
        out.admit_s = rs.admit_us * 1e-6;
        out.finish_s = rs.ready_us * 1e-6;
        out.output_tokens = rs.output;
        out.preemptions = rs.preemptions;
        if (ob) {
          met.completed->add();
          met.latency_s->observe(out.finish_s - out.arrive_s);
          met.queue_s->observe(out.admit_s - out.arrive_s);
          met.output_tokens->observe(static_cast<double>(rs.output));
        }
      } else {
        ++i;
      }
    }
    ++stats.iterations;
    if (ob) met.iterations->add();
    clock = std::max(clock, stage_free.front());
  }

  // ---- Aggregates ------------------------------------------------------
  // Preemption counts of still-incomplete requests (permanent-fault stop)
  // surface in their outcomes too, so resumed stats stay reconcilable.
  for (std::size_t i = 0; i < n; ++i) {
    if (!stats.requests[i].completed) {
      stats.requests[i].lost = req[i].lost;
      stats.requests[i].preemptions = req[i].preemptions;
      if (req[i].admit_us >= 0.0) {
        stats.requests[i].admit_s = req[i].admit_us * 1e-6;
      }
    }
  }
  // Admitted-but-incomplete requests at a pause carry their progress so
  // the caller can decide to migrate (resume) or restart each one.
  if (stats.stopped || stats.fault_permanent) {
    for (const std::size_t r : running) {
      if (req[r].done) continue;
      RequestOutcome& out = stats.requests[r];
      out.in_flight = true;
      out.prefill_done = req[r].next_chunk >= req[r].chunks;
      out.progress_tokens = req[r].generated;
    }
  }
  double end_us = stats.fault_permanent ? std::max(clock, last_finish)
                                        : std::max(last_finish, opts.start_us);
  if (stats.stopped) {
    end_us = std::max(clock, last_finish);
    stats.stop_s = end_us * 1e-6;
  }
  stats.total_seconds = end_us * 1e-6;
  finalize_request_aggregates(stats);

  if (ob) {
    sq::obs::TraceSink sink;
    for (const RequestOutcome& out : stats.requests) {
      if (!out.completed) continue;
      sink.add({"serve.request",
                out.arrive_s * 1e6,
                out.finish_s * 1e6,
                {{"id", static_cast<double>(out.id)},
                 {"prompt_tokens", static_cast<double>(out.prompt_tokens)},
                 {"output_tokens", static_cast<double>(out.output_tokens)},
                 {"preemptions", static_cast<double>(out.preemptions)},
                 {"queue_us", (out.admit_s - out.arrive_s) * 1e6}}});
    }
    sq::obs::Registry::global().record_spans(sink.take());
  }
  return stats;
}

}  // namespace sq::runtime
