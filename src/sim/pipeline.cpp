#include "sim/pipeline.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "common/memo_cache.h"

namespace sq::sim {

namespace {

using sq::common::hash_mix;

/// Intra-stage TP link bandwidth (GB/s) for the stage's node.
double stage_tp_link(const sq::hw::Cluster& c, const StageSpec& s) {
  const auto ref = c.device(s.devices.front());
  return c.nodes()[static_cast<std::size_t>(ref.node)].intra_gbps;
}

/// Sum of `layer_us(b)` over the stage's layers, in layer order.  A layer's
/// time depends on its bitwidth, not its index, so one evaluation serves a
/// whole run of equal-bitwidth layers; the additions stay per layer and in
/// order, so the sum is bit-identical to evaluating every layer.
template <class LayerUs>
double sum_layer_times(const ExecutionPlan& plan, const StageSpec& st,
                       LayerUs layer_us) {
  double total = 0.0;
  double t = 0.0;
  for (int l = st.layer_begin; l < st.layer_end; ++l) {
    const Bitwidth b = plan.layer_bits[static_cast<std::size_t>(l)];
    if (l == st.layer_begin ||
        b != plan.layer_bits[static_cast<std::size_t>(l) - 1]) {
      t = layer_us(b);
    }
    total += t;
  }
  return total;
}

/// Link bandwidth between consecutive stages (last device of `a` to first
/// device of `b`).
double inter_stage_gbps(const sq::hw::Cluster& c, const StageSpec& a,
                        const StageSpec& b) {
  return c.link_gbps(a.devices.back(), b.devices.front());
}

// ---- Stage-time memoization -------------------------------------------
//
// A stage's prefill/decode step time is a pure function of the stage's
// device spec, its layer bitwidth slice, the model, the kernel options and
// the query shape.  One stage time sums 8-24 kernel-model evaluations, so
// unlike the individual ~40 ns layer evaluations it is expensive enough to
// be worth a shared-cache lookup.  Reuse comes from serving waves of the
// same capped batch, the three calibration shapes per validation, and
// re-validation of the same plan by the dominance check.

std::uint64_t mix_double(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// Fingerprint of every GpuSpec field the kernel model reads.
std::uint64_t gpu_fingerprint(const GpuSpec& g) {
  std::uint64_t h = hash_mix(0, static_cast<std::uint64_t>(g.type));
  h = hash_mix(h, g.memory_bytes);
  h = mix_double(h, g.hbm_gbps);
  h = mix_double(h, g.fp16_tflops);
  h = mix_double(h, g.fp32_tflops);
  h = mix_double(h, g.int8_tops);
  h = hash_mix(h, (static_cast<std::uint64_t>(g.has_fp16_tensor_core) << 2) |
                      (static_cast<std::uint64_t>(g.has_int8_tensor_core) << 1) |
                      static_cast<std::uint64_t>(g.has_fast_int8));
  h = mix_double(h, g.prefill_eff);
  h = mix_double(h, g.decode_eff);
  h = mix_double(h, g.mem_eff);
  h = mix_double(h, g.fp16_eff);
  h = mix_double(h, g.dequant_ns_per_kelem);
  h = mix_double(h, g.kernel_launch_us);
  return h;
}

/// Fingerprint of every LlmSpec field the per-layer accounting reads.
std::uint64_t model_fingerprint(const sq::model::LlmSpec& m) {
  std::uint64_t h = hash_mix(0, m.h1);
  h = hash_mix(h, m.h2);
  h = hash_mix(h, static_cast<std::uint64_t>(m.n_layers));
  h = hash_mix(h, static_cast<std::uint64_t>(m.n_heads));
  h = hash_mix(h, m.d_t);
  h = hash_mix(h, m.vocab_s);
  h = hash_mix(h, m.pos_s);
  h = hash_mix(h, m.kv_dim);
  h = hash_mix(h, (static_cast<std::uint64_t>(m.learned_pos_emb) << 1) |
                      static_cast<std::uint64_t>(m.mlp_gated));
  return h;
}

/// Everything that identifies one stage's cost function, folded into one
/// value per stage at the start of simulate_batch.
std::uint64_t stage_fingerprint(const sq::hw::Cluster& cluster,
                                const sq::model::LlmSpec& m,
                                const ExecutionPlan& plan, std::size_t stage,
                                const PipelineOptions& opts) {
  const auto& st = plan.stages[stage];
  std::uint64_t h = gpu_fingerprint(cluster.spec(st.devices.front()));
  h = hash_mix(h, model_fingerprint(m));
  h = hash_mix(h, (static_cast<std::uint64_t>(opts.kernel.ground_truth) << 32) |
                      opts.kernel.seed);
  h = mix_double(h, opts.backend_efficiency);
  h = mix_double(h, stage_tp_link(cluster, st));
  h = hash_mix(h, static_cast<std::uint64_t>(st.tp()));
  h = hash_mix(h, static_cast<std::uint64_t>(sq::hw::bits(plan.kv_bits)));
  for (int l = st.layer_begin; l < st.layer_end; ++l) {
    h = hash_mix(h, static_cast<std::uint64_t>(
                        sq::hw::bits(plan.layer_bits[static_cast<std::size_t>(l)])));
  }
  return h;
}

/// Cache key: stage fingerprint plus the query shape.  For prefill,
/// (x1, x2) = (chunk length, chunk count); for decode, (context, 0).
struct StageTimeKey {
  std::uint64_t stage_fp = 0;
  std::uint64_t v = 0;
  std::uint64_t x1 = 0;
  std::uint64_t x2 = 0;
  std::uint16_t phase = 0;

  bool operator==(const StageTimeKey&) const = default;
};

struct StageTimeKeyHash {
  std::size_t operator()(const StageTimeKey& k) const {
    std::uint64_t h = hash_mix(k.stage_fp, k.v);
    h = hash_mix(h, k.x1);
    h = hash_mix(h, (k.x2 << 16) | k.phase);
    return static_cast<std::size_t>(h);
  }
};

sq::common::MemoCache<StageTimeKey, double, StageTimeKeyHash>& stage_cache() {
  static sq::common::MemoCache<StageTimeKey, double, StageTimeKeyHash> cache;
  return cache;
}

}  // namespace

StageCacheStats stage_cache_stats() {
  const auto& c = stage_cache();
  return {c.hits(), c.misses(), c.size()};
}

void stage_cache_clear() { stage_cache().clear(); }

double stage_prefill_time_us(const sq::hw::Cluster& cluster,
                             const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                             std::size_t stage, std::uint64_t v,
                             const BatchWorkload& w, const KernelModel& km,
                             double backend_eff) {
  const auto& st = plan.stages[stage];
  const auto& spec = cluster.spec(st.devices.front());
  const double tp_link = stage_tp_link(cluster, st);
  const double chunks = static_cast<double>(w.chunks());
  return sum_layer_times(plan, st,
                         [&](Bitwidth b) {
                           return km.layer_time_us(spec, m, Phase::kPrefill, v,
                                                   w.chunk_len(), b, plan.kv_bits,
                                                   st.tp(), tp_link) *
                                  chunks;
                         }) /
         backend_eff;
}

double stage_decode_time_us(const sq::hw::Cluster& cluster,
                            const sq::model::LlmSpec& m, const ExecutionPlan& plan,
                            std::size_t stage, std::uint64_t v, std::uint64_t ctx,
                            const KernelModel& km, double backend_eff) {
  const auto& st = plan.stages[stage];
  const auto& spec = cluster.spec(st.devices.front());
  const double tp_link = stage_tp_link(cluster, st);
  return sum_layer_times(plan, st,
                         [&](Bitwidth b) {
                           return km.layer_time_us(spec, m, Phase::kDecode, v,
                                                   ctx, b, plan.kv_bits, st.tp(),
                                                   tp_link);
                         }) /
         backend_eff;
}

SimResult simulate_batch(const sq::hw::Cluster& cluster, const sq::model::LlmSpec& m,
                         const ExecutionPlan& plan, const BatchWorkload& w,
                         const PipelineOptions& opts) {
  SimResult res;
  res.memory = plan_memory(cluster, m, plan, w);
  if (res.memory.oom) {
    res.oom = true;
    res.oom_device = res.memory.oom_device;
    return res;
  }

  const KernelModel km(opts.kernel);
  const double eff = opts.backend_efficiency;
  const std::size_t n_stages = plan.stages.size();
  const auto& master_spec = cluster.spec(plan.stages.front().devices.front());

  // Stage fingerprints are folded once per simulation; each stage-time
  // query below is then a single cache probe instead of a sum of per-layer
  // kernel evaluations.  The uncached path calls the identical functions,
  // so cached and uncached runs agree bit-for-bit.
  std::vector<std::uint64_t> stage_fp;
  if (opts.memoize) {
    stage_fp.resize(n_stages);
    for (std::size_t s = 0; s < n_stages; ++s) {
      stage_fp[s] = stage_fingerprint(cluster, m, plan, s, opts);
    }
  }
  const auto pre_time = [&](std::size_t s, std::uint64_t v) {
    if (!opts.memoize) {
      return stage_prefill_time_us(cluster, m, plan, s, v, w, km, eff);
    }
    const StageTimeKey key{stage_fp[s], v, w.chunk_len(),
                           static_cast<std::uint64_t>(w.chunks()), 1};
    return stage_cache().get_or_compute(key, [&] {
      return stage_prefill_time_us(cluster, m, plan, s, v, w, km, eff);
    });
  };
  const auto dec_time = [&](std::size_t s, std::uint64_t v, std::uint64_t ctx) {
    if (!opts.memoize) {
      return stage_decode_time_us(cluster, m, plan, s, v, ctx, km, eff);
    }
    const StageTimeKey key{stage_fp[s], v, ctx, 0, 0};
    return stage_cache().get_or_compute(key, [&] {
      return stage_decode_time_us(cluster, m, plan, s, v, ctx, km, eff);
    });
  };

  // ---- Prefill phase -------------------------------------------------
  const std::uint64_t eta = std::min<std::uint64_t>(plan.prefill_microbatch, w.batch_size);
  const std::uint64_t mu_pre = (w.batch_size + eta - 1) / eta;

  // Per-stage compute time for a full micro-batch (size eta).
  std::vector<double> pre_t(n_stages);
  for (std::size_t s = 0; s < n_stages; ++s) {
    pre_t[s] = pre_time(s, eta);
  }
  res.stage_prefill_us = pre_t;

  // Inter-stage activation bytes per micro-batch: the full prompt's hidden
  // states stream across (chunk by chunk; total volume is what matters).
  std::vector<double> pre_comm(n_stages, 0.0);  // comm INTO stage s.
  for (std::size_t s = 1; s < n_stages; ++s) {
    const double bytes = 2.0 * static_cast<double>(eta) *
                         static_cast<double>(w.prompt_len) *
                         static_cast<double>(m.h1);
    pre_comm[s] = km.comm_time_us(
        bytes, inter_stage_gbps(cluster, plan.stages[s - 1], plan.stages[s]));
  }

  // Embedding work for one micro-batch happens on the master before
  // stage 0 consumes it.
  const double embed_us =
      km.embed_time_us(master_spec, m, eta * w.prompt_len) / eff;

  // Fault machinery.  With no view attached every expression below reduces
  // to the exact pre-fault arithmetic (end == start + dur, comm factor 1,
  // `busy += dur + 0.0`), so fault-free runs are byte-identical to the
  // pre-fault simulator; the same holds for an attached view whose windows
  // never intersect this batch.  `fault_step` returns the (possibly
  // slowdown-stretched) end of one work item and records the earliest
  // intersection of scheduled work with a failure window — the abort point.
  const FaultView* fv = opts.faults;
  double abort_at = std::numeric_limits<double>::infinity();
  int abort_dev = -1;
  const auto fault_step = [&](const StageSpec& st, double start, double dur) {
    const double nominal = start + dur;
    if (fv == nullptr) return nominal;
    const double end = fv->advance(st.devices, start, dur);
    const double f = fv->next_failure(st.devices, start);
    if (f < end && f < abort_at) {
      abort_at = f;
      abort_dev = st.devices.front();
      for (const int d : st.devices) {
        if (fv->failure_at(d, f) != nullptr) {
          abort_dev = d;
          break;
        }
      }
    }
    return end;
  };

  // Trace accumulators; only maintained when a sink is attached.  Pure
  // observations of the schedule recurrence — they never feed back into it.
  const bool tracing = opts.trace != nullptr;
  std::vector<double> first_start;
  std::vector<double> comm_in;
  std::vector<double> busy_pre;
  std::vector<double> prefill_end;
  std::vector<double> first_dec_start;
  if (tracing) {
    first_start.assign(n_stages, std::numeric_limits<double>::infinity());
    comm_in.assign(n_stages, 0.0);
    first_dec_start.assign(n_stages, std::numeric_limits<double>::infinity());
  }

  // Schedule recurrence: start(s, mb) = max(stage free, upstream + comm).
  std::vector<double> stage_free(n_stages, 0.0);
  std::vector<double> busy(n_stages, 0.0);
  double prefill_done_all = 0.0;
  std::vector<double> mb_prefill_done(mu_pre, 0.0);
  for (std::uint64_t mb = 0; mb < mu_pre; ++mb) {
    // Last micro-batch may be smaller; scale compute proportionally.
    const std::uint64_t size = std::min(eta, w.batch_size - mb * eta);
    const double frac = static_cast<double>(size) / static_cast<double>(eta);
    double upstream = static_cast<double>(mb) * embed_us + embed_us * frac;
    for (std::size_t s = 0; s < n_stages; ++s) {
      double comm = s > 0 ? pre_comm[s] * frac : 0.0;
      if (fv != nullptr && s > 0) {
        comm *= fv->link_factor(plan.stages[s - 1].devices.back(),
                                plan.stages[s].devices.front(), upstream);
      }
      const double arrive = upstream + comm;
      const double start = std::max(stage_free[s], arrive);
      const double dur = pre_t[s] * frac;
      const double end = fault_step(plan.stages[s], start, dur);
      if (tracing) {
        first_start[s] = std::min(first_start[s], start);
        if (s > 0) comm_in[s] += comm;
      }
      stage_free[s] = end;
      busy[s] += dur + (end - (start + dur));
      upstream = stage_free[s];
    }
    mb_prefill_done[mb] = upstream;
    prefill_done_all = std::max(prefill_done_all, upstream);
  }
  if (tracing) {
    busy_pre = busy;
    prefill_end = stage_free;
  }
  // First token of each request: LM head on master after the last stage.
  const double lm_head_pre = km.lm_head_time_us(master_spec, m, eta) / eff;
  prefill_done_all += lm_head_pre;
  res.prefill_us = prefill_done_all;

  // ---- Decode phase ---------------------------------------------------
  const std::uint64_t xi = std::min<std::uint64_t>(plan.decode_microbatch, w.batch_size);
  const std::uint64_t mu_dec = (w.batch_size + xi - 1) / xi;
  const std::uint64_t steps = w.gen_tokens > 0 ? w.gen_tokens - 1 : 0;

  // Representative mid-generation decode step (for reporting).
  res.stage_decode_us.resize(n_stages);
  for (std::size_t s = 0; s < n_stages; ++s) {
    res.stage_decode_us[s] = dec_time(s, xi, w.prompt_len + w.gen_tokens / 2);
  }

  std::vector<double> dec_comm(n_stages, 0.0);
  for (std::size_t s = 1; s < n_stages; ++s) {
    const double bytes = 2.0 * static_cast<double>(xi) * static_cast<double>(m.h1);
    dec_comm[s] = km.comm_time_us(
        bytes, inter_stage_gbps(cluster, plan.stages[s - 1], plan.stages[s]));
  }
  const double lm_head_dec = km.lm_head_time_us(master_spec, m, xi) / eff;
  const double embed_dec = km.embed_time_us(master_spec, m, xi) / eff;

  // token_ready[mb]: when micro-batch mb's previous token is available.
  std::vector<double> token_ready(mu_dec, prefill_done_all);
  std::fill(stage_free.begin(), stage_free.end(), prefill_done_all);

  for (std::uint64_t t = 0; t < steps; ++t) {
    const std::uint64_t ctx = w.prompt_len + 1 + t;
    std::vector<double> step_t(n_stages);
    for (std::size_t s = 0; s < n_stages; ++s) {
      step_t[s] = dec_time(s, xi, ctx);
    }
    for (std::uint64_t mb = 0; mb < mu_dec; ++mb) {
      const std::uint64_t size = std::min(xi, w.batch_size - mb * xi);
      const double frac = static_cast<double>(size) / static_cast<double>(xi);
      double upstream = token_ready[mb] + embed_dec * frac;
      for (std::size_t s = 0; s < n_stages; ++s) {
        double comm = s > 0 ? dec_comm[s] * frac : 0.0;
        if (fv != nullptr && s > 0) {
          comm *= fv->link_factor(plan.stages[s - 1].devices.back(),
                                  plan.stages[s].devices.front(), upstream);
        }
        const double arrive = upstream + comm;
        const double start = std::max(stage_free[s], arrive);
        const double dur = step_t[s] * frac;
        const double end = fault_step(plan.stages[s], start, dur);
        if (tracing) {
          first_dec_start[s] = std::min(first_dec_start[s], start);
          if (s > 0) comm_in[s] += comm;
        }
        stage_free[s] = end;
        busy[s] += dur + (end - (start + dur));
        upstream = stage_free[s];
      }
      token_ready[mb] = upstream + lm_head_dec * frac;
    }
  }
  const double end =
      steps > 0 ? *std::max_element(token_ready.begin(), token_ready.end())
                : prefill_done_all;
  res.decode_us = end - prefill_done_all;
  res.total_us = end;

  const double out_tokens =
      static_cast<double>(w.batch_size) * static_cast<double>(w.gen_tokens);
  res.throughput_tok_s = res.total_us > 0.0 ? out_tokens / (res.total_us * 1e-6) : 0.0;

  double idle = 0.0;
  for (std::size_t s = 0; s < n_stages; ++s) {
    idle += res.total_us > 0.0 ? 1.0 - busy[s] / res.total_us : 0.0;
  }
  res.bubble_fraction = n_stages > 0 ? idle / static_cast<double>(n_stages) : 0.0;

  // Typed fault abort: the batch ends at the earliest intersection of
  // scheduled work with a failure window.  Work after the abort point is
  // discarded (the engine re-runs the wave after retry/repair), so timing
  // and throughput fields beyond `total_us` are zeroed and no trace spans
  // are emitted for the aborted wave.
  if (fv != nullptr && abort_at < std::numeric_limits<double>::infinity()) {
    res.faulted = true;
    res.fault_us = abort_at;
    res.fault_device = fv->original_of(abort_dev);
    const FaultEvent* e = fv->failure_at(abort_dev, abort_at);
    res.fault_transient = e != nullptr && !e->permanent();
    res.fault_until_us = res.fault_transient
                             ? e->end_us() - fv->base_us
                             : std::numeric_limits<double>::infinity();
    res.prefill_us = std::min(res.prefill_us, abort_at);
    res.decode_us = 0.0;
    res.total_us = abort_at;
    res.throughput_tok_s = 0.0;
    res.bubble_fraction = 0.0;
    return res;
  }

  if (tracing) {
    // One batch span, then per-stage compute/comm/bubble spans for this
    // wave, all stamped on the simulated clock.  The sink shifts by its
    // base_us so multiple waves concatenate into one timeline.
    const double stage_count = static_cast<double>(n_stages);
    opts.trace->add({"batch",
                     0.0,
                     res.total_us,
                     {{"batch_size", static_cast<double>(w.batch_size)},
                      {"eta", static_cast<double>(eta)},
                      {"xi", static_cast<double>(xi)},
                      {"prefill_us", res.prefill_us},
                      {"decode_us", res.decode_us},
                      {"stages", stage_count}}});
    for (std::size_t s = 0; s < n_stages; ++s) {
      const double sd = static_cast<double>(s);
      const double dec_busy = busy[s] - busy_pre[s];
      opts.trace->add({"stage.prefill",
                       first_start[s],
                       prefill_end[s],
                       {{"stage", sd}, {"busy_us", busy_pre[s]}}});
      if (steps > 0) {
        opts.trace->add({"stage.decode",
                         first_dec_start[s],
                         stage_free[s],
                         {{"stage", sd}, {"busy_us", dec_busy}}});
      }
      opts.trace->add({"stage.comm",
                       0.0,
                       res.total_us,
                       {{"stage", sd}, {"comm_in_us", comm_in[s]}}});
      opts.trace->add({"stage.bubble",
                       0.0,
                       res.total_us,
                       {{"stage", sd}, {"idle_us", res.total_us - busy[s]}}});
    }
  }
  return res;
}

}  // namespace sq::sim
