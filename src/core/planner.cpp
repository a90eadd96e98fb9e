#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "core/heuristics.h"
#include "core/ilp.h"
#include "model/layer_stats.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "sim/pipeline.h"

namespace sq::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Pool for the candidate fan-out; null means run inline (sequential).
std::unique_ptr<sq::common::ThreadPool> make_pool(int num_threads) {
  const int n = sq::common::resolve_threads(num_threads);
  return n > 1 ? std::make_unique<sq::common::ThreadPool>(n) : nullptr;
}

/// The shared stage-time cache of the validation simulator is part of the
/// parallel search machinery; `num_threads == 1` asks for the legacy
/// sequential path, which recomputes everything.  Either way the values —
/// and therefore the chosen plan — are bit-for-bit identical.
bool memoize_of(const PlannerConfig& cfg) { return cfg.num_threads != 1; }

/// Per-task winner of a baseline sweep, reduced across tasks in
/// enumeration order so ties resolve exactly as the sequential loops did.
struct SweepBest {
  double obj = std::numeric_limits<double>::infinity();
  std::size_t input = 0;
  std::size_t topo = 0;
  std::uint64_t eta = 0;
  std::uint64_t xi = 0;
  HeuristicPlan hp;
};

/// Widest-first permutation of the bit indices.
std::vector<int> widest_first_order(const std::vector<sq::hw::Bitwidth>& bits) {
  std::vector<int> order(bits.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return sq::hw::bits(bits[static_cast<std::size_t>(a)]) >
           sq::hw::bits(bits[static_cast<std::size_t>(b)]);
  });
  return order;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Observe one search-phase duration (no-op when metrics are disabled).
/// Wall times are observability only — never inputs to the search — so
/// metrics-on and metrics-off runs pick bit-identical plans.
void observe_phase_s(const char* name, double seconds) {
  if (!sq::obs::enabled()) return;
  sq::obs::histogram(name, sq::obs::BucketLayout::kSeconds).observe(seconds);
}

/// Snapshot of the shared caches, used to attribute hit/miss deltas of one
/// planner invocation to the planner's counters.
struct CacheMarks {
  sq::sim::StageCacheStats stage;
  std::uint64_t predict_hits = 0;
  std::uint64_t predict_misses = 0;
};

CacheMarks cache_marks(const sq::cost::LatencyCostModel& latency) {
  return {sq::sim::stage_cache_stats(), latency.predict_cache_hits(),
          latency.predict_cache_misses()};
}

void observe_cache_deltas(const sq::cost::LatencyCostModel& latency,
                          const CacheMarks& t0) {
  if (!sq::obs::enabled()) return;
  const CacheMarks t1 = cache_marks(latency);
  sq::obs::counter("planner.stage_cache.hits").add(t1.stage.hits - t0.stage.hits);
  sq::obs::counter("planner.stage_cache.misses")
      .add(t1.stage.misses - t0.stage.misses);
  sq::obs::counter("planner.predict_cache.hits")
      .add(t1.predict_hits - t0.predict_hits);
  sq::obs::counter("planner.predict_cache.misses")
      .add(t1.predict_misses - t0.predict_misses);
}

/// Power-of-two micro-batch candidates up to `cap` (plus `cap` itself).
std::vector<std::uint64_t> microbatch_candidates(std::uint64_t cap) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = 1; v < cap; v *= 2) out.push_back(v);
  out.push_back(cap);
  return out;
}

/// Synthetic Hessian-style indicator table for a big model: the HAWQ score
/// lambda_max(2 X X^T) * ||Q(W) - W||^2 evaluated from the calibration
/// statistics (lambda ~ 2 * D_X * E[X^2]; E||Q(W)-W||^2 ~ D_W * S(b)^2 / 12).
std::vector<std::vector<double>> hessian_table(const sq::model::LlmSpec& m,
                                               std::span<const Bitwidth> bits,
                                               std::uint64_t seed) {
  const auto calib = sq::model::synthetic_calibration(m, seed);
  std::vector<std::vector<double>> t(calib.size(),
                                     std::vector<double>(bits.size(), 0.0));
  for (std::size_t l = 0; l < calib.size(); ++l) {
    for (std::size_t bi = 0; bi < bits.size(); ++bi) {
      if (bits[bi] == Bitwidth::kFp16) continue;
      double acc = 0.0;
      for (const auto& op : calib[l]) {
        const double lambda =
            2.0 * static_cast<double>(m.h1) * (op.x_mean * op.x_mean + op.x_var);
        const double s = sq::quant::scale_for_range(op.w_min, op.w_max, bits[bi],
                                                    sq::quant::Scheme::kSymmetric);
        const double qerr =
            static_cast<double>(op.weight_dim) * static_cast<double>(s) * s / 12.0;
        acc += lambda * qerr;
      }
      t[l][bi] = acc;
    }
  }
  return t;
}

/// Normalize a raw indicator table to PPL-delta units: uniform INT4 (or the
/// narrowest available bit) is pinned at the calibration cost of 0.4 PPL.
void normalize_to_ppl(std::vector<std::vector<double>>& t,
                      std::span<const Bitwidth> bits) {
  std::size_t ref = bits.size() - 1;
  for (std::size_t bi = 0; bi < bits.size(); ++bi) {
    if (bits[bi] == Bitwidth::kInt4) ref = bi;
  }
  double total = 0.0;
  for (const auto& row : t) total += row[ref];
  const double k = total > 0.0 ? 0.4 / total : 0.0;
  for (auto& row : t) {
    for (auto& v : row) v *= k;
  }
}

}  // namespace

Planner::Planner(const sq::model::LlmSpec& model, const sq::hw::Cluster& cluster,
                 const sq::sim::BatchWorkload& workload,
                 const sq::cost::LatencyCostModel& latency,
                 const sq::quality::QualityModel& quality)
    : model_(model),
      cluster_(cluster),
      workload_(workload),
      latency_(latency),
      quality_(quality) {}

void Planner::profile_all(sq::cost::LatencyCostModel& latency,
                          const sq::hw::Cluster& cluster,
                          std::span<const Bitwidth> bits) {
  for (int d = 0; d < cluster.device_count(); ++d) {
    latency.profile_device(cluster.spec(d), bits);
  }
}

PlanInputs Planner::make_inputs(const PlannerConfig& cfg, std::uint64_t batch) const {
  PlanInputs in;
  in.model = &model_;
  in.cluster = &cluster_;
  in.latency = &latency_;
  in.workload = workload_;
  in.workload.batch_size = batch;
  in.kv_bits = cfg.kv_bits;
  in.theta = cfg.theta;
  in.omega_budget = cfg.max_ppl_delta;

  for (const Bitwidth b : cfg.bits) {
    if (b == Bitwidth::kInt3 && !cfg.custom_backend) continue;
    in.bits.push_back(b);
  }
  if (in.bits.empty()) in.bits.push_back(Bitwidth::kFp16);

  // Per-layer indicator in PPL units.
  const std::size_t L = static_cast<std::size_t>(model_.n_layers);
  in.omega_ppl.assign(L, std::vector<double>(in.bits.size(), 0.0));
  switch (cfg.indicator) {
    case IndicatorKind::kVariance: {
      const double k = quality_.ppl_per_omega();
      for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t bi = 0; bi < in.bits.size(); ++bi) {
          in.omega_ppl[l][bi] = k * quality_.indicators().at(l, in.bits[bi]);
        }
      }
      break;
    }
    case IndicatorKind::kHessian: {
      in.omega_ppl = hessian_table(model_, in.bits, cfg.seed);
      normalize_to_ppl(in.omega_ppl, in.bits);
      break;
    }
    case IndicatorKind::kRandom: {
      const auto table =
          sq::quant::random_indicator_table(L, in.bits, cfg.seed);
      for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t bi = 0; bi < in.bits.size(); ++bi) {
          in.omega_ppl[l][bi] = table.values[l][bi];
        }
      }
      normalize_to_ppl(in.omega_ppl, in.bits);
      break;
    }
  }
  return in;
}

std::uint64_t Planner::plan_concurrency(const PlannerConfig& cfg) const {
  // Cap the planning batch so the KV reservation is sustainable: mid-range
  // (INT8) weights plus B requests of full-context KV must fit in ~85% of
  // the cluster's usable memory.  The runtime scheduler enforces the exact
  // per-stage cap at execution.
  const double total = static_cast<double>(cluster_.total_usable_memory()) * 0.85;
  const double weights = static_cast<double>(model_.n_layers) *
                         static_cast<double>(model_.layer_weight_bytes(Bitwidth::kInt8));
  const double emb = static_cast<double>(model_.embedding_bytes());
  const double kv_per_req =
      static_cast<double>(model_.n_layers) *
      static_cast<double>(model_.layer_kv_bytes(workload_.max_context(), cfg.kv_bits));
  if (kv_per_req <= 0.0) return workload_.batch_size;
  const double avail = total - weights - emb;
  if (avail <= kv_per_req) return 1;
  return std::min<std::uint64_t>(workload_.batch_size,
                                 static_cast<std::uint64_t>(avail / kv_per_req));
}

PlanResult Planner::finalize(const PlanContext& ctx, const HeuristicPlan& hp,
                             const std::string& scheme, double solve_s) const {
  PlanResult r;
  r.feasible = true;
  r.plan = ctx.to_plan(hp.group_stage, hp.group_bit, scheme);
  r.plan.solve_seconds = solve_s;
  r.plan.predicted_batch_latency_us = hp.eval.latency_s * 1e6;
  r.plan.quality_penalty = hp.eval.omega;
  r.topology = describe(ctx.topology(), cluster_);
  r.planned_batch = ctx.inputs().workload.batch_size;
  r.predicted_latency_s = hp.eval.latency_s;
  const double out_tokens = static_cast<double>(ctx.inputs().workload.batch_size) *
                            static_cast<double>(ctx.inputs().workload.gen_tokens);
  r.predicted_throughput =
      hp.eval.latency_s > 0.0 ? out_tokens / hp.eval.latency_s : 0.0;
  r.total_omega = hp.eval.omega;
  const auto est = quality_.estimate_from_ppl_delta(hp.eval.omega);
  r.est_ppl = est.ppl;
  r.est_accuracy = est.accuracy;
  r.solve_seconds = solve_s;
  return r;
}

std::vector<std::uint64_t> Planner::batch_candidates(const PlannerConfig& cfg) const {
  // Concurrency is itself a lever: memory-frugal plans can admit more
  // simultaneous requests (more throughput at similar per-step latency).
  // The analytic estimate seeds a small candidate set; memory constraints
  // filter the over-ambitious ones per plan.
  const std::uint64_t est = plan_concurrency(cfg);
  std::vector<std::uint64_t> out;
  for (const double f : {0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0}) {
    const auto b = static_cast<std::uint64_t>(static_cast<double>(est) * f);
    const std::uint64_t clamped =
        std::clamp<std::uint64_t>(b, 1, workload_.batch_size);
    if (out.empty() || out.back() != clamped) out.push_back(clamped);
  }
  return out;
}

PlanResult Planner::plan(const PlannerConfig& cfg) const {
  const auto t0 = Clock::now();
  PlanResult result;
  result.failure = "no feasible plan found";

  const auto batches = batch_candidates(cfg);
  // One PlanInputs per batch candidate (contexts keep pointers into them).
  std::vector<PlanInputs> inputs;
  inputs.reserve(batches.size());
  for (const auto b : batches) inputs.push_back(make_inputs(cfg, b));

  const auto topologies =
      enumerate_topologies(cluster_, cfg.allow_tp, cfg.max_topologies);

  const auto pool = make_pool(cfg.num_threads);

  // Observability marks (counters and wall-time histograms only; every
  // aggregate is order-independent, so totals are identical across thread
  // counts, and nothing recorded here feeds back into the search).
  const bool ob = sq::obs::enabled();
  const CacheMarks marks = ob ? cache_marks(latency_) : CacheMarks{};
  auto phase_t0 = Clock::now();

  // Stage 1: greedy-score every (batch, topology, eta, xi) candidate.
  // Across batch sizes, objectives are compared per-request:
  // (latency + theta * omega) / B — the throughput-fair normalization.
  // Candidates are enumerated up front and evaluated into per-index slots,
  // then compacted in enumeration order: `order` is the same stable index
  // the sequential loop nest would have assigned, and every later sort and
  // reduction tie-breaks on it, so the winning plan is independent of the
  // thread count.
  struct Candidate {
    std::size_t input;
    std::size_t topo;
    std::uint64_t eta, xi;
    HeuristicPlan seed;
    double norm_obj;
    std::size_t order;  ///< Stable enumeration index (tie-break key).
  };
  auto normalized = [&](const AssignmentEval& ev, std::size_t input_i) {
    return ev.objective /
           static_cast<double>(inputs[input_i].workload.batch_size);
  };
  auto ctx_of = [&](const Candidate& c) {
    return PlanContext(inputs[c.input], topologies[c.topo], c.eta, c.xi,
                       cfg.group_size);
  };

  struct Desc {
    std::size_t input, topo;
    std::uint64_t eta, xi;
  };
  std::vector<Desc> descs;
  for (std::size_t ii = 0; ii < inputs.size(); ++ii) {
    const std::uint64_t batch = inputs[ii].workload.batch_size;
    const auto etas = microbatch_candidates(std::min<std::uint64_t>(batch, 64));
    const auto xis = microbatch_candidates(batch);
    for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
      for (const auto eta : etas) {
        for (const auto xi : xis) descs.push_back({ii, ti, eta, xi});
      }
    }
  }
  std::vector<std::optional<HeuristicPlan>> seeds(descs.size());
  sq::common::parallel_for(pool.get(), descs.size(), [&](std::size_t i) {
    const Desc& d = descs[i];
    const PlanContext ctx(inputs[d.input], topologies[d.topo], d.eta, d.xi,
                          cfg.group_size);
    seeds[i] = greedy_plan(ctx);
  });
  std::vector<Candidate> cands;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (!seeds[i]) continue;
    const Desc& d = descs[i];
    const double obj = normalized(seeds[i]->eval, d.input);
    cands.push_back(
        {d.input, d.topo, d.eta, d.xi, std::move(*seeds[i]), obj, cands.size()});
  }
  result.topologies_tried = static_cast<int>(topologies.size());
  if (ob) {
    sq::obs::counter("planner.topologies").add(topologies.size());
    sq::obs::counter("planner.candidates.generated").add(descs.size());
    sq::obs::counter("planner.candidates.pruned")
        .add(descs.size() - cands.size());
    sq::obs::counter("planner.candidates.evaluated").add(cands.size());
    observe_phase_s("planner.time.greedy_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }
  if (cands.empty()) {
    result.failure = "OOM: no (topology, micro-batch) candidate fits the model";
    result.solve_seconds = seconds_since(t0);
    if (ob) observe_cache_deltas(latency_, marks);
    return result;
  }
  auto by_norm = [](const Candidate& a, const Candidate& b) {
    if (a.norm_obj != b.norm_obj) return a.norm_obj < b.norm_obj;
    return a.order < b.order;
  };
  std::sort(cands.begin(), cands.end(), by_norm);

  // Stage 2: refine the most promising candidates with adabits + bitwidth
  // transfer.  Each task touches only its own candidate slot.
  const int refine_k = std::min<int>(static_cast<int>(cands.size()),
                                     std::max(4, 2 * cfg.max_microbatch_pairs));
  sq::common::parallel_for(
      pool.get(), static_cast<std::size_t>(refine_k), [&](std::size_t i) {
        auto& c = cands[i];
        const PlanContext ctx = ctx_of(c);
        auto a = adabits_plan(ctx);
        HeuristicPlan refined = bitwidth_transfer(
            ctx, a && a->eval.objective < c.seed.eval.objective ? *a : c.seed);
        if (refined.eval.feasible &&
            normalized(refined.eval, c.input) < c.norm_obj) {
          c.seed = std::move(refined);
          c.norm_obj = normalized(c.seed.eval, c.input);
        }
      });
  result.pairs_tried += refine_k;
  std::sort(cands.begin(), cands.end(), by_norm);
  if (ob) {
    sq::obs::counter("planner.candidates.refined")
        .add(static_cast<std::uint64_t>(refine_k));
    observe_phase_s("planner.time.refine_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }

  // Stage 3: exact ILP on the top candidates (unless heuristic mode).
  // Solves fan out; the reduction walks the outcomes in candidate order.
  std::size_t best_i = 0;
  HeuristicPlan best = cands.front().seed;
  double best_norm = cands.front().norm_obj;
  if (!cfg.use_heuristic) {
    sq::solver::MilpOptions opts;
    opts.time_limit_s = cfg.ilp_time_limit_s;
    const int solve_k =
        std::min<int>(static_cast<int>(cands.size()), cfg.max_microbatch_pairs);
    std::vector<IlpOutcome> outs(static_cast<std::size_t>(solve_k));
    sq::common::parallel_for(
        pool.get(), static_cast<std::size_t>(solve_k), [&](std::size_t i) {
          const auto& c = cands[i];
          outs[i] = solve_ilp(ctx_of(c), c.seed, opts);
        });
    for (int i = 0; i < solve_k; ++i) {
      auto& c = cands[static_cast<std::size_t>(i)];
      const auto& out = outs[static_cast<std::size_t>(i)];
      ++result.ilp_solves;
      result.ilp_nodes += out.nodes;
      result.ilp_pivots += out.pivots;
      if (out.truncated) ++result.ilp_truncated;
      if (out.feasible && normalized(out.plan.eval, c.input) < c.norm_obj) {
        c.seed = out.plan;
        c.norm_obj = normalized(out.plan.eval, c.input);
      }
      if (c.norm_obj < best_norm) {
        best = c.seed;
        best_norm = c.norm_obj;
        best_i = static_cast<std::size_t>(i);
      }
    }
  }
  if (ob) {
    sq::obs::counter("planner.ilp.solves")
        .add(static_cast<std::uint64_t>(result.ilp_solves));
    sq::obs::counter("planner.ilp.nodes")
        .add(static_cast<std::uint64_t>(result.ilp_nodes));
    sq::obs::counter("planner.ilp.pivots")
        .add(static_cast<std::uint64_t>(result.ilp_pivots));
    sq::obs::counter("planner.ilp.truncated")
        .add(static_cast<std::uint64_t>(result.ilp_truncated));
    observe_phase_s("planner.time.ilp_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }

  // Stage 4: profiling validation run.  Near-ties under the cost model are
  // settled by simulating the top finalists on the planning batch (a short
  // calibration run in a real deployment) and keeping the highest
  // simulated throughput.  Scores land in per-index slots; the argmin scan
  // runs in candidate order (strict <, first wins) for determinism.
  if (cfg.validate_top_k > 1 && cands.size() > 1) {
    std::sort(cands.begin(), cands.end(), by_norm);
    best = cands.front().seed;
    best_i = 0;
    const int check_k =
        std::min<int>(static_cast<int>(cands.size()), cfg.validate_top_k);
    std::vector<double> scores(static_cast<std::size_t>(check_k));
    sq::common::parallel_for(
        pool.get(), static_cast<std::size_t>(check_k), [&](std::size_t i) {
          const auto& c = cands[i];
          const PlanContext ctx = ctx_of(c);
          const auto plan =
              ctx.to_plan(c.seed.group_stage, c.seed.group_bit, "probe");
          const std::uint64_t b = inputs[c.input].workload.batch_size;
          scores[i] = validation_score(plan, b, cfg.theta, c.seed.eval.omega,
                                       memoize_of(cfg));
        });
    double best_score = std::numeric_limits<double>::infinity();
    for (int i = 0; i < check_k; ++i) {
      if (scores[static_cast<std::size_t>(i)] < best_score) {
        best_score = scores[static_cast<std::size_t>(i)];
        best = cands[static_cast<std::size_t>(i)].seed;
        best_i = static_cast<std::size_t>(i);
      }
    }
    if (ob) {
      sq::obs::counter("planner.candidates.validated")
          .add(static_cast<std::uint64_t>(check_k));
    }
  }
  if (ob) {
    observe_phase_s("planner.time.validate_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }

  const auto& c = cands[best_i];
  const PlanContext ctx(inputs[c.input], topologies[c.topo], c.eta, c.xi,
                        cfg.group_size);
  PlanResult r = finalize(ctx, best, "splitquant", seconds_since(t0));
  r.topologies_tried = result.topologies_tried;
  r.pairs_tried = result.pairs_tried;
  r.ilp_solves = result.ilp_solves;
  r.ilp_nodes = result.ilp_nodes;
  r.ilp_pivots = result.ilp_pivots;
  r.ilp_truncated = result.ilp_truncated;

  // Dominance check: the Uniform and Het configurations are points of
  // SplitQuant's own search space; if cost-model error ranked them below
  // the chosen plan but the profiling run says otherwise, adopt them.
  if (cfg.validate_top_k > 1) {
    double chosen = validation_score(r.plan, r.planned_batch, cfg.theta,
                                     r.total_omega, memoize_of(cfg));
    for (const PlanResult& alt :
         {plan_uniform(cfg), plan_het(cfg), plan_adabits(cfg)}) {
      if (!alt.feasible) continue;
      if (cfg.max_ppl_delta >= 0.0 &&
          alt.total_omega > cfg.max_ppl_delta * (1.0 + 1e-9)) {
        continue;  // would violate the quality budget
      }
      const double t = validation_score(alt.plan, alt.planned_batch, cfg.theta,
                                        alt.total_omega, memoize_of(cfg));
      if (t < chosen * (1.0 - 1e-9)) {
        chosen = t;
        r.plan = alt.plan;
        r.plan.scheme = "splitquant";
        r.topology = alt.topology;
        r.planned_batch = alt.planned_batch;
        r.predicted_latency_s = alt.predicted_latency_s;
        r.predicted_throughput = alt.predicted_throughput;
        r.total_omega = alt.total_omega;
        r.est_ppl = alt.est_ppl;
        r.est_accuracy = alt.est_accuracy;
      }
    }
    r.solve_seconds = seconds_since(t0);
    r.plan.solve_seconds = r.solve_seconds;
  }
  if (ob) {
    observe_phase_s("planner.time.dominance_s", seconds_since(phase_t0));
    observe_phase_s("planner.time.total_s", seconds_since(t0));
    sq::obs::counter("planner.plans").add();
    observe_cache_deltas(latency_, marks);
  }
  return r;
}

double Planner::validation_score(const sq::sim::ExecutionPlan& plan,
                                 std::uint64_t batch, double theta, double omega,
                                 bool memoize) const {
  // Run the plan through the actual serving engine (wave capping and
  // per-wave micro-batch clamping included) on two calibration shapes:
  // the planning batch and a half-prompt variant.
  const sq::runtime::OfflineEngine engine(
      cluster_, model_, plan, sq::runtime::Backend::kVllmStyle,
      {.ground_truth = true, .seed = 11}, memoize);
  std::vector<sq::sim::BatchWorkload> batches;
  for (const double frac : {1.5, 1.0, 0.55}) {
    sq::sim::BatchWorkload w = workload_;
    w.batch_size = std::max<std::uint64_t>(batch, workload_.batch_size);
    const std::uint64_t limit =
        model_.pos_s > w.gen_tokens ? model_.pos_s - w.gen_tokens : model_.pos_s;
    w.prompt_len = std::min<std::uint64_t>(
        limit, std::max<std::uint64_t>(
                   16, static_cast<std::uint64_t>(
                           static_cast<double>(w.prompt_len) * frac)));
    batches.push_back(w);
  }
  const auto stats = engine.serve(batches);
  if (!stats.feasible || stats.throughput_tok_s <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  // Measured analogue of the per-request objective: generation time per
  // request plus the quality penalty share.
  const double lat_per_req =
      static_cast<double>(workload_.gen_tokens) / stats.throughput_tok_s;
  return lat_per_req + theta * omega / static_cast<double>(batch);
}

PlanResult Planner::plan_uniform(const PlannerConfig& cfg) const {
  const auto t0 = Clock::now();
  PlanResult result;
  result.failure = "OOM: model does not fit at any uniform precision";

  PlannerConfig base = cfg;
  base.theta = 0.0;           // Baselines do not trade quality for speed.
  base.max_ppl_delta = -1.0;  // ... nor are they quality-constrained.
  const auto batches = batch_candidates(base);
  std::vector<PlanInputs> inputs;
  for (const auto b : batches) inputs.push_back(make_inputs(base, b));
  const auto topologies = natural_topologies(cluster_, cfg.allow_tp);

  const auto order = widest_first_order(inputs.front().bits);

  // One task per (batch candidate, topology); the bit / micro-batch loops
  // inside each task keep the sequential enumeration order, and the
  // cross-task reduction walks tasks in that same order.
  const std::size_t n_tasks = inputs.size() * topologies.size();
  if (sq::obs::enabled()) sq::obs::counter("planner.baseline.tasks").add(n_tasks);
  std::vector<std::optional<SweepBest>> task_best(n_tasks);
  const auto pool = make_pool(cfg.num_threads);
  sq::common::parallel_for(pool.get(), n_tasks, [&](std::size_t task) {
    const std::size_t ii = task / topologies.size();
    const std::size_t ti = task % topologies.size();
    const auto& in = inputs[ii];
    const std::uint64_t batch = in.workload.batch_size;
    const auto etas = microbatch_candidates(std::min<std::uint64_t>(batch, 64));
    const auto xis = microbatch_candidates(batch);
    std::optional<SweepBest> local;
    for (const int bi : order) {
      bool fits_somewhere = false;
      for (const auto eta : etas) {
        for (const auto xi : xis) {
          const PlanContext ctx(in, topologies[ti], eta, xi, cfg.group_size);
          HeuristicPlan hp;
          hp.group_stage = even_partition(ctx);
          hp.group_bit.assign(static_cast<std::size_t>(ctx.num_groups()), bi);
          hp.eval = ctx.evaluate(hp.group_stage, hp.group_bit);
          if (!hp.eval.feasible) continue;
          fits_somewhere = true;
          const double obj = hp.eval.objective / static_cast<double>(batch);
          if (!local || obj < local->obj) {
            local = SweepBest{obj, ii, ti, eta, xi, std::move(hp)};
          }
        }
      }
      // The paper's Uniform lowers precision only until the model fits.
      if (fits_somewhere) break;
    }
    task_best[task] = std::move(local);
  });
  std::optional<SweepBest> best;
  for (auto& tb : task_best) {
    if (tb && (!best || tb->obj < best->obj)) best = std::move(*tb);
  }
  if (best) {
    const PlanContext ctx(inputs[best->input], topologies[best->topo], best->eta,
                          best->xi, cfg.group_size);
    result = finalize(ctx, best->hp, "uniform", seconds_since(t0));
  }
  result.solve_seconds = seconds_since(t0);
  return result;
}

PlanResult Planner::plan_het(const PlannerConfig& cfg) const {
  const auto t0 = Clock::now();
  PlanResult result;
  result.failure = "OOM: model does not fit at any uniform precision";

  PlannerConfig base = cfg;
  base.theta = 0.0;
  base.max_ppl_delta = -1.0;
  const auto batches = batch_candidates(base);
  std::vector<PlanInputs> inputs;
  for (const auto b : batches) inputs.push_back(make_inputs(base, b));
  const auto topologies =
      enumerate_topologies(cluster_, cfg.allow_tp, cfg.max_topologies);

  const auto order = widest_first_order(inputs.front().bits);

  const std::size_t n_tasks = inputs.size() * topologies.size();
  if (sq::obs::enabled()) sq::obs::counter("planner.baseline.tasks").add(n_tasks);
  std::vector<std::optional<SweepBest>> task_best(n_tasks);
  const auto pool = make_pool(cfg.num_threads);
  sq::common::parallel_for(pool.get(), n_tasks, [&](std::size_t task) {
    const std::size_t ii = task / topologies.size();
    const std::size_t ti = task % topologies.size();
    const auto& in = inputs[ii];
    const std::uint64_t batch = in.workload.batch_size;
    const auto etas = microbatch_candidates(std::min<std::uint64_t>(batch, 64));
    const auto xis = microbatch_candidates(batch);
    std::optional<SweepBest> local;
    for (const int bi : order) {
      bool fits_somewhere = false;
      for (const auto eta : etas) {
        for (const auto xi : xis) {
          const PlanContext ctx(in, topologies[ti], eta, xi, cfg.group_size);
          HeuristicPlan hp;
          hp.group_stage =
              balanced_partition(ctx, bi, PartitionMetric::kPrefillOnly);
          if (hp.group_stage.empty()) continue;
          hp.group_bit.assign(static_cast<std::size_t>(ctx.num_groups()), bi);
          hp.eval = ctx.evaluate(hp.group_stage, hp.group_bit);
          if (!hp.eval.feasible) continue;
          fits_somewhere = true;
          const double obj = hp.eval.objective / static_cast<double>(batch);
          if (!local || obj < local->obj) {
            local = SweepBest{obj, ii, ti, eta, xi, std::move(hp)};
          }
        }
      }
      if (fits_somewhere) break;
    }
    task_best[task] = std::move(local);
  });
  std::optional<SweepBest> best;
  for (auto& tb : task_best) {
    if (tb && (!best || tb->obj < best->obj)) best = std::move(*tb);
  }
  if (best) {
    const PlanContext ctx(inputs[best->input], topologies[best->topo], best->eta,
                          best->xi, cfg.group_size);
    result = finalize(ctx, best->hp, "het", seconds_since(t0));
  }
  result.solve_seconds = seconds_since(t0);
  return result;
}

PlanResult Planner::plan_adabits(const PlannerConfig& cfg) const {
  const auto t0 = Clock::now();
  PlanResult result;
  result.failure = "OOM: adabits found no feasible assignment";

  const auto batches = batch_candidates(cfg);
  std::vector<PlanInputs> inputs;
  for (const auto b : batches) inputs.push_back(make_inputs(cfg, b));
  const auto topologies =
      enumerate_topologies(cluster_, cfg.allow_tp, cfg.max_topologies);

  const std::size_t n_tasks = inputs.size() * topologies.size();
  if (sq::obs::enabled()) sq::obs::counter("planner.baseline.tasks").add(n_tasks);
  std::vector<std::optional<SweepBest>> task_best(n_tasks);
  const auto pool = make_pool(cfg.num_threads);
  sq::common::parallel_for(pool.get(), n_tasks, [&](std::size_t task) {
    const std::size_t ii = task / topologies.size();
    const std::size_t ti = task % topologies.size();
    const auto& in = inputs[ii];
    const std::uint64_t batch = in.workload.batch_size;
    const auto etas = microbatch_candidates(std::min<std::uint64_t>(batch, 64));
    const auto xis = microbatch_candidates(batch);
    std::optional<SweepBest> local;
    for (const auto eta : etas) {
      for (const auto xi : xis) {
        const PlanContext ctx(in, topologies[ti], eta, xi, cfg.group_size);
        const auto a = adabits_plan(ctx);
        if (!a) continue;
        const double obj = a->eval.objective / static_cast<double>(batch);
        if (!local || obj < local->obj) {
          local = SweepBest{obj, ii, ti, eta, xi, *a};
        }
      }
    }
    task_best[task] = std::move(local);
  });
  std::optional<SweepBest> best;
  for (auto& tb : task_best) {
    if (tb && (!best || tb->obj < best->obj)) best = std::move(*tb);
  }
  if (best) {
    const PlanContext ctx(inputs[best->input], topologies[best->topo], best->eta,
                          best->xi, cfg.group_size);
    result = finalize(ctx, best->hp, "adabits", seconds_since(t0));
  }
  result.solve_seconds = seconds_since(t0);
  return result;
}

}  // namespace sq::core
