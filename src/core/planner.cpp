#include "core/planner.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/thread_pool.h"
#include "core/heuristics.h"
#include "core/ilp.h"
#include "model/layer_stats.h"
#include "obs/metrics.h"
#include "runtime/engine.h"

namespace sq::core {

/// A baseline scheme as one sweep of the search grid.  Each (batch,
/// topology) task walks its (eta, xi) pairs at one uniform bit index at a
/// time, widest first, and stops at the first bit that fits any pair (the
/// paper's Uniform and Het lower precision only until the model fits); a
/// mixed-precision scheme walks the pairs once.
struct BaselineSweep {
  bool per_bit;  ///< Widest-first uniform bits; false = one mixed pass.
  /// The scheme's plan at one pair and bit index (-1 in a mixed pass), or
  /// nullopt where it does not fit.
  std::optional<HeuristicPlan> (*cell)(const PlanContext& ctx, int bi);
  const char* scheme;
  const char* failure;  ///< PlanResult::failure when no cell fits.
};

namespace {

using Clock = std::chrono::steady_clock;

/// Planner settings no caller varies: intra-node TP meshes are always
/// enumerated, the KV cache is held at FP16, and the Hessian and Random
/// indicators draw from one fixed seed.
constexpr bool kAllowTp = true;
constexpr Bitwidth kKvBits = Bitwidth::kFp16;
constexpr std::uint64_t kIndicatorSeed = 17;

/// Pool for the candidate fan-out; null means run inline (sequential).
std::unique_ptr<sq::common::ThreadPool> make_pool(int num_threads) {
  const int n = sq::common::resolve_threads(num_threads);
  return n > 1 ? std::make_unique<sq::common::ThreadPool>(n) : nullptr;
}

/// One point of the search grid: a batch candidate (index into the
/// PlanInputs), a topology (index) and an (eta, xi) micro-batch pair.
struct Cell {
  std::size_t input = 0;
  std::size_t topo = 0;
  std::uint64_t eta = 0;
  std::uint64_t xi = 0;
};

PlanContext context_of(const Cell& c, const std::vector<PlanInputs>& inputs,
                       const std::vector<Topology>& topologies, int group_size) {
  return PlanContext(inputs[c.input], topologies[c.topo], c.eta, c.xi,
                     group_size);
}

/// A cell's greedy plan (nullopt where none fits): plan()'s stage-1 seed.
struct GreedySeed {
  Cell cell;
  std::optional<HeuristicPlan> plan;
};

/// Per-task winner of a baseline sweep, reduced across tasks in
/// enumeration order so ties resolve exactly as a sequential loop would.
struct SweepBest {
  double obj = std::numeric_limits<double>::infinity();
  Cell cell;
  HeuristicPlan hp;
};

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

/// The (eta, xi) pairs of one batch candidate in enumeration order: each
/// power-of-two prefill micro-batch up to min(batch, 64) with each
/// power-of-two decode micro-batch up to the batch (each cap included).
std::vector<std::pair<std::uint64_t, std::uint64_t>> microbatch_pairs(
    std::uint64_t batch) {
  auto sizes = [](std::uint64_t cap) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t v = 1; v < cap; v *= 2) out.push_back(v);
    out.push_back(cap);
    return out;
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  const auto xis = sizes(batch);
  for (const auto eta : sizes(std::min<std::uint64_t>(batch, 64))) {
    for (const auto xi : xis) out.emplace_back(eta, xi);
  }
  return out;
}

/// `stage` at one uniform bit index, evaluated; nullopt when it does not fit.
std::optional<HeuristicPlan> at_uniform_bit(const PlanContext& ctx,
                                            std::vector<int> stage, int bi) {
  HeuristicPlan hp;
  hp.group_stage = std::move(stage);
  hp.group_bit.assign(static_cast<std::size_t>(ctx.num_groups()), bi);
  hp.eval = ctx.evaluate(hp.group_stage, hp.group_bit);
  if (!hp.eval.feasible) return std::nullopt;
  return hp;
}

constexpr const char* kUniformFailure =
    "OOM: model does not fit at any uniform precision";

/// Uniform: even partition at one bitwidth.
const BaselineSweep kUniformSweep = {
    true,
    [](const PlanContext& ctx, int bi) {
      return at_uniform_bit(ctx, even_partition(ctx), bi);
    },
    "uniform", kUniformFailure};

/// Het: phase-unaware (prefill-time) balanced partition at one bitwidth.
const BaselineSweep kHetSweep = {
    true,
    [](const PlanContext& ctx, int bi) -> std::optional<HeuristicPlan> {
      auto stage = balanced_partition(ctx, bi, PartitionMetric::kPrefillOnly);
      if (stage.empty()) return std::nullopt;
      return at_uniform_bit(ctx, std::move(stage), bi);
    },
    "het", kUniformFailure};

/// adabits: adaptive bitwidths over an even partition, one mixed pass.
const BaselineSweep kAdabitsSweep = {
    false, [](const PlanContext& ctx, int) { return adabits_plan(ctx); },
    "adabits", "OOM: adabits found no feasible assignment"};

/// The same inputs without the quality trade-off or budget: the Uniform
/// and Het baselines plan for speed alone.
std::vector<PlanInputs> speed_only(std::vector<PlanInputs> inputs) {
  for (auto& in : inputs) {
    in.theta = 0.0;
    in.omega_budget = -1.0;
  }
  return inputs;
}

/// Synthetic Hessian-style indicator table for a big model: the HAWQ score
/// lambda_max(2 X X^T) * ||Q(W) - W||^2 evaluated from the calibration
/// statistics (lambda ~ 2 * D_X * E[X^2]; E||Q(W)-W||^2 ~ D_W * S(b)^2 / 12).
std::vector<std::vector<double>> hessian_table(const sq::model::LlmSpec& m,
                                               std::span<const Bitwidth> bits) {
  const auto calib = sq::model::synthetic_calibration(m, kIndicatorSeed);
  std::vector<std::vector<double>> t(calib.size(),
                                     std::vector<double>(bits.size(), 0.0));
  for (std::size_t l = 0; l < calib.size(); ++l) {
    for (std::size_t bi = 0; bi < bits.size(); ++bi) {
      if (bits[bi] == Bitwidth::kFp16) continue;
      double acc = 0.0;
      for (const auto& op : calib[l]) {
        const double lambda =
            2.0 * static_cast<double>(m.h1) * (op.x_mean * op.x_mean + op.x_var);
        const double s = sq::quant::scale_for_range(op.w_min, op.w_max, bits[bi]);
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

/// The (batch, topology, eta, xi) grid one search walks: one task per
/// (batch candidate, topology), each over its batch's (eta, xi) pairs.
struct SearchGrid {
  const std::vector<PlanInputs>& inputs;  ///< Contexts are built from these.
  const std::vector<Topology>& topologies;
  int group_size;
};

/// One baseline rule over a search grid: the inputs whose objective it
/// scores plans with — the grid's own, or copies differing only in theta
/// and the quality budget (PlanContext::rebind), so one set of tables
/// serves both — and each task's winner.
struct SweepRun {
  const BaselineSweep& rule;
  const std::vector<PlanInputs>& objective;
  std::vector<std::optional<SweepBest>> task_best;
};

namespace {

/// Run one search over `grid`: one task per (batch candidate, topology) on
/// `pool` (null = inline).  Each task builds its (eta, xi) contexts once,
/// fills its greedy-seed slots when `seeds` is set (one per cell, in
/// (batch, topology, eta, xi) enumeration order), then runs every rule of
/// `runs` over the same contexts.  Inside a task the bit and pair loops
/// keep the sequential enumeration order; the callers reduce tasks in that
/// same order.  Returns the number of contexts built.
std::size_t search(const SearchGrid& grid, std::vector<GreedySeed>* seeds,
                   std::span<SweepRun> runs, sq::common::ThreadPool* pool) {
  const std::size_t n_topo = grid.topologies.size();
  const std::size_t n_tasks = grid.inputs.size() * n_topo;
  // Each batch candidate's (eta, xi) pairs and its first seed slot.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> pairs;
  std::vector<std::size_t> first_slot;
  std::size_t n_cells = 0;
  for (const PlanInputs& in : grid.inputs) {
    first_slot.push_back(n_cells);
    pairs.push_back(microbatch_pairs(in.workload.batch_size));
    n_cells += n_topo * pairs.back().size();
  }
  if (seeds) seeds->assign(n_cells, {});

  // Per-bit rules walk the bit indices widest first; a mixed-precision
  // rule makes one pass (-1).
  const auto& bits = grid.inputs.front().bits;
  std::vector<int> widest(bits.size());
  std::iota(widest.begin(), widest.end(), 0);
  std::sort(widest.begin(), widest.end(), [&](int a, int b) {
    return sq::hw::bits(bits[static_cast<std::size_t>(a)]) >
           sq::hw::bits(bits[static_cast<std::size_t>(b)]);
  });
  static constexpr int kMixedPass[] = {-1};
  for (SweepRun& run : runs) {
    run.task_best.assign(n_tasks, std::nullopt);
    if (sq::obs::enabled()) sq::obs::counter("planner.baseline.tasks").add(n_tasks);
  }

  sq::common::parallel_for(pool, n_tasks, [&](std::size_t task) {
    const std::size_t ii = task / n_topo, ti = task % n_topo;
    const auto& task_pairs = pairs[ii];
    std::vector<PlanContext> ctxs;
    ctxs.reserve(task_pairs.size());
    for (const auto& [eta, xi] : task_pairs) {
      ctxs.emplace_back(grid.inputs[ii], grid.topologies[ti], eta, xi,
                        grid.group_size);
    }
    if (seeds) {
      auto slot = seeds->begin() +
                  static_cast<std::ptrdiff_t>(first_slot[ii] + ti * task_pairs.size());
      for (const PlanContext& ctx : ctxs) {
        *slot++ = {Cell{ii, ti, ctx.eta(), ctx.xi()}, greedy_plan(ctx)};
      }
    }
    const double batch = static_cast<double>(grid.inputs[ii].workload.batch_size);
    for (SweepRun& run : runs) {
      for (PlanContext& ctx : ctxs) ctx.rebind(run.objective[ii]);
      std::optional<SweepBest>& local = run.task_best[task];
      const std::span<const int> order =
          run.rule.per_bit ? std::span<const int>(widest) : std::span<const int>(kMixedPass);
      // Stop at the first bit that fits any pair (per-bit rules).
      for (const int bi : order) {
        bool fits_somewhere = false;
        for (const PlanContext& ctx : ctxs) {
          auto hp = run.rule.cell(ctx, bi);
          if (!hp) continue;
          fits_somewhere = true;
          const double obj = hp->eval.objective / batch;
          if (!local || obj < local->obj) {
            local = SweepBest{obj, Cell{ii, ti, ctx.eta(), ctx.xi()}, std::move(*hp)};
          }
        }
        if (fits_somewhere) break;
      }
    }
  });
  return n_cells;
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

std::vector<PlanInputs> Planner::make_inputs(const PlannerConfig& cfg) const {
  PlanInputs in;
  in.model = &model_;
  in.cluster = &cluster_;
  in.latency = &latency_;
  in.workload = workload_;
  in.kv_bits = kKvBits;
  in.theta = cfg.theta;
  in.omega_budget = cfg.max_ppl_delta;

  for (const Bitwidth b : cfg.bits) {
    if (b == Bitwidth::kInt3 && !cfg.custom_backend) continue;
    in.bits.push_back(b);
  }
  if (in.bits.empty()) in.bits.push_back(Bitwidth::kFp16);

  // Per-layer indicator in PPL units.
  const std::size_t L = static_cast<std::size_t>(model_.n_layers);
  if (cfg.indicator == IndicatorKind::kVariance) {
    const double k = quality_.ppl_per_omega();
    in.omega_ppl.assign(L, std::vector<double>(in.bits.size(), 0.0));
    for (std::size_t l = 0; l < L; ++l) {
      for (std::size_t bi = 0; bi < in.bits.size(); ++bi) {
        in.omega_ppl[l][bi] = k * quality_.indicators().at(l, in.bits[bi]);
      }
    }
  } else {
    in.omega_ppl =
        cfg.indicator == IndicatorKind::kHessian
            ? hessian_table(model_, in.bits)
            : sq::quant::random_indicator_table(L, in.bits, kIndicatorSeed).values;
    normalize_to_ppl(in.omega_ppl, in.bits);
  }

  // Concurrency is itself a lever: memory-frugal plans can admit more
  // simultaneous requests (more throughput at similar per-step latency).
  // An analytic estimate seeds a small candidate set; memory constraints
  // filter the over-ambitious ones per plan.  The estimate caps the
  // planning batch so the KV reservation is sustainable: mid-range (INT8)
  // weights plus B requests of full-context KV must fit in ~85% of the
  // cluster's usable memory.  The runtime scheduler enforces the exact
  // per-stage cap at execution.
  const double total = static_cast<double>(cluster_.total_usable_memory()) * 0.85;
  const double weights = static_cast<double>(model_.n_layers) *
                         static_cast<double>(model_.layer_weight_bytes(Bitwidth::kInt8));
  const double emb = static_cast<double>(model_.embedding_bytes());
  const double kv_per_req =
      static_cast<double>(model_.n_layers) *
      static_cast<double>(model_.layer_kv_bytes(workload_.max_context(), kKvBits));
  const double avail = total - weights - emb;
  std::uint64_t est = workload_.batch_size;
  if (kv_per_req > 0.0) {
    est = avail <= kv_per_req ? 1
                              : std::min<std::uint64_t>(
                                    est, static_cast<std::uint64_t>(avail / kv_per_req));
  }
  std::vector<PlanInputs> out;
  for (const double f : {0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0}) {
    const auto b = static_cast<std::uint64_t>(static_cast<double>(est) * f);
    const std::uint64_t clamped =
        std::clamp<std::uint64_t>(b, 1, workload_.batch_size);
    if (!out.empty() && out.back().workload.batch_size == clamped) continue;
    out.push_back(in);
    out.back().workload.batch_size = clamped;
  }
  return out;
}

void Planner::finalize(PlanResult& r, const PlanContext& ctx,
                       const HeuristicPlan& hp, const char* scheme) const {
  r.feasible = true;
  r.plan = ctx.to_plan(hp.group_stage, hp.group_bit, scheme);
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
}

PlanResult Planner::sweep_result(const SweepRun& run, const SearchGrid& grid) const {
  const SweepBest* best = nullptr;
  for (const auto& tb : run.task_best) {
    if (tb && (!best || tb->obj < best->obj)) best = &*tb;
  }
  PlanResult r;
  if (best) {
    finalize(r, context_of(best->cell, run.objective, grid.topologies, grid.group_size),
             best->hp, run.rule.scheme);
  } else {
    r.failure = run.rule.failure;
  }
  return r;
}

PlanResult Planner::sweep(const BaselineSweep& rule,
                          const std::vector<PlanInputs>& inputs,
                          const std::vector<Topology>& topologies, int group_size,
                          sq::common::ThreadPool* pool, std::size_t* contexts) const {
  const auto t0 = Clock::now();
  const SearchGrid grid{inputs, topologies, group_size};
  SweepRun run{rule, inputs, {}};
  const std::size_t built = search(grid, nullptr, {&run, 1}, pool);
  PlanResult r = sweep_result(run, grid);
  if (contexts) *contexts += built + (r.feasible ? 1 : 0);
  r.solve_seconds = r.plan.solve_seconds = seconds_since(t0);
  return r;
}

PlanResult Planner::plan(const PlannerConfig& cfg) const {
  const auto t0 = Clock::now();
  PlanResult result;
  // One PlanInputs per batch candidate (contexts keep pointers into them).
  const auto inputs = make_inputs(cfg);
  const auto topologies =
      enumerate_topologies(cluster_, kAllowTp, cfg.max_topologies);
  // One pool for every fan-out below, the baseline sweeps included.
  const auto pool = make_pool(cfg.num_threads);

  // Observability marks (counters and wall-time histograms only; every
  // aggregate is order-independent, so totals are identical across thread
  // counts, and nothing recorded here feeds back into the search).
  const bool ob = sq::obs::enabled();
  auto phase_t0 = Clock::now();

  // Stage 1: greedy-score every (batch, topology, eta, xi) cell, in the
  // baseline sweeps' enumeration order.  Across batch sizes, objectives are
  // compared per-request: (latency + theta * omega) / B — the
  // throughput-fair normalization.  Cells are scored into per-index slots,
  // then compacted in enumeration order: `order` is the same stable index
  // the sequential loop nest would have assigned, and every later sort and
  // reduction tie-breaks on it, so the winning plan is independent of the
  // thread count.  The same pass runs the dominance check's Het and
  // adabits sweeps over each task's contexts (Het through a speed-only
  // view: theta 0, no budget), so every cell's tables are built once.
  struct Candidate {
    Cell cell;
    HeuristicPlan seed;
    double norm_obj;
    std::size_t order;  ///< Stable enumeration index (tie-break key).
  };
  auto normalized = [&](const AssignmentEval& ev, const Cell& c) {
    return ev.objective / static_cast<double>(inputs[c.input].workload.batch_size);
  };
  auto ctx_of = [&](const Cell& c) {
    return context_of(c, inputs, topologies, cfg.group_size);
  };
  // Contexts built by this plan (observability only).
  std::uint64_t contexts = 0;
  auto count_contexts = [&] {
    if (ob) sq::obs::counter("planner.contexts").add(contexts);
  };

  const bool dominance = cfg.validate_top_k > 1;
  const auto speed = speed_only(inputs);
  const SearchGrid grid{inputs, topologies, cfg.group_size};
  std::array<SweepRun, 2> alt_runs = {SweepRun{kHetSweep, speed, {}},
                                      SweepRun{kAdabitsSweep, inputs, {}}};
  std::vector<GreedySeed> seeds;
  contexts += search(grid, &seeds,
                     std::span<SweepRun>(alt_runs).first(dominance ? 2 : 0),
                     pool.get());
  std::vector<Candidate> cands;
  for (GreedySeed& s : seeds) {
    if (!s.plan) continue;
    const double obj = normalized(s.plan->eval, s.cell);
    cands.push_back({s.cell, std::move(*s.plan), obj, cands.size()});
  }
  result.topologies_tried = static_cast<int>(topologies.size());
  if (ob) {
    sq::obs::counter("planner.topologies").add(topologies.size());
    sq::obs::counter("planner.candidates.generated").add(seeds.size());
    sq::obs::counter("planner.candidates.pruned")
        .add(seeds.size() - cands.size());
    sq::obs::counter("planner.candidates.evaluated").add(cands.size());
    observe_phase_s("planner.time.greedy_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }
  if (cands.empty()) {
    result.failure = "OOM: no (topology, micro-batch) candidate fits the model";
    result.solve_seconds = seconds_since(t0);
    count_contexts();
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
        const PlanContext ctx = ctx_of(c.cell);
        auto a = adabits_plan(ctx);
        HeuristicPlan refined = bitwidth_transfer(
            ctx, a && a->eval.objective < c.seed.eval.objective ? *a : c.seed);
        if (refined.eval.feasible &&
            normalized(refined.eval, c.cell) < c.norm_obj) {
          c.seed = std::move(refined);
          c.norm_obj = normalized(c.seed.eval, c.cell);
        }
      });
  result.pairs_tried += refine_k;
  contexts += static_cast<std::uint64_t>(refine_k);
  std::sort(cands.begin(), cands.end(), by_norm);
  if (ob) {
    sq::obs::counter("planner.candidates.refined")
        .add(static_cast<std::uint64_t>(refine_k));
    observe_phase_s("planner.time.refine_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }

  // Stage 3: exact ILP on the top candidates (unless heuristic mode).
  // Solves fan out; the reduction walks the outcomes in candidate order.
  // `best_i` is the chosen candidate, whose seed is the chosen plan.
  std::size_t best_i = 0;
  if (!cfg.use_heuristic) {
    sq::solver::MilpOptions opts;
    opts.time_limit_s = cfg.ilp_time_limit_s;
    const int solve_k =
        std::min<int>(static_cast<int>(cands.size()), cfg.max_microbatch_pairs);
    std::vector<IlpOutcome> outs(static_cast<std::size_t>(solve_k));
    contexts += static_cast<std::uint64_t>(solve_k);
    sq::common::parallel_for(
        pool.get(), static_cast<std::size_t>(solve_k), [&](std::size_t i) {
          const auto& c = cands[i];
          outs[i] = solve_ilp(ctx_of(c.cell), c.seed, opts);
        });
    double best_norm = cands.front().norm_obj;
    for (int i = 0; i < solve_k; ++i) {
      auto& c = cands[static_cast<std::size_t>(i)];
      const auto& out = outs[static_cast<std::size_t>(i)];
      ++result.ilp_solves;
      result.ilp_nodes += out.nodes;
      result.ilp_pivots += out.pivots;
      if (out.truncated) ++result.ilp_truncated;
      if (out.feasible && normalized(out.plan.eval, c.cell) < c.norm_obj) {
        c.seed = out.plan;
        c.norm_obj = normalized(out.plan.eval, c.cell);
      }
      if (c.norm_obj < best_norm) {
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
  std::vector<double> scores;
  if (cfg.validate_top_k > 1 && cands.size() > 1) {
    std::sort(cands.begin(), cands.end(), by_norm);
    const int check_k =
        std::min<int>(static_cast<int>(cands.size()), cfg.validate_top_k);
    scores.resize(static_cast<std::size_t>(check_k));
    contexts += static_cast<std::uint64_t>(check_k);
    sq::common::parallel_for(
        pool.get(), static_cast<std::size_t>(check_k), [&](std::size_t i) {
          const auto& c = cands[i];
          const auto plan = ctx_of(c.cell).to_plan(c.seed.group_stage,
                                                   c.seed.group_bit, "probe");
          const std::uint64_t b = inputs[c.cell.input].workload.batch_size;
          scores[i] = validation_score(plan, b, cfg.theta, c.seed.eval.omega);
        });
    best_i = static_cast<std::size_t>(std::min_element(scores.begin(), scores.end()) -
                                      scores.begin());
    if (ob) {
      sq::obs::counter("planner.candidates.validated")
          .add(static_cast<std::uint64_t>(check_k));
    }
  }
  if (ob) {
    observe_phase_s("planner.time.validate_s", seconds_since(phase_t0));
    phase_t0 = Clock::now();
  }

  finalize(result, ctx_of(cands[best_i].cell), cands[best_i].seed, "splitquant");
  ++contexts;

  // Dominance check: the Uniform and Het configurations are points of
  // SplitQuant's own search space; if cost-model error ranked them below
  // the chosen plan but the profiling run says otherwise, adopt them.
  // When the validation stage ran, it already scored the chosen plan (the
  // same plan, batch and omega, so the same deterministic score).  Het and
  // adabits were swept in stage 1; Uniform sweeps the natural topologies
  // with this search's speed-only inputs and pool.  The alternatives are
  // scored into slots, and the reduction walks them in uniform, het,
  // adabits order.
  if (dominance) {
    double chosen = scores.empty()
                        ? validation_score(result.plan, result.planned_batch,
                                           cfg.theta, result.total_omega)
                        : scores[best_i];
    std::size_t uniform_contexts = 0;
    const std::array<PlanResult, 3> alts = {
        sweep(kUniformSweep, speed, natural_topologies(cluster_, kAllowTp),
              cfg.group_size, pool.get(), &uniform_contexts),
        sweep_result(alt_runs[0], grid), sweep_result(alt_runs[1], grid)};
    contexts += uniform_contexts + (alts[1].feasible ? 1 : 0) +
                (alts[2].feasible ? 1 : 0);
    std::array<double, 3> alt_scores;
    sq::common::parallel_for(pool.get(), alts.size(), [&](std::size_t i) {
      const PlanResult& alt = alts[i];
      const bool over_budget = cfg.max_ppl_delta >= 0.0 &&
                               alt.total_omega > cfg.max_ppl_delta * (1.0 + 1e-9);
      alt_scores[i] = !alt.feasible || over_budget
                          ? std::numeric_limits<double>::infinity()
                          : validation_score(alt.plan, alt.planned_batch, cfg.theta,
                                             alt.total_omega);
    });
    for (std::size_t i = 0; i < alts.size(); ++i) {
      const PlanResult& alt = alts[i];
      const double t = alt_scores[i];
      if (t < chosen * (1.0 - 1e-9)) {
        chosen = t;
        result.plan = alt.plan;
        result.plan.scheme = "splitquant";
        result.topology = alt.topology;
        result.planned_batch = alt.planned_batch;
        result.predicted_latency_s = alt.predicted_latency_s;
        result.predicted_throughput = alt.predicted_throughput;
        result.total_omega = alt.total_omega;
        result.est_ppl = alt.est_ppl;
        result.est_accuracy = alt.est_accuracy;
      }
    }
  }
  result.solve_seconds = result.plan.solve_seconds = seconds_since(t0);
  count_contexts();
  if (ob) {
    observe_phase_s("planner.time.dominance_s", seconds_since(phase_t0));
    observe_phase_s("planner.time.total_s", seconds_since(t0));
    sq::obs::counter("planner.plans").add();
  }
  return result;
}

double Planner::validation_score(const sq::sim::ExecutionPlan& plan,
                                 std::uint64_t batch, double theta,
                                 double omega) const {
  // Run the plan through the actual serving engine (wave capping and
  // per-wave micro-batch clamping included) on two calibration shapes:
  // the planning batch and a half-prompt variant.
  const sq::runtime::OfflineEngine engine(
      cluster_, model_, plan, sq::runtime::Backend::kVllmStyle,
      {.ground_truth = true, .seed = 11});
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
  const auto stats = engine.serve(batches).serve;
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
  const auto pool = make_pool(cfg.num_threads);
  return sweep(kUniformSweep, speed_only(make_inputs(cfg)),
               natural_topologies(cluster_, kAllowTp), cfg.group_size, pool.get());
}

PlanResult Planner::plan_het(const PlannerConfig& cfg) const {
  const auto pool = make_pool(cfg.num_threads);
  return sweep(kHetSweep, speed_only(make_inputs(cfg)),
               enumerate_topologies(cluster_, kAllowTp, cfg.max_topologies),
               cfg.group_size, pool.get());
}

PlanResult Planner::plan_adabits(const PlannerConfig& cfg) const {
  const auto pool = make_pool(cfg.num_threads);
  return sweep(kAdabitsSweep, make_inputs(cfg),
               enumerate_topologies(cluster_, kAllowTp, cfg.max_topologies),
               cfg.group_size, pool.get());
}

}  // namespace sq::core
