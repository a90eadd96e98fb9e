// End-to-end benchmark of the user pipeline: set-up -> plan -> weight prep
// -> serve, run as a closed loop of operations from one process.
//
//   perfbench_e2e --workload <plan-ilp|serve-poisson|elastic-churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// One operation is what one in-process CLI invocation does: the
// process-wide caches (stage-time cache, QuantCache) are cleared, a fresh
// LatencyCostModel is profiled, the planner runs, WeightPrep quantizes the
// plan's layers, and the plan serves a seeded arrival timeline.  The next
// operation starts only after the previous one ends.  Every output is
// checked (see run_op and main); a failed check counts the operation as
// failed.
//
// The planning cell is fixed (OPT-30B on paper cluster 5, CNN/DailyMail
// lengths sampled with the CLI's seed, theta 10, batch 128), so every
// seed plans the same problem.  --seed drives what is served and
// prepared: the arrival timeline and the synthetic per-layer weights.
//
// With --trace 1 operations alternate untraced / traced.  Traced
// operations record spans (name, start, end, parent, operation id) around
// the calls into each layer and around the replan callbacks handed to the
// engines, switch the obs registry on and read its counters; the spans
// are written as Chrome trace-event JSON when the run ends.
//
// Output: one JSON object on stdout with the raw per-operation samples;
// perfbench/run.py aggregates it into the reported metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/planner.h"
#include "core/repair.h"
#include "elastic/cost_model.h"
#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "obs/metrics.h"
#include "quality/quality_model.h"
#include "quant/quant_cache.h"
#include "runtime/engine.h"
#include "runtime/weight_prep.h"
#include "sim/faults.h"
#include "sim/pipeline.h"
#include "sim/plan_io.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "workload/arrivals.h"
#include "workload/profile.h"

namespace {

using Clock = std::chrono::steady_clock;
using sq::hw::Bitwidth;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds of the whole process, all threads.  The kernel's steal
/// accounting leaves out the time the hypervisor ran other guests.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Fixed cell -----------------------------------------------------------

constexpr const char* kModel = "OPT-30B";
constexpr int kCluster = 5;
constexpr double kTheta = 10.0;
constexpr std::uint64_t kBatch = 128;
constexpr int kPlanningRequests = 256;
constexpr std::uint64_t kPlanningSeed = 1234;  // The CLI's sampling seed.
constexpr int kMaxThreads = 2;  // Every thread knob; capped at the host's.
constexpr int kWeightRows = 512;
constexpr int kWeightCols = 2048;
constexpr int kSetupRepsPerOp = 20;  // Set-up-only repetitions per operation.
constexpr int kMinPhaseSamples = 9;  // Prep and serve samples per run.

// The plan `splitquant_cli --model OPT-30B --cluster 5` prints when its ILP
// runs to optimality.
constexpr const char* kCliDefaultPlan =
    "V100[0:24)@24xint4 | T4[24:32)@8xint8 | T4[32:40)@8xint8 | "
    "T4[40:48)@8xint8 eta=2 xi=18";
constexpr int kCliDefaultSolves = 4;
constexpr int kCliDefaultNodes = 71792;

struct Workload {
  std::string name;
  bool heuristic = false;    ///< Bitwidth transfer instead of the ILP.
  std::string arrivals;      ///< Arrival spec (workload/arrivals.h).
  std::string membership;    ///< Elastic timeline; empty = OfflineEngine.
  std::string faults;        ///< Fault schedule for the elastic run.
  bool expect_cli_plan = false;
  bool expect_no_loss = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"plan-ilp", false, "poisson:4000@0x0.2", "", "", true, false},
      {"serve-poisson", true, "burst:1024@0,poisson:16000@0x0.24", "", "", false,
       true},
      {"elastic-churn", true, "poisson:8000@0x0.25",
       "join:1xV100@6400,leave:0@12800,price:V100=1.2@19200", "fail:1@25600",
       false, false},
  };
  return w;
}

// ---- Spans -----------------------------------------------------------------

struct SpanRec {
  std::string name;
  int op = 0;
  int id = 0;
  int parent = -1;
  double start_s = 0.0;  ///< Since the run started.
  double end_s = 0.0;
  double child_s = 0.0;  ///< Time covered by direct children.
};

/// In-memory span recorder.  Disabled: every call returns at once.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { on_ = on; }

  int begin(const char* name, int op) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lk(mu_);
    SpanRec s;
    s.name = name;
    s.op = op;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_s = since(origin_);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void end(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    SpanRec& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = since(origin_);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].child_s += s.end_s - s.start_s;
    }
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  bool on_ = false;
  std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int op) : t_(t), id_(t.begin(name, op)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Sum of (duration, self time) of the spans named `name` of operation `op`.
std::pair<double, double> span_totals(const Tracer& t, int op,
                                      const std::string& name) {
  double dur = 0.0, self = 0.0;
  for (const SpanRec& s : t.spans()) {
    if (s.op != op || s.name != name) continue;
    dur += s.end_s - s.start_s;
    self += s.end_s - s.start_s - s.child_s;
  }
  return {dur, self};
}

bool write_trace(const Tracer& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const SpanRec& s = t.spans()[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, "
                  "\"parent\": %d, \"op\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"self_s\": %.9f}}%s\n",
                  s.name.c_str(), s.op, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, s.id, s.parent, s.op, s.start_s,
                  s.end_s, s.end_s - s.start_s - s.child_s,
                  i + 1 < t.spans().size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Digests (bit-identity checks) ----------------------------------------

class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    bytes(b, sizeof(T));
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(reinterpret_cast<const unsigned char*>(s.data()), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;  // FNV-1a.
    }
  }
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t digest_of(const sq::runtime::RequestStats& rs) {
  Digest d;
  d.add(rs.feasible);
  d.add(rs.failure);
  for (const std::uint64_t v : {rs.submitted, rs.completed, rs.lost,
                                rs.preemptions, rs.admission_blocked,
                                rs.iterations, rs.faults_hit, rs.retries,
                                rs.repairs_attempted, rs.repairs_succeeded}) {
    d.add(v);
  }
  for (const double v : {rs.output_tokens, rs.total_seconds, rs.goodput_tok_s,
                         rs.mean_latency_s, rs.p50_latency_s, rs.p95_latency_s,
                         rs.mean_queue_s, rs.kv_peak_utilization, rs.fault_s,
                         rs.stop_s}) {
    d.add(v);
  }
  d.add(rs.fault_permanent);
  d.add(rs.fault_device);
  d.add(rs.stopped);
  d.add(rs.final_generation);
  for (const std::string& e : rs.events) d.add(e);
  for (const auto& o : rs.requests) {
    d.add(o.id);
    d.add(o.completed);
    d.add(o.lost);
    d.add(o.arrive_s);
    d.add(o.admit_s);
    d.add(o.finish_s);
    d.add(o.prompt_tokens);
    d.add(o.output_tokens);
    d.add(o.preemptions);
    d.add(o.in_flight);
    d.add(o.prefill_done);
    d.add(o.progress_tokens);
  }
  d.add(sq::sim::plan_to_string(rs.final_plan));
  return d.value();
}

std::uint64_t digest_of(const sq::elastic::ElasticStats& es) {
  Digest d;
  d.add(es.feasible);
  d.add(es.failure);
  for (const std::uint64_t v :
       {es.events_applied, es.joins_offered, es.joins_accepted,
        es.joins_rejected, es.leaves, es.price_events, es.scale_downs,
        es.replans, es.migrations, es.drains, es.restarts,
        es.fleet.jobs_completed, es.fleet.repairs, es.fleet.faults_hit}) {
    d.add(v);
  }
  for (const double v :
       {es.migrated_kv_bytes, es.migration_s, es.device_seconds, es.dollars,
        es.tokens_per_dollar, es.fleet.output_tokens, es.fleet.makespan_s,
        es.fleet.aggregate_tok_s}) {
    d.add(v);
  }
  for (const std::string& e : es.events) d.add(e);
  for (const std::string& e : es.fleet.events) d.add(e);
  return d.value();
}

// ---- Inputs ------------------------------------------------------------------

struct Inputs {
  sq::model::LlmSpec model;
  sq::hw::Cluster cluster;
  std::vector<Bitwidth> bits = {Bitwidth::kFp16, Bitwidth::kInt8,
                                Bitwidth::kInt4, Bitwidth::kInt3};
  std::vector<sq::workload::TimedRequest> arrivals;
  std::vector<sq::tensor::Tensor> weights;  ///< One per decoder layer.
  sq::elastic::MembershipTimeline timeline;
  sq::sim::FaultSchedule faults;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.model = sq::model::spec_by_name(kModel);
  in.cluster = sq::hw::paper_cluster(kCluster);
  const auto ap = sq::workload::parse_arrival_spec(w.arrivals);
  if (!ap.ok) throw std::runtime_error("arrival spec: " + ap.error);
  in.arrivals = sq::workload::generate_arrivals(
      ap.spec, sq::workload::Dataset::kCnnDailyMail,
      sq::tensor::derive_seed(seed, 1));
  std::vector<float> values(static_cast<std::size_t>(kWeightRows) * kWeightCols);
  for (int l = 0; l < in.model.n_layers; ++l) {
    sq::tensor::Rng rng(sq::tensor::derive_seed(seed, 100 + l));
    rng.fill_normal(values, 0.0f, 0.02f);
    in.weights.emplace_back(kWeightRows, kWeightCols, values);
  }
  if (!w.membership.empty()) {
    const auto mp = sq::elastic::parse_membership_spec(w.membership);
    if (!mp.ok) throw std::runtime_error("membership spec: " + mp.error);
    in.timeline = mp.timeline;
  }
  if (!w.faults.empty()) {
    const auto fp = sq::sim::parse_fault_spec(w.faults);
    if (!fp.ok) throw std::runtime_error("fault spec: " + fp.error);
    in.faults = fp.schedule;
  }
  return in;
}

// ---- One operation -----------------------------------------------------------

/// What a CLI invocation builds before it can plan.
struct SetUp {
  sq::sim::BatchWorkload planning;
  std::unique_ptr<sq::cost::LatencyCostModel> latency;
  std::unique_ptr<sq::quality::QualityModel> quality;
  std::unique_ptr<sq::core::Planner> planner;
};

void clear_process_caches() {
  sq::sim::stage_cache_clear();
  sq::quant::QuantCache::global().clear();
}

SetUp set_up(const Inputs& in, Tracer& tr, int op) {
  Scope s(tr, "setup", op);
  SetUp ss;
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail,
                                         kPlanningRequests, kPlanningSeed);
  ss.planning = sq::workload::make_profile(reqs, kBatch).planning_batch(in.model);
  ss.latency = std::make_unique<sq::cost::LatencyCostModel>(in.model);
  {
    Scope p(tr, "profile_all", op);
    sq::core::Planner::profile_all(*ss.latency, in.cluster, in.bits);
  }
  ss.quality = std::make_unique<sq::quality::QualityModel>(in.model, in.bits);
  ss.planner = std::make_unique<sq::core::Planner>(
      in.model, in.cluster, ss.planning, *ss.latency, *ss.quality);
  return ss;
}

/// Warm-up (checked, not timed), timed, or top-up: a cold set-up, prep and
/// serve of the already-chosen plan that adds samples for the cheap phases.
enum class Kind { kWarmup, kTimed, kTopUp };

const char* to_string(Kind k) {
  return k == Kind::kWarmup ? "warmup" : k == Kind::kTimed ? "timed" : "topup";
}

struct OpResult {
  Kind kind = Kind::kTimed;
  bool traced = false;
  sq::core::PlanResult plan;
  // Wall and process CPU seconds of each phase.
  double setup_s = 0.0, plan_s = 0.0, prep_s = 0.0, serve_s = 0.0,
         pipeline_s = 0.0;
  double plan_cpu_s = 0.0, prep_cpu_s = 0.0, serve_cpu_s = 0.0,
         pipeline_cpu_s = 0.0;
  // Outputs (checked across operations).
  std::string plan_text;
  std::string plan_summary;
  int ilp_solves = 0;
  int ilp_nodes = 0;
  std::uint64_t stats_digest = 0;
  std::vector<std::string> failures;
  // Simulated results.
  double goodput_tok_s = 0.0, latency_p50_s = 0.0, latency_p99_s = 0.0,
         est_ppl = 0.0, tokens_per_dollar = 0.0;
  std::uint64_t submitted = 0, completed = 0, lost = 0, in_flight = 0;
  // Per-layer numbers (traced operations only).
  std::map<std::string, double> layers;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))), 1,
      v.size());
  return v[k - 1];
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< Set in main from kMaxThreads.
  std::string trace_dir = ".";
};

/// One operation.  A top-up skips the planner and serves `reuse` instead.
OpResult run_op(const Workload& w, const Inputs& in, const Options& o,
                Tracer& tr, int op, Kind kind, bool traced,
                const sq::core::PlanResult* reuse = nullptr) {
  OpResult r;
  r.kind = kind;
  r.traced = traced;
  tr.set_enabled(traced);
  if (traced) {
    sq::obs::Registry::global().reset();
    sq::obs::set_enabled(true);
  }
  clear_process_caches();

  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  Scope op_span(tr, "operation", op);
  SetUp ss = set_up(in, tr, op);
  const auto t1 = Clock::now();
  const double c1 = process_cpu_s();

  sq::core::PlannerConfig cfg;
  cfg.theta = kTheta;
  cfg.use_heuristic = w.heuristic;
  cfg.num_threads = o.threads;
  cfg.ilp_time_limit_s = 1e9;  // Never binds: the plan cannot depend on speed.
  sq::core::PlanResult& plan = r.plan;
  if (reuse != nullptr) {
    plan = *reuse;
  } else {
    Scope s(tr, "plan", op);
    plan = ss.planner->plan(cfg);
  }
  const auto t2 = Clock::now();
  const double c2 = process_cpu_s();
  if (!plan.feasible) {
    r.failures.push_back("plan infeasible: " + plan.failure);
    tr.set_enabled(false);
    sq::obs::set_enabled(false);
    return r;
  }

  const auto prep = std::make_shared<const sq::runtime::WeightPrep>(
      [&in](int layer) -> const sq::tensor::Tensor* {
        return layer < static_cast<int>(in.weights.size())
                   ? &in.weights[static_cast<std::size_t>(layer)]
                   : nullptr;
      });
  sq::runtime::PrepStats ps;
  {
    Scope s(tr, "prepare", op);
    ps = prep->prepare(plan.plan.layer_bits);
  }
  const auto t3 = Clock::now();
  const double c3 = process_cpu_s();

  // Replan callbacks handed to the engines, wrapped in spans.
  int replans = 0;
  double replan_s = 0.0;
  auto timed = [&](const char* name, auto inner) {
    return [&tr, &replans, &replan_s, op, name, inner](const sq::hw::Cluster& c,
                                                       int attempt) {
      Scope s(tr, name, op);
      const auto ts = Clock::now();
      auto out = inner(c, attempt);
      ++replans;
      replan_s += since(ts);
      return out;
    };
  };

  // QuantCache lookups during serve, for the replan attribution below.
  const auto& qc = sq::quant::QuantCache::global();
  const std::uint64_t qc_hits0 = qc.hits(), qc_misses0 = qc.misses();

  sq::runtime::RequestStats rs;
  sq::elastic::ElasticStats es;
  const bool elastic = !w.membership.empty();
  {
    Scope s(tr, "serve", op);
    if (elastic) {
      sq::runtime::ReplicaGroup rg;
      rg.cluster = in.cluster;
      rg.plan = plan.plan;
      rg.predicted_tok_s = plan.predicted_throughput;
      sq::elastic::ElasticFleetEngine engine(in.model, {rg});
      engine.set_weight_prep(prep);
      engine.set_observe(traced);
      sq::elastic::ElasticOptions eo;
      eo.timeline = &in.timeline;
      eo.replan = timed("replan", sq::core::make_elastic_replanner(
                                      in.model, *ss.latency, *ss.quality,
                                      ss.planning, cfg));
      eo.fleet.num_threads = o.threads;
      if (!in.faults.empty()) eo.fleet.faults = &in.faults;
      eo.fleet.replan = timed("repair", sq::core::make_replanner(
                                            in.model, *ss.latency, *ss.quality,
                                            ss.planning, cfg));
      sq::runtime::FleetJob job;
      job.name = "job-0";
      job.arrivals = in.arrivals;
      es = engine.serve({job}, eo);
      if (es.feasible && !es.fleet.jobs.empty()) rs = es.fleet.jobs[0].continuous;
    } else {
      sq::runtime::OfflineEngine engine(in.cluster, in.model, plan.plan);
      engine.set_observe(traced);
      sq::runtime::ContinuousOptions co;
      co.num_threads = o.threads;
      rs = engine.serve_continuous(in.arrivals, co);
    }
  }
  const auto t4 = Clock::now();
  const double c4 = process_cpu_s();

  r.setup_s = std::chrono::duration<double>(t1 - t0).count();
  r.plan_s = std::chrono::duration<double>(t2 - t1).count();
  r.prep_s = std::chrono::duration<double>(t3 - t2).count();
  r.serve_s = std::chrono::duration<double>(t4 - t3).count();
  r.pipeline_s = std::chrono::duration<double>(t4 - t0).count();
  r.plan_cpu_s = c2 - c1;
  r.prep_cpu_s = c3 - c2;
  r.serve_cpu_s = c4 - c3;
  r.pipeline_cpu_s = c4 - c0;

  // ---- Outputs and their checks.
  r.plan_text = sq::sim::plan_to_string(plan.plan);
  r.plan_summary = plan.plan.summary(in.cluster);
  r.ilp_solves = plan.ilp_solves;
  r.ilp_nodes = plan.ilp_nodes;
  r.est_ppl = plan.est_ppl;
  const std::string invalid = plan.plan.validate(in.model, in.cluster);
  if (!invalid.empty()) r.failures.push_back("plan does not validate: " + invalid);
  if (w.expect_cli_plan &&
      (r.plan_summary != kCliDefaultPlan || r.ilp_solves != kCliDefaultSolves ||
       r.ilp_nodes != kCliDefaultNodes)) {
    r.failures.push_back("not the CLI-default plan: " + r.plan_summary + " (" +
                         std::to_string(r.ilp_solves) + " solves, " +
                         std::to_string(r.ilp_nodes) + " nodes)");
  }
  if (elastic && !es.feasible) r.failures.push_back("elastic serve: " + es.failure);
  if (!rs.feasible) r.failures.push_back("serve infeasible: " + rs.failure);
  r.stats_digest = elastic ? digest_of(es) ^ digest_of(rs) : digest_of(rs);

  std::vector<double> latencies, queue_waits;
  for (const auto& q : rs.requests) {
    if (q.completed) {
      ++r.completed;
      latencies.push_back(q.finish_s - q.arrive_s);
      queue_waits.push_back(q.admit_s - q.arrive_s);
    } else if (q.lost) {
      ++r.lost;
    } else if (q.in_flight) {
      ++r.in_flight;
    }
  }
  r.submitted = rs.submitted;
  if (rs.requests.size() != in.arrivals.size() ||
      rs.submitted != in.arrivals.size() ||
      r.completed + r.lost + r.in_flight != rs.submitted ||
      r.completed != rs.completed || r.lost != rs.lost) {
    r.failures.push_back("request conservation: submitted " +
                         std::to_string(rs.submitted) + ", completed " +
                         std::to_string(r.completed) + ", lost " +
                         std::to_string(r.lost) + ", in flight " +
                         std::to_string(r.in_flight));
  }
  if (w.expect_no_loss && (r.lost != 0 || r.completed != rs.submitted)) {
    r.failures.push_back("serve lost " + std::to_string(r.lost) + " requests");
  }
  if (r.completed == 0) r.failures.push_back("no request completed");

  r.goodput_tok_s = rs.goodput_tok_s;
  r.latency_p50_s = percentile(latencies, 0.50);
  r.latency_p99_s = percentile(latencies, 0.99);
  r.tokens_per_dollar =
      elastic ? es.tokens_per_dollar
              : rs.output_tokens /
                    sq::elastic::CostModel().charge(in.cluster, rs.total_seconds);

  if (traced) {
    const sq::obs::Snapshot snap = sq::obs::Registry::global().snapshot();
    sq::obs::set_enabled(false);
    auto counter = [&](const std::string& n) -> double {
      for (const auto& c : snap.counters)
        if (c.name == n) return static_cast<double>(c.value);
      return 0.0;
    };
    auto hist_sum = [&](const std::string& n) -> double {
      for (const auto& h : snap.histograms)
        if (h.name == n) return h.sum;
      return 0.0;
    };
    auto& L = r.layers;
    L["cost.profile_s"] = span_totals(tr, op, "profile_all").first;
    const double ph = static_cast<double>(ss.latency->predict_cache_hits());
    const double pm = static_cast<double>(ss.latency->predict_cache_misses());
    L["cost.predict_lookups"] = ph + pm;
    L["cost.predict_misses"] = pm;
    L["cost.predict_hit_ratio"] = ph + pm > 0 ? ph / (ph + pm) : 0.0;

    L["solver.ilp_s"] = hist_sum("planner.time.ilp_s");
    L["solver.ilp_solves"] = plan.ilp_solves;
    L["solver.ilp_nodes"] = plan.ilp_nodes;
    L["solver.us_per_node"] =
        plan.ilp_nodes > 0 ? L["solver.ilp_s"] * 1e6 / plan.ilp_nodes : 0.0;

    // Planner time outside the MILP solver.
    L["core.plan_self_s"] =
        span_totals(tr, op, "plan").second - L["solver.ilp_s"];
    L["core.greedy_s"] = hist_sum("planner.time.greedy_s");
    L["core.dominance_s"] = hist_sum("planner.time.dominance_s");
    L["core.refine_s"] = hist_sum("planner.time.refine_s");
    L["core.validate_s"] = hist_sum("planner.time.validate_s");
    L["core.candidates_generated"] = counter("planner.candidates.generated");
    L["core.candidates_pruned"] = counter("planner.candidates.pruned");
    L["core.candidates_evaluated"] = counter("planner.candidates.evaluated");
    L["core.replans"] = replans;
    L["core.replan_s"] = replan_s;

    const sq::sim::StageCacheStats sc = sq::sim::stage_cache_stats();
    const double lookups = static_cast<double>(sc.hits + sc.misses);
    L["sim.stage_cache_lookups"] = lookups;
    L["sim.stage_cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(sc.hits) / lookups : 0.0;
    L["sim.stage_cache_entries"] = static_cast<double>(sc.entries);

    const auto serve_span = span_totals(tr, op, "serve");
    L["runtime.serve_s"] = serve_span.first;
    L["runtime.serve_self_s"] = serve_span.second;
    L["runtime.iterations"] = static_cast<double>(rs.iterations);
    L["runtime.us_per_iteration"] =
        rs.iterations > 0 ? serve_span.second * 1e6 / static_cast<double>(rs.iterations)
                          : 0.0;
    L["runtime.preemptions"] = static_cast<double>(rs.preemptions);
    L["runtime.admission_blocked"] = static_cast<double>(rs.admission_blocked);
    L["runtime.kv_peak_utilization"] = rs.kv_peak_utilization;
    L["runtime.queue_wait_p50_s"] = percentile(queue_waits, 0.50);

    L["quant.prep_s"] = span_totals(tr, op, "prepare").first;
    L["quant.prep_wall_s"] = ps.wall_seconds;
    // Reuse of the replan passes (the engine's reprepare calls) only: the
    // serve call's QuantCache lookups less the engine's entry prepare, which
    // repeats the prepare above and so hits on every layer it looked up.
    const double looked_up =
        static_cast<double>(ps.layers_quantized + ps.layers_reused);
    const double quantized = static_cast<double>(qc.misses() - qc_misses0);
    const double reused = static_cast<double>(qc.hits() - qc_hits0) -
                           (elastic ? looked_up : 0.0);
    L["quant.layers_quantized"] = quantized;
    L["quant.layers_reused"] = reused;
    L["quant.reuse_ratio"] =
        quantized + reused > 0 ? reused / (quantized + reused) : 0.0;
    L["quant.prep_passes"] = counter("quant.prep.passes");
    // Input bytes of the prepare above: float32 elements of every layer it
    // looked up.
    L["quant.bytes_in"] = looked_up * kWeightRows * kWeightCols * 4.0;

    L["elastic.replans"] = static_cast<double>(es.replans);
    L["elastic.migrations"] = static_cast<double>(es.migrations);
    L["elastic.restarts"] = static_cast<double>(es.restarts);
    L["elastic.migrated_kv_mb"] = es.migrated_kv_bytes / 1e6;
    L["elastic.repairs"] = static_cast<double>(es.fleet.repairs);

    // Every obs counter, folded in under its own name.
    for (const auto& c : snap.counters) {
      L["obs." + c.name] = static_cast<double>(c.value);
    }
  }
  tr.set_enabled(false);
  return r;
}

// ---- Main --------------------------------------------------------------------

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") o->workload = v;
    else if (a == "--seed") o->seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o->seconds = std::atof(v);
    else if (a == "--trace") o->trace = std::atoi(v) != 0;
    else if (a == "--trace-dir") o->trace_dir = v;
    else return false;
  }
  return o->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& c : workloads()) {
    if (c.name == o.workload) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  // Fixed allocator thresholds, unlike the CLI.  With glibc's defaults the
  // heap hands large blocks back to the kernel and faults them in again on
  // the next operation.  Those page faults made prepare about 25% slower
  // and, on a shared virtual machine, more than doubled the run-to-run
  // spread of its time.  So prep and serve times here are those of a warm
  // heap, which a one-shot CLI process never has.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  // Every thread knob gets the same explicit count, never 0.
  o.threads = std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                         1, kMaxThreads);
  sq::tensor::set_kernel_threads(o.threads);

  const auto origin = Clock::now();
  const Inputs in = make_inputs(*w, o.seed);
  Tracer tr(origin);

  // Set-up alone, repeated after every operation.  One set-up takes well
  // under a millisecond and the host's speed shifts from second to second,
  // so the samples are spread over the whole run.
  std::vector<double> setup_only;
  auto sample_setup = [&]() {
    for (int i = 0; i < kSetupRepsPerOp; ++i) {
      clear_process_caches();
      const auto t0 = Clock::now();
      const SetUp ss = set_up(in, tr, -1);
      setup_only.push_back(since(t0));
    }
  };

  // Warm-up: a process's first operation plans and prepares about 30%
  // slower on the ILP workload, while the heap grows and pages fault in.
  // It is checked like the others, but its timings are not reported, so
  // the figures are those of a process past its first operation, not of a
  // fresh one.
  std::vector<OpResult> ops;
  ops.push_back(run_op(*w, in, o, tr, 0, Kind::kWarmup, false));
  sample_setup();

  // Closed loop.  Another operation starts only when it is expected to end
  // inside the window; at least one runs (two, one of each kind, when
  // tracing).
  const auto loop_t0 = Clock::now();
  const int need = o.trace ? 2 : 1;
  int timed = 0, timed_plain = 0;
  double longest = 0.0;
  for (int op = static_cast<int>(ops.size());; ++op) {
    const bool traced = o.trace && timed % 2 == 1;
    ops.push_back(run_op(*w, in, o, tr, op, Kind::kTimed, traced));
    sample_setup();
    longest = std::max(longest, ops.back().pipeline_s);
    ++timed;
    if (!traced) ++timed_plain;
    if (timed >= need && since(loop_t0) + longest > o.seconds) break;
  }
  // Top up prep and serve samples where operations are long (plan-ilp).
  if (!o.trace && ops[0].failures.empty()) {
    for (int op = static_cast<int>(ops.size()); timed_plain < kMinPhaseSamples;
         ++op, ++timed_plain) {
      ops.push_back(run_op(*w, in, o, tr, op, Kind::kTopUp, false, &ops[0].plan));
      sample_setup();
    }
  }

  // Cross-operation checks against operation 0: identical plan, node count
  // and serving stats.
  int failed = 0;
  std::vector<std::string> notes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpResult& r = ops[i];
    const OpResult& first = ops[0];
    if (i > 0 && r.failures.empty() && first.failures.empty()) {
      if (r.plan_text != first.plan_text) r.failures.push_back("plan differs");
      if (r.ilp_nodes != first.ilp_nodes) r.failures.push_back("ILP nodes differ");
      if (r.stats_digest != first.stats_digest) {
        r.failures.push_back("serving stats differ");
      }
    }
    if (!r.failures.empty()) ++failed;
    for (const auto& f : r.failures) {
      notes.push_back("op " + std::to_string(i) + ": " + f);
    }
  }

  if (o.trace) {
    const std::string path = o.trace_dir + "/trace-" + w->name + "-seed" +
                             std::to_string(o.seed) + ".json";
    if (!write_trace(tr, path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  // ---- Raw samples as one JSON object.
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"threads\": %d, ",
              w->name.c_str(), o.seed, o.threads);
  std::printf("\"attempted\": %zu, \"failed\": %d, \"peak_rss_mb\": %.17g, ",
              ops.size(), failed, peak_rss_mb());
  std::printf("\"setup_only_s\": [");
  for (std::size_t i = 0; i < setup_only.size(); ++i) {
    std::printf("%s%.17g", i ? ", " : "", setup_only[i]);
  }
  std::printf("], \"failures\": [");
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(notes[i]).c_str());
  }
  std::printf("], \"ops\": [");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = ops[i];
    std::printf(
        "%s{\"kind\": \"%s\", \"traced\": %s, \"ok\": %s, \"setup_s\": %.17g, "
        "\"plan_s\": %.17g, \"prep_s\": %.17g, \"serve_s\": %.17g, "
        "\"pipeline_s\": %.17g, \"plan_cpu_s\": %.17g, \"prep_cpu_s\": %.17g, "
        "\"serve_cpu_s\": %.17g, \"pipeline_cpu_s\": %.17g, "
        "\"plan\": \"%s\", \"ilp_solves\": %d, \"ilp_nodes\": %d, "
        "\"goodput_tok_s\": %.17g, \"latency_p50_s\": %.17g, "
        "\"latency_p99_s\": %.17g, \"est_ppl\": %.17g, "
        "\"tokens_per_dollar\": %.17g, \"submitted\": %" PRIu64
        ", \"completed\": %" PRIu64 ", \"lost\": %" PRIu64
        ", \"in_flight\": %" PRIu64 ", \"layers\": {",
        i ? ", " : "", to_string(r.kind), r.traced ? "true" : "false",
        r.failures.empty() ? "true" : "false", r.setup_s, r.plan_s, r.prep_s,
        r.serve_s, r.pipeline_s, r.plan_cpu_s, r.prep_cpu_s, r.serve_cpu_s,
        r.pipeline_cpu_s, json_escape(r.plan_summary).c_str(),
        r.ilp_solves, r.ilp_nodes, r.goodput_tok_s, r.latency_p50_s,
        r.latency_p99_s, r.est_ppl, r.tokens_per_dollar, r.submitted,
        r.completed, r.lost, r.in_flight);
    bool first = true;
    for (const auto& [k, v] : r.layers) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
      first = false;
    }
    std::printf("}}");
  }
  std::printf("]}\n");
  return 0;
}
