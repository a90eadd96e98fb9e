// Command-line front end for the assigner: pick a model, a paper cluster
// and a workload, get a plan and (optionally) a simulated serving run.
//
//   splitquant_cli --model OPT-30B --cluster 5 --workload cnn
//                  --theta 10 --scheme splitquant --serve
//
// Flags:
//   --model <name>      registry name (default OPT-30B); see --list-models
//   --cluster <1..10>   Table III cluster id (default 5)
//   --workload <cnn|loogle|sharegpt>   (default cnn)
//   --scheme <splitquant|uniform|het|adabits>  (default splitquant)
//   --theta <float>     quality scalar (default 10)
//   --batch <n>         max concurrent requests (default 128)
//   --requests <n>      requests to sample/serve (default 256)
//   --threads <n>       planner + tensor-kernel worker threads (0 =
//                       hardware concurrency, 1 = sequential; plans and
//                       kernel results are identical either way)
//   --custom-backend    enable INT3 / custom-backend efficiency
//   --heuristic         bitwidth transfer instead of the ILP
//   --serve             run the serving simulation after planning
//   --continuous        with --serve: continuous-batching mode — serve an
//                       arrival timeline through the iteration-level
//                       request scheduler instead of whole-batch waves
//                       (with --shards, every job becomes an arrival
//                       timeline).  Composes with --faults.
//   --arrivals <spec>   arrival timeline for --continuous (default
//                       "burst:<requests>@0").  Spec grammar
//                       (comma-separated segments, times in seconds):
//                         burst:<n>@<t>        n requests together at t
//                         uniform:<n>@<t>x<r>  n requests at r req/s from t
//                         poisson:<n>@<t>x<r>  n requests, seeded
//                                              exponential gaps of mean 1/r
//                       With --shards --jobs, the spec replaces each job's
//                       request count (lengths/gaps re-seeded per job).
//   --faults <spec>     inject a deterministic fault schedule into --serve
//                       and recover via plan repair.  Spec grammar
//                       (comma-separated, times in simulated seconds):
//                         fail:<dev>@<t>         permanent device failure
//                         fail:<dev>@<t>+<d>     transient failure (retried)
//                         slow:<dev>@<t>[+<d>]x<f>   straggler, f > 1
//                         link:<dev>@<t>[+<d>]x<f>   link degradation
//                       "random:<seed>:<n>" draws <n> seeded events instead.
//   --no-repair         with --faults: disable plan repair (baseline; a
//                       permanent failure loses the remaining workload)
//   --elastic <spec>    serve under a dynamic membership timeline (requires
//                       --serve --continuous, single shard): the elastic
//                       engine re-plans on every membership change and
//                       reports tokens-per-dollar next to tokens/s.  Spec
//                       grammar (comma-separated, times in simulated
//                       seconds):
//                         join:<n>x<type>@<t>   n GPUs of <type> offered
//                                               (T4|P100|V100|A100-40G)
//                         leave:node<k>@<t>     node k leaves gracefully
//                         leave:<dev>@<t>       one device leaves
//                         price:<type>=<p>@<t>  $/device-hour repriced
//                       "random:<seed>:<n>" draws <n> seeded events instead.
//                       Composes with --faults (failures restart in-flight
//                       work; graceful leaves migrate it).
//   --migration <p>     in-flight policy at an elastic plan switch:
//                       auto|migrate|drain|restart (default auto)
//   --shards <K>        partition the cluster into K disjoint replica
//                       groups (sharded planner, src/core/sharding.h) and
//                       plan each; with --serve the jobs run through the
//                       fleet engine's deterministic multi-job scheduler.
//                       K=1 reproduces the plain planner.  Plans
//                       SplitQuant only: any other --scheme, and
//                       --load-plan, are rejected with K > 1.
//   --jobs <spec>       multi-job workload for --shards --serve:
//                       comma-separated <name>:<requests> items, each
//                       sampled independently from --workload (seeded by
//                       job position).  Default: one job per shard of
//                       --requests each.
//   --save-plan <file>  write the chosen plan to a file (with --shards,
//                       group g goes to <file>.shard<g>)
//   --load-plan <file>  skip planning, execute a previously saved plan
//   --metrics <file>    enable the observability layer and write its JSON
//                       export (planner counters, cache hit rates, serving
//                       spans on the simulated clock) to <file>; a human
//                       summary is printed to stdout.  Metrics never change
//                       the chosen plan or the serving stats.
//   --list-models       print the model registry and exit
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/spec_util.h"
#include "core/deployment.h"
#include "core/sharding.h"
#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "runtime/fleet.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/plan_io.h"
#include "hw/paper_clusters.h"
#include "tensor/gemm.h"
#include "model/registry.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "sim/faults.h"
#include "workload/arrivals.h"
#include "workload/profile.h"

namespace {

struct Args {
  std::string model = "OPT-30B";
  int cluster = 5;
  std::string workload = "cnn";
  sq::workload::Dataset dataset = sq::workload::Dataset::kCnnDailyMail;
  std::string scheme = "splitquant";
  double theta = 10.0;
  std::uint64_t batch = 128;
  int requests = 256;
  int threads = 0;
  bool custom_backend = false;
  bool heuristic = false;
  bool serve = false;
  bool continuous = false;
  std::string arrivals;
  bool list_models = false;
  std::string faults;
  bool no_repair = false;
  std::string elastic;
  std::string migration = "auto";
  int shards = 1;
  std::string jobs;
  std::string save_plan;
  std::string load_plan;
  std::string metrics;
};

/// Strict value of an integer flag: the whole text, no sign, in [lo, hi].
/// On a bad value, prints one diagnostic line and returns false.
template <class T>
bool parse_int(const char* flag, const char* text, long long lo, long long hi,
               T* out) {
  long long v = 0;
  if (!sq::common::parse_spec_uint(text, &v) || v < lo || v > hi) {
    std::fprintf(stderr, "bad %s '%s' (want an integer in %lld..%lld)\n", flag,
                 text, lo, hi);
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Strict --theta value: a finite number >= 0.  On a bad value, prints one
/// diagnostic line and returns false.
bool parse_theta(const char* text, double* out) {
  double v = 0.0;
  if (!sq::common::parse_spec_double(text, &v) || !std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr, "bad --theta '%s' (want a number >= 0)\n", text);
    return false;
  }
  *out = v;
  return true;
}

/// Parse the command line.  Every bad value is rejected here, with one
/// diagnostic line, before anything is planned.
bool parse(int argc, char** argv, Args* out) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](long long lo, long long hi, auto* dst) {
      return parse_int(a.c_str(), next(), lo, hi, dst);
    };
    bool ok = true;
    if (a == "--model") out->model = next();
    else if (a == "--cluster") ok = count(1, sq::hw::kPaperClusterCount, &out->cluster);
    else if (a == "--workload") out->workload = next();
    else if (a == "--scheme") out->scheme = next();
    else if (a == "--theta") ok = parse_theta(next(), &out->theta);
    else if (a == "--batch") ok = count(1, kIntMax, &out->batch);
    else if (a == "--requests") ok = count(1, kIntMax, &out->requests);
    else if (a == "--threads") ok = count(0, kIntMax, &out->threads);
    else if (a == "--custom-backend") out->custom_backend = true;
    else if (a == "--heuristic") out->heuristic = true;
    else if (a == "--serve") out->serve = true;
    else if (a == "--continuous") out->continuous = true;
    else if (a == "--arrivals") out->arrivals = next();
    else if (a == "--faults") out->faults = next();
    else if (a == "--no-repair") out->no_repair = true;
    else if (a == "--elastic") out->elastic = next();
    else if (a == "--migration") out->migration = next();
    else if (a == "--shards") ok = count(1, kIntMax, &out->shards);
    else if (a == "--jobs") out->jobs = next();
    else if (a == "--save-plan") out->save_plan = next();
    else if (a == "--load-plan") out->load_plan = next();
    else if (a == "--metrics") out->metrics = next();
    else if (a == "--list-models") out->list_models = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (out->scheme != "splitquant" && out->scheme != "uniform" &&
      out->scheme != "het" && out->scheme != "adabits") {
    std::fprintf(stderr, "bad --scheme '%s' (want splitquant|uniform|het|adabits)\n",
                 out->scheme.c_str());
    return false;
  }
  if (out->workload == "cnn") out->dataset = sq::workload::Dataset::kCnnDailyMail;
  else if (out->workload == "loogle") out->dataset = sq::workload::Dataset::kLoogle;
  else if (out->workload == "sharegpt") out->dataset = sq::workload::Dataset::kShareGpt;
  else {
    std::fprintf(stderr, "bad --workload '%s' (want cnn|loogle|sharegpt)\n",
                 out->workload.c_str());
    return false;
  }
  return true;
}

/// The "serve:" and "requests:" lines of a continuous run.
void print_request_stats(const sq::runtime::RequestStats& rs) {
  std::printf("serve:    %.1f tok/s goodput (%.0f tokens in %.1fs, "
              "%llu iterations)\n",
              rs.goodput_tok_s, rs.output_tokens, rs.total_seconds,
              static_cast<unsigned long long>(rs.iterations));
  std::printf("requests: %llu/%llu completed, %llu lost, %llu preemptions, "
              "%llu blocked admissions\n",
              static_cast<unsigned long long>(rs.completed),
              static_cast<unsigned long long>(rs.submitted),
              static_cast<unsigned long long>(rs.lost),
              static_cast<unsigned long long>(rs.preemptions),
              static_cast<unsigned long long>(rs.admission_blocked));
}

/// Echo a run's event log; when the run failed structurally, also the
/// "serve: FAILED" line.  Returns false in that case (exit code 1).
bool print_events(const std::vector<std::string>& events, bool feasible,
                  const std::string& failure) {
  for (const auto& e : events) std::printf("event:    %s\n", e.c_str());
  if (!feasible) std::printf("serve:    FAILED — %s\n", failure.c_str());
  return feasible;
}

/// Finish a "recovery:" line with the repair counts of a run under faults
/// (RecoveryStats or RequestStats).
template <class Stats>
void print_repair_counts(const Stats& s) {
  std::printf("%llu faults, %llu retries, %llu/%llu repairs, generation %d\n",
              static_cast<unsigned long long>(s.faults_hit),
              static_cast<unsigned long long>(s.retries),
              static_cast<unsigned long long>(s.repairs_succeeded),
              static_cast<unsigned long long>(s.repairs_attempted),
              s.final_generation);
}

/// After a repair, the plan serving ended on, over the cluster it ended on.
template <class Stats>
void print_repaired_plan(const Stats& s) {
  if (s.final_generation == 0) return;
  std::printf("plan':    %s\n", s.final_plan.summary(s.final_cluster).c_str());
}

/// Parse --faults into a schedule and echo it on a "faults:" line (0 = ok
/// or no --faults, 2 = bad spec, diagnostics on stderr).  Shared by every
/// serving path.
int parse_faults(const Args& args, int device_count,
                 sq::sim::FaultSchedule* out) {
  const std::string& spec = args.faults;
  if (spec.empty()) return 0;
  if (spec.rfind("random:", 0) == 0) {
    unsigned long seed = 0, n = 4;
    if (std::sscanf(spec.c_str(), "random:%lu:%lu", &seed, &n) < 1) {
      std::fprintf(stderr, "bad --faults random spec (want random:<seed>:<n>)\n");
      return 2;
    }
    *out = sq::sim::random_fault_schedule(seed, device_count, 60.0,
                                          static_cast<int>(n));
  } else {
    const sq::sim::FaultParse fp = sq::sim::parse_fault_spec(spec);
    if (!fp.ok) {
      std::fprintf(stderr, "bad --faults spec: %s\n", fp.error.c_str());
      return 2;
    }
    *out = fp.schedule;
  }
  std::printf("faults:   %s\n", out->empty() ? "(none)" : out->to_spec().c_str());
  return 0;
}

/// Parse --elastic into a membership timeline (0 = ok, 2 = bad spec).
int parse_elastic(const std::string& spec,
                  sq::elastic::MembershipTimeline* out) {
  if (spec.rfind("random:", 0) == 0) {
    unsigned long seed = 0, n = 4;
    if (std::sscanf(spec.c_str(), "random:%lu:%lu", &seed, &n) < 1) {
      std::fprintf(stderr,
                   "bad --elastic random spec (want random:<seed>:<n>)\n");
      return 2;
    }
    *out = sq::elastic::random_membership(seed, 120.0, static_cast<int>(n));
    return 0;
  }
  const sq::elastic::MembershipParse mp =
      sq::elastic::parse_membership_spec(spec);
  if (!mp.ok) {
    std::fprintf(stderr, "bad --elastic spec: %s\n", mp.error.c_str());
    return 2;
  }
  *out = mp.timeline;
  return 0;
}

/// Resolve the --arrivals spec (default: one burst of `default_requests`
/// at t=0).  Returns 0 and fills `out`, or 2 with a one-line diagnostic.
int parse_arrivals(const Args& args, std::uint64_t default_requests,
                   sq::workload::ArrivalSpec* out) {
  if (args.arrivals.empty()) {
    out->segments.push_back({sq::workload::ArrivalSegment::Kind::kBurst,
                             std::max<std::uint64_t>(1, default_requests), 0.0,
                             0.0});
    return 0;
  }
  const sq::workload::ArrivalParse ap =
      sq::workload::parse_arrival_spec(args.arrivals);
  if (!ap.ok) {
    std::fprintf(stderr, "bad --arrivals spec: %s\n", ap.error.c_str());
    return 2;
  }
  if (ap.spec.empty()) {
    std::fprintf(stderr, "--arrivals spec has no segments\n");
    return 2;
  }
  *out = ap.spec;
  return 0;
}

/// Build the --jobs workload: "<name>:<requests>,..." items, each sampled
/// independently (seed varies by position so jobs differ); an empty spec
/// defaults to one job of `args.requests` per shard.  With --continuous
/// every job becomes an arrival timeline instead of a batch list.
int parse_jobs(const Args& args, const sq::model::LlmSpec& m,
               std::vector<sq::runtime::FleetJob>* out) {
  std::vector<sq::runtime::JobSpecItem> items;
  if (args.jobs.empty()) {
    for (int i = 0; i < args.shards; ++i) {
      items.push_back({"job-" + std::to_string(i),
                       static_cast<std::uint64_t>(std::max(1, args.requests))});
    }
  } else {
    const sq::runtime::JobsParse jp = sq::runtime::parse_jobs_spec(args.jobs);
    if (!jp.ok) {
      std::fprintf(stderr, "%s\n", jp.error.c_str());
      return 2;
    }
    if (jp.items.empty()) {
      std::fprintf(stderr, "--jobs spec has no jobs\n");
      return 2;
    }
    items = jp.items;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    sq::runtime::FleetJob job;
    job.name = items[i].name;
    if (args.continuous) {
      sq::workload::ArrivalSpec spec;
      if (const int rc = parse_arrivals(args, items[i].requests, &spec)) {
        return rc;
      }
      job.arrivals = sq::workload::generate_arrivals(
          spec, args.dataset, 1234 + i);
    } else {
      const auto reqs =
          sq::workload::sample(args.dataset,
                               static_cast<int>(items[i].requests), 1234 + i);
      job.batches = sq::workload::make_batches(reqs, m, args.batch);
    }
    out->push_back(std::move(job));
  }
  return 0;
}

/// Export --metrics if requested (0 = ok, 2 = cannot write).
int export_metrics(const Args& args) {
  if (args.metrics.empty()) return 0;
  const sq::obs::Snapshot snap = sq::obs::Registry::global().snapshot();
  std::ofstream mout(args.metrics);
  if (!mout) {
    std::fprintf(stderr, "cannot write %s\n", args.metrics.c_str());
    return 2;
  }
  sq::obs::write_metrics_json(snap, mout);
  std::printf("metrics:  %s (%zu counters, %zu gauges, %zu histograms, "
              "%zu spans)\n",
              args.metrics.c_str(), snap.counters.size(), snap.gauges.size(),
              snap.histograms.size(), snap.spans.size());
  sq::obs::write_metrics_summary(snap, std::cout);
  return 0;
}

/// The --shards path: sharded planning, then (with --serve) multi-job
/// fleet serving.  Returns the process exit code.
int run_sharded(const Args& args, sq::core::Deployment& deployment,
                const sq::core::PlannerConfig& cfg) {
  namespace core = sq::core;
  namespace runtime = sq::runtime;
  const sq::model::LlmSpec& m = deployment.model();

  core::ShardingConfig scfg;
  scfg.num_shards = args.shards;
  scfg.planner = cfg;
  const core::ShardPlanResult sres = core::plan_sharded(deployment, scfg);

  if (!sres.feasible) {
    std::printf("result:   INFEASIBLE — %s\n", sres.failure.c_str());
    return 1;
  }
  std::printf("shards:   %zu groups [%s], predicted %.1f tok/s aggregate "
              "(solve %.2fs, %d/%d partitions feasible)\n",
              sres.groups.size(), sres.partition.c_str(),
              sres.total_predicted_tok_s, sres.solve_seconds,
              sres.partitions_feasible, sres.partitions_enumerated);
  for (std::size_t g = 0; g < sres.groups.size(); ++g) {
    const auto& rg = sres.groups[g];
    std::printf("group %zu:  %s | %s | %.1f tok/s predicted\n", g,
                rg.cluster.summary().c_str(),
                rg.plan.summary(rg.cluster).c_str(), rg.predicted_tok_s);
  }
  if (!args.save_plan.empty()) {
    for (std::size_t g = 0; g < sres.groups.size(); ++g) {
      const std::string path = args.save_plan + ".shard" + std::to_string(g);
      std::ofstream outf(path);
      if (!outf || !sq::sim::save_plan(sres.groups[g].plan, outf)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 2;
      }
      std::printf("saved:    %s\n", path.c_str());
    }
  }
  if (!args.serve) return 0;

  std::vector<runtime::FleetJob> jobs;
  if (const int rc = parse_jobs(args, m, &jobs)) return rc;

  sq::sim::FaultSchedule schedule;
  if (const int rc = parse_faults(args, deployment.cluster().device_count(),
                                  &schedule)) {
    return rc;
  }

  runtime::FleetEngine fleet(m, sres.groups,
                             args.custom_backend ? runtime::Backend::kCustom
                                                 : runtime::Backend::kVllmStyle);
  fleet.set_observe(!args.metrics.empty());
  runtime::FleetOptions fopts;
  fopts.num_threads = args.threads;
  if (!schedule.empty()) fopts.faults = &schedule;
  if (!args.faults.empty() && !args.no_repair) {
    fopts.replan = deployment.replanner(cfg);
  }
  const runtime::FleetStats fs = fleet.serve(jobs, fopts);
  if (!print_events(fs.events, fs.feasible, fs.failure)) return 1;
  for (const auto& out : fs.jobs) {
    if (out.group < 0) {
      std::printf("job %-8s %s\n", (out.job + ":").c_str(), out.failure.c_str());
    } else {
      std::printf("job %-8s group %d [%.1fs .. %.1fs] %.0f tokens%s%s\n",
                  (out.job + ":").c_str(), out.group, out.start_s, out.end_s,
                  out.output_tokens(), out.completed ? "" : " FAILED: ",
                  out.completed ? "" : out.failure.c_str());
    }
  }
  std::printf("fleet:    %.1f tok/s aggregate (%.0f tokens, makespan %.1fs); "
              "%llu/%zu jobs completed, %llu rejected, %llu reassigned; "
              "%llu groups retired, %llu faults, %llu repairs\n",
              fs.aggregate_tok_s, fs.output_tokens, fs.makespan_s,
              static_cast<unsigned long long>(fs.jobs_completed), fs.jobs.size(),
              static_cast<unsigned long long>(fs.jobs_rejected),
              static_cast<unsigned long long>(fs.jobs_reassigned),
              static_cast<unsigned long long>(fs.groups_retired),
              static_cast<unsigned long long>(fs.faults_hit),
              static_cast<unsigned long long>(fs.repairs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sq;
  Args args;
  if (!parse(argc, argv, &args)) return 2;
  if (args.continuous && !args.serve) {
    std::fprintf(stderr, "--continuous requires --serve\n");
    return 2;
  }
  if (!args.arrivals.empty() && !args.continuous) {
    std::fprintf(stderr, "--arrivals requires --continuous\n");
    return 2;
  }
  if (!args.elastic.empty() && (!args.serve || !args.continuous)) {
    std::fprintf(stderr, "--elastic requires --serve --continuous\n");
    return 2;
  }
  if (!args.elastic.empty() && args.shards != 1) {
    std::fprintf(stderr, "--elastic requires a single shard\n");
    return 2;
  }
  if (args.shards > 1 && !args.load_plan.empty()) {
    std::fprintf(stderr, "--load-plan is not supported with --shards\n");
    return 2;
  }
  if (args.shards > 1 && args.scheme != "splitquant") {
    std::fprintf(stderr, "--scheme %s is not supported with --shards\n",
                 args.scheme.c_str());
    return 2;
  }
  elastic::MigrationPolicy migration = elastic::MigrationPolicy::kAuto;
  if (!elastic::migration_policy_from_string(args.migration, &migration)) {
    std::fprintf(stderr,
                 "bad --migration '%s' (want auto|migrate|drain|restart)\n",
                 args.migration.c_str());
    return 2;
  }
  elastic::MembershipTimeline elastic_timeline;
  if (!args.elastic.empty()) {
    // Parse up front so a malformed spec fails fast, before planning.
    if (const int rc = parse_elastic(args.elastic, &elastic_timeline)) {
      return rc;
    }
  }

  if (args.list_models) {
    for (const auto id : model::all_models()) {
      const auto m = model::spec(id);
      std::printf("%-26s %6.1fB params, %3d layers, ctx %llu\n", m.name.c_str(),
                  static_cast<double>(m.total_params()) / 1e9, m.n_layers,
                  static_cast<unsigned long long>(m.pos_s));
    }
    return 0;
  }

  model::LlmSpec m;
  try {
    m = model::spec_by_name(args.model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s (try --list-models)\n", e.what());
    return 2;
  }
  const hw::Cluster cluster = hw::paper_cluster(args.cluster);

  if (!args.metrics.empty()) obs::set_enabled(true);

  const auto requests =
      workload::sample(args.dataset, args.requests, 1234);
  const auto profile = workload::make_profile(requests, args.batch);

  core::Deployment deployment(m, cluster, profile.planning_batch(m));

  core::PlannerConfig cfg;
  cfg.theta = args.theta;
  cfg.custom_backend = args.custom_backend;
  cfg.use_heuristic = args.heuristic;
  cfg.num_threads = args.threads;
  // Same knob drives the blocked GEMM kernels (results are bit-identical
  // at every thread count; see src/tensor/gemm.h).
  tensor::set_kernel_threads(args.threads);

  if (args.shards > 1) {
    std::printf("model:    %s on %s\n", m.name.c_str(), cluster.summary().c_str());
    std::printf("workload: %s, %d requests, batch %llu (prompt p90 %.0f, "
                "out mean %.0f)\n",
                args.workload.c_str(), args.requests,
                static_cast<unsigned long long>(args.batch), profile.p90_prompt,
                profile.mean_output);
    const int rc = run_sharded(args, deployment, cfg);
    if (rc != 0) return rc;
    return export_metrics(args);
  }

  core::PlanResult r;
  if (!args.load_plan.empty()) {
    std::ifstream in(args.load_plan);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.load_plan.c_str());
      return 2;
    }
    const sim::LoadResult loaded = sim::load_plan(in);
    if (!loaded.ok) {
      std::fprintf(stderr, "bad plan file: %s\n", loaded.error.c_str());
      return 2;
    }
    const std::string err = loaded.plan.validate(m, cluster);
    if (!err.empty()) {
      std::fprintf(stderr, "plan does not fit this model/cluster: %s\n",
                   err.c_str());
      return 2;
    }
    r.feasible = true;
    r.plan = loaded.plan;
    r.planned_batch = args.batch;
    const quality::QualityEstimate q =
        deployment.quality().estimate(r.plan.layer_bits);
    r.est_ppl = q.ppl;
    r.est_accuracy = q.accuracy;
    r.topology = "(loaded)";
  } else if (args.scheme == "uniform") r = deployment.planner().plan_uniform(cfg);
  else if (args.scheme == "het") r = deployment.planner().plan_het(cfg);
  else if (args.scheme == "adabits") r = deployment.planner().plan_adabits(cfg);
  else r = deployment.planner().plan(cfg);

  if (r.feasible && !args.save_plan.empty()) {
    std::ofstream outf(args.save_plan);
    if (!outf || !sim::save_plan(r.plan, outf)) {
      std::fprintf(stderr, "failed to write %s\n", args.save_plan.c_str());
      return 2;
    }
    std::printf("saved:    %s\n", args.save_plan.c_str());
  }

  std::printf("model:    %s on %s\n", m.name.c_str(), cluster.summary().c_str());
  std::printf("workload: %s, %d requests, batch %llu (prompt p90 %.0f, out mean %.0f)\n",
              args.workload.c_str(), args.requests,
              static_cast<unsigned long long>(args.batch), profile.p90_prompt,
              profile.mean_output);
  if (!r.feasible) {
    std::printf("result:   INFEASIBLE — %s\n", r.failure.c_str());
    return 1;
  }
  std::printf("scheme:   %s (solve %.2fs, %d ILP solves, %d nodes)\n",
              r.plan.scheme.c_str(), r.solve_seconds, r.ilp_solves, r.ilp_nodes);
  if (r.ilp_truncated > 0) {
    std::fprintf(stderr,
                 "warning: %d of %d ILP solves hit the time/node cap before "
                 "proving optimality; the plan may differ on a faster or slower host\n",
                 r.ilp_truncated, r.ilp_solves);
  }
  std::printf("plan:     %s\n", r.plan.summary(cluster).c_str());
  std::printf("topology: %s, planned concurrency %llu\n", r.topology.c_str(),
              static_cast<unsigned long long>(r.planned_batch));
  std::printf("quality:  est PPL %.3f (base %.3f), est accuracy %.1f%%\n", r.est_ppl,
              deployment.quality().base_ppl(), r.est_accuracy);

  const runtime::Backend backend = args.custom_backend
                                      ? runtime::Backend::kCustom
                                      : runtime::Backend::kVllmStyle;
  if (!args.serve) return export_metrics(args);
  // The parsed --faults schedule, repaired by plan repair unless
  // --no-repair.
  sim::FaultSchedule schedule;
  const auto recovery_options = [&] {
    runtime::RecoveryOptions ropts;
    if (!schedule.empty()) ropts.faults = &schedule;
    if (!args.faults.empty() && !args.no_repair) {
      ropts.replan = deployment.replanner(cfg);
    }
    return ropts;
  };

  if (args.continuous) {
    // Continuous-batching serving: iteration-level admission over an
    // arrival timeline (fault-tolerant when --faults is given).
    workload::ArrivalSpec aspec;
    if (const int rc = parse_arrivals(
            args, static_cast<std::uint64_t>(std::max(1, args.requests)),
            &aspec)) {
      return rc;
    }
    const auto arrivals =
        workload::generate_arrivals(aspec, args.dataset, 1234);
    std::printf("arrivals: %s (%llu requests)\n", aspec.to_spec().c_str(),
                static_cast<unsigned long long>(arrivals.size()));

    if (!args.elastic.empty()) {
      // Elastic serving: membership timeline + price-aware autoscaling +
      // live migration, layered over the same continuous scheduler.
      const elastic::MembershipTimeline& timeline = elastic_timeline;
      std::printf("elastic:  %s (migration %s)\n",
                  timeline.empty() ? "(empty)" : timeline.to_spec().c_str(),
                  elastic::to_string(migration));
      if (const int rc = parse_faults(args, cluster.device_count(), &schedule)) {
        return rc;
      }

      elastic::ElasticFleetEngine engine(
          m, {{cluster, {}, r.plan, r.predicted_throughput}}, backend);
      engine.set_observe(!args.metrics.empty());

      elastic::ElasticOptions eopts;
      eopts.timeline = &timeline;
      eopts.migration = migration;
      eopts.replan = deployment.replanner(cfg);
      eopts.fleet.num_threads = args.threads;
      const runtime::RecoveryOptions ropts = recovery_options();
      eopts.fleet.faults = ropts.faults;
      eopts.fleet.replan = ropts.replan;

      const elastic::ElasticStats es =
          engine.serve({{"job-0", {}, arrivals}}, eopts);
      if (!print_events(es.events, es.feasible, es.failure)) return 1;
      // The job's own log: fault, retry, repair and loss lines.
      const runtime::RequestStats& job = es.fleet.jobs[0].continuous;
      print_events(job.events, true, "");
      print_request_stats(job);
      std::printf("elastic:  %llu events; joins %llu/%llu accepted, "
                  "%llu leaves, %llu repriced, %llu scale-downs; "
                  "%llu replans\n",
                  static_cast<unsigned long long>(es.events_applied),
                  static_cast<unsigned long long>(es.joins_accepted),
                  static_cast<unsigned long long>(es.joins_offered),
                  static_cast<unsigned long long>(es.leaves),
                  static_cast<unsigned long long>(es.price_events),
                  static_cast<unsigned long long>(es.scale_downs),
                  static_cast<unsigned long long>(es.replans));
      std::printf("inflight: %llu migrated (%.1f MB KV in %.2fs), "
                  "%llu drained, %llu restarted\n",
                  static_cast<unsigned long long>(es.migrations),
                  es.migrated_kv_bytes / 1e6, es.migration_s,
                  static_cast<unsigned long long>(es.drains),
                  static_cast<unsigned long long>(es.restarts));
      std::printf("cost:     $%.4f over %.1f device-hours -> %.0f tokens/$\n",
                  es.dollars, es.device_seconds / 3600.0,
                  es.tokens_per_dollar);
      return export_metrics(args);
    }

    if (const int rc = parse_faults(args, cluster.device_count(), &schedule)) {
      return rc;
    }
    runtime::OfflineEngine engine(cluster, m, r.plan, backend);
    engine.set_observe(!args.metrics.empty());
    const runtime::RequestStats rs =
        engine.serve_continuous(arrivals, {}, recovery_options());
    if (!print_events(rs.events, rs.feasible, rs.failure)) return 1;
    print_request_stats(rs);
    std::printf("latency:  mean %.2fs, p50 %.2fs, p95 %.2fs; queue mean "
                "%.2fs; KV peak %.0f%%\n",
                rs.mean_latency_s, rs.p50_latency_s, rs.p95_latency_s,
                rs.mean_queue_s, 100.0 * rs.kv_peak_utilization);
    if (!rs.failure.empty()) std::printf("          degraded: %s\n", rs.failure.c_str());
    if (rs.final_generation > 0) {
      std::printf("recovery: ");
      print_repair_counts(rs);
      print_repaired_plan(rs);
    }
    return export_metrics(args);
  }

  // Batch serving; with --faults, inject the schedule and repair on
  // failures.
  if (const int rc = parse_faults(args, cluster.device_count(), &schedule)) {
    return rc;
  }
  runtime::OfflineEngine engine(cluster, m, r.plan, backend);
  engine.set_observe(!args.metrics.empty());
  const auto rec =
      engine.serve_requests(requests, args.batch, recovery_options());
  if (!print_events(rec.events, rec.serve.feasible, rec.serve.failure)) {
    return 1;
  }
  if (args.faults.empty()) {
    std::printf("serve:    %.1f tok/s (%.0f tokens in %.1fs, %llu waves, "
                "%.0f%% idle)\n",
                rec.serve.throughput_tok_s, rec.serve.output_tokens,
                rec.serve.total_seconds,
                static_cast<unsigned long long>(rec.serve.waves),
                100.0 * rec.serve.mean_bubble);
    return export_metrics(args);
  }
  std::printf("serve:    %.1f tok/s productive (%.0f tokens in %.1fs, "
              "%llu waves)\n",
              rec.serve.throughput_tok_s, rec.serve.output_tokens,
              rec.serve.total_seconds,
              static_cast<unsigned long long>(rec.serve.waves));
  std::printf("recovery: %.1f tok/s goodput over %.1fs wall; ",
              rec.goodput_tok_s, rec.wall_seconds);
  print_repair_counts(rec);
  std::printf("          lost %.2fs, backoff %.2fs, replanning %.2fs "
              "(wall %.2fs); %llu requests lost\n",
              rec.lost_us * 1e-6, rec.backoff_us * 1e-6, rec.replan_us * 1e-6,
              rec.replan_wall_s,
              static_cast<unsigned long long>(rec.lost_requests));
  if (!rec.serve.failure.empty()) {
    std::printf("          degraded: %s\n", rec.serve.failure.c_str());
  }
  print_repaired_plan(rec);
  return export_metrics(args);
}
