// Continuous-batching bench: request-level goodput of the iteration-level
// RequestScheduler vs whole-batch padded serving on a bursty,
// length-skewed arrival timeline.
//
// Both sides serve the same seeded arrivals on the same (cluster, plan):
//
//   * Whole-batch baseline: requests are grouped, in arrival order, into
//     consecutive batches of B, padded to the group's longest prompt and
//     generation, and served wave-by-wave (OfflineEngine::serve).  A batch
//     cannot start before its last member has arrived — the whole-batch
//     model has no admission below batch granularity — so bursty arrivals
//     leave the pipeline idle and length skew pays for padding tokens no
//     request asked for.  Goodput counts only the tokens requests actually
//     wanted, over the instant the last batch drains.
//   * Continuous: OfflineEngine::serve_continuous admits per iteration
//     against the paged KV allocator and interleaves prefill/decode under
//     the plan's eta/xi, so requests start the moment they arrive and KV
//     room allows, and nobody generates padding.
//
// The bench hard-asserts two contracts (nonzero exit on violation):
//   * continuous goodput is at least 1.2x the whole-batch baseline on
//     this workload — the reason request-level scheduling exists;
//   * RequestStats are bit-identical between 1 and 4 scheduler threads —
//     the scheduler determinism contract, enforced on the bench workload.
//
// SQ_BENCH_SMOKE=1 shrinks the timeline with an identical output schema;
// SQ_BENCH_JSON_DIR=<dir> emits BENCH_continuous_batching.json
// (`*_goodput_tok_s` and `continuous_speedup_x` gated as throughput
// floors, `plan_fingerprint` gated byte-identical).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/arrivals.h"

namespace {

sq::hw::Cluster two_v100() {
  sq::hw::Node n;
  n.name = "node-v100";
  n.gpu_type = sq::hw::GpuType::kV100;
  n.gpu_count = 2;
  n.intra_gbps = 300.0;
  return sq::hw::Cluster("2xV100", {n}, 800.0);
}

/// Fixed two-stage int8 plan: the bench measures the serving policy, not
/// the planner, so the plan is pinned (and fingerprinted in the JSON).
sq::sim::ExecutionPlan bench_plan(const sq::model::LlmSpec& m) {
  sq::sim::ExecutionPlan p;
  const int half = m.n_layers / 2;
  p.stages.push_back({{0}, 0, half});
  p.stages.push_back({{1}, half, m.n_layers});
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers),
                      sq::hw::Bitwidth::kInt8);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  p.scheme = "pinned-int8";
  return p;
}

/// Whole-batch padded serving of the same arrival timeline: consecutive
/// arrival-ordered groups of `batch`, each padded to its longest member,
/// each gated on its latest arrival.  Returns goodput (useful tokens over
/// the drain instant of the last batch).
struct BatchBaseline {
  bool feasible = true;
  std::string failure;
  double goodput_tok_s = 0.0;
  double useful_tokens = 0.0;
  double padded_tokens = 0.0;
  double end_s = 0.0;
  std::uint64_t batches = 0;
};

BatchBaseline serve_whole_batch(
    const sq::runtime::OfflineEngine& eng,
    const std::vector<sq::workload::TimedRequest>& arrivals,
    std::uint64_t batch) {
  BatchBaseline out;
  std::vector<sq::workload::TimedRequest> sorted = arrivals;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const sq::workload::TimedRequest& a,
                      const sq::workload::TimedRequest& b) {
                     return a.arrive_s < b.arrive_s;
                   });
  double clock_s = 0.0;
  for (std::size_t i = 0; i < sorted.size(); i += batch) {
    const std::size_t n = std::min(batch, sorted.size() - i);
    sq::sim::BatchWorkload w;
    w.batch_size = n;
    w.prompt_len = 1;
    w.gen_tokens = 1;
    double latest_arrive = 0.0;
    for (std::size_t j = i; j < i + n; ++j) {
      w.prompt_len = std::max(w.prompt_len, sorted[j].request.prompt_tokens);
      w.gen_tokens = std::max(w.gen_tokens, sorted[j].request.output_tokens);
      latest_arrive = std::max(latest_arrive, sorted[j].arrive_s);
      out.useful_tokens += static_cast<double>(sorted[j].request.output_tokens);
    }
    const auto stats = eng.serve({w}).serve;
    if (!stats.feasible) {
      out.feasible = false;
      out.failure = stats.failure;
      return out;
    }
    out.padded_tokens += stats.output_tokens;
    clock_s = std::max(clock_s, latest_arrive) + stats.total_seconds;
    ++out.batches;
  }
  out.end_s = clock_s;
  out.goodput_tok_s = clock_s > 0.0 ? out.useful_tokens / clock_s : 0.0;
  return out;
}

/// The scheduler determinism contract, checked field by field (exact ==,
/// no tolerance: the whole point is bit-identity).
bool stats_identical(const sq::runtime::RequestStats& a,
                     const sq::runtime::RequestStats& b) {
  if (a.feasible != b.feasible || a.completed != b.completed ||
      a.lost != b.lost || a.preemptions != b.preemptions ||
      a.admission_blocked != b.admission_blocked ||
      a.iterations != b.iterations || a.output_tokens != b.output_tokens ||
      a.total_seconds != b.total_seconds ||
      a.goodput_tok_s != b.goodput_tok_s ||
      a.mean_latency_s != b.mean_latency_s ||
      a.p50_latency_s != b.p50_latency_s ||
      a.p95_latency_s != b.p95_latency_s ||
      a.kv_peak_utilization != b.kv_peak_utilization ||
      a.events != b.events || a.requests.size() != b.requests.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const auto& x = a.requests[i];
    const auto& y = b.requests[i];
    if (x.completed != y.completed || x.admit_s != y.admit_s ||
        x.finish_s != y.finish_s || x.output_tokens != y.output_tokens ||
        x.preemptions != y.preemptions) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  sq::bench::BenchReport report("continuous_batching");
  report.meta("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  const sq::hw::Cluster cluster = two_v100();
  const auto plan = bench_plan(model);
  const sq::runtime::OfflineEngine eng(cluster, model, plan);

  // Bursty, length-skewed timeline: an opening burst, a poisson trickle,
  // a second burst.  CNN/DailyMail lengths are heavily skewed, so padded
  // groups pay for their longest member.
  const std::string spec_text =
      smoke ? "burst:12@0,poisson:16@8x2,burst:12@20"
            : "burst:32@0,poisson:48@20x2,burst:32@60";
  const auto parse = sq::workload::parse_arrival_spec(spec_text);
  if (!parse.ok) {
    std::fprintf(stderr, "FAIL: bad arrival spec: %s\n", parse.error.c_str());
    return 1;
  }
  const auto arrivals = sq::workload::generate_arrivals(
      parse.spec, sq::workload::Dataset::kCnnDailyMail, 1234);
  const std::uint64_t batch = smoke ? 8 : 16;

  report.meta("model", model.name);
  report.meta("cluster", cluster.name());
  report.meta("arrivals", spec_text);
  report.meta("requests", static_cast<std::int64_t>(arrivals.size()));
  report.meta("batch", static_cast<std::int64_t>(batch));

  sq::bench::table_banner(
      100,
      "Continuous batching vs whole-batch serving (%s on %s, %zu requests, "
      "'%s'%s)",
      model.name.c_str(), cluster.name().c_str(), arrivals.size(),
      spec_text.c_str(), smoke ? " [smoke]" : "");
  std::printf("%-22s %14s %12s %12s %12s\n", "mode", "goodput tok/s",
              "end (s)", "tokens", "padding");
  sq::bench::rule(100);

  bool ok = true;

  const BatchBaseline base = serve_whole_batch(eng, arrivals, batch);
  if (!base.feasible) {
    std::fprintf(stderr, "FAIL: whole-batch baseline infeasible: %s\n",
                 base.failure.c_str());
    return 1;
  }
  std::printf("%-22s %14.1f %12.2f %12.0f %12.0f\n", "whole-batch",
              base.goodput_tok_s, base.end_s, base.useful_tokens,
              base.padded_tokens - base.useful_tokens);

  sq::runtime::ContinuousOptions c1;
  c1.num_threads = 1;
  const auto cont = eng.serve_continuous(arrivals, c1);
  if (!cont.feasible) {
    std::fprintf(stderr, "FAIL: continuous serving infeasible: %s\n",
                 cont.failure.c_str());
    return 1;
  }
  std::printf("%-22s %14.1f %12.2f %12.0f %12.0f\n", "continuous",
              cont.goodput_tok_s, cont.total_seconds, cont.output_tokens, 0.0);

  sq::runtime::ContinuousOptions c4;
  c4.num_threads = 4;
  const auto cont4 = eng.serve_continuous(arrivals, c4);
  if (!stats_identical(cont, cont4)) {
    std::fprintf(stderr,
                 "FAIL: RequestStats differ between 1 and 4 scheduler "
                 "threads (determinism contract broken)\n");
    ok = false;
  }

  sq::bench::rule(100);
  const double speedup = sq::bench::ratio(cont.goodput_tok_s, base.goodput_tok_s);
  std::printf(
      "continuous vs whole-batch: %.2fx goodput (floor 1.20x); %llu/%zu "
      "completed, %llu preemptions, %llu blocked admissions, KV peak %.0f%%\n",
      speedup, static_cast<unsigned long long>(cont.completed),
      arrivals.size(), static_cast<unsigned long long>(cont.preemptions),
      static_cast<unsigned long long>(cont.admission_blocked),
      100.0 * cont.kv_peak_utilization);
  if (cont.completed != arrivals.size()) {
    std::fprintf(stderr, "FAIL: continuous serving completed %llu of %zu\n",
                 static_cast<unsigned long long>(cont.completed),
                 arrivals.size());
    ok = false;
  }
  if (speedup < 1.2) {
    std::fprintf(stderr,
                 "FAIL: continuous goodput %.2fx below the 1.2x floor\n",
                 speedup);
    ok = false;
  }

  auto& row = report.add_row();
  row["batch_goodput_tok_s"] = base.goodput_tok_s;
  row["continuous_goodput_tok_s"] = cont.goodput_tok_s;
  row["continuous_speedup_x"] = speedup;
  row["plan_fingerprint"] = sq::bench::plan_fingerprint(plan);
  row["completed"] = static_cast<std::int64_t>(cont.completed);
  row["preemptions"] = static_cast<std::int64_t>(cont.preemptions);  // informative
  row["admission_blocked"] =
      static_cast<std::int64_t>(cont.admission_blocked);  // informative
  row["kv_peak"] = cont.kv_peak_utilization;              // informative
  row["p95_latency_s"] = cont.p95_latency_s;              // informative
  row["batches"] = static_cast<std::int64_t>(base.batches);  // informative

  if (!report.write()) ok = false;
  return ok ? 0 : 1;
}
