// Shared plumbing for the experiment-reproduction benches: plan with every
// scheme, serve the workload, print aligned table rows, and optionally emit
// a machine-readable BENCH_<name>.json for the CI regression gate.
#pragma once

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/planner.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "obs/export.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "sim/plan_io.h"
#include "workload/profile.h"

namespace sq::bench {

inline const std::vector<sq::hw::Bitwidth>& all_bits() {
  static const std::vector<sq::hw::Bitwidth> bits = {
      sq::hw::Bitwidth::kFp16, sq::hw::Bitwidth::kInt8, sq::hw::Bitwidth::kInt4,
      sq::hw::Bitwidth::kInt3};
  return bits;
}

/// Bundles everything needed to plan and serve one (cluster, model,
/// workload) experiment cell.
struct Cell {
  sq::model::LlmSpec model;
  sq::hw::Cluster cluster;
  std::vector<sq::workload::Request> requests;
  sq::sim::BatchWorkload planning;
  sq::cost::LatencyCostModel latency;
  sq::quality::QualityModel quality;
  sq::core::Planner planner;
  std::uint64_t serve_batch;

  Cell(sq::model::ModelId id, int cluster_id,
       const std::vector<sq::workload::Request>& reqs, std::uint64_t batch,
       std::uint64_t chunk = 2048)
      : model(sq::model::spec(id)),
        cluster(sq::hw::paper_cluster(cluster_id)),
        requests(reqs),
        planning(sq::workload::make_profile(reqs, batch, chunk).planning_batch(model)),
        latency(model),
        quality(model, all_bits()),
        planner((sq::core::Planner::profile_all(latency, cluster, all_bits()),
                 model),
                cluster, planning, latency, quality),
        serve_batch(batch) {}

  /// Measured (simulated) throughput of a plan over the cell's requests;
  /// 0 when infeasible (OOM).
  double serve(const sq::sim::ExecutionPlan& plan,
               sq::runtime::Backend backend = sq::runtime::Backend::kVllmStyle) const {
    const sq::runtime::OfflineEngine eng(cluster, model, plan, backend);
    const auto stats = eng.serve_requests(requests, serve_batch).serve;
    return stats.feasible ? stats.throughput_tok_s : 0.0;
  }
};

/// Planner worker threads for the benches: SQ_THREADS env var if set,
/// otherwise 0 (hardware concurrency).  The chosen plans are identical for
/// every thread count, so this only moves wall-clock time.
inline int bench_threads() {
  const char* env = std::getenv("SQ_THREADS");
  return env != nullptr ? std::atoi(env) : 0;
}

/// CI smoke mode: SQ_BENCH_SMOKE=1 shrinks each bench (fewer cases, fewer
/// requests) while keeping the output schema identical, so the bench-smoke
/// job finishes in seconds and its JSON can be diffed against a committed
/// baseline produced the same way.
inline bool bench_smoke() {
  const char* env = std::getenv("SQ_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Default planner knobs used across benches (fast enough for the sweep;
/// Table VI raises the limits deliberately).
inline sq::core::PlannerConfig bench_config() {
  sq::core::PlannerConfig cfg;
  cfg.ilp_time_limit_s = 3.0;
  cfg.max_microbatch_pairs = 2;
  cfg.max_topologies = 8;
  cfg.group_size = 8;
  cfg.num_threads = bench_threads();
  return cfg;
}

/// Stable 16-hex-digit fingerprint of a plan's full serialized form
/// (FNV-1a; independent of the standard library's std::hash, so baselines
/// compare across toolchains).  The CI gate treats any fingerprint change
/// as a planner-behavior change and fails.
inline std::string fingerprint_text(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

inline std::string plan_fingerprint(const sq::sim::ExecutionPlan& plan) {
  return fingerprint_text(sq::sim::plan_to_string(plan));
}

// ---------------------------------------------------------------------------
// Table helpers shared by the fig*/tab* benches.

/// printf a separator line.
inline void rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// printf the bench banner followed by a separator rule of `width`.
inline void table_banner(int width, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::putchar('\n');
  rule(width);
}

/// den > 0 ? num / den : 0 — the "0 means OOM/infeasible" convention used
/// by every speedup column.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Geometric-mean accumulator for the speedup summaries (ignores
/// non-positive ratios, i.e. OOM cells).
class GeoMean {
 public:
  void add(double r) {
    if (r > 0.0) {
      log_sum_ += std::log(r);
      ++n_;
    }
  }
  int count() const { return n_; }
  double value() const { return n_ > 0 ? std::exp(log_sum_ / n_) : 0.0; }

 private:
  double log_sum_ = 0.0;
  int n_ = 0;
};

/// Fig. 9 / Fig. 10 protocol: Uniform first, then SplitQuant constrained to
/// at least Uniform's quality (Sec. VI-C), theta neutralized.
struct SchemeRow {
  double uniform = 0.0;
  double het = 0.0;
  double splitquant = 0.0;
  bool uniform_oom = false;
  bool het_oom = false;
  double sq_ppl = 0.0, uni_ppl = 0.0;
  double solve_s = 0.0;
  /// Fingerprints of the chosen plans ("-" when infeasible); exported to
  /// the bench JSON where the CI gate requires them byte-identical.
  std::string uniform_fp = "-";
  std::string het_fp = "-";
  std::string splitquant_fp = "-";
};

inline SchemeRow run_schemes(const Cell& cell, sq::core::PlannerConfig cfg,
                             sq::runtime::Backend backend) {
  SchemeRow row;
  const auto uni = cell.planner.plan_uniform(cfg);
  const auto het = cell.planner.plan_het(cfg);
  sq::core::PlannerConfig scfg = cfg;
  scfg.theta = 0.0;
  if (uni.feasible) {
    scfg.max_ppl_delta = uni.total_omega;
  } else if (het.feasible) {
    scfg.max_ppl_delta = het.total_omega;
  }
  const auto sqr = cell.planner.plan(scfg);
  row.uniform_oom = !uni.feasible;
  row.het_oom = !het.feasible;
  if (uni.feasible) {
    row.uniform = cell.serve(uni.plan, backend);
    row.uni_ppl = uni.est_ppl;
    row.uniform_fp = plan_fingerprint(uni.plan);
  }
  if (het.feasible) {
    row.het = cell.serve(het.plan, backend);
    row.het_fp = plan_fingerprint(het.plan);
  }
  if (sqr.feasible) {
    row.splitquant = cell.serve(sqr.plan, backend);
    row.sq_ppl = sqr.est_ppl;
    row.solve_s = sqr.solve_seconds;
    row.splitquant_fp = plan_fingerprint(sqr.plan);
  }
  return row;
}

/// The leading cells every scheme table shares: cluster id, model name and
/// the three throughput columns.  Callers append their own trailing columns
/// (speedups, PPL, solve time) and the newline.
inline void print_scheme_cells(int cluster, const std::string& model,
                               const SchemeRow& row, int model_width = 22) {
  std::printf("%-10d %-*s %10.1f %10.1f %12.1f", cluster, model_width,
              model.c_str(), row.uniform, row.het, row.splitquant);
}

// ---------------------------------------------------------------------------
// BENCH_<name>.json writer.

/// One machine-readable result row: string, integer or double fields keyed
/// by name.  Field-name conventions the CI gate understands:
///   *_tok_s        throughput; >20% drop vs the baseline fails the gate
///   *_fingerprint  plan identity; any change vs the baseline fails
/// everything else (wall-clock, hit rates, ppl) is recorded but not gated.
using BenchValue = std::variant<std::int64_t, double, std::string>;
using BenchRow = std::map<std::string, BenchValue>;

/// Collects rows + metadata for one bench and, when SQ_BENCH_JSON_DIR is
/// set, writes them to $SQ_BENCH_JSON_DIR/BENCH_<name>.json on write().
/// Schema ("splitquant.bench.v1", keys sorted at every level):
///   { "bench": "<name>",
///     "meta":  { <string/int/double fields> },
///     "rows":  [ { <string/int/double fields> }, ... ],
///     "schema": "splitquant.bench.v1" }
/// Doubles are rendered with %.17g (exact round-trip); the gate applies
/// tolerances, so hexfloat is not needed here.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void meta(const std::string& key, BenchValue v) { meta_[key] = std::move(v); }
  BenchRow& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  void render(std::ostream& os) const {
    os << "{\n  \"bench\": \"" << sq::obs::json_escape(name_) << "\",\n";
    os << "  \"meta\": ";
    render_map(os, meta_);
    os << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "\n    " : ",\n    ");
      render_map(os, rows_[i], 4);
    }
    os << (rows_.empty() ? "]" : "\n  ]");
    os << ",\n  \"schema\": \"splitquant.bench.v1\"\n}\n";
  }

  /// Writes BENCH_<name>.json into $SQ_BENCH_JSON_DIR (no-op when the env
  /// var is unset).  Returns false only on an I/O failure.
  bool write() const {
    const char* dir = std::getenv("SQ_BENCH_JSON_DIR");
    if (dir == nullptr || dir[0] == '\0') return true;
    const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    render(os);
    std::printf("bench json: %s\n", path.c_str());
    return os.good();
  }

 private:
  static void render_map(std::ostream& os, const BenchRow& m, int indent = 2) {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{";
    bool first = true;
    for (const auto& [k, v] : m) {  // std::map: keys already sorted
      os << (first ? "\n" : ",\n") << pad << "  \"" << sq::obs::json_escape(k)
         << "\": ";
      first = false;
      if (const auto* i = std::get_if<std::int64_t>(&v)) {
        os << *i;
      } else if (const auto* d = std::get_if<double>(&v)) {
        os << sq::obs::json_number(*d);
      } else {
        os << '"' << sq::obs::json_escape(std::get<std::string>(v)) << '"';
      }
    }
    os << (first ? "}" : "\n" + pad + "}");
  }

  std::string name_;
  BenchRow meta_;
  std::vector<BenchRow> rows_;
};

}  // namespace sq::bench
