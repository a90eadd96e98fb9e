// Microbench for the fast quantization pipeline: whole-model preparation
// through the content-addressed QuantCache, and cache reuse across a plan
// repair.  The timed pair *asserts byte-identical outputs* against the
// frozen scalar references — a mismatch exits non-zero, so the
// bit-determinism contract is enforced on every bench run.  The whole-model
// case additionally hard-asserts the headline claim of the pipeline (>= 2x
// preparation speedup) and that the quantized layers hold exactly
// ceil(n * bits / 8) code bytes (reported as code_bytes), and the repair
// case hard-asserts cache reuse.
//
//   SQ_BENCH_SMOKE=1         shrink shapes for the CI gate (seconds, not
//                            minutes; schema identical)
//   SQ_THREADS=<n>           kernel/quant-pool threads for the *_nt columns
//   SQ_BENCH_JSON_DIR=<dir>  emit BENCH_quant_pipeline.json; the CI gate
//                            fails on >20% drops of the *_speedup_x
//                            columns and on any *_fingerprint or *_bytes
//                            change
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "oracles/quant_reference.h"
#include "quant/qkernels.h"
#include "quant/quant_cache.h"
#include "quant/qtensor.h"
#include "runtime/weight_prep.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace {

using Clock = std::chrono::steady_clock;
using sq::quant::Bitwidth;
using sq::quant::QuantParams;
using sq::tensor::Tensor;

Tensor random_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  sq::tensor::Rng rng(seed);
  Tensor t(rows, cols);
  t.fill_normal(rng, 0.0f, 0.1f);
  return t;
}

/// Best-of-`reps` wall seconds of `fn()` (reduces scheduler noise).
template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

std::string tensors_fingerprint(const std::vector<Tensor>& ts) {
  std::string bytes;
  for (const Tensor& t : ts) {
    bytes.append(reinterpret_cast<const char*>(t.data().data()),
                 t.data().size() * sizeof(float));
  }
  return sq::bench::fingerprint_text(bytes);
}

/// The pre-pipeline per-layer quantization, replicated verbatim: scalar
/// per-group min/max scan + reference quantize loop, the always-on
/// construction-MSE chain, and the scalar dequantize — what a QTensor
/// build + dequantize cost before the hoisted/SIMD/cached path existed.
Tensor legacy_quantize_layer(const Tensor& w, Bitwidth b, std::size_t group_size) {
  const auto flat = w.data();
  const std::size_t gs = group_size == 0 ? w.cols() : group_size;
  const std::size_t n_groups = (flat.size() + gs - 1) / gs;
  std::vector<std::int32_t> codes(flat.size());
  Tensor out(w.rows(), w.cols());
  double acc = 0.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::size_t begin = g * gs;
    const std::size_t len = std::min(gs, flat.size() - begin);
    const auto chunk = flat.subspan(begin, len);
    const QuantParams p = sq::quant::oracle::params_reference(chunk, b);
    const auto gcodes = std::span<std::int32_t>(codes).subspan(begin, len);
    sq::quant::oracle::quantize_reference(chunk, p, b, gcodes);
    for (std::size_t i = 0; i < len; ++i) {
      const double rec = p.scale * static_cast<double>(gcodes[i]);
      const double d = rec - flat[begin + i];
      acc += d * d;
    }
    sq::quant::oracle::dequantize_reference(gcodes, p,
                                            out.data().subspan(begin, len));
  }
  // The MSE chain is part of the timed cost (it was unconditional); its
  // value is irrelevant here.
  (void)acc;
  return out;
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  const int reps = smoke ? 5 : 3;
  const int nt = sq::common::resolve_threads(sq::bench::bench_threads());

  sq::bench::table_banner(
      96,
      "quant pipeline (%s, isa=%s, nt=%d): scalar reference vs "
      "hoisted/SIMD/cached, bit-identical",
      smoke ? "smoke" : "full", sq::quant::qkernel_isa(), nt);
  std::printf("%-14s %22s %12s %12s %8s %8s %6s\n", "case", "shape", "ref s",
              "fast s", "x1t", "xnt", "bits");
  sq::bench::rule(96);

  sq::bench::BenchReport report("quant_pipeline");
  report.meta("smoke", static_cast<std::int64_t>(smoke));
  report.meta("isa", std::string(sq::quant::qkernel_isa()));
  report.meta("threads", static_cast<std::int64_t>(nt));
  bool ok = true;

  // -- model_prep: quantizing a whole model's layers.  Legacy: sequential
  //    scalar builds with the unconditional MSE chain.  Fast: QuantCache
  //    fan-out (cold cache each rep) + dequantize.  This is the headline
  //    number; the >= 2x floor is asserted, not just reported.  The row
  //    also reports a warm pass, every layer a hit, so the cost of the
  //    fingerprint-first lookup shows next to the cold one.
  double prep_speedup_nt = 0.0;
  bool code_bytes_ok = false;
  {
    const std::size_t layers = smoke ? 8 : 16;
    const std::size_t rows = smoke ? 160 : 512;
    const std::size_t cols = smoke ? 256 : 1024;
    const std::size_t group = 64;
    std::vector<Tensor> weights;
    for (std::size_t l = 0; l < layers; ++l) {
      weights.push_back(random_tensor(rows, cols, 100 + l));
    }
    std::vector<sq::quant::QuantJob> jobs(layers);
    for (std::size_t l = 0; l < layers; ++l) {
      jobs[l].weights = &weights[l];
      jobs[l].bits = Bitwidth::kInt4;
      jobs[l].group_size = group;
    }

    std::vector<Tensor> legacy, fast;
    std::size_t code_bytes = 0;
    const double t_legacy = best_seconds(reps, [&] {
      legacy.clear();
      for (const Tensor& w : weights) {
        legacy.push_back(legacy_quantize_layer(w, Bitwidth::kInt4, group));
      }
    });
    sq::quant::QuantCache cache;
    const auto run_fast = [&] {
      cache.clear();  // Cold start: time quantization, not cache hits.
      const auto stats = cache.quantize_model(jobs);
      fast.clear();
      code_bytes = 0;
      for (const auto& qt : stats.tensors) {
        fast.push_back(qt->dequantize());
        code_bytes += qt->packed_codes().size();
      }
    };
    sq::tensor::set_kernel_threads(1);
    const double t_1t = best_seconds(reps, run_fast);
    sq::tensor::set_kernel_threads(sq::bench::bench_threads());
    const double t_nt = best_seconds(reps, run_fast);
    std::size_t warm_hits = 0;
    const double t_warm_nt = best_seconds(reps, [&] {
      warm_hits = cache.quantize_model(jobs).layers_reused;
    });
    sq::tensor::set_kernel_threads(1);

    bool same = legacy.size() == fast.size();
    for (std::size_t l = 0; same && l < layers; ++l) {
      same = bytes_equal(legacy[l], fast[l]);
    }
    ok = ok && same;
    // INT4 codes are held bit-packed: exactly half a byte per weight.
    code_bytes_ok = code_bytes == layers * rows * cols / 2;
    prep_speedup_nt = t_legacy / t_nt;

    char shape[32];
    std::snprintf(shape, sizeof shape, "%zu x %zux%zu", layers, rows, cols);
    std::printf("%-14s %22s %12.4f %12.4f %7.2fx %7.2fx %6s\n", "model_prep",
                shape, t_legacy, t_nt, t_legacy / t_1t, prep_speedup_nt,
                same ? "same" : "DIFF");
    std::printf("%-14s %22s %12s %12.4f %7s %7s %6s\n", "  warm (hits)", shape,
                "-", t_warm_nt, "-", "-", warm_hits == layers ? "hit" : "MISS");
    auto& row = report.add_row();
    row["workload"] = std::string("model_prep");
    row["layers"] = static_cast<std::int64_t>(layers);
    row["rows"] = static_cast<std::int64_t>(rows);
    row["cols"] = static_cast<std::int64_t>(cols);
    row["prep_1t_speedup_x"] = t_legacy / t_1t;
    row["prep_nt_speedup_x"] = prep_speedup_nt;
    row["cold_nt_s"] = t_nt;
    row["warm_hit_nt_s"] = t_warm_nt;
    row["code_bytes"] = static_cast<std::int64_t>(code_bytes);
    row["dequant_fingerprint"] = tensors_fingerprint(legacy);
  }

  // -- plan_repair: WeightPrep over a plan repair that rebits 3 of 12
  //    layers.  Counts are deterministic; the restart pass must be served
  //    entirely from the cache (reuse > 0 is asserted).
  std::size_t repair_quantized = 0, restart_reused = 0;
  {
    const std::size_t layers = 12;
    const std::size_t rows = smoke ? 96 : 256;
    const std::size_t cols = smoke ? 160 : 512;
    std::vector<Tensor> weights;
    for (std::size_t l = 0; l < layers; ++l) {
      weights.push_back(random_tensor(rows, cols, 200 + l));
    }
    sq::quant::QuantCache::global().clear();
    const sq::runtime::WeightPrep prep([&](int layer) {
      return &weights[static_cast<std::size_t>(layer)];
    });

    std::vector<sq::hw::Bitwidth> plan_bits(layers, sq::hw::Bitwidth::kInt4);
    std::vector<sq::hw::Bitwidth> repaired = plan_bits;
    repaired[2] = repaired[5] = repaired[9] = sq::hw::Bitwidth::kInt8;

    const auto t0 = Clock::now();
    const auto cold = prep.prepare(plan_bits);
    const auto repair = prep.reprepare(plan_bits, repaired);
    const auto restart = prep.prepare(repaired);
    const double total_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    repair_quantized = repair.layers_quantized;
    restart_reused = restart.layers_reused;
    const double hit_rate =
        static_cast<double>(cold.layers_reused + repair.layers_reused +
                            restart.layers_reused) /
        static_cast<double>(cold.layers_quantized + cold.layers_reused +
                            repair.layers_quantized + repair.layers_reused +
                            restart.layers_quantized + restart.layers_reused);

    char shape[32];
    std::snprintf(shape, sizeof shape, "%zu x %zux%zu", layers, rows, cols);
    std::printf("%-14s %22s %12.4f %12s %7s %7s %6s\n", "plan_repair", shape,
                total_s, "-", "-", "-",
                restart_reused > 0 ? "reuse" : "MISS");
    auto& row = report.add_row();
    row["workload"] = std::string("plan_repair");
    row["layers"] = static_cast<std::int64_t>(layers);
    row["repair_requantized"] = static_cast<std::int64_t>(repair_quantized);
    row["restart_reused"] = static_cast<std::int64_t>(restart_reused);
    row["cache_hit_rate"] = hit_rate;
  }
  sq::bench::rule(96);

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: fast path output differs from the scalar reference "
                 "(bit-determinism contract violated)\n");
    return 1;
  }
  if (prep_speedup_nt < 2.0) {
    std::fprintf(stderr,
                 "FAIL: model_prep speedup %.2fx is below the 2x floor the "
                 "pipeline is required to deliver\n",
                 prep_speedup_nt);
    return 1;
  }
  if (!code_bytes_ok) {
    std::fprintf(stderr,
                 "FAIL: model_prep packed code bytes differ from "
                 "ceil(n * bits / 8) per layer\n");
    return 1;
  }
  if (repair_quantized != 3 || restart_reused != 12) {
    std::fprintf(stderr,
                 "FAIL: plan-repair cache reuse broken (repair requantized "
                 "%zu layers, want 3; restart reused %zu, want 12)\n",
                 repair_quantized, restart_reused);
    return 1;
  }
  std::printf(
      "all fast-path outputs byte-identical; model prep %.2fx; repair "
      "requantized %zu/12 layers, restart reused %zu/12\n",
      prep_speedup_nt, repair_quantized, restart_reused);
  if (!report.write()) return 1;
  return 0;
}
