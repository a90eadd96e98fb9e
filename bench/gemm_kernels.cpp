// Microbench for the blocked GEMM kernel layer (src/tensor/gemm.h) on the
// quantization/probe shapes: the probe's logit GEMM, the Gram product
// X X^T behind the Hessian indicator (the hessian_xtx row, through
// matmul_bt), and the fused dequantize-matmul.  Each case times the naive
// reference against the blocked kernels (single- and multi-threaded) and
// *asserts the outputs are byte-identical* — a mismatch exits non-zero, so
// the determinism contract is enforced on every bench run, not just under
// ctest.
//
//   SQ_BENCH_SMOKE=1         shrink shapes for the CI gate (seconds, not
//                            minutes; schema identical)
//   SQ_THREADS=<n>           kernel threads for the *_nt columns
//   SQ_BENCH_JSON_DIR=<dir>  emit BENCH_gemm_kernels.json; the CI gate
//                            fails on >20% drops of the *_speedup_x
//                            columns and on any c_fingerprint change
//                            (absolute GFLOP/s are machine-dependent and
//                            informative only)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "oracles/matmul_naive.h"
#include "quant/qtensor.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace {

using Clock = std::chrono::steady_clock;
using sq::tensor::Tensor;

Tensor random_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  sq::tensor::Rng rng(seed);
  Tensor t(rows, cols);
  t.fill_normal(rng, 0.0f, 1.0f);
  return t;
}

/// Wall-clock seconds of `fn()`, best of `reps` (reduces scheduler noise;
/// the result tensor of the last rep is stored to *out for verification).
template <typename F>
double best_seconds(int reps, Tensor* out, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    Tensor c = fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s < best) best = s;
    *out = std::move(c);
  }
  return best;
}

std::string tensor_fingerprint(const Tensor& t) {
  const auto flat = t.data();
  std::string bytes(reinterpret_cast<const char*>(flat.data()),
                    flat.size() * sizeof(float));
  return sq::bench::fingerprint_text(bytes);
}

struct CaseResult {
  std::string name;
  std::size_t m, k, n;
  double naive_gflops, blocked_1t_gflops, blocked_nt_gflops;
  double speedup_1t, speedup_nt;
  std::string fingerprint;
  bool identical;
};

/// Run one case: `naive` and `blocked` must compute the same [m x n]
/// product (blocked is timed at 1 thread and at the SQ_THREADS setting).
template <typename NaiveFn, typename BlockedFn>
CaseResult run_case(const char* name, std::size_t m, std::size_t k,
                    std::size_t n, int reps, NaiveFn&& naive,
                    BlockedFn&& blocked) {
  CaseResult res;
  res.name = name;
  res.m = m;
  res.k = k;
  res.n = n;
  const double gflop = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n) / 1e9;

  Tensor c_naive(0, 0), c_1t(0, 0), c_nt(0, 0);
  const double t_naive = best_seconds(reps, &c_naive, naive);
  sq::tensor::set_kernel_threads(1);
  const double t_1t = best_seconds(reps, &c_1t, blocked);
  sq::tensor::set_kernel_threads(sq::bench::bench_threads());
  const double t_nt = best_seconds(reps, &c_nt, blocked);
  sq::tensor::set_kernel_threads(1);

  res.naive_gflops = gflop / t_naive;
  res.blocked_1t_gflops = gflop / t_1t;
  res.blocked_nt_gflops = gflop / t_nt;
  res.speedup_1t = t_naive / t_1t;
  res.speedup_nt = t_naive / t_nt;
  res.fingerprint = tensor_fingerprint(c_naive);
  res.identical =
      c_naive.size() == c_1t.size() && c_naive.size() == c_nt.size() &&
      std::memcmp(c_naive.data().data(), c_1t.data().data(),
                  c_naive.size() * sizeof(float)) == 0 &&
      std::memcmp(c_naive.data().data(), c_nt.data().data(),
                  c_naive.size() * sizeof(float)) == 0;
  return res;
}

}  // namespace

int main() {
  const bool smoke = sq::bench::bench_smoke();
  // Probe-sized shapes (4096-class: the tiny transformer's logit GEMM and
  // the Hessian Gram product at large hidden dims); smoke shrinks every dim.
  const std::size_t S = smoke ? 8 : 1;  // divisor
  const int reps = smoke ? 5 : 3;

  const std::size_t pm = 256 / (smoke ? 4 : 1), pk = 4096 / S, pn = 4096 / S;
  const std::size_t hd = 1024 / S * (smoke ? 2 : 1), hs = 4096 / S;
  const std::size_t fm = 256 / (smoke ? 4 : 1), fk = 2048 / S, fn = 2048 / S;

  std::vector<CaseResult> results;

  {
    const Tensor a = random_tensor(pm, pk, 11);
    const Tensor b = random_tensor(pk, pn, 12);
    results.push_back(run_case(
        "probe_logits", pm, pk, pn, reps,
        [&] { return sq::tensor::oracle::matmul_naive(a, b); },
        [&] { return sq::tensor::matmul_blocked(a, b); }));
  }
  {
    // Hessian Gram as the probe runs it: xt [d x samples], H = xt * xt^T.
    const Tensor xt = random_tensor(hd, hs, 13);
    results.push_back(run_case(
        "hessian_xtx", hd, hs, hd, reps,
        [&] { return sq::tensor::oracle::matmul_bt_naive(xt, xt); },
        [&] { return sq::tensor::matmul_bt_blocked(xt, xt); }));
  }
  {
    // Fused dequantize-matmul vs materialize-then-naive (the pre-kernel
    // code path): the speedup includes skipping the full dequantized copy.
    const Tensor w = random_tensor(fk, fn, 14);
    const Tensor x = random_tensor(fm, fk, 15);
    const sq::quant::QTensor qw(w, sq::quant::Bitwidth::kInt4, 128);
    results.push_back(run_case(
        "fused_dequant", fm, fk, fn, reps,
        [&] { return sq::tensor::oracle::matmul_naive(x, qw.dequantize()); },
        [&] { return qw.matmul(x); }));
  }

  const int nt = sq::common::resolve_threads(sq::bench::bench_threads());
  sq::bench::table_banner(
      104, "GEMM kernels (%s, isa=%s, nt=%d): naive vs blocked, bit-identical",
      smoke ? "smoke" : "full", sq::tensor::kernel_isa(), nt);
  std::printf("%-16s %5s %5s %5s %12s %12s %12s %8s %8s %6s\n", "case", "m",
              "k", "n", "naive GF/s", "blk-1t GF/s", "blk-nt GF/s", "x1t",
              "xnt", "bits");
  sq::bench::rule(104);

  bool all_identical = true;
  sq::bench::BenchReport report("gemm_kernels");
  report.meta("smoke", static_cast<std::int64_t>(smoke));
  report.meta("isa", std::string(sq::tensor::kernel_isa()));
  report.meta("threads", static_cast<std::int64_t>(nt));
  for (const CaseResult& r : results) {
    std::printf("%-16s %5zu %5zu %5zu %12.2f %12.2f %12.2f %7.2fx %7.2fx %6s\n",
                r.name.c_str(), r.m, r.k, r.n, r.naive_gflops,
                r.blocked_1t_gflops, r.blocked_nt_gflops, r.speedup_1t,
                r.speedup_nt, r.identical ? "same" : "DIFF");
    all_identical = all_identical && r.identical;
    auto& row = report.add_row();
    row["workload"] = r.name;
    row["m"] = static_cast<std::int64_t>(r.m);
    row["k"] = static_cast<std::int64_t>(r.k);
    row["n"] = static_cast<std::int64_t>(r.n);
    row["naive_gflops"] = r.naive_gflops;
    row["blocked_1t_gflops"] = r.blocked_1t_gflops;
    row["blocked_nt_gflops"] = r.blocked_nt_gflops;
    row["blocked_1t_speedup_x"] = r.speedup_1t;
    row["blocked_nt_speedup_x"] = r.speedup_nt;
    row["c_fingerprint"] = r.fingerprint;
  }
  sq::bench::rule(104);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: blocked output differs from naive reference "
                 "(determinism contract violated)\n");
    return 1;
  }
  std::printf("all blocked outputs byte-identical to the naive reference\n");
  if (!report.write()) return 1;
  return 0;
}
