// Determinism contract of the blocked GEMM kernel layer (gemm.h): the
// blocked, packed, threaded kernels must produce bytes identical to the
// naive references at every shape (including degenerate ones), every
// blocking parameter, and every thread count — mirroring the guarantee
// planner_parallel_test.cpp asserts for the plan search.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "oracles/matmul_naive.h"
#include "quant/qtensor.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sq::tensor {
namespace {

using oracle::matmul_bt_naive;
using oracle::matmul_naive;

Tensor random_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(rows, cols);
  t.fill_normal(rng, 0.0f, 1.0f);
  return t;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Shapes chosen to hit every edge in the blocked driver: unit dims, exact
/// multiples of the micro-tile and cache blocks, non-multiples, tall/wide.
struct Shape {
  std::size_t m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},     {1, 1, 9},    {5, 1, 3},   {3, 4, 5},
    {8, 8, 8},    {4, 8, 64},    {17, 31, 29}, {64, 64, 64}, {1, 300, 1},
    {128, 256, 64}, {130, 257, 67}, {33, 700, 41}, {256, 13, 512},
};

class GemmThreadGuard {
 public:
  GemmThreadGuard() = default;
  ~GemmThreadGuard() { set_kernel_threads(1); }
};

TEST(GemmBlocked, MatchesNaiveBitForBitAcrossShapes) {
  GemmThreadGuard guard;
  set_kernel_threads(1);
  std::uint64_t seed = 1;
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor(s.m, s.k, seed++);
    const Tensor b = random_tensor(s.k, s.n, seed++);
    const Tensor ref = matmul_naive(a, b);
    EXPECT_TRUE(same_bytes(matmul_blocked(a, b), ref))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    EXPECT_TRUE(same_bytes(matmul_small(a, b), ref))
        << "small m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(GemmBlocked, MatchesNaiveAtOddBlockingParameters) {
  GemmThreadGuard guard;
  set_kernel_threads(1);
  const Tensor a = random_tensor(45, 123, 7);
  const Tensor b = random_tensor(123, 77, 8);
  const Tensor ref = matmul_naive(a, b);
  for (const GemmBlocking blk :
       {GemmBlocking{1, 1, 1}, GemmBlocking{3, 5, 7}, GemmBlocking{16, 8, 8},
        GemmBlocking{1000, 1000, 1000}}) {
    EXPECT_TRUE(same_bytes(matmul_blocked(a, b, blk), ref))
        << "mc=" << blk.mc << " kc=" << blk.kc << " nc=" << blk.nc;
  }
}

TEST(GemmBlocked, EmptyShapes) {
  GemmThreadGuard guard;
  for (const Shape& s : {Shape{0, 4, 4}, Shape{4, 0, 4}, Shape{4, 4, 0},
                         Shape{0, 0, 0}}) {
    const Tensor a = random_tensor(s.m, s.k, 11);
    const Tensor b = random_tensor(s.k, s.n, 12);
    const Tensor c = matmul_blocked(a, b);
    EXPECT_TRUE(same_bytes(c, matmul_naive(a, b)));
    EXPECT_EQ(c.rows(), s.m);
    EXPECT_EQ(c.cols(), s.n);
  }
}

TEST(GemmBlocked, BtMatchesNaiveBitForBit) {
  GemmThreadGuard guard;
  set_kernel_threads(1);
  std::uint64_t seed = 100;
  for (const Shape& s : kShapes) {
    const Tensor a = random_tensor(s.m, s.k, seed++);
    const Tensor b = random_tensor(s.n, s.k, seed++);  // B is [n x k]
    const Tensor ref = matmul_bt_naive(a, b);
    EXPECT_TRUE(same_bytes(matmul_bt_blocked(a, b), ref))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n;
    // matmul_bt: the blocked kernels above its gate, its own scalar loop
    // below.
    EXPECT_TRUE(same_bytes(matmul_bt(a, b), ref))
        << "routed m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(GemmBlocked, TransposeExact) {
  GemmThreadGuard guard;
  const Tensor a = random_tensor(131, 77, 21);
  const Tensor t = transpose_blocked(a);
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(t.at(j, i), a.at(i, j));
    }
  }
}

// The planner-style invariance test: 1/2/4/8 threads, byte-identical.
TEST(GemmBlocked, ThreadCountInvariance) {
  GemmThreadGuard guard;
  const Tensor a = random_tensor(130, 257, 31);
  const Tensor b = random_tensor(257, 191, 32);
  const Tensor bt = random_tensor(191, 257, 33);
  set_kernel_threads(1);
  const Tensor ref = matmul_blocked(a, b);
  const Tensor ref_bt = matmul_bt_blocked(a, bt);
  for (int threads : {2, 4, 8}) {
    set_kernel_threads(threads);
    EXPECT_TRUE(same_bytes(matmul_blocked(a, b), ref)) << threads << " threads";
    EXPECT_TRUE(same_bytes(matmul_bt_blocked(a, bt), ref_bt))
        << threads << " threads";
  }
}

// 0 * NaN must stay NaN: the old zero-skip in matmul dropped NaN/Inf
// propagation from B whenever the matching A element was exactly zero.
TEST(GemmBlocked, NanAndInfPropagateThroughZeroA) {
  GemmThreadGuard guard;
  Tensor a(1, 2);
  a.at(0, 0) = 0.0f;
  a.at(0, 1) = 1.0f;
  Tensor b(2, 2);
  b.at(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b.at(0, 1) = std::numeric_limits<float>::infinity();
  b.at(1, 0) = 2.0f;
  b.at(1, 1) = 3.0f;
  for (const Tensor& c : {matmul_naive(a, b), matmul_blocked(a, b)}) {
    EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0*NaN + 1*2
    EXPECT_TRUE(std::isnan(c.at(0, 1)));  // 0*Inf + 1*3 = NaN + 3
  }
}

TEST(GemmBlocked, FusedDequantMatmulMatchesMaterialized) {
  GemmThreadGuard guard;
  using sq::quant::Bitwidth;
  using sq::quant::QTensor;
  const Tensor w = random_tensor(96, 160, 51);
  const Tensor x = random_tensor(64, 96, 52);  // inside the fused win region
  for (const Bitwidth b : {Bitwidth::kInt4, Bitwidth::kInt8, Bitwidth::kFp16}) {
    const QTensor qw(w, b, 48);
    const Tensor ref = matmul_blocked(x, qw.dequantize());
    for (int threads : {1, 4}) {
      set_kernel_threads(threads);
      EXPECT_TRUE(same_bytes(qw.matmul(x), ref))
          << "bits=" << static_cast<int>(b) << " threads=" << threads;
    }
    // Small activations take the materialize-then-multiply fallback; it
    // must produce the same bytes.
    const Tensor x_small = random_tensor(8, 96, 53);
    EXPECT_TRUE(same_bytes(qw.matmul(x_small),
                           matmul_naive(x_small, qw.dequantize())));
  }
}

// Kernel invocations must surface in --metrics output when the registry is
// on, and recording must never change results (obs contract).
TEST(GemmKernelInfo, MetricsCountInvocationsWithoutChangingResults) {
  GemmThreadGuard guard;
  set_kernel_threads(1);
  const Tensor a = random_tensor(64, 64, 71);
  const Tensor b = random_tensor(64, 64, 72);
  const Tensor ref = matmul_blocked(a, b);
  sq::obs::set_enabled(true);
  const std::uint64_t calls0 = sq::obs::counter("tensor.gemm.calls").value();
  const std::uint64_t flops0 = sq::obs::counter("tensor.gemm.flops").value();
  const Tensor c = matmul_blocked(a, b);
  sq::obs::set_enabled(false);
  EXPECT_TRUE(same_bytes(c, ref));
  EXPECT_EQ(sq::obs::counter("tensor.gemm.calls").value(), calls0 + 1);
  EXPECT_EQ(sq::obs::counter("tensor.gemm.flops").value(),
            flops0 + 2ull * 64 * 64 * 64);
  EXPECT_GE(sq::obs::counter("tensor.gemm.matmul.calls").value(), 1u);
}

TEST(GemmKernelInfo, ReportsIsaAndThreads) {
  GemmThreadGuard guard;
  EXPECT_NE(kernel_isa(), nullptr);
  set_kernel_threads(3);
  EXPECT_EQ(kernel_threads(), 3);
  set_kernel_threads(1);
  EXPECT_EQ(kernel_threads(), 1);
}

}  // namespace
}  // namespace sq::tensor
