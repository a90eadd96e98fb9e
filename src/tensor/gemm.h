// Blocked, packed, multi-threaded GEMM kernels for the quantization /
// probe path.
//
// The naive triple loops frozen in tests/oracles (matmul_naive,
// matmul_bt_naive) are the bit-exact reference;
// everything here is a faster route to the *same bits*.  The determinism
// contract, which tests/gemm_test.cpp asserts:
//
//   1. Every output element is produced by one accumulation chain that
//      visits k in ascending order — the same chain the naive kernels use.
//      Cache blocking only changes *when* partial sums are computed, never
//      the order in which they are combined (micro-kernels accumulate
//      directly into C across k-blocks instead of reducing privately).
//   2. Threading splits C into disjoint row bands; the band partition can
//      never change any element's chain, so results are byte-identical for
//      1..N threads.
//   3. The kernel translation unit is compiled with -ffp-contract=off and
//      the micro-kernels are written so auto-vectorization only runs
//      *across* independent chains (the j dimension), never inside one.
//      Wider SIMD paths (AVX2 / AVX-512, dispatched at runtime on x86-64)
//      therefore produce the same bits as the baseline path.
//
// Consequence: matmul_blocked == matmul_naive byte-for-byte at any thread
// count, on any x86-64 ISA level, at any blocking parameters — speed is the
// only observable difference.
#pragma once

#include <cstddef>
#include <functional>

#include "tensor/tensor.h"

namespace sq::tensor {

/// Cache-blocking parameters (BLIS-style).  The micro-tile (MR x NR) is an
/// ISA-level compile-time constant and not configurable here; these knobs
/// only move work between cache levels and never change results.
struct GemmBlocking {
  std::size_t mc = 128;   ///< A-band rows per packed block (parallel grain).
  std::size_t kc = 256;   ///< Panel depth; one packed B panel ~ L1-sized.
  std::size_t nc = 2048;  ///< B columns per packed block (~L2/L3-sized).
};

/// Name of the micro-kernel path runtime dispatch selected ("avx512",
/// "avx2" or "base").  Informational: all paths produce identical bits.
const char* kernel_isa();

/// Worker threads the kernels use: the last set_kernel_threads() value,
/// else the SQ_THREADS environment variable, else hardware concurrency.
/// Thread count is a pure wall-clock knob (contract point 2).
int kernel_threads();

/// Override the kernel thread count (0 = hardware concurrency, 1 = run
/// inline on the caller).  Takes effect on the next kernel invocation.
void set_kernel_threads(int n);

/// C = A * B via the plain i-k-j loop (matmul_naive's exact accumulation
/// order) compiled per-ISA, single-threaded, no packing.  Bit-identical to
/// matmul_naive — the j loop is independent chains, so vector width cannot
/// change results.  This is the fast path for shapes below the blocked
/// kernels' win region (see ops.cpp).
Tensor matmul_small(const Tensor& a, const Tensor& b);

/// C = A * B, blocked + packed + threaded.  Bit-identical to matmul_naive.
Tensor matmul_blocked(const Tensor& a, const Tensor& b,
                      const GemmBlocking& blk = {});

/// C = A * B^T (B is [n x k]).  Bit-identical to matmul_bt_naive: packing
/// B^T panels turns the naive scalar dot products into the same ascending-k
/// chains the matmul micro-kernel runs.
Tensor matmul_bt_blocked(const Tensor& a, const Tensor& b,
                         const GemmBlocking& blk = {});

/// Blocked (cache-tiled) transpose; exact element copies.
Tensor transpose_blocked(const Tensor& a);

/// Writes the B sub-block rows [k0, k0+k_len) x cols [j0, j0+j_len) into
/// `dst` (row-major, leading dimension `ld`).  Lets callers run the blocked
/// driver against a B matrix that is never materialized whole — the fused
/// dequantize-matmul packs panels straight out of quantized storage.
using BBlockFill =
    std::function<void(std::size_t k0, std::size_t k_len, std::size_t j0,
                       std::size_t j_len, float* dst, std::size_t ld)>;

/// C = A * B where B ([k x n], k = a.cols()) is produced block-wise by
/// `fill`.  Each B element is requested exactly once per call.  Same
/// determinism contract as matmul_blocked.
Tensor matmul_fill_b(const Tensor& a, std::size_t n, const BBlockFill& fill,
                     const GemmBlocking& blk = {});

}  // namespace sq::tensor
