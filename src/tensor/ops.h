// Dense linear-algebra and neural-network primitives on Tensor.
//
// These are the building blocks for the executable tiny transformer
// (src/nn) and the quantization/probe path.  matmul / matmul_bt /
// transpose route large shapes through the blocked, packed, threaded
// kernels in gemm.h and small ones through plain loops; both give the
// bits of the naive triple loops frozen in tests/oracles, which the
// kernel layer's determinism contract is tested against
// (tests/gemm_test.cpp).  This file is compiled with -ffp-contract=off so
// the plain chains stay FMA-free, matching the kernel layer (see gemm.h).
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace sq::tensor {

/// C = A * B.  Shapes: [m x k] * [k x n] -> [m x n].
/// Aborts (assert) on incompatible shapes.  Large shapes run on the
/// blocked kernels; every shape gets the bits of the plain i-k-j loop.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A * B^T.  Shapes: [m x k] * [n x k] -> [m x n].  Large shapes run
/// on the blocked kernels; every shape gets the bits of one scalar
/// dot-product chain per element.
Tensor matmul_bt(const Tensor& a, const Tensor& b);

/// Return A^T (cache-blocked for large shapes; exact element copies).
Tensor transpose(const Tensor& a);

/// Elementwise sum, shapes must match.
Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise difference a - b, shapes must match.
Tensor sub(const Tensor& a, const Tensor& b);

/// Add row-vector `bias` (1 x cols) to every row of `a`, in place.
void add_bias_inplace(Tensor& a, const Tensor& bias);

/// Elementwise scale in place.
void scale_inplace(Tensor& a, float s);

/// Row-wise numerically stable softmax, in place.
void softmax_rows_inplace(Tensor& a);

/// Row-wise LayerNorm with learned gain/bias (each 1 x cols), epsilon 1e-5.
Tensor layernorm_rows(const Tensor& a, const Tensor& gain, const Tensor& bias);

/// Elementwise tanh-approximation GELU, in place.
void gelu_inplace(Tensor& a);

/// Elementwise ReLU, in place.
void relu_inplace(Tensor& a);

/// Frobenius norm squared of a - b.
double mse(const Tensor& a, const Tensor& b);

/// Sum of squares of all elements.
double sum_squares(const Tensor& a);

/// Row-wise cross entropy: mean over rows of -log p[target], where p is the
/// softmax of the row and `targets[r]` indexes the true class.  Rows whose
/// target is out of range are skipped.
double cross_entropy_rows(const Tensor& logits, std::span<const int> targets);

}  // namespace sq::tensor
