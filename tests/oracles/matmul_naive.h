// Frozen naive matmuls: the bit-exact ground truth of the GEMM kernel
// layer's determinism contract (tensor/gemm.h).
#pragma once

#include "tensor/tensor.h"

namespace sq::tensor::oracle {

/// C = A * B by the plain i-k-j loop; matmul and matmul_blocked are
/// bit-identical to it.
Tensor matmul_naive(const Tensor& a, const Tensor& b);

/// C = A * B^T by one scalar dot-product chain per element; matmul_bt and
/// matmul_bt_blocked are bit-identical to it.
Tensor matmul_bt_naive(const Tensor& a, const Tensor& b);

}  // namespace sq::tensor::oracle
