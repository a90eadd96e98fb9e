#include "oracles/matmul_naive.h"

#include <cassert>

namespace sq::tensor::oracle {

Tensor matmul_naive(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows() && "matmul_naive: inner dimensions must match");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n);
  // i-k-j loop order keeps the inner loop contiguous over B and C rows.
  // No zero-skip: `aik == 0` must still multiply so NaN/Inf in B propagate
  // (0 * NaN == NaN).
  for (std::size_t i = 0; i < m; ++i) {
    auto crow = c.row(i);
    auto arow = a.row(i);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      auto brow = b.row(kk);
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
  return c;
}

Tensor matmul_bt_naive(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.cols() && "matmul_bt_naive: inner dimensions must match");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    auto arow = a.row(i);
    auto crow = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      auto brow = b.row(j);
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += arow[kk] * brow[kk];
      }
      crow[j] = acc;
    }
  }
  return c;
}

}  // namespace sq::tensor::oracle
