#include "quant/qtensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "quant/qkernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace sq::quant {

QTensor::QTensor(const sq::tensor::Tensor& weights, Bitwidth b,
                 std::size_t group_size, bool compute_mse, Fingerprint* fold)
    : bitwidth_(b),
      rows_(weights.rows()),
      cols_(weights.cols()),
      // A zero-column tensor has no elements; group size 1 gives it zero
      // groups instead of a division by zero.
      group_size_(group_size != 0 ? group_size : std::max<std::size_t>(1, cols_)) {
  const auto flat = weights.data();
  if (b == Bitwidth::kFp16) {
    if (fold != nullptr) fold->fold(flat.subspan(fold->folded()));
    fp16_passthrough_.resize(flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i) {
      fp16_passthrough_[i] = to_fp16(flat[i]);
    }
    if (compute_mse) {
      double acc = 0.0;
      for (std::size_t i = 0; i < flat.size(); ++i) {
        const double d = fp16_passthrough_[i] - flat[i];
        acc += d * d;
      }
      mse_ = flat.empty() ? 0.0 : acc / static_cast<double>(flat.size());
    }
    return;
  }

  const std::size_t n_groups = (flat.size() + group_size_ - 1) / group_size_;
  params_.resize(n_groups);
  packed_.resize(packed_size(flat.size(), b));
  // One fused pass: per-group max |w| -> scale -> quantize -> bit-pack.
  quantize_pack(flat, group_size_, b, params_, packed_, fold);
  if (compute_mse) {
    // Codes come back through the one decoder in cache-sized pieces; the
    // double accumulation runs in element order, as it always has.
    constexpr std::size_t kPiece = 256;
    std::int32_t codes[kPiece];
    double acc = 0.0;
    std::size_t g = 0;
    std::size_t gend = group_size_;
    for (std::size_t begin = 0; begin < flat.size(); begin += kPiece) {
      const std::size_t len = std::min(kPiece, flat.size() - begin);
      unpack_codes(packed_, begin, b, std::span<std::int32_t>(codes, len));
      for (std::size_t i = 0; i < len; ++i) {
        if (begin + i == gend) {
          ++g;
          gend += group_size_;
        }
        const double rec = params_[g].scale * static_cast<double>(codes[i]);
        const double d = rec - flat[begin + i];
        acc += d * d;
      }
    }
    mse_ = flat.empty() ? 0.0 : acc / static_cast<double>(flat.size());
  }
}

sq::tensor::Tensor QTensor::dequantize() const {
  sq::tensor::Tensor out(rows_, cols_);
  auto flat = out.data();
  if (bitwidth_ == Bitwidth::kFp16) {
    std::copy(fp16_passthrough_.begin(), fp16_passthrough_.end(), flat.begin());
    return out;
  }
  dequantize_packed(packed_, 0, bitwidth_, params_, group_size_, flat);
  return out;
}

sq::tensor::Tensor QTensor::matmul(const sq::tensor::Tensor& x) const {
  assert(x.cols() == rows_ && "QTensor::matmul: inner dimensions must match");
  // Outside the blocked kernels' win region (see ops.cpp use_blocked) the
  // legacy materialize-then-multiply path is faster; results are
  // bit-identical either way.
  if (x.rows() < 48 || rows_ < 48 || cols_ < 128) {
    return sq::tensor::matmul(x, dequantize());
  }
  // The filler writes the requested weight sub-block into the packed-B
  // panel.  Runs concurrently from kernel worker threads; it only reads
  // quantized storage, and each row segment goes through the same decoder
  // as dequantize(), so the panel holds dequantize()'s exact floats.
  const sq::tensor::BBlockFill fill = [this](std::size_t k0, std::size_t k_len,
                                             std::size_t j0, std::size_t j_len,
                                             float* dst, std::size_t ld) {
    for (std::size_t kk = 0; kk < k_len; ++kk) {
      const std::size_t idx = (k0 + kk) * cols_ + j0;
      float* drow = dst + kk * ld;
      if (bitwidth_ == Bitwidth::kFp16) {
        std::copy_n(fp16_passthrough_.begin() + static_cast<std::ptrdiff_t>(idx),
                    j_len, drow);
      } else {
        dequantize_packed(packed_, idx, bitwidth_, params_, group_size_,
                          std::span<float>(drow, j_len));
      }
    }
  };
  return sq::tensor::matmul_fill_b(x, cols_, fill);
}

std::uint64_t QTensor::storage_bytes() const {
  const std::uint64_t n = static_cast<std::uint64_t>(rows_) * cols_;
  if (bitwidth_ == Bitwidth::kFp16) return n * 2;
  const std::uint64_t code_bits = n * static_cast<std::uint64_t>(bits(bitwidth_));
  const std::uint64_t code_bytes = (code_bits + 7) / 8;
  return code_bytes + static_cast<std::uint64_t>(params_.size()) * 2;  // fp16 scales
}

}  // namespace sq::quant
