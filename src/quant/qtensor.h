// Group-quantized tensor: the storage format used by weight-only kernels
// (GPTQ/AWQ-style).  Weights are split into contiguous groups of
// `group_size` elements, each with its own scale (symmetric codes,
// quantizer.h) — exactly the format whose memory footprint the paper's
// memory cost model accounts for.
//
// Storage: the integer codes are held bit-packed at the tensor's bitwidth
// b, row-major over the flattened [rows x cols] matrix.  Element i is the
// unsigned offset code - lo (lo from code_range(b)) in bits
// [i*b, i*b + b) of a little-endian bitstream: one byte per INT8 code, two
// INT4 codes per byte (even element in the low nibble), eight INT3 codes
// per 3 bytes, possibly straddling byte boundaries.  The code bytes are
// therefore exactly ceil(rows*cols*b / 8), the code part of
// storage_bytes().  qkernels.h writes (quantize_pack) and reads
// (unpack_codes / dequantize_packed) this format.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace sq::quant {

class Fingerprint;  // quant/qkernels.h

/// A quantized copy of a weight matrix with per-group scales.
class QTensor {
 public:
  /// Quantize `weights` at bitwidth `b` with `group_size` elements per
  /// scale group (0 means one group per row; an empty tensor has no
  /// groups).  `compute_mse` controls the construction MSE accumulation (a
  /// serial double chain); hot paths that never read mse_vs_original()
  /// pass false and skip it — codes/params are identical either way.  A
  /// non-null `fold` is completed over `weights` in the same pass
  /// (quantize_pack's `fold`), so a QuantCache miss reads the weights once.
  QTensor(const sq::tensor::Tensor& weights, Bitwidth b,
          std::size_t group_size = 128, bool compute_mse = true,
          Fingerprint* fold = nullptr);

  /// Bitwidth the weights are stored at.
  Bitwidth bitwidth() const { return bitwidth_; }

  /// Original matrix shape.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Reconstruct the full-precision approximation (what a weight-only
  /// kernel feeds its FP16 MACs after dequantization).
  sq::tensor::Tensor dequantize() const;

  /// Fused dequantize-matmul: x [s x rows] times the dequantized weights
  /// [rows x cols] without materializing them — panels are dequantized
  /// straight into the blocked GEMM's packed-B buffer, so each weight is
  /// reconstructed exactly once per call and the working set stays
  /// cache-sized.  Bit-identical to matmul(x, dequantize()) (asserted by
  /// tests/gemm_test.cpp); threading follows the kernel layer (gemm.h).
  sq::tensor::Tensor matmul(const sq::tensor::Tensor& x) const;

  /// Storage bytes of the packed representation: ceil(bits/8 per code,
  /// bit-packed) plus one fp16 scale per group.
  /// The integer code bytes are exactly packed_codes().size(); the group
  /// params are held as fp32 in memory.  FP16 passthrough is charged 2
  /// bytes per weight but is still held as fp32 (one float per weight).
  std::uint64_t storage_bytes() const;

  /// The bit-packed codes (format above); what a weight-only kernel
  /// consumes.  Empty for FP16 passthrough.
  std::span<const std::uint8_t> packed_codes() const { return packed_; }

  /// The scales, one per group.  Empty for FP16 passthrough.
  std::span<const QuantParams> params() const { return params_; }

  /// Mean squared error against the original weights (computed at
  /// construction when `compute_mse` was requested; the indicator
  /// comparisons use it).  0.0 when construction skipped it.
  double mse_vs_original() const { return mse_; }

 private:
  Bitwidth bitwidth_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t group_size_ = 0;
  std::vector<std::uint8_t> packed_;  ///< Bit-packed codes (see top).
  std::vector<QuantParams> params_;  ///< One per group.
  std::vector<float> fp16_passthrough_;  ///< Used when bitwidth == fp16.
  double mse_ = 0.0;
};

}  // namespace sq::quant
