// ISA-dispatched quantize/dequantize inner loops (the one code format of
// quantizer.h) and the weight fingerprint that keys the QuantCache.
//
// The scalar loops frozen in tests/oracles stay as the byte-equality
// oracle; every path here is a route to the *same bits*, following the
// determinism contract of the GEMM layer (tensor/gemm.h):
//
//   1. Every quantize/dequantize element is an independent chain
//      (v * inv_scale -> round -> clamp, or scale * code), so vector width
//      cannot change results.
//   2. Round-to-nearest uses the vector round-with-MXCSR encoding, which is
//      exactly std::nearbyint's semantics (current rounding mode, no
//      inexact flag) — identical bits in every rounding mode.
//   3. A group's scale comes from max |v|, a reduction whose value does
//      not depend on the order it is taken in (every operand is
//      non-negative, so not even the sign of a zero can differ).  Inputs
//      are assumed finite (weights are; NaN propagation is unspecified).
//   4. Bit packing and unpacking (QTensor storage, see "Bit-packed code
//      storage" below) are integer shifts and masks on the already-clamped
//      code, so a code survives pack -> unpack unchanged on every path and
//      the dequantized float is the same scale * float(code).
//   5. The weight fingerprint (Fingerprint below) is integer arithmetic
//      modulo 2^64, lane by lane in stripe order, so vector width cannot
//      change it: every path returns the same 64-bit value, and folding a
//      tensor in whole blocks gives the value of folding it in one piece.
//
// Dispatch mirrors gemm.cpp: the loops are compiled for SSE2 (the x86-64
// baseline), AVX2 and AVX-512 and selected once at startup via
// __builtin_cpu_supports; tests can force a narrower path to assert all
// levels produce identical bytes on one machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "quant/quantizer.h"

namespace sq::common {
class ThreadPool;
}

namespace sq::quant {

/// Name of the dispatched path ("avx512", "avx2" or "base").
/// Informational: all paths produce identical bits.
const char* qkernel_isa();

/// Test hook: force a dispatch path by name ("base", "avx2", "avx512") or
/// restore runtime selection ("auto").  Returns false — leaving the
/// dispatch unchanged — when this CPU cannot run the requested path or the
/// name is unknown.  Thread-safe; takes effect on the next kernel call.
bool set_qkernel_isa(const char* name);

// ---- Weight fingerprint --------------------------------------------------
//
// The 64-bit content fingerprint that keys the QuantCache, in the style of
// xxh3's long-input loop.  The bytes of the floats are read in 64-byte
// stripes of eight little-endian words w[0..8); stripe s of a 1 KiB block
// updates eight lanes with fixed keys K:
//
//   acc[i ^ 1] += w[i];   acc[i] += lo32(w[i] ^ K[s + i]) * hi32(w[i] ^ K[s + i])
//
// Each whole block ends in a scramble, acc[i] = (acc[i] ^ acc[i] >> 47 ^
// K'[i]) * P with a 32-bit prime P, so stripe order matters across blocks
// as the per-stripe keys make it matter within one.  A final short stripe
// is zero-padded; the byte length and the shape, both mixed in at the end
// with hash_mix, tell padding from data.  The multiplies are 32x32->64, so
// the lanes map onto AVX2/AVX-512 vector lanes with no 64-bit multiply in
// the stripe loop.  Collisions would silently alias two layers; at the
// repository's scale (hundreds of distinct matrices per run) the 64-bit
// birthday bound makes that a non-concern.

/// Floats per quantize_pack chunk (16 KiB): the write path's L1-sized unit,
/// and the step in which quantize_pack folds a fingerprint.
inline constexpr std::size_t kPackChunk = 4096;

/// An incremental weight fingerprint (see above).
class Fingerprint {
 public:
  /// Floats per block (1 KiB).  Every fold but the last must be a whole
  /// number of blocks.
  static constexpr std::size_t kBlockFloats = 256;

  Fingerprint();

  /// Fold the next `values` in.
  void fold(std::span<const float> values);

  /// Floats folded so far.
  std::size_t folded() const { return n_; }

  /// The fingerprint of the floats folded so far, read as a rows x cols
  /// matrix: hash_mix over the shape, the byte length and the lanes.
  std::uint64_t value(std::size_t rows, std::size_t cols) const;

 private:
  std::uint64_t acc_[8];
  std::size_t n_ = 0;
};

// ---- Bit-packed code storage (QTensor) ----------------------------------
//
// Format: element i is stored as the unsigned offset u = code - lo (lo from
// code_range, so u is in [0, 2^b - 2]), in bits [i*b, i*b + b) of a
// little-endian bitstream, b = bits(bitwidth): one byte per INT8 code, two
// INT4 codes per byte (element 2k in the low nibble), eight INT3 codes per
// 3 bytes.  A run of n codes takes packed_size(n, b) = ceil(n*b / 8) bytes;
// the unused high bits of the last byte are zero.  Packing and unpacking
// are integer-only, so every ISA path produces and reads the same bytes.

/// Bytes holding `n` codes bit-packed at integer bitwidth `b`.
std::size_t packed_size(std::size_t n, Bitwidth b);

/// The one writer.  Quantizes `values` in contiguous groups of
/// `group_size` elements (short tail allowed) and bit-packs the codes,
/// streaming over L1-sized chunks of whole groups: per group max |v| ->
/// scale_for_range -> quantize -> pack, without materializing int32
/// codes.  `params_out` receives one QuantParams per group and must hold
/// exactly ceil(n / group_size) entries; `packed_out` must hold exactly
/// packed_size(n, b) bytes.  Codes are round-to-nearest of v / scale,
/// clamped to code_range(b).
///
/// When `fold` is non-null, the pass also completes that fingerprint of
/// `values`: each kPackChunk of values past fold->folded() (which must be
/// a multiple of kPackChunk, or values.size()) is folded in just before
/// its max |v| scan, while it is still in cache, so a tensor that is both
/// fingerprinted and quantized is read from memory once.
void quantize_pack(std::span<const float> values, std::size_t group_size,
                   Bitwidth b, std::span<QuantParams> params_out,
                   std::span<std::uint8_t> packed_out,
                   Fingerprint* fold = nullptr);

/// The one decoder: codes[j] = the int32 code of element begin + j of
/// a packed_size-byte stream written by quantize_pack (offset + lo).
/// Reads only bytes of `packed`; any `begin` is allowed.
void unpack_codes(std::span<const std::uint8_t> packed, std::size_t begin,
                  Bitwidth b, std::span<std::int32_t> codes);

/// out[j] = scale * float(code) for element begin + j, with the params of
/// that element's group (group g covers [g*group_size,
/// (g+1)*group_size)).  unpack_codes followed by the dequantize kernel in
/// cache-sized pieces.  Safe to call concurrently (stack scratch only).
void dequantize_packed(std::span<const std::uint8_t> packed,
                       std::size_t begin, Bitwidth b,
                       std::span<const QuantParams> params,
                       std::size_t group_size, std::span<float> out);

/// Shared quant-side worker pool, sized by the kernel-thread knob of the
/// GEMM layer (SQ_THREADS / sq::tensor::set_kernel_threads, one knob for
/// all kernels).  Returns nullptr when single-threaded execution is in
/// effect or the caller is already a pool worker (nested parallel sections
/// degrade to inline execution; results are identical either way).
sq::common::ThreadPool* quant_pool();

}  // namespace sq::quant
