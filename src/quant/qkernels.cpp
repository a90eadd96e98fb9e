// ISA-dispatched quantize/dequantize kernels.  See qkernels.h for the
// determinism argument; like every kernel translation unit this one is
// compiled with -ffp-contract=off (CMakeLists.txt), so no float chain can
// be contracted to FMA.
#include "quant/qkernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/memo_cache.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define SQ_QK_MULTI_ISA 1
#include <immintrin.h>
#define SQ_QK_TARGET_AVX2 __attribute__((target("avx2")))
#define SQ_QK_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define SQ_QK_MULTI_ISA 0
#endif

namespace sq::quant {

namespace {

// Raw per-ISA loop signatures.  `inv_scale` is precomputed by the wrapper
// exactly as the scalar reference does (1/scale, or 0 when scale == 0).
struct Kernels {
  const char* name;
  float (*absmax)(const float*, std::size_t);
  void (*dequant)(const std::int32_t*, std::size_t, float scale, float*);
  // Packed storage (qkernels.h "Bit-packed code storage"): quantize to the
  // one-byte offsets code - lo, pack `units` runs of 8 offset bytes into
  // 8*b bits each, and unpack `units` runs back to int32 codes.
  void (*quantize_u8)(const float*, std::size_t, float inv_scale,
                      std::int32_t lo, std::int32_t hi, std::uint8_t*);
  void (*pack)(const std::uint8_t*, std::size_t units, int b, std::uint8_t*);
  void (*unpack)(const std::uint8_t*, std::size_t units, int b,
                 std::int32_t lo, std::int32_t*);
  // Fingerprint (qkernels.h): fold `blocks` whole 1 KiB blocks into the
  // eight lanes `acc`, each block ending in its scramble.
  void (*fp_blocks)(std::uint64_t* acc, const std::uint8_t*, std::size_t blocks);
};

// ---- Scalar base path (and tail loops of the vector paths) --------------

/// max |v[i]|, +0.0 when every value is a zero (or n == 0).
float absmax_base(const float* v, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(v[i]));
  return m;
}

/// One element's quantize chain: scale, round, clamp.
std::int32_t quantize_one(float v, float inv_scale, std::int32_t lo,
                          std::int32_t hi) {
  const float rounded = std::nearbyint(v * inv_scale);
  return std::clamp(static_cast<std::int32_t>(rounded), lo, hi);
}

void dequant_base(const std::int32_t* c, std::size_t n, float scale,
                  float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = scale * static_cast<float>(c[i]);
  }
}

void quantize_u8_base(const float* v, std::size_t n, float inv_scale,
                      std::int32_t lo, std::int32_t hi, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(quantize_one(v[i], inv_scale, lo, hi) - lo);
  }
}

// ---- Bit packing (integer-only; the vector paths reuse these for tails) --
// A "unit" is 8 consecutive elements: 8 offset bytes before packing, b
// bytes after, so unit u of a packed stream starts at byte u * b.

/// Little-endian load/store of the first `n` (<= 8) bytes of a word.
std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t x = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&x, p, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) x |= std::uint64_t{p[i]} << (8 * i);
  }
  return x;
}

void store_le(std::uint8_t* p, std::uint64_t x, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &x, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(x >> (8 * i));
  }
}

/// SWAR constants that merge 8 b-bit fields held one per byte (b < 8)
/// into 8*b contiguous bits: adjacent fields join pairwise in 16-bit
/// lanes, pairs join in 32-bit lanes, then the two halves join.
struct PackSteps {
  unsigned shift[3];
  std::uint64_t mask[3];
  explicit PackSteps(int b) {
    const auto ub = static_cast<unsigned>(b);
    shift[0] = 8 - ub;
    shift[1] = 16 - 2 * ub;
    shift[2] = 32 - 4 * ub;
    mask[0] = ((std::uint64_t{1} << (2 * ub)) - 1) * 0x0001000100010001ull;
    mask[1] = ((std::uint64_t{1} << (4 * ub)) - 1) * 0x0000000100000001ull;
    mask[2] = (std::uint64_t{1} << (8 * ub)) - 1;
  }
};

void pack_base(const std::uint8_t* in, std::size_t units, int b,
               std::uint8_t* out) {
  if (b == 8) {
    std::memcpy(out, in, units * 8);
    return;
  }
  const PackSteps st(b);
  for (std::size_t u = 0; u < units; ++u) {
    std::uint64_t x = load_le(in + 8 * u, 8);
    for (int s = 0; s < 3; ++s) x = (x | (x >> st.shift[s])) & st.mask[s];
    store_le(out + u * static_cast<std::size_t>(b), x, static_cast<std::size_t>(b));
  }
}

/// Decode one unit from its first `avail` (<= b) bytes; a short final unit
/// of a stream reads only the bytes that exist (the rest decode as 0).
void unpack_unit(const std::uint8_t* in, std::size_t avail, int b,
                 std::int32_t lo, std::int32_t* out) {
  const std::uint64_t x = load_le(in, avail);
  const std::uint64_t mask = (std::uint64_t{1} << b) - 1;
  for (int j = 0; j < 8; ++j) {
    out[j] = static_cast<std::int32_t>((x >> (j * b)) & mask) + lo;
  }
}

void unpack_base(const std::uint8_t* in, std::size_t units, int b,
                 std::int32_t lo, std::int32_t* out) {
  const auto ub = static_cast<std::size_t>(b);
  for (std::size_t u = 0; u < units; ++u) {
    unpack_unit(in + u * ub, ub, b, lo, out + 8 * u);
  }
}

// ---- Weight fingerprint (qkernels.h "Weight fingerprint") ---------------

constexpr std::size_t kStripeBytes = 64;
constexpr std::size_t kStripesPerBlock = 16;
static_assert(kStripesPerBlock * kStripeBytes ==
              Fingerprint::kBlockFloats * sizeof(float));
static_assert(kPackChunk % Fingerprint::kBlockFloats == 0);
constexpr std::uint64_t kFpPrime = 0x9E3779B1u;  // 32-bit prime near 2^32 / phi.

/// The fixed keys, a splitmix64 stream: stripe s reads K[s, s + 8) (the
/// sixteen stripes of a block use K[0, 23)), the scramble K[24, 32), and
/// K[32, 40) seed the lanes.
constexpr std::array<std::uint64_t, 40> make_fp_keys() {
  std::array<std::uint64_t, 40> keys{};
  std::uint64_t x = 0x5171C4C5A11CE5EDull;
  for (std::uint64_t& k : keys) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    k = z ^ (z >> 31);
  }
  return keys;
}
constexpr std::array<std::uint64_t, 40> kFpKeys = make_fp_keys();
constexpr std::size_t kFpScramble = 24;
constexpr std::size_t kFpSeed = 32;

/// One stripe of eight words into the lanes, keyed by key[0, 8).
void fp_stripe(std::uint64_t* acc, const std::uint8_t* p,
               const std::uint64_t* key) {
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t w = load_le(p + 8 * i, 8);
    const std::uint64_t k = w ^ key[i];
    acc[i ^ 1] += w;
    acc[i] += (k & 0xFFFFFFFFu) * (k >> 32);
  }
}

void fp_blocks_base(std::uint64_t* acc, const std::uint8_t* p,
                    std::size_t blocks) {
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t s = 0; s < kStripesPerBlock; ++s, p += kStripeBytes) {
      fp_stripe(acc, p, kFpKeys.data() + s);
    }
    for (std::size_t i = 0; i < 8; ++i) {
      acc[i] = (acc[i] ^ (acc[i] >> 47) ^ kFpKeys[kFpScramble + i]) * kFpPrime;
    }
  }
}

#if SQ_QK_MULTI_ISA

// ---- AVX2 (8-wide) ------------------------------------------------------
// _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC (imm 0x0C) is exactly
// std::nearbyint: honor MXCSR.RC, raise no inexact.  cvttps truncates the
// already-integral rounded value, matching static_cast<int32> (both yield
// INT_MIN on overflow, which the clamp then pins to `lo` either way).

/// Eight lanes of |v|, reduced in registers at the end; the operands are
/// non-negative, so max is exact in any order.  The AVX-512 path reuses
/// this loop: a group is short, and the quantize step dominates the write
/// path.
SQ_QK_TARGET_AVX2
float absmax_avx2(const float* v, std::size_t n) {
  const __m256 magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 vm = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_and_ps(_mm256_loadu_ps(v + i), magnitude));
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(vm), _mm256_extractf128_ps(vm, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  return std::max(_mm_cvtss_f32(m), absmax_base(v + i, n - i));
}

/// The clamped codes of v[0..8): the quantize chain shared by every AVX2
/// loop below.
SQ_QK_TARGET_AVX2
inline __m256i quantize8_avx2(const float* v, __m256 vis, __m256i vlo,
                              __m256i vhi) {
  const __m256 scaled = _mm256_mul_ps(_mm256_loadu_ps(v), vis);
  const __m256 rounded =
      _mm256_round_ps(scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  const __m256i code = _mm256_cvttps_epi32(rounded);
  return _mm256_min_epi32(_mm256_max_epi32(code, vlo), vhi);
}

SQ_QK_TARGET_AVX2
void dequant_avx2(const std::int32_t* c, std::size_t n, float scale,
                  float* out) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + i)));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(vs, f));
  }
  dequant_base(c + i, n - i, scale, out + i);
}

SQ_QK_TARGET_AVX2
void quantize_u8_avx2(const float* v, std::size_t n, float inv_scale,
                      std::int32_t lo, std::int32_t hi, std::uint8_t* out) {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  // Offsets are in [0, 255], so both saturating packs are exact; they
  // interleave the 128-bit lanes, which the dword permute undoes.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a = _mm256_sub_epi32(quantize8_avx2(v + i, vs, vlo, vhi), vlo);
    const __m256i b = _mm256_sub_epi32(quantize8_avx2(v + i + 8, vs, vlo, vhi), vlo);
    const __m256i w = _mm256_packs_epi32(a, b);
    const __m256i bytes =
        _mm256_permutevar8x32_epi32(_mm256_packus_epi16(w, w), order);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(bytes));
  }
  quantize_u8_base(v + i, n - i, inv_scale, lo, hi, out + i);
}

/// Four units per step: the SWAR merge of pack_base on 64-bit lanes, then
/// one byte shuffle gathers each lane's low b bytes into 4b contiguous
/// bytes (lanes 0-1 from the low half, lanes 2-3 placed after them from
/// the high half).  The AVX-512 path reuses this loop: packing reads one
/// byte per weight, so the float quantize step dominates the write path.
SQ_QK_TARGET_AVX2
void pack_avx2(const std::uint8_t* in, std::size_t units, int b,
               std::uint8_t* out) {
  if (b == 8) {
    std::memcpy(out, in, units * 8);
    return;
  }
  const PackSteps st(b);
  __m128i shift[3];
  __m256i mask[3];
  for (int s = 0; s < 3; ++s) {
    shift[s] = _mm_cvtsi32_si128(static_cast<int>(st.shift[s]));
    mask[s] = _mm256_set1_epi64x(static_cast<long long>(st.mask[s]));
  }
  alignas(32) std::int8_t ctl[32];
  std::memset(ctl, -1, sizeof ctl);  // -1: shuffle writes a zero byte
  for (int half = 0; half < 2; ++half) {
    for (int lane = 0; lane < 2; ++lane) {
      for (int j = 0; j < b; ++j) {
        ctl[half * 16 + half * 2 * b + lane * b + j] =
            static_cast<std::int8_t>(lane * 8 + j);
      }
    }
  }
  const __m256i gather = _mm256_load_si256(reinterpret_cast<const __m256i*>(ctl));
  const auto ub = static_cast<std::size_t>(b);
  std::size_t u = 0;
  for (; u + 4 <= units; u += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 8 * u));
    for (int s = 0; s < 3; ++s) {
      x = _mm256_and_si256(_mm256_or_si256(x, _mm256_srl_epi64(x, shift[s])),
                           mask[s]);
    }
    x = _mm256_shuffle_epi8(x, gather);
    const __m128i r =
        _mm_or_si128(_mm256_castsi256_si128(x), _mm256_extracti128_si256(x, 1));
    std::uint8_t* dst = out + u * ub;
    if (b == 4) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), r);
    } else {  // 4b = 12 bytes
      _mm_storel_epi64(reinterpret_cast<__m128i*>(dst), r);
      const auto tail = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(r, 8)));
      std::memcpy(dst + 8, &tail, 4);
    }
  }
  pack_base(in + 8 * u, units - u, b, out + u * ub);
}

/// One unit per step: broadcast its b bytes, shift lane j right by j*b,
/// mask.  A 4-byte load reads one byte past an INT3 unit, so the last
/// INT3 unit is left to the exact-width scalar decoder.
SQ_QK_TARGET_AVX2
void unpack_avx2(const std::uint8_t* in, std::size_t units, int b,
                 std::int32_t lo, std::int32_t* out) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  std::size_t u = 0;
  if (b == 8) {
    for (; u < units; ++u) {
      const __m256i c = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(in + 8 * u)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * u),
                          _mm256_add_epi32(c, vlo));
    }
    return;
  }
  const __m256i shifts = _mm256_setr_epi32(0, b, 2 * b, 3 * b, 4 * b, 5 * b,
                                           6 * b, 7 * b);
  const __m256i mask = _mm256_set1_epi32((1 << b) - 1);
  const auto ub = static_cast<std::size_t>(b);
  const std::size_t wide = b == 4 || units == 0 ? units : units - 1;
  for (; u < wide; ++u) {
    std::uint32_t w;
    std::memcpy(&w, in + u * ub, 4);
    const __m256i c = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(w)), shifts), mask);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * u),
                        _mm256_add_epi32(c, vlo));
  }
  unpack_base(in + u * ub, units - u, b, lo, out + 8 * u);
}

SQ_QK_TARGET_AVX2
inline __m256i fp_load_avx2(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// Half a stripe into four lanes: lane i ^ 1 is the neighbour in the same
/// 128-bit half, one dword shuffle away.
SQ_QK_TARGET_AVX2
inline __m256i fp_stripe_avx2(__m256i acc, const std::uint8_t* p,
                              const std::uint64_t* key) {
  const __m256i w = fp_load_avx2(p);
  const __m256i k = _mm256_xor_si256(w, fp_load_avx2(key));
  acc = _mm256_add_epi64(acc, _mm256_shuffle_epi32(w, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm256_add_epi64(acc, _mm256_mul_epu32(k, _mm256_srli_epi64(k, 32)));
}

/// (acc ^ acc >> 47 ^ key) * P mod 2^64, P < 2^32: lo32 * P + (hi32 * P << 32).
SQ_QK_TARGET_AVX2
inline __m256i fp_scramble_avx2(__m256i acc, __m256i key, __m256i prime) {
  const __m256i x =
      _mm256_xor_si256(_mm256_xor_si256(acc, _mm256_srli_epi64(acc, 47)), key);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), prime);
  return _mm256_add_epi64(_mm256_mul_epu32(x, prime), _mm256_slli_epi64(hi, 32));
}

/// Lanes 0-3 and 4-7 live in two registers.
SQ_QK_TARGET_AVX2
void fp_blocks_avx2(std::uint64_t* acc, const std::uint8_t* p,
                    std::size_t blocks) {
  __m256i a0 = fp_load_avx2(acc);
  __m256i a1 = fp_load_avx2(acc + 4);
  const __m256i sk0 = fp_load_avx2(kFpKeys.data() + kFpScramble);
  const __m256i sk1 = fp_load_avx2(kFpKeys.data() + kFpScramble + 4);
  const __m256i prime = _mm256_set1_epi64x(static_cast<long long>(kFpPrime));
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t s = 0; s < kStripesPerBlock; ++s, p += kStripeBytes) {
      a0 = fp_stripe_avx2(a0, p, kFpKeys.data() + s);
      a1 = fp_stripe_avx2(a1, p + 32, kFpKeys.data() + s + 4);
    }
    a0 = fp_scramble_avx2(a0, sk0, prime);
    a1 = fp_scramble_avx2(a1, sk1, prime);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc), a0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4), a1);
}

// ---- AVX-512 (16-wide) --------------------------------------------------
// roundscale imm 0x0C: M=0, suppress-precision, use MXCSR — nearbyint again.

/// The clamped codes of v[0..16) (AVX-512 twin of quantize8_avx2).
SQ_QK_TARGET_AVX512
inline __m512i quantize16_avx512(const float* v, __m512 vis, __m512i vlo,
                                 __m512i vhi) {
  const __m512 scaled = _mm512_mul_ps(_mm512_loadu_ps(v), vis);
  const __m512 rounded =
      _mm512_roundscale_ps(scaled, _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
  const __m512i code = _mm512_cvttps_epi32(rounded);
  return _mm512_min_epi32(_mm512_max_epi32(code, vlo), vhi);
}

SQ_QK_TARGET_AVX512
void dequant_avx512(const std::int32_t* c, std::size_t n, float scale,
                    float* out) {
  const __m512 vs = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 f = _mm512_cvtepi32_ps(_mm512_loadu_si512(c + i));
    _mm512_storeu_ps(out + i, _mm512_mul_ps(vs, f));
  }
  dequant_base(c + i, n - i, scale, out + i);
}

SQ_QK_TARGET_AVX512
void quantize_u8_avx512(const float* v, std::size_t n, float inv_scale,
                        std::int32_t lo, std::int32_t hi, std::uint8_t* out) {
  const __m512 vs = _mm512_set1_ps(inv_scale);
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Offsets are in [0, 255]: the truncating dword->byte narrow is exact.
    const __m512i offs =
        _mm512_sub_epi32(quantize16_avx512(v + i, vs, vlo, vhi), vlo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_cvtepi32_epi8(offs));
  }
  quantize_u8_base(v + i, n - i, inv_scale, lo, hi, out + i);
}

/// Two units per step: unit 0 feeds lanes 0-7 and unit 1 lanes 8-15, each
/// lane shifted by (j mod 8) * b.  The 8-byte INT3 load reads two bytes
/// past the pair, so it runs only while a further unit follows; the rest
/// goes through unpack_avx2.
SQ_QK_TARGET_AVX512
void unpack_avx512(const std::uint8_t* in, std::size_t units, int b,
                   std::int32_t lo, std::int32_t* out) {
  const __m512i vlo = _mm512_set1_epi32(lo);
  const auto ub = static_cast<std::size_t>(b);
  std::size_t u = 0;
  if (b == 8) {
    for (; u + 2 <= units; u += 2) {
      const __m512i c = _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 8 * u)));
      _mm512_storeu_si512(out + 8 * u, _mm512_add_epi32(c, vlo));
    }
  } else {
    const __m512i shifts =
        _mm512_setr_epi32(0, b, 2 * b, 3 * b, 4 * b, 5 * b, 6 * b, 7 * b, 0,
                          b, 2 * b, 3 * b, 4 * b, 5 * b, 6 * b, 7 * b);
    const __m512i mask = _mm512_set1_epi32((1 << b) - 1);
    const std::size_t pairs_end = b == 4 ? units : (units > 2 ? units - 1 : 0);
    for (; u + 2 <= pairs_end; u += 2) {
      std::uint64_t w;
      std::memcpy(&w, in + u * ub, 8);
      const auto w0 = static_cast<int>(w & ((std::uint64_t{1} << (8 * ub)) - 1));
      const auto w1 = static_cast<int>(w >> (8 * ub));
      const __m512i x = _mm512_inserti64x4(
          _mm512_castsi256_si512(_mm256_set1_epi32(w0)), _mm256_set1_epi32(w1), 1);
      const __m512i c = _mm512_and_si512(_mm512_srlv_epi32(x, shifts), mask);
      _mm512_storeu_si512(out + 8 * u, _mm512_add_epi32(c, vlo));
    }
  }
  unpack_avx2(in + u * ub, units - u, b, lo, out + 8 * u);
}

/// All eight fingerprint lanes in one register (AVX-512 twin of
/// fp_blocks_avx2).
SQ_QK_TARGET_AVX512
void fp_blocks_avx512(std::uint64_t* acc, const std::uint8_t* p,
                      std::size_t blocks) {
  __m512i a = _mm512_loadu_si512(acc);
  const __m512i sk = _mm512_loadu_si512(kFpKeys.data() + kFpScramble);
  const __m512i prime = _mm512_set1_epi64(static_cast<long long>(kFpPrime));
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t s = 0; s < kStripesPerBlock; ++s, p += kStripeBytes) {
      const __m512i w = _mm512_loadu_si512(p);
      const __m512i k = _mm512_xor_si512(w, _mm512_loadu_si512(kFpKeys.data() + s));
      a = _mm512_add_epi64(
          a, _mm512_shuffle_epi32(w, static_cast<_MM_PERM_ENUM>(_MM_SHUFFLE(1, 0, 3, 2))));
      a = _mm512_add_epi64(a, _mm512_mul_epu32(k, _mm512_srli_epi64(k, 32)));
    }
    const __m512i x =
        _mm512_xor_si512(_mm512_xor_si512(a, _mm512_srli_epi64(a, 47)), sk);
    const __m512i hi = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), prime);
    a = _mm512_add_epi64(_mm512_mul_epu32(x, prime), _mm512_slli_epi64(hi, 32));
  }
  _mm512_storeu_si512(acc, a);
}

#endif  // SQ_QK_MULTI_ISA

// ---- Dispatch -----------------------------------------------------------

constexpr Kernels kBase{"base",           absmax_base,   dequant_base,
                        quantize_u8_base, pack_base,     unpack_base,    fp_blocks_base};
#if SQ_QK_MULTI_ISA
constexpr Kernels kAvx2{"avx2",           absmax_avx2,   dequant_avx2,
                        quantize_u8_avx2, pack_avx2,     unpack_avx2,    fp_blocks_avx2};
constexpr Kernels kAvx512{"avx512",           absmax_avx2,   dequant_avx512,
                          quantize_u8_avx512, pack_avx2,     unpack_avx512,   fp_blocks_avx512};
#endif

const Kernels* pick_kernels() {
#if SQ_QK_MULTI_ISA
  if (__builtin_cpu_supports("avx512f")) return &kAvx512;
  if (__builtin_cpu_supports("avx2")) return &kAvx2;
#endif
  return &kBase;
}

std::atomic<const Kernels*>& current_kernels() {
  static std::atomic<const Kernels*> cur{pick_kernels()};
  return cur;
}

const Kernels& kernels() { return *current_kernels().load(std::memory_order_acquire); }

float inv_scale_of(const QuantParams& p) {
  return p.scale != 0.0f ? 1.0f / p.scale : 0.0f;
}

// ---- Streaming packer ---------------------------------------------------

/// Codes per read-path piece (1 KiB of int32 scratch on the stack).
constexpr std::size_t kPiece = 256;

/// Collects offset bytes in stream order and packs every whole unit of 8
/// into the output; up to 7 trailing bytes carry over to the next batch,
/// so groups of any size pack without per-element bit twiddling.
class Packer {
 public:
  Packer(const Kernels& k, int b, std::span<std::uint8_t> out)
      : k_(k), b_(b), out_(out) {}

  /// Room for `n` (<= kPackChunk) offset bytes; write them, then commit(n).
  std::uint8_t* reserve(std::size_t n) {
    if (fill_ + n > sizeof buf_) flush();
    return buf_ + fill_;
  }
  void commit(std::size_t n) { fill_ += n; }

  /// Pack the last partial unit with zero padding; write only its bytes.
  void finish() {
    flush();
    if (fill_ > 0) {
      std::memset(buf_ + fill_, 0, 8 - fill_);
      std::uint8_t unit[8];
      k_.pack(buf_, 1, b_, unit);
      std::memcpy(out_.data() + written_, unit, out_.size() - written_);
      written_ = out_.size();
    }
    assert(written_ == out_.size());
  }

 private:
  void flush() {
    const std::size_t units = fill_ / 8;
    if (units == 0) return;
    k_.pack(buf_, units, b_, out_.data() + written_);
    written_ += units * static_cast<std::size_t>(b_);
    const std::size_t rest = fill_ - units * 8;
    std::memmove(buf_, buf_ + units * 8, rest);
    fill_ = rest;
  }

  const Kernels& k_;
  const int b_;
  std::span<std::uint8_t> out_;
  std::size_t written_ = 0;
  std::size_t fill_ = 0;
  alignas(64) std::uint8_t buf_[kPackChunk + 8];
};

// ---- Quant-side thread pool ---------------------------------------------

struct QuantThreads {
  std::mutex mu;
  std::unique_ptr<sq::common::ThreadPool> pool;
};

QuantThreads& quant_threads_state() {
  static QuantThreads state;
  return state;
}

}  // namespace

const char* qkernel_isa() { return kernels().name; }

Fingerprint::Fingerprint() {
  std::copy_n(kFpKeys.begin() + kFpSeed, 8, acc_);
}

void Fingerprint::fold(std::span<const float> values) {
  assert((values.empty() || n_ % kBlockFloats == 0) &&
         "Fingerprint::fold after a short block");
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  const std::size_t blocks = values.size() / kBlockFloats;
  if (blocks > 0) kernels().fp_blocks(acc_, p, blocks);
  // The short block: whole stripes, then a zero-padded last one.
  p += blocks * kStripesPerBlock * kStripeBytes;
  std::size_t rest = (values.size() % kBlockFloats) * sizeof(float);
  for (std::size_t s = 0; rest > 0; ++s, p += kStripeBytes) {
    std::uint8_t stripe[kStripeBytes] = {};
    const std::size_t len = std::min(rest, kStripeBytes);
    std::memcpy(stripe, p, len);
    fp_stripe(acc_, stripe, kFpKeys.data() + s);
    rest -= len;
  }
  n_ += values.size();
}

std::uint64_t Fingerprint::value(std::size_t rows, std::size_t cols) const {
  using sq::common::hash_mix;
  std::uint64_t h = hash_mix(0x5171c4c5ULL, rows);
  h = hash_mix(h, cols);
  h = hash_mix(h, n_ * sizeof(float));
  for (const std::uint64_t lane : acc_) h = hash_mix(h, lane);
  return h;
}

bool set_qkernel_isa(const char* name) {
  const Kernels* next = nullptr;
  if (std::strcmp(name, "auto") == 0) {
    next = pick_kernels();
  } else if (std::strcmp(name, "base") == 0) {
    next = &kBase;
  }
#if SQ_QK_MULTI_ISA
  else if (std::strcmp(name, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
    next = &kAvx2;
  } else if (std::strcmp(name, "avx512") == 0 &&
             __builtin_cpu_supports("avx512f")) {
    next = &kAvx512;
  }
#endif
  if (next == nullptr) return false;
  current_kernels().store(next, std::memory_order_release);
  return true;
}

std::size_t packed_size(std::size_t n, Bitwidth b) {
  assert(b != Bitwidth::kFp16 && "packed_size: FP16 is not code-packed");
  return (n * static_cast<std::size_t>(bits(b)) + 7) / 8;
}

void quantize_pack(std::span<const float> values, std::size_t group_size,
                   Bitwidth b, std::span<QuantParams> params_out,
                   std::span<std::uint8_t> packed_out, Fingerprint* fold) {
  assert(group_size > 0 && "quantize_pack: zero group size");
  const std::size_t n = values.size();
  const std::size_t n_groups = (n + group_size - 1) / group_size;
  assert(params_out.size() == n_groups && packed_out.size() == packed_size(n, b));
  assert((fold == nullptr || fold->folded() == n ||
          fold->folded() % kPackChunk == 0) &&
         "quantize_pack: fingerprint off the chunk grid");
  const Kernels& k = kernels();
  const auto [lo, hi] = code_range(b);
  Packer packer(k, bits(b), packed_out);
  // Chunks of whole groups sized to stay in L1 between the max|w| scan
  // and the quantize step (one group per chunk when a group is larger).
  const std::size_t groups_per_chunk = std::max<std::size_t>(1, kPackChunk / group_size);
  for (std::size_t g0 = 0; g0 < n_groups; g0 += groups_per_chunk) {
    const std::size_t g1 = std::min(n_groups, g0 + groups_per_chunk);
    // The fingerprint folds on its own kPackChunk grid, which a group size
    // that does not divide kPackChunk leaves a chunk ahead of this one.
    while (fold != nullptr && fold->folded() < std::min(n, g1 * group_size)) {
      const std::size_t at = fold->folded();
      fold->fold(values.subspan(at, std::min(kPackChunk, n - at)));
    }
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t begin = g * group_size;
      const std::size_t len = std::min(group_size, n - begin);
      const float amax = k.absmax(values.data() + begin, len);
      params_out[g].scale = scale_for_range(-amax, amax, b);
    }
    for (std::size_t g = g0; g < g1; ++g) {
      const QuantParams& p = params_out[g];
      const float inv_scale = inv_scale_of(p);
      const std::size_t end = std::min(n, (g + 1) * group_size);
      for (std::size_t i = g * group_size; i < end; i += kPackChunk) {
        const std::size_t len = std::min(kPackChunk, end - i);
        k.quantize_u8(values.data() + i, len, inv_scale, lo, hi,
                      packer.reserve(len));
        packer.commit(len);
      }
    }
  }
  packer.finish();
}

void unpack_codes(std::span<const std::uint8_t> packed, std::size_t begin,
                  Bitwidth b, std::span<std::int32_t> codes) {
  const int nb = bits(b);
  const auto ub = static_cast<std::size_t>(nb);
  const std::int32_t lo = code_range(b).first;
  std::size_t i = begin;
  const std::size_t end = begin + codes.size();
  std::int32_t* out = codes.data();
  // Whole units go to the kernel; a partial unit at either end is decoded
  // into scratch from the bytes that exist and the requested codes copied.
  const auto partial = [&](std::size_t upto) {
    std::int32_t unit[8];
    const std::size_t u = i / 8;
    unpack_unit(packed.data() + u * ub, std::min(ub, packed.size() - u * ub), nb,
                lo, unit);
    const std::size_t take = upto - i;
    std::copy_n(unit + i % 8, take, out);
    out += take;
    i += take;
  };
  if (i % 8 != 0 && i < end) partial(std::min(end, (i / 8 + 1) * 8));
  const std::size_t units = (end - i) / 8;
  if (units > 0) {
    assert((i / 8 + units) * ub <= packed.size());
    kernels().unpack(packed.data() + (i / 8) * ub, units, nb, lo, out);
    out += units * 8;
    i += units * 8;
  }
  if (i < end) partial(end);
}

void dequantize_packed(std::span<const std::uint8_t> packed,
                       std::size_t begin, Bitwidth b,
                       std::span<const QuantParams> params,
                       std::size_t group_size, std::span<float> out) {
  assert(group_size > 0 && "dequantize_packed: zero group size");
  const Kernels& k = kernels();
  alignas(64) std::int32_t codes[kPiece];
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t len = std::min(kPiece, out.size() - done);
    unpack_codes(packed, begin + done, b, std::span<std::int32_t>(codes, len));
    // Split the piece at group boundaries; each run gets its group's params.
    for (std::size_t j = 0; j < len;) {
      const std::size_t g = (begin + done + j) / group_size;
      const std::size_t run = std::min(len - j, (g + 1) * group_size - (begin + done + j));
      k.dequant(codes + j, run, params[g].scale, out.data() + done + j);
      j += run;
    }
    done += len;
  }
}

sq::common::ThreadPool* quant_pool() {
  const int n = sq::tensor::kernel_threads();
  if (n <= 1 || sq::common::on_pool_worker()) return nullptr;
  QuantThreads& st = quant_threads_state();
  const std::lock_guard<std::mutex> lk(st.mu);
  if (!st.pool || st.pool->size() != n) {
    st.pool = std::make_unique<sq::common::ThreadPool>(n);
  }
  return st.pool.get();
}

}  // namespace sq::quant
