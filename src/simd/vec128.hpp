#pragma once
/// \file vec128.hpp
/// \brief 128-bit SIMD wrapper: AVX2/SSE2 intrinsics with scalar fallback.
///
/// The paper's second representation stores a quadrant in an `__m128i`
/// register (Figure 1) and rewrites low-level algorithms with intrinsics
/// (Algorithms 9-12). This header wraps exactly the subset of SSE2/AVX2
/// used by those algorithms behind a type `Vec128` that degrades to a
/// scalar 4x32-bit struct when the build lacks AVX2, keeping every user of
/// the AVX representation portable and testable everywhere.
///
/// Lane convention: lane 0 is the lowest 32 bits (Intel element 0, i.e. the
/// last argument of _mm_set_epi32).

#include <cstdint>

#include "simd/feature_detect.hpp"

#if QFOREST_HAVE_AVX2
#include <immintrin.h>
#endif

namespace qforest::simd {

#if QFOREST_HAVE_AVX2

/// Hardware-backed 128-bit vector of four 32-bit (or two 64-bit) integers.
struct Vec128 {
  __m128i v;

  Vec128() : v(_mm_setzero_si128()) {}
  explicit Vec128(__m128i raw) : v(raw) {}

  /// Build from four 32-bit lanes; lane0 is the lowest.
  static Vec128 set32(std::uint32_t lane3, std::uint32_t lane2,
                      std::uint32_t lane1, std::uint32_t lane0) {
    return Vec128(_mm_set_epi32(static_cast<int>(lane3),
                                static_cast<int>(lane2),
                                static_cast<int>(lane1),
                                static_cast<int>(lane0)));
  }

  /// Build from two 64-bit lanes; lane0 is the lowest.
  static Vec128 set64(std::uint64_t lane1, std::uint64_t lane0) {
    return Vec128(_mm_set_epi64x(static_cast<long long>(lane1),
                                 static_cast<long long>(lane0)));
  }

  /// All four lanes equal to \p x.
  static Vec128 broadcast32(std::uint32_t x) {
    return Vec128(_mm_set1_epi32(static_cast<int>(x)));
  }

  /// Both 64-bit lanes equal to \p x.
  static Vec128 broadcast64(std::uint64_t x) {
    return Vec128(_mm_set1_epi64x(static_cast<long long>(x)));
  }

  static Vec128 zero() { return Vec128(_mm_setzero_si128()); }
  static Vec128 ones() { return Vec128(_mm_set1_epi32(-1)); }

  /// Extract 32-bit lane \p i (compile-time index).
  template <int I>
  [[nodiscard]] std::uint32_t lane32() const {
    return static_cast<std::uint32_t>(_mm_extract_epi32(v, I));
  }

  /// Extract 64-bit lane \p i (compile-time index).
  template <int I>
  [[nodiscard]] std::uint64_t lane64() const {
    return static_cast<std::uint64_t>(_mm_extract_epi64(v, I));
  }

  /// Replace 32-bit lane \p I, returning the new vector.
  template <int I>
  [[nodiscard]] Vec128 with_lane32(std::uint32_t x) const {
    return Vec128(_mm_insert_epi32(v, static_cast<int>(x), I));
  }

  friend Vec128 operator&(Vec128 a, Vec128 b) {
    return Vec128(_mm_and_si128(a.v, b.v));
  }
  friend Vec128 operator|(Vec128 a, Vec128 b) {
    return Vec128(_mm_or_si128(a.v, b.v));
  }
  friend Vec128 operator^(Vec128 a, Vec128 b) {
    return Vec128(_mm_xor_si128(a.v, b.v));
  }
  /// ~a & b (note the SSE andnot argument order).
  static Vec128 andnot(Vec128 a, Vec128 b) {
    return Vec128(_mm_andnot_si128(a.v, b.v));
  }
  [[nodiscard]] Vec128 operator~() const {
    return Vec128(_mm_xor_si128(v, _mm_set1_epi32(-1)));
  }

  /// Lane-wise 32-bit addition.
  static Vec128 add32(Vec128 a, Vec128 b) {
    return Vec128(_mm_add_epi32(a.v, b.v));
  }
  /// Lane-wise 32-bit subtraction.
  static Vec128 sub32(Vec128 a, Vec128 b) {
    return Vec128(_mm_sub_epi32(a.v, b.v));
  }

  /// Shift all 32-bit lanes left by the runtime scalar \p count.
  static Vec128 shl32(Vec128 a, unsigned count) {
    return Vec128(_mm_sll_epi32(a.v, _mm_cvtsi32_si128(static_cast<int>(count))));
  }
  /// Shift all 32-bit lanes right (logical) by the runtime scalar \p count.
  static Vec128 shr32(Vec128 a, unsigned count) {
    return Vec128(_mm_srl_epi32(a.v, _mm_cvtsi32_si128(static_cast<int>(count))));
  }
  /// Per-lane variable left shift (AVX2 _mm_sllv_epi32).
  static Vec128 shlv32(Vec128 a, Vec128 counts) {
    return Vec128(_mm_sllv_epi32(a.v, counts.v));
  }
  /// Per-lane variable right shift (AVX2 _mm_srlv_epi32).
  static Vec128 shrv32(Vec128 a, Vec128 counts) {
    return Vec128(_mm_srlv_epi32(a.v, counts.v));
  }
  /// Per-lane variable left shift on 64-bit lanes (AVX2 _mm_sllv_epi64).
  static Vec128 shlv64(Vec128 a, Vec128 counts) {
    return Vec128(_mm_sllv_epi64(a.v, counts.v));
  }
  /// Per-lane variable right shift on 64-bit lanes (AVX2 _mm_srlv_epi64).
  static Vec128 shrv64(Vec128 a, Vec128 counts) {
    return Vec128(_mm_srlv_epi64(a.v, counts.v));
  }

  /// Lane-wise 32-bit equality; true lanes become 0xFFFFFFFF.
  static Vec128 cmpeq32(Vec128 a, Vec128 b) {
    return Vec128(_mm_cmpeq_epi32(a.v, b.v));
  }
  /// Lane-wise 32-bit signed greater-than; true lanes become 0xFFFFFFFF.
  static Vec128 cmpgt32(Vec128 a, Vec128 b) {
    return Vec128(_mm_cmpgt_epi32(a.v, b.v));
  }

  /// Per-lane select: lane from \p yes where mask lane is all-ones.
  static Vec128 blend(Vec128 mask, Vec128 yes, Vec128 no) {
    return Vec128(_mm_blendv_epi8(no.v, yes.v, mask.v));
  }

  /// Lane permute with compile-time indices: lane k of the result is lane
  /// Ik of this vector (one pshufd).
  template <int I0, int I1, int I2, int I3>
  [[nodiscard]] Vec128 shuffle32() const {
    return Vec128(_mm_shuffle_epi32(v, I0 | (I1 << 2) | (I2 << 4) | (I3 << 6)));
  }

  /// Load four 32-bit lanes from 16-byte-aligned memory.
  static Vec128 load_aligned(const std::uint32_t* p) {
    return Vec128(_mm_load_si128(reinterpret_cast<const __m128i*>(p)));
  }

  /// One bit per byte of the vector (SSE2 movemask).
  [[nodiscard]] int movemask8() const { return _mm_movemask_epi8(v); }

  /// True when every bit is zero.
  [[nodiscard]] bool all_zero() const { return _mm_testz_si128(v, v) != 0; }

  /// Bitwise equality of two vectors.
  static bool equal(Vec128 a, Vec128 b) {
    return Vec128(_mm_xor_si128(a.v, b.v)).all_zero();
  }
};

#else  // scalar fallback --------------------------------------------------

/// Scalar stand-in for the 128-bit vector; semantics match the AVX2 path
/// lane for lane so tests written against Vec128 run unchanged.
struct Vec128 {
  std::uint32_t lanes[4] = {0, 0, 0, 0};

  Vec128() = default;

  static Vec128 set32(std::uint32_t lane3, std::uint32_t lane2,
                      std::uint32_t lane1, std::uint32_t lane0) {
    Vec128 r;
    r.lanes[0] = lane0;
    r.lanes[1] = lane1;
    r.lanes[2] = lane2;
    r.lanes[3] = lane3;
    return r;
  }

  static Vec128 set64(std::uint64_t lane1, std::uint64_t lane0) {
    Vec128 r;
    r.lanes[0] = static_cast<std::uint32_t>(lane0);
    r.lanes[1] = static_cast<std::uint32_t>(lane0 >> 32);
    r.lanes[2] = static_cast<std::uint32_t>(lane1);
    r.lanes[3] = static_cast<std::uint32_t>(lane1 >> 32);
    return r;
  }

  static Vec128 broadcast32(std::uint32_t x) { return set32(x, x, x, x); }
  static Vec128 broadcast64(std::uint64_t x) { return set64(x, x); }
  static Vec128 zero() { return Vec128{}; }
  static Vec128 ones() { return broadcast32(0xFFFFFFFFu); }

  template <int I>
  [[nodiscard]] std::uint32_t lane32() const {
    return lanes[I];
  }

  template <int I>
  [[nodiscard]] std::uint64_t lane64() const {
    return static_cast<std::uint64_t>(lanes[2 * I]) |
           (static_cast<std::uint64_t>(lanes[2 * I + 1]) << 32);
  }

  template <int I>
  [[nodiscard]] Vec128 with_lane32(std::uint32_t x) const {
    Vec128 r = *this;
    r.lanes[I] = x;
    return r;
  }

  friend Vec128 operator&(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = a.lanes[i] & b.lanes[i];
    return r;
  }
  friend Vec128 operator|(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = a.lanes[i] | b.lanes[i];
    return r;
  }
  friend Vec128 operator^(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = a.lanes[i] ^ b.lanes[i];
    return r;
  }
  static Vec128 andnot(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = ~a.lanes[i] & b.lanes[i];
    return r;
  }
  [[nodiscard]] Vec128 operator~() const {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = ~lanes[i];
    return r;
  }

  static Vec128 add32(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = a.lanes[i] + b.lanes[i];
    return r;
  }
  static Vec128 sub32(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) r.lanes[i] = a.lanes[i] - b.lanes[i];
    return r;
  }

  static Vec128 shl32(Vec128 a, unsigned count) {
    Vec128 r;
    for (int i = 0; i < 4; ++i)
      r.lanes[i] = count < 32 ? a.lanes[i] << count : 0;
    return r;
  }
  static Vec128 shr32(Vec128 a, unsigned count) {
    Vec128 r;
    for (int i = 0; i < 4; ++i)
      r.lanes[i] = count < 32 ? a.lanes[i] >> count : 0;
    return r;
  }
  static Vec128 shlv32(Vec128 a, Vec128 counts) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t c = counts.lanes[i];
      r.lanes[i] = c < 32 ? a.lanes[i] << c : 0;
    }
    return r;
  }
  static Vec128 shrv32(Vec128 a, Vec128 counts) {
    Vec128 r;
    for (int i = 0; i < 4; ++i) {
      const std::uint32_t c = counts.lanes[i];
      r.lanes[i] = c < 32 ? a.lanes[i] >> c : 0;
    }
    return r;
  }
  static Vec128 shlv64(Vec128 a, Vec128 counts) {
    const std::uint64_t c0 = counts.lane64<0>(), c1 = counts.lane64<1>();
    return set64(c1 < 64 ? a.lane64<1>() << c1 : 0,
                 c0 < 64 ? a.lane64<0>() << c0 : 0);
  }
  static Vec128 shrv64(Vec128 a, Vec128 counts) {
    const std::uint64_t c0 = counts.lane64<0>(), c1 = counts.lane64<1>();
    return set64(c1 < 64 ? a.lane64<1>() >> c1 : 0,
                 c0 < 64 ? a.lane64<0>() >> c0 : 0);
  }

  static Vec128 cmpeq32(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i)
      r.lanes[i] = a.lanes[i] == b.lanes[i] ? 0xFFFFFFFFu : 0u;
    return r;
  }
  static Vec128 cmpgt32(Vec128 a, Vec128 b) {
    Vec128 r;
    for (int i = 0; i < 4; ++i)
      r.lanes[i] = static_cast<std::int32_t>(a.lanes[i]) >
                           static_cast<std::int32_t>(b.lanes[i])
                       ? 0xFFFFFFFFu
                       : 0u;
    return r;
  }

  static Vec128 blend(Vec128 mask, Vec128 yes, Vec128 no) {
    Vec128 r;
    for (int i = 0; i < 4; ++i)
      r.lanes[i] =
          (yes.lanes[i] & mask.lanes[i]) | (no.lanes[i] & ~mask.lanes[i]);
    return r;
  }

  [[nodiscard]] int movemask8() const {
    int m = 0;
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t byte = (lanes[i / 4] >> (8 * (i % 4))) & 0xFFu;
      if (byte & 0x80u) m |= 1 << i;
    }
    return m;
  }

  template <int I0, int I1, int I2, int I3>
  [[nodiscard]] Vec128 shuffle32() const {
    return set32(lanes[I3], lanes[I2], lanes[I1], lanes[I0]);
  }

  static Vec128 load_aligned(const std::uint32_t* p) {
    return set32(p[3], p[2], p[1], p[0]);
  }

  [[nodiscard]] bool all_zero() const {
    return (lanes[0] | lanes[1] | lanes[2] | lanes[3]) == 0;
  }

  static bool equal(Vec128 a, Vec128 b) { return (a ^ b).all_zero(); }
};

#endif  // QFOREST_HAVE_AVX2

}  // namespace qforest::simd
