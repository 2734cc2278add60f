#pragma once
/// \file batch_avx.hpp
/// \brief Batched quadrant operations in 256-bit AVX2 registers (paper
/// future-work item: "the straightforward use of a wider register
/// capacity, for example 256-bit registers from AVX2").
///
/// A __m256i holds two 128-bit quadrants side by side; the lane-parallel
/// algorithms of quadrant_avx.hpp extend unchanged because every operand
/// (masks, shifts, level increments) is simply broadcast to both halves.
/// The batch entry points process arrays, which is how high-level loops
/// (refine: all children of all leaves; balance: all parents) consume
/// them. A scalar tail and a full scalar fallback keep the API portable.

#include <cstddef>
#include <cstdint>

#include "core/canonical.hpp"
#include "core/quadrant_avx.hpp"
#include "simd/vec128.hpp"

#if QFOREST_HAVE_AVX2
#include <immintrin.h>
#endif

namespace qforest {

/// Batched operations over arrays of AvxRep<Dim> quadrants.
template <int Dim>
class AvxBatch {
 public:
  using rep = AvxRep<Dim>;
  using quad_t = typename rep::quad_t;

  /// out[i] = child(in[i], c) for a uniform child index c — the shape of
  /// the inner loop of refine (children are created per fixed c).
  /// All inputs must share the refinement level \p level (uniform-level
  /// batches arise naturally per tree level in refine sweeps).
  static void child_uniform(const quad_t* in, quad_t* out, std::size_t n,
                            int c, int level) {
#if QFOREST_HAVE_AVX2
    const int shift = rep::max_level - (level + 1);
    // Direction bits of c expanded to one per coordinate lane, twice.
    const __m128i extid128 = _mm_and_si128(
        _mm_set_epi32(0, 4, 2, 1), _mm_set1_epi32(c));
    const __m128i insid128 =
        _mm_srlv_epi32(extid128, _mm_set_epi32(0, 2, 1, 0));
    const __m256i setbits = _mm256_slli_epi32(
        _mm256_broadcastsi128_si256(insid128), shift);
    const __m256i levelup = _mm256_broadcastsi128_si256(
        _mm_set_epi32(1, 0, 0, 0));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i r =
          _mm256_add_epi32(_mm256_or_si256(pair, setbits), levelup);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]), r);
    }
    for (; i < n; ++i) {
      out[i] = rep::child(in[i], c);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::child(in[i], c);
    }
#endif
  }

  /// out[i] = parent(in[i]); all inputs share the level \p level > 0.
  static void parent_uniform(const quad_t* in, quad_t* out, std::size_t n,
                             int level) {
#if QFOREST_HAVE_AVX2
    const auto len =
        static_cast<std::uint32_t>(rep::length_at(level));
    const __m256i clear = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, static_cast<int>(len), static_cast<int>(len),
                      static_cast<int>(len)));
    const __m256i leveldown = _mm256_broadcastsi128_si256(
        _mm_set_epi32(1, 0, 0, 0));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i r = _mm256_sub_epi32(
          _mm256_andnot_si256(clear, pair), leveldown);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]), r);
    }
    for (; i < n; ++i) {
      out[i] = rep::parent(in[i]);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::parent(in[i]);
    }
#endif
  }

  /// out[i] = face_neighbor(in[i], f); all inputs share \p level.
  static void face_neighbor_uniform(const quad_t* in, quad_t* out,
                                    std::size_t n, int f, int level) {
#if QFOREST_HAVE_AVX2
    const auto h = static_cast<int>(
        static_cast<std::uint32_t>(rep::length_at(level)));
    const int axis = f >> 1;
    const __m128i delta128 = axis == 0   ? _mm_set_epi32(0, 0, 0, h)
                             : axis == 1 ? _mm_set_epi32(0, 0, h, 0)
                                         : _mm_set_epi32(0, h, 0, 0);
    const __m256i delta = _mm256_broadcastsi128_si256(delta128);
    std::size_t i = 0;
    if (f & 1) {
      for (; i + 2 <= n; i += 2) {
        const __m256i pair = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(&in[i]));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]),
                            _mm256_add_epi32(pair, delta));
      }
    } else {
      for (; i + 2 <= n; i += 2) {
        const __m256i pair = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(&in[i]));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]),
                            _mm256_sub_epi32(pair, delta));
      }
    }
    for (; i < n; ++i) {
      out[i] = rep::face_neighbor(in[i], f);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::face_neighbor(in[i], f);
    }
#endif
  }

  /// out[i] = sibling(in[i], s) for a uniform sibling id s; all inputs
  /// share \p level > 0. One andnot + or per pair: clear the direction
  /// bit in every coordinate lane, then OR in the sibling's bits.
  static void sibling_uniform(const quad_t* in, quad_t* out, std::size_t n,
                              int s, int level) {
#if QFOREST_HAVE_AVX2
    const int shift = rep::max_level - level;
    const auto h = static_cast<int>(
        static_cast<std::uint32_t>(rep::length_at(level)));
    const __m128i extid128 = _mm_and_si128(
        _mm_set_epi32(0, 4, 2, 1), _mm_set1_epi32(s));
    const __m128i insid128 =
        _mm_srlv_epi32(extid128, _mm_set_epi32(0, 2, 1, 0));
    const __m256i setbits = _mm256_slli_epi32(
        _mm256_broadcastsi128_si256(insid128), shift);
    const __m256i clear = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, h, h, h));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i r =
          _mm256_or_si256(_mm256_andnot_si256(clear, pair), setbits);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]), r);
    }
    for (; i < n; ++i) {
      out[i] = rep::sibling(in[i], s);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::sibling(in[i], s);
    }
#endif
  }

  /// out[i] = first_descendant(in[i], to_level): replace the level lane,
  /// coordinates unchanged. Inputs may be of mixed levels <= to_level.
  static void first_descendant_n(const quad_t* in, quad_t* out,
                                 std::size_t n, int to_level) {
#if QFOREST_HAVE_AVX2
    const __m256i coord_keep = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, -1, -1, -1));
    const __m256i levelvec = _mm256_broadcastsi128_si256(
        _mm_set_epi32(to_level, 0, 0, 0));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i r =
          _mm256_or_si256(_mm256_and_si256(pair, coord_keep), levelvec);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]), r);
    }
    for (; i < n; ++i) {
      out[i] = rep::first_descendant(in[i], to_level);
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::first_descendant(in[i], to_level);
    }
#endif
  }

  /// out[i] = last_descendant(in[i], to_level); all inputs share \p level.
  static void last_descendant_n(const quad_t* in, quad_t* out,
                                std::size_t n, int level, int to_level) {
#if QFOREST_HAVE_AVX2
    const auto delta = static_cast<int>(static_cast<std::uint32_t>(
        rep::length_at(level) - rep::length_at(to_level)));
    const __m256i add = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, delta, delta, delta));
    const __m256i coord_keep = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, -1, -1, -1));
    const __m256i levelvec = _mm256_broadcastsi128_si256(
        _mm_set_epi32(to_level, 0, 0, 0));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i sum = _mm256_add_epi32(pair, add);
      const __m256i r =
          _mm256_or_si256(_mm256_and_si256(sum, coord_keep), levelvec);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[i]), r);
    }
    for (; i < n; ++i) {
      out[i] = rep::last_descendant(in[i], to_level);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::last_descendant(in[i], to_level);
    }
#endif
  }

  // Note: successor (data-dependent carry chain) has no lane-parallel
  // form. less is branch-free (AvxRep::less), but no forest path calls
  // less_mask, only tests, so it gets no kernel either. The dispatch layer
  // (BatchOps<AvxRep>) routes successor_n and less_mask to the shared
  // scalar bodies directly, so AvxBatch has no entry points for them.

  /// out[i] = child_id(in[i]); all inputs share \p level > 0. One AND +
  /// compare + byte movemask yields the direction bits of two quadrants.
  static void child_id_n(const quad_t* in, int* out, std::size_t n,
                         int level) {
#if QFOREST_HAVE_AVX2
    const auto h = static_cast<int>(
        static_cast<std::uint32_t>(rep::length_at(level)));
    const __m256i hvec = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, h, h, h));
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      const __m256i hit =
          _mm256_cmpeq_epi32(_mm256_and_si256(pair, hvec), hvec);
      const auto m = static_cast<std::uint32_t>(_mm256_movemask_epi8(hit));
      for (int half = 0; half < 2; ++half) {
        const std::uint32_t mh = m >> (16 * half);
        int id = (mh & 0x1u) ? 1 : 0;
        id |= (mh & 0x10u) ? 2 : 0;
        if constexpr (Dim == 3) {
          id |= (mh & 0x100u) ? 4 : 0;
        }
        out[i + static_cast<std::size_t>(half)] = id;
      }
    }
    for (; i < n; ++i) {
      out[i] = rep::child_id(in[i]);
    }
#else
    (void)level;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::child_id(in[i]);
    }
#endif
  }

  /// out[i] = equal(a[i], b[i]) as 0/1 bytes; levels may be mixed (the
  /// comparator of dedup sweeps over sorted leaf arrays).
  static void equal_mask(const quad_t* a, const quad_t* b,
                         std::uint8_t* out, std::size_t n) {
#if QFOREST_HAVE_AVX2
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pa = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&a[i]));
      const __m256i pb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&b[i]));
      const auto m = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi32(pa, pb)));
      out[i] = (m & 0xFFFFu) == 0xFFFFu ? 1 : 0;
      out[i + 1] = (m >> 16) == 0xFFFFu ? 1 : 0;
    }
    for (; i < n; ++i) {
      out[i] = rep::equal(a[i], b[i]) ? 1 : 0;
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::equal(a[i], b[i]) ? 1 : 0;
    }
#endif
  }

  /// Canonical-grid lower corner of the same-level neighbor displaced by
  /// (dx,dy,dz) quadrant lengths; all inputs share \p level. The offset
  /// add runs vectorized on the rep-scale coordinate lanes of two
  /// quadrants per register, then each lane is widened and upshifted to
  /// the canonical 2^60 grid on the store (the add cannot overflow int32:
  /// |coord ± h| < 2^(max_level+1)). Out-of-root results are *not*
  /// wrapped — the caller owns tree-boundary resolution.
  static void neighbor_at_offset_n(const quad_t* in, std::int64_t* ox,
                                   std::int64_t* oy, std::int64_t* oz,
                                   std::size_t n, int dx, int dy, int dz,
                                   int level) {
#if QFOREST_HAVE_AVX2
    const auto h = static_cast<int>(
        static_cast<std::uint32_t>(rep::length_at(level)));
    const __m256i delta = _mm256_broadcastsi128_si256(
        _mm_set_epi32(0, dz * h, dy * h, dx * h));
    const int up = kCanonicalLevel - rep::max_level;
    alignas(32) std::int32_t lanes[8];
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i pair = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&in[i]));
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                         _mm256_add_epi32(pair, delta));
      ox[i] = static_cast<std::int64_t>(lanes[0]) << up;
      oy[i] = static_cast<std::int64_t>(lanes[1]) << up;
      oz[i] = static_cast<std::int64_t>(lanes[2]) << up;
      ox[i + 1] = static_cast<std::int64_t>(lanes[4]) << up;
      oy[i + 1] = static_cast<std::int64_t>(lanes[5]) << up;
      oz[i + 1] = static_cast<std::int64_t>(lanes[6]) << up;
    }
    for (; i < n; ++i) {
      neighbor_at_offset_scalar(in[i], ox + i, oy + i, oz + i, dx, dy, dz,
                                level);
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
      neighbor_at_offset_scalar(in[i], ox + i, oy + i, oz + i, dx, dy, dz,
                                level);
    }
#endif
  }

  /// out[i] = morton_quadrant(il[i], lvl): bulk de-interleave of
  /// level-relative Morton indices (paper Algorithm 11). Unlike the other
  /// kernels this one works in 64-bit lanes — [y1, x1, y0, x0] for two
  /// indices per register — because the per-bit extract/shift runs on the
  /// full 64-bit index; z (3D) is accumulated scalar, matching the scalar
  /// algorithm's split. Requires 0 <= lvl <= max_level and Dim * lvl < 64.
  static void morton_quadrant_n(const morton_t* il, quad_t* out,
                                std::size_t n, int lvl) {
#if QFOREST_HAVE_AVX2
    const auto up = static_cast<unsigned>(rep::max_level - lvl);
    alignas(32) std::uint64_t lanes[4];
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m256i ilvec = _mm256_set_epi64x(
          static_cast<long long>(il[i + 1]),
          static_cast<long long>(il[i + 1]),
          static_cast<long long>(il[i]), static_cast<long long>(il[i]));
      __m256i accxy = _mm256_setzero_si256();
      std::uint64_t accz0 = 0, accz1 = 0;
      for (int b = 0; b < lvl; ++b) {
        const int xid = Dim * b;
        const int xcrd = (Dim - 1) * b;
        const __m256i extid = _mm256_set_epi64x(
            static_cast<long long>(std::uint64_t{1} << (xid + 1)),
            static_cast<long long>(std::uint64_t{1} << xid),
            static_cast<long long>(std::uint64_t{1} << (xid + 1)),
            static_cast<long long>(std::uint64_t{1} << xid));
        const __m256i counts =
            _mm256_set_epi64x(xcrd + 1, xcrd, xcrd + 1, xcrd);
        accxy = _mm256_or_si256(
            accxy,
            _mm256_srlv_epi64(_mm256_and_si256(ilvec, extid), counts));
        if constexpr (Dim == 3) {
          accz0 |= (il[i] & (std::uint64_t{1} << (xid + 2))) >> (xcrd + 2);
          accz1 |=
              (il[i + 1] & (std::uint64_t{1} << (xid + 2))) >> (xcrd + 2);
        }
      }
      // Relate the coordinates to max_level while still packed, then
      // assemble each quadrant with its level lane.
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                         _mm256_slli_epi64(accxy, static_cast<int>(up)));
      out[i] = quad_t::set32(static_cast<std::uint32_t>(lvl),
                             static_cast<std::uint32_t>(accz0) << up,
                             static_cast<std::uint32_t>(lanes[1]),
                             static_cast<std::uint32_t>(lanes[0]));
      out[i + 1] = quad_t::set32(static_cast<std::uint32_t>(lvl),
                                 static_cast<std::uint32_t>(accz1) << up,
                                 static_cast<std::uint32_t>(lanes[3]),
                                 static_cast<std::uint32_t>(lanes[2]));
    }
    for (; i < n; ++i) {
      out[i] = rep::morton_quadrant(il[i], lvl);
    }
#else
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = rep::morton_quadrant(il[i], lvl);
    }
#endif
  }

  /// True when this build uses real 256-bit registers.
  static constexpr bool vectorized() { return QFOREST_HAVE_AVX2 != 0; }

 private:
  static void neighbor_at_offset_scalar(const quad_t& q, std::int64_t* ox,
                                        std::int64_t* oy, std::int64_t* oz,
                                        int dx, int dy, int dz, int level) {
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - level);
    const CanonicalQuadrant c = to_canonical<rep>(q);
    *ox = c.x + dx * h;
    *oy = c.y + dy * h;
    *oz = c.z + dz * h;
  }
};

}  // namespace qforest
