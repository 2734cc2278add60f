#pragma once
/// \file quadrant_avx.hpp
/// \brief 128-bit SIMD/AVX2 quadrant representation (paper §2.3).
///
/// A quadrant lives in one 128-bit register of four 32-bit lanes
/// (paper Figure 1): lane 0 = x, lane 1 = y, lane 2 = z, lane 3 = level.
/// Low-level algorithms are rewritten so a single SIMD instruction
/// manipulates all coordinates at once (Algorithms 9-12); the level lane
/// is carried along and adjusted with one lane-wise add/sub, which removes
/// the per-coordinate conditionals of the standard representation.
///
/// Storage is 16 bytes per quadrant (paper: 2/3 of standard) and the
/// attainable maximum level rises to 30 (31 lanes bits minus one guard bit
/// so exterior neighbors keep a signed representation).
///
/// When the build lacks AVX2, simd::Vec128 degrades to a scalar struct
/// with identical lane semantics, so this representation works — without
/// the speedup — on any hardware.

#include <cassert>
#include <cstdint>

#include "core/bits.hpp"
#include "core/types.hpp"
#include "simd/vec128.hpp"

namespace qforest {

/// Low-level operations on the 128-bit SIMD representation.
template <int Dim>
class AvxRep {
 public:
  using quad_t = simd::Vec128;
  using dims = DimConstants<Dim>;

  static constexpr int dim = Dim;
  /// 32-bit lanes minus one guard bit for signed exterior coordinates.
  static constexpr int max_level = 30;
  static constexpr const char* name = "avx";

  static constexpr coord_t length_at(int level) {
    return static_cast<coord_t>(1) << (max_level - level);
  }

  static quad_t root() { return quad_t::zero(); }

  // --- accessors -------------------------------------------------------------

  static int level(const quad_t& q) {
    return static_cast<int>(q.template lane32<3>());
  }

  static coord_t length(const quad_t& q) { return length_at(level(q)); }

  static coord_t coord(const quad_t& q, int axis) {
    switch (axis) {
      case 0: return static_cast<coord_t>(q.template lane32<0>());
      case 1: return static_cast<coord_t>(q.template lane32<1>());
      default: return static_cast<coord_t>(q.template lane32<2>());
    }
  }

  static quad_t from_coords(coord_t x, coord_t y, coord_t z, int lvl) {
    return quad_t::set32(static_cast<std::uint32_t>(lvl),
                         Dim == 3 ? static_cast<std::uint32_t>(z) : 0u,
                         static_cast<std::uint32_t>(y),
                         static_cast<std::uint32_t>(x));
  }

  static void to_coords(const quad_t& q, coord_t& x, coord_t& y, coord_t& z,
                        int& lvl) {
    x = static_cast<coord_t>(q.template lane32<0>());
    y = static_cast<coord_t>(q.template lane32<1>());
    z = static_cast<coord_t>(q.template lane32<2>());
    lvl = level(q);
  }

  static bool inside_root(const quad_t& q) {
    const coord_t last =
        (static_cast<coord_t>(1) << max_level) - length(q);
    // Signed lane-wise range check on the coordinate lanes only.
    const quad_t lo_bad = quad_t::cmpgt32(quad_t::zero(), q);
    const quad_t hi_bad = quad_t::cmpgt32(
        q, from_coords(last, last, last, 0x7FFFFFFF));
    const int bad = (lo_bad | hi_bad).movemask8();
    constexpr int coord_lane_bytes = Dim == 3 ? 0x0FFF : 0x00FF;
    return (bad & coord_lane_bytes) == 0;
  }

  static bool is_valid(const quad_t& q) {
    const int lvl = level(q);
    if (lvl < 0 || lvl > max_level) {
      return false;
    }
    const std::uint32_t low = static_cast<std::uint32_t>(length_at(lvl)) - 1;
    const quad_t misaligned =
        q & quad_t::set32(0, Dim == 3 ? low : 0, low, low);
    return misaligned.all_zero() && inside_root(q);
  }

  // --- Morton index transformations (paper Algorithm 11) ----------------------

  /// Paper Algorithm 11: de-interleave the Morton index bit by bit, two
  /// coordinates at a time in the 64-bit lanes of the 128-bit register and
  /// the third separately (mixing in 256-bit registers measured slower in
  /// the paper's experiments).
  static quad_t morton_quadrant(morton_t il, int lvl) {
    assert(lvl >= 0 && lvl <= max_level);
    assert(Dim * lvl < 64);
    quad_t accxy = quad_t::zero();  // 64-bit lanes: [y-bits, x-bits]
    std::uint64_t accz = 0;
    const quad_t ilvec = quad_t::broadcast64(il);
    for (int i = 0; i < lvl; ++i) {
      const int xid = Dim * i;          // index bit of x at this level
      const int xcrd = (Dim - 1) * i;   // shift placing the bit at position i
      const quad_t extid = quad_t::set64(std::uint64_t{1} << (xid + 1),
                                         std::uint64_t{1} << xid);
      quad_t crdid = ilvec & extid;
      crdid = quad_t::shrv64(
          crdid, quad_t::set64(static_cast<std::uint64_t>(xcrd + 1),
                               static_cast<std::uint64_t>(xcrd)));
      accxy = accxy | crdid;
      if constexpr (Dim == 3) {
        accz |= (il & (std::uint64_t{1} << (xid + 2))) >> (xcrd + 2);
      }
    }
    const auto x = static_cast<std::uint32_t>(accxy.template lane64<0>());
    const auto y = static_cast<std::uint32_t>(accxy.template lane64<1>());
    const auto z = static_cast<std::uint32_t>(accz);
    // Shift each coordinate left to relate it to max_level (Alg. 11 line 9),
    // then insert the level into lane 3.
    quad_t q = quad_t::set32(0, z, y, x);
    q = quad_t::shl32(q, static_cast<unsigned>(max_level - lvl));
    return q | quad_t::set32(static_cast<std::uint32_t>(lvl), 0, 0, 0);
  }

  /// Morton index relative to the quadrant's own level.
  static morton_t level_index(const quad_t& q) {
    assert(Dim * level(q) < 64);
    const int down = max_level - level(q);
    const std::uint32_t ux = q.template lane32<0>() >> down;
    const std::uint32_t uy = q.template lane32<1>() >> down;
    if constexpr (Dim == 2) {
      return bits::interleave2(ux, uy);
    } else {
      return bits::interleave3(ux, uy, q.template lane32<2>() >> down);
    }
  }

  // --- family operations (paper Algorithms 9, 10) -------------------------------

  static int child_id(const quad_t& q) {
    assert(level(q) > 0);
    const auto h = static_cast<std::uint32_t>(length(q));
    // One lane-wise AND plus a byte movemask extracts all direction bits.
    const quad_t hit = quad_t::cmpeq32(q & quad_t::set32(0, h, h, h),
                                       quad_t::set32(0, h, h, h));
    const int m = hit.movemask8();
    int id = (m & 0x1) ? 1 : 0;
    id |= (m & 0x10) ? 2 : 0;
    if constexpr (Dim == 3) {
      id |= (m & 0x100) ? 4 : 0;
    }
    return id;
  }

  static int ancestor_id(const quad_t& q, int lvl) {
    assert(lvl > 0 && lvl <= level(q));
    const auto h = static_cast<std::uint32_t>(length_at(lvl));
    const quad_t hit = quad_t::cmpeq32(q & quad_t::set32(0, h, h, h),
                                       quad_t::set32(0, h, h, h));
    const int m = hit.movemask8();
    int id = (m & 0x1) ? 1 : 0;
    id |= (m & 0x10) ? 2 : 0;
    if constexpr (Dim == 3) {
      id |= (m & 0x100) ? 4 : 0;
    }
    return id;
  }

  /// Paper Algorithm 9: extract the child's direction bits from c with one
  /// masked variable shift, OR them into the coordinates, and bump the
  /// level lane — no per-coordinate conditionals.
  static quad_t child(const quad_t& q, int c) {
    assert(level(q) < max_level);
    assert(c >= 0 && c < dims::num_children);
    quad_t extid = quad_t::set32(0, 4, 2, 1);
    extid = extid & quad_t::broadcast32(static_cast<std::uint32_t>(c));
    const quad_t insid = quad_t::shrv32(extid, quad_t::set32(0, 2, 1, 0));
    // Shift counts L - (l+1) computed in-register from the level lane:
    // no scalar extraction leaves the SIMD domain.
    const quad_t counts = quad_t::sub32(quad_t::broadcast32(max_level - 1),
                                        q.template shuffle32<3, 3, 3, 3>());
    const quad_t r = q | quad_t::shlv32(insid, counts);
    return quad_t::add32(r, quad_t::set32(1, 0, 0, 0));
  }

  /// Paper Algorithm 10: blank the child's coordinate bits, decrement the
  /// level lane.
  static quad_t parent(const quad_t& q) {
    assert(level(q) > 0);
    // len = 1 << (L - l) per coordinate lane, derived in-register.
    const quad_t counts = quad_t::sub32(quad_t::broadcast32(max_level),
                                        q.template shuffle32<3, 3, 3, 3>());
    const quad_t len = quad_t::shlv32(quad_t::set32(0, 1, 1, 1), counts);
    const quad_t r = quad_t::andnot(len, q);
    return quad_t::sub32(r, quad_t::set32(1, 0, 0, 0));
  }

  /// Vectorized Algorithm 3: lane-wise blend between "set shift bit" and
  /// "clear shift bit" selected by the sibling id's direction bits.
  static quad_t sibling(const quad_t& q, int s) {
    assert(level(q) > 0);
    assert(s >= 0 && s < dims::num_children);
    const quad_t counts = quad_t::sub32(quad_t::broadcast32(max_level),
                                        q.template shuffle32<3, 3, 3, 3>());
    const quad_t m = quad_t::shlv32(quad_t::set32(0, 1, 1, 1), counts);
    const quad_t dirbits = quad_t::set32(0, 4, 2, 1);
    const quad_t cond = quad_t::cmpeq32(
        quad_t::broadcast32(static_cast<std::uint32_t>(s)) & dirbits, dirbits);
    return quad_t::blend(cond, q | m, quad_t::andnot(m, q));
  }

  static quad_t ancestor(const quad_t& q, int lvl) {
    assert(lvl >= 0 && lvl <= level(q));
    const std::uint32_t keep =
        ~(static_cast<std::uint32_t>(length_at(lvl)) - 1);
    const quad_t r = q & quad_t::set32(0, keep, keep, keep);
    return r | quad_t::set32(static_cast<std::uint32_t>(lvl), 0, 0, 0);
  }

  static quad_t first_descendant(const quad_t& q, int lvl) {
    assert(lvl >= level(q) && lvl <= max_level);
    return q.template with_lane32<3>(static_cast<std::uint32_t>(lvl));
  }

  static quad_t last_descendant(const quad_t& q, int lvl) {
    assert(lvl >= level(q) && lvl <= max_level);
    const auto delta =
        static_cast<std::uint32_t>(length(q) - length_at(lvl));
    const quad_t r = quad_t::add32(q, quad_t::set32(0, delta, delta, delta));
    return r.template with_lane32<3>(static_cast<std::uint32_t>(lvl));
  }

  /// Same-level successor along the Morton curve (coordinate carry loop;
  /// not part of the paper's kernels, required by the forest layer).
  static quad_t successor(const quad_t& q) {
    coord_t c[3] = {coord(q, 0), coord(q, 1), coord(q, 2)};
    const int lvl = level(q);
    for (int l = lvl; l > 0; --l) {
      const coord_t bit = length_at(l);
      int id = 0;
      for (int i = 0; i < Dim; ++i) {
        id |= (c[i] & bit) ? (1 << i) : 0;
      }
      const int next = (id + 1) & (dims::num_children - 1);
      for (int i = 0; i < Dim; ++i) {
        c[i] = (next & (1 << i)) ? (c[i] | bit) : (c[i] & ~bit);
      }
      if (next != 0) {
        break;
      }
    }
    return from_coords(c[0], c[1], c[2], lvl);
  }

  /// Same-level predecessor along the Morton curve.
  static quad_t predecessor(const quad_t& q) {
    coord_t c[3] = {coord(q, 0), coord(q, 1), coord(q, 2)};
    const int lvl = level(q);
    for (int l = lvl; l > 0; --l) {
      const coord_t bit = length_at(l);
      int id = 0;
      for (int i = 0; i < Dim; ++i) {
        id |= (c[i] & bit) ? (1 << i) : 0;
      }
      const int prev = (id + dims::num_children - 1) & (dims::num_children - 1);
      for (int i = 0; i < Dim; ++i) {
        c[i] = (prev & (1 << i)) ? (c[i] | bit) : (c[i] & ~bit);
      }
      if (prev != dims::num_children - 1) {
        break;
      }
    }
    return from_coords(c[0], c[1], c[2], lvl);
  }

  // --- neighborhood --------------------------------------------------------------

  /// Face neighbor as a single lane-wise add/sub of the quadrant length in
  /// the face's coordinate lane. Exterior results use signed lanes.
  static quad_t face_neighbor(const quad_t& q, int f) {
    assert(f >= 0 && f < dims::num_faces);
    // Fully branchless: delta = h in the face's coordinate lane (axis unit
    // indexed from a table, shifted in-register by L - l), negated via the
    // two's-complement mask trick when f is a lower face.
    const quad_t counts = quad_t::sub32(quad_t::broadcast32(max_level),
                                        q.template shuffle32<3, 3, 3, 3>());
    const quad_t delta = quad_t::shlv32(axis_unit(f >> 1), counts);
    const quad_t m = quad_t::broadcast32(
        static_cast<std::uint32_t>(f & 1) - 1u);  // 0 for +face, ~0 for -face
    return quad_t::add32(q, quad_t::sub32(delta ^ m, m));
  }

  /// Corner neighbor: lane-wise blended +/- h on every coordinate lane.
  static quad_t corner_neighbor(const quad_t& q, int c) {
    assert(c >= 0 && c < dims::num_corners);
    const auto h = static_cast<std::uint32_t>(length(q));
    const quad_t dirbits = quad_t::set32(0, 4, 2, 1);
    const quad_t cond = quad_t::cmpeq32(
        quad_t::broadcast32(static_cast<std::uint32_t>(c)) & dirbits, dirbits);
    quad_t delta = quad_t::blend(cond, quad_t::broadcast32(h),
                                 quad_t::broadcast32(~h + 1));  // (+h | -h)
    const std::uint32_t keep = ~0u;
    delta = delta & quad_t::set32(0, Dim == 3 ? keep : 0, keep, keep);
    return quad_t::add32(q, delta);
  }

  /// Paper Algorithm 12: which unit-tree faces does the quadrant touch,
  /// computed with two lane-wise compares and one lane-wise subtraction.
  static void tree_boundaries(const quad_t& q, int out[Dim]) {
    const int lvl = level(q);
    if (lvl == 0) {
      for (int i = 0; i < Dim; ++i) {
        out[i] = kBoundaryAll;
      }
      return;
    }
    const auto up = static_cast<std::uint32_t>(
        (static_cast<coord_t>(1) << max_level) - length_at(lvl));
    const quad_t cmp0 = quad_t::cmpeq32(q, quad_t::zero());
    const quad_t cmpup = quad_t::cmpeq32(q, quad_t::broadcast32(up));
    const quad_t test0 = cmp0 & quad_t::set32(0, 5, 3, 1);
    const quad_t testup = cmpup & quad_t::set32(0, 6, 4, 2);
    const quad_t r =
        quad_t::sub32(test0 | testup, quad_t::broadcast32(1));
    out[0] = static_cast<int>(r.template lane32<0>());
    out[1] = static_cast<int>(r.template lane32<1>());
    if constexpr (Dim == 3) {
      out[2] = static_cast<int>(r.template lane32<2>());
    }
  }

  // --- ordering and containment -----------------------------------------------------

  static bool equal(const quad_t& a, const quad_t& b) {
    return quad_t::equal(a, b);
  }

  /// Morton order (p4est_quadrant_compare), branch-free. The coordinate
  /// lane owning the most significant differing bit of the XORed lanes
  /// decides, z over y over x at equal bit position (interleaving
  /// significance); equal coordinates fall through to the level lane.
  /// msb(p) < msb(q) holds exactly when p < q && p < (p ^ q) (unsigned), so
  /// one lane-wise pass evaluates it for the pairs (z,y), (z,x) and (y,x);
  /// the winning lane is then read from one signed lane-wise compare of
  /// b > a, which keeps exterior (negative) coordinates in order.
  static bool less(const quad_t& a, const quad_t& b) {
    quad_t d = a ^ b;
    if constexpr (Dim == 2) {
      d = d & quad_t::set32(0, 0, ~0u, ~0u);
    }
    // Lanes 0..2 of (p, q) are (dz, dy), (dz, dx), (dy, dx); lane 3 pairs
    // the level lane with itself and never sets a bit.
    const quad_t p = d.template shuffle32<2, 2, 1, 3>();
    const quad_t q = d.template shuffle32<1, 0, 0, 3>();
    const quad_t sign = quad_t::broadcast32(0x80000000u);  // unsigned compare
    const quad_t ps = p ^ sign;
    const quad_t msb_lt = quad_t::cmpgt32(q ^ sign, ps) &
                          quad_t::cmpgt32((p ^ q) ^ sign, ps);
    const int m = msb_lt.movemask8();  // one nibble per lane
    // z unless msb(dz) < msb(dy) or msb(dz) < msb(dx); else y unless
    // msb(dy) < msb(dx); else x. Bit arithmetic, not a branch: the axis is
    // data-dependent and would mispredict inside every sort and search.
    const int z = (m & 0x011) == 0 ? 1 : 0;
    const int y = (~m >> 8) & 1;
    int lane = (z << 1) | (y & ~z);
    // Equal coordinates leave m == 0, hence lane 2: step to the level lane.
    lane += (d & quad_t::set32(0, ~0u, ~0u, ~0u)).all_zero() ? 1 : 0;
    return ((quad_t::cmpgt32(b, a).movemask8() >> (4 * lane)) & 1) != 0;
  }

  static bool is_ancestor(const quad_t& a, const quad_t& b) {
    const int la = level(a);
    if (la >= level(b)) {
      return false;
    }
    const std::uint32_t keep =
        ~(static_cast<std::uint32_t>(length_at(la)) - 1);
    const quad_t m = quad_t::set32(0, keep, keep, keep);
    return quad_t::equal(b & m, a & m);
  }

  static bool overlaps(const quad_t& a, const quad_t& b) {
    return equal(a, b) || is_ancestor(a, b) || is_ancestor(b, a);
  }

  static quad_t nearest_common_ancestor(const quad_t& a, const quad_t& b) {
    const quad_t d = a ^ b;
    const auto dx = d.template lane32<0>();
    const auto dy = d.template lane32<1>();
    const auto dz = Dim == 3 ? d.template lane32<2>() : 0u;
    const int hbit = bits::highest_bit(dx | dy | dz);
    int lvl = max_level - (hbit + 1);
    lvl = lvl < level(a) ? lvl : level(a);
    lvl = lvl < level(b) ? lvl : level(b);
    return ancestor(a, lvl);
  }

 private:
  /// Unit vector with a 1 in the coordinate lane of \p axis; table lookup
  /// instead of a branch so kernels over random faces stay predictable.
  static quad_t axis_unit(int axis) {
    alignas(16) static constexpr std::uint32_t kUnits[3][4] = {
        {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}};
    return quad_t::load_aligned(kUnits[axis]);
  }
};

}  // namespace qforest
