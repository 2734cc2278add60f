/// \file test_quadrant_avx.cpp
/// \brief Unit tests for the Vec128 SIMD wrapper and the 128-bit AVX2
/// quadrant representation, paper §2.3 / Algorithms 9-12.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/canonical.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_std.hpp"
#include "helpers.hpp"
#include "simd/feature_detect.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

using simd::Vec128;
using A2 = AvxRep<2>;
using A3 = AvxRep<3>;
using S3 = StandardRep<3>;

// ---------------------------------------------------------------- Vec128

TEST(Vec128, SetAndExtractLanes) {
  const auto v = Vec128::set32(4, 3, 2, 1);
  EXPECT_EQ(v.lane32<0>(), 1u);
  EXPECT_EQ(v.lane32<1>(), 2u);
  EXPECT_EQ(v.lane32<2>(), 3u);
  EXPECT_EQ(v.lane32<3>(), 4u);
  EXPECT_EQ(v.lane64<0>(), (std::uint64_t{2} << 32) | 1u);
  EXPECT_EQ(v.lane64<1>(), (std::uint64_t{4} << 32) | 3u);
}

TEST(Vec128, Set64MatchesLane32Pairs) {
  const auto v = Vec128::set64(0xAABBCCDD11223344ull, 0x5566778899AABBCCull);
  EXPECT_EQ(v.lane32<0>(), 0x99AABBCCu);
  EXPECT_EQ(v.lane32<1>(), 0x55667788u);
  EXPECT_EQ(v.lane32<2>(), 0x11223344u);
  EXPECT_EQ(v.lane32<3>(), 0xAABBCCDDu);
}

TEST(Vec128, BitwiseOps) {
  const auto a = Vec128::set32(0xF0F0F0F0u, 0xFF00FF00u, 0x0F0F0F0Fu, 0xAAAAAAAAu);
  const auto b = Vec128::set32(0x0F0F0F0Fu, 0x00FF00FFu, 0xF0F0F0F0u, 0x55555555u);
  EXPECT_TRUE((a & b).all_zero());
  EXPECT_TRUE(Vec128::equal(a | b, Vec128::ones()));
  EXPECT_TRUE(Vec128::equal(a ^ b, Vec128::ones()));
  EXPECT_TRUE(Vec128::equal(~a, b));
  EXPECT_TRUE(Vec128::equal(Vec128::andnot(a, b), b));
}

TEST(Vec128, Arithmetic32) {
  const auto a = Vec128::set32(10, 20, 30, 40);
  const auto b = Vec128::set32(1, 2, 3, 4);
  const auto sum = Vec128::add32(a, b);
  EXPECT_EQ(sum.lane32<0>(), 44u);
  EXPECT_EQ(sum.lane32<3>(), 11u);
  const auto diff = Vec128::sub32(a, b);
  EXPECT_EQ(diff.lane32<0>(), 36u);
  EXPECT_EQ(diff.lane32<3>(), 9u);
  // Unsigned wrap on subtraction below zero.
  const auto wrap = Vec128::sub32(b, a);
  EXPECT_EQ(wrap.lane32<0>(), static_cast<std::uint32_t>(4 - 40));
}

TEST(Vec128, Shifts) {
  const auto v = Vec128::broadcast32(0x10u);
  EXPECT_EQ(Vec128::shl32(v, 4).lane32<2>(), 0x100u);
  EXPECT_EQ(Vec128::shr32(v, 4).lane32<1>(), 0x1u);
  const auto vv = Vec128::set32(8, 4, 2, 1);
  const auto sh = Vec128::shlv32(vv, Vec128::set32(0, 1, 2, 3));
  EXPECT_EQ(sh.lane32<0>(), 8u);
  EXPECT_EQ(sh.lane32<1>(), 8u);
  EXPECT_EQ(sh.lane32<2>(), 8u);
  EXPECT_EQ(sh.lane32<3>(), 8u);
  const auto shr = Vec128::shrv32(sh, Vec128::set32(3, 2, 1, 0));
  EXPECT_EQ(shr.lane32<0>(), 8u);
  EXPECT_EQ(shr.lane32<3>(), 1u);
}

TEST(Vec128, Shifts64) {
  const auto v = Vec128::set64(0x10, 0x10);
  const auto l = Vec128::shlv64(v, Vec128::set64(8, 4));
  EXPECT_EQ(l.lane64<0>(), 0x100u);
  EXPECT_EQ(l.lane64<1>(), 0x1000u);
  const auto r = Vec128::shrv64(l, Vec128::set64(8, 4));
  EXPECT_EQ(r.lane64<0>(), 0x10u);
  EXPECT_EQ(r.lane64<1>(), 0x10u);
}

TEST(Vec128, CompareAndBlend) {
  const auto a = Vec128::set32(1, 2, 3, 4);
  const auto b = Vec128::set32(1, 9, 3, 9);
  const auto eq = Vec128::cmpeq32(a, b);
  EXPECT_EQ(eq.lane32<3>(), 0xFFFFFFFFu);
  EXPECT_EQ(eq.lane32<2>(), 0u);
  EXPECT_EQ(eq.lane32<1>(), 0xFFFFFFFFu);
  EXPECT_EQ(eq.lane32<0>(), 0u);
  const auto sel = Vec128::blend(eq, Vec128::broadcast32(7),
                                 Vec128::broadcast32(9));
  EXPECT_EQ(sel.lane32<3>(), 7u);
  EXPECT_EQ(sel.lane32<0>(), 9u);
  const auto gt = Vec128::cmpgt32(Vec128::set32(0, 0, 1, 0),
                                  Vec128::set32(0, 0, 0, 0));
  EXPECT_EQ(gt.lane32<1>(), 0xFFFFFFFFu);
  EXPECT_EQ(gt.lane32<0>(), 0u);
}

TEST(Vec128, WithLane) {
  auto v = Vec128::zero();
  v = v.with_lane32<3>(0x42u);
  EXPECT_EQ(v.lane32<3>(), 0x42u);
  EXPECT_EQ(v.lane32<0>(), 0u);
}

TEST(Vec128, Shuffle32PermutesLanes) {
  const Vec128 v = Vec128::set32(40, 30, 20, 10);
  const Vec128 p = v.shuffle32<2, 2, 1, 3>();
  EXPECT_EQ(p.lane32<0>(), 30u);
  EXPECT_EQ(p.lane32<1>(), 30u);
  EXPECT_EQ(p.lane32<2>(), 20u);
  EXPECT_EQ(p.lane32<3>(), 40u);
  const Vec128 r = v.shuffle32<3, 2, 1, 0>();
  EXPECT_EQ(r.lane32<0>(), 40u);
  EXPECT_EQ(r.lane32<1>(), 30u);
  EXPECT_EQ(r.lane32<2>(), 20u);
  EXPECT_EQ(r.lane32<3>(), 10u);
  EXPECT_TRUE(Vec128::equal(v.shuffle32<0, 1, 2, 3>(), v));
}

TEST(Vec128, FeatureReport) {
  // The detection must at least not crash and report a coherent story.
  const auto& f = simd::cpu_features();
  if (simd::avx2_usable()) {
    EXPECT_TRUE(f.avx2);
  }
  EXPECT_FALSE(simd::feature_string().empty());
}

// ------------------------------------------------------------- AvxRep

TEST(AvxLayout, StorageAndLimits) {
  // Paper: 16 bytes, max level above standard's 29.
  EXPECT_EQ(sizeof(A3::quad_t), 16u);
  EXPECT_EQ(A3::max_level, 30);
}

TEST(AvxAlgorithm9, ChildMatchesStandard) {
  Xoshiro256 rng(51);
  for (int i = 0; i < 10000; ++i) {
    const int lvl = static_cast<int>(rng.next_below(21));
    const morton_t il = rng.next_below(morton_t{1} << (3 * lvl));
    const auto q = A3::morton_quadrant(il, lvl);
    const auto s = S3::morton_quadrant(il, lvl);
    for (int c = 0; c < 8; ++c) {
      const auto qc = A3::child(q, c);
      const auto sc = S3::child(s, c);
      EXPECT_TRUE((test::canonically_equal<A3, S3>(qc, sc)));
      EXPECT_EQ(A3::child_id(qc), c);
      EXPECT_TRUE(A3::equal(A3::parent(qc), q));
    }
  }
}

TEST(AvxAlgorithm10, ParentLevelLane) {
  Xoshiro256 rng(52);
  for (int i = 0; i < 10000; ++i) {
    const int lvl = 1 + static_cast<int>(rng.next_below(20));
    const auto q = test::random_quadrant_at<A3>(rng, lvl);
    const auto p = A3::parent(q);
    EXPECT_EQ(A3::level(p), lvl - 1);
    EXPECT_TRUE(A3::is_ancestor(p, q));
  }
}

TEST(AvxAlgorithm11, MortonMatchesStandard) {
  Xoshiro256 rng(53);
  for (int i = 0; i < 20000; ++i) {
    const int lvl = static_cast<int>(rng.next_below(22));
    const morton_t il = rng.next_below(morton_t{1} << (3 * lvl));
    const auto a = A3::morton_quadrant(il, lvl);
    const auto s = S3::morton_quadrant(il, lvl);
    EXPECT_TRUE((test::canonically_equal<A3, S3>(a, s)));
    EXPECT_EQ(A3::level_index(a), il);
  }
}

TEST(AvxAlgorithm11, TwoDimensional) {
  Xoshiro256 rng(54);
  for (int i = 0; i < 20000; ++i) {
    const int lvl = static_cast<int>(rng.next_below(31));
    const morton_t il = rng.next_below(morton_t{1} << (2 * lvl));
    const auto a = A2::morton_quadrant(il, lvl);
    EXPECT_EQ(A2::level_index(a), il);
    EXPECT_EQ(A2::level(a), lvl);
    EXPECT_TRUE(A2::is_valid(a));
  }
}

TEST(AvxAlgorithm12, TreeBoundariesEncoding) {
  int f[3];
  A3::tree_boundaries(A3::root(), f);
  EXPECT_EQ(f[0], kBoundaryAll);
  EXPECT_EQ(f[1], kBoundaryAll);
  EXPECT_EQ(f[2], kBoundaryAll);

  A3::tree_boundaries(A3::child(A3::root(), 0), f);
  EXPECT_EQ(f[0], 0);
  EXPECT_EQ(f[1], 2);
  EXPECT_EQ(f[2], 4);

  A3::tree_boundaries(A3::child(A3::root(), 7), f);
  EXPECT_EQ(f[0], 1);
  EXPECT_EQ(f[1], 3);
  EXPECT_EQ(f[2], 5);

  // Mixed: child 1 touches +x, -y, -z.
  A3::tree_boundaries(A3::child(A3::root(), 1), f);
  EXPECT_EQ(f[0], 1);
  EXPECT_EQ(f[1], 2);
  EXPECT_EQ(f[2], 4);

  // Interior quadrant.
  const coord_t h2 = A3::length_at(2);
  A3::tree_boundaries(A3::from_coords(h2, h2, h2, 2), f);
  EXPECT_EQ(f[0], kBoundaryNone);
  EXPECT_EQ(f[1], kBoundaryNone);
  EXPECT_EQ(f[2], kBoundaryNone);
}

TEST(AvxAlgorithm12, MatchesStandardRandomSweep) {
  Xoshiro256 rng(55);
  for (int i = 0; i < 20000; ++i) {
    const int lvl = static_cast<int>(rng.next_below(21));
    const morton_t il = rng.next_below(morton_t{1} << (3 * lvl));
    const auto a = A3::morton_quadrant(il, lvl);
    // Compare against the standard formulation at standard's scaling.
    const auto s = S3::morton_quadrant(il, lvl);
    int fa[3], fs[3];
    A3::tree_boundaries(a, fa);
    S3::tree_boundaries(s, fs);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(fa[d], fs[d]);
    }
  }
}

TEST(AvxSibling, MatchesChildOfParent) {
  Xoshiro256 rng(56);
  for (int i = 0; i < 10000; ++i) {
    const int lvl = 1 + static_cast<int>(rng.next_below(20));
    const auto q = test::random_quadrant_at<A3>(rng, lvl);
    const auto p = A3::parent(q);
    for (int s = 0; s < 8; ++s) {
      EXPECT_TRUE(A3::equal(A3::sibling(q, s), A3::child(p, s)));
    }
  }
}

TEST(AvxFaceNeighbor, InverseAndExterior) {
  Xoshiro256 rng(57);
  for (int i = 0; i < 10000; ++i) {
    const auto q = test::random_quadrant<A3>(rng, 20);
    for (int f = 0; f < 6; ++f) {
      const auto n = A3::face_neighbor(q, f);
      EXPECT_TRUE(A3::equal(A3::face_neighbor(n, f ^ 1), q));
      EXPECT_EQ(A3::level(n), A3::level(q));
    }
  }
  // Exterior detection via signed lanes.
  const auto corner = A3::child(A3::root(), 0);
  EXPECT_FALSE(A3::inside_root(A3::face_neighbor(corner, 0)));
  EXPECT_TRUE(A3::inside_root(A3::face_neighbor(corner, 1)));
}

TEST(AvxCornerNeighbor, MatchesStandard) {
  Xoshiro256 rng(58);
  for (int i = 0; i < 5000; ++i) {
    const int lvl = 1 + static_cast<int>(rng.next_below(20));
    const morton_t il = rng.next_below(morton_t{1} << (3 * lvl));
    const auto a = A3::morton_quadrant(il, lvl);
    const auto s = S3::morton_quadrant(il, lvl);
    for (int c = 0; c < 8; ++c) {
      const auto na = A3::corner_neighbor(a, c);
      const auto ns = S3::corner_neighbor(s, c);
      if (S3::inside_root(ns)) {
        EXPECT_TRUE((test::canonically_equal<A3, S3>(na, ns)));
      }
    }
  }
}

TEST(AvxCompare, TotalOrderConsistency) {
  Xoshiro256 rng(59);
  for (int i = 0; i < 20000; ++i) {
    const auto a = test::random_quadrant<A3>(rng, 20);
    const auto b = test::random_quadrant<A3>(rng, 20);
    const bool lt = A3::less(a, b);
    const bool gt = A3::less(b, a);
    EXPECT_FALSE(lt && gt);
    if (!lt && !gt) {
      EXPECT_TRUE(A3::equal(a, b));
    }
  }
}

/// Quadrants (in StandardRep<Dim> coordinates) whose pairs exercise every
/// case of the Morton compare: the top of the tree, deepest descendants,
/// XOR patterns whose msb is shared by two or three lanes (the z > y > x
/// tie order decides), a single differing lane, equal coordinates at
/// different levels, the top in-root bit (AvxRep bit 29), the first
/// exterior bit above the root, and exterior negative coordinates.
template <int Dim>
std::vector<typename StandardRep<Dim>::quad_t> compare_tie_set() {
  using S = StandardRep<Dim>;
  using Q = typename S::quad_t;
  constexpr int L = S::max_level;
  std::vector<Q> set;
  for (int l = 0; l <= 2; ++l) {
    for (morton_t i = 0; i < (morton_t{1} << (Dim * l)); ++i) {
      const Q q = S::morton_quadrant(i, l);
      set.push_back(q);
      for (int c = 0; c < S::dims::num_children; ++c) {
        set.push_back(S::child(q, c));
      }
      set.push_back(S::first_descendant(q, L));
      set.push_back(S::last_descendant(q, L));
    }
  }
  // Bit k set in every lane of a subset, with low-bit patterns below k in
  // the other lanes: pairs share the msb across two or three lanes, or
  // differ in one lane only. Bit L - 1 is AvxRep's top in-root bit 29.
  const coord_t low[] = {0, 1, 3};
  for (const int k : {0, 1, 7, L - 2, L - 1}) {
    const coord_t bit = static_cast<coord_t>(1) << k;
    for (int lanes = 0; lanes < (1 << Dim); ++lanes) {
      for (const coord_t lo : low) {
        const coord_t below = k > 2 ? lo : 0;
        coord_t c[3] = {0, 0, 0};
        for (int i = 0; i < Dim; ++i) {
          c[i] = (lanes >> i & 1) ? bit : below;
        }
        set.push_back(S::from_coords(c[0], c[1], c[2], L));
      }
    }
  }
  // Equal coordinates at every level they are aligned to.
  const coord_t mid = static_cast<coord_t>(1) << (L - 9);
  for (int l = 9; l <= L; ++l) {
    set.push_back(S::from_coords(mid, 0, mid, l));
  }
  // Exterior: one root length above (first bit above the root) and one
  // quadrant length below (negative) on each axis, at several levels.
  const coord_t root = static_cast<coord_t>(1) << L;
  for (const int l : {0, 1, 3, L}) {
    const coord_t h = S::length_at(l);
    for (int axis = 0; axis < Dim; ++axis) {
      for (const coord_t v : {-h, root}) {
        coord_t c[3] = {0, 0, 0};
        c[axis] = v;
        set.push_back(S::from_coords(c[0], c[1], c[2], l));
      }
    }
    set.push_back(S::from_coords(-h, -h, Dim == 3 ? -h : 0, l));
    set.push_back(S::from_coords(-h, root, Dim == 3 ? -h : 0, l));
  }
  return set;
}

template <int Dim>
void expect_less_matches_standard() {
  using S = StandardRep<Dim>;
  using R = AvxRep<Dim>;
  const auto set = compare_tie_set<Dim>();
  std::vector<typename R::quad_t> conv;
  for (const auto& q : set) {
    conv.push_back(convert<S, R>(q));
  }
  long ties2 = 0, ties3 = 0, single = 0, levels = 0, negative = 0;
  long mismatches = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set.size(); ++j) {
      const bool want = S::less(set[i], set[j]);
      const bool got = R::less(conv[i], conv[j]);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << "less(" << i << ", " << j << ") = " << got
                      << ", StandardRep says " << want;
      }
      if (S::equal(set[i], set[j])) {
        EXPECT_FALSE(got);
      }
      // Classify the pair by its XOR pattern to prove the set covers it.
      std::uint32_t d[3] = {0, 0, 0};
      bool neg = false;
      for (int a = 0; a < Dim; ++a) {
        d[a] = static_cast<std::uint32_t>(S::coord(set[i], a)) ^
               static_cast<std::uint32_t>(S::coord(set[j], a));
        neg = neg || S::coord(set[i], a) < 0 || S::coord(set[j], a) < 0;
      }
      const int h[3] = {bits::highest_bit(d[0]), bits::highest_bit(d[1]),
                        bits::highest_bit(d[2])};
      const int top = std::max({h[0], h[1], h[2]});
      const int owners = (h[0] == top) + (h[1] == top) + (h[2] == top);
      const int nonzero = (d[0] != 0) + (d[1] != 0) + (d[2] != 0);
      ties2 += top >= 0 && owners == 2;
      ties3 += top >= 0 && owners == 3;
      single += nonzero == 1;
      levels += nonzero == 0 && S::level(set[i]) != S::level(set[j]);
      negative += neg && top == 31;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(ties2, 0);
  if (Dim == 3) {
    EXPECT_GT(ties3, 0);
  }
  EXPECT_GT(single, 0);
  EXPECT_GT(levels, 0);
  EXPECT_GT(negative, 0);
}

TEST(AvxCompare, TiePatternsMatchStandard2D) {
  expect_less_matches_standard<2>();
}

TEST(AvxCompare, TiePatternsMatchStandard3D) {
  expect_less_matches_standard<3>();
}

TEST(AvxDescendants, BracketQuadrant) {
  Xoshiro256 rng(60);
  for (int i = 0; i < 5000; ++i) {
    const int lvl = 1 + static_cast<int>(rng.next_below(19));
    const auto q = test::random_quadrant_at<A3>(rng, lvl);
    const int up = static_cast<int>(rng.next_below(lvl));
    const auto anc = A3::ancestor(q, up);
    const auto fd = A3::first_descendant(anc, lvl);
    const auto ld = A3::last_descendant(anc, lvl);
    EXPECT_FALSE(A3::less(q, fd));
    EXPECT_FALSE(A3::less(ld, q));
  }
}

TEST(AvxSuccessor, AgreesWithStandard) {
  Xoshiro256 rng(61);
  for (int i = 0; i < 10000; ++i) {
    const int lvl = 1 + static_cast<int>(rng.next_below(20));
    const morton_t il =
        rng.next_below((morton_t{1} << (3 * lvl)) - 1);
    const auto a = A3::morton_quadrant(il, lvl);
    EXPECT_EQ(A3::level_index(A3::successor(a)), il + 1);
    EXPECT_TRUE(A3::equal(A3::predecessor(A3::successor(a)), a));
  }
}

TEST(AvxValidity, SignedExteriorRejected) {
  const auto bad = A3::from_coords(-1, 0, 0, A3::max_level);
  EXPECT_FALSE(A3::is_valid(bad));
  const auto good = A3::from_coords(0, 0, 0, A3::max_level);
  EXPECT_TRUE(A3::is_valid(good));
}

}  // namespace
}  // namespace qforest
