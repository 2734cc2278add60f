/// \file test_read_paths.cpp
/// \brief Parity of the read-side consumer paths against the scalar
/// references of tests/forest_oracle.hpp: ghost_layer and mirrors
/// (multi-rank, cross-tree, periodic wrap; mirrors also == per-rank
/// recomputation; the owned-block early-out's edge cases: rank cuts on
/// and one leaf off tree boundaries, ranks owning whole trees, one-leaf
/// ranks, periodic wrap), iterate_faces (hanging + boundary faces, unbalanced
/// forests) and search_points (vs per-point search), over both kernel
/// dispatch settings and under tiny chunk grains that force many chunks.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hpp"
#include "forest/forest.hpp"
#include "forest/vforest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace qforest {
namespace {

using test::BatchFlagGuard;
using test::ChunkGrainGuard;
using test::face_fingerprint;

/// A mixed-level forest: refine a deterministic scatter of leaves so the
/// mesh has hanging interfaces in every tree.
template <class R>
Forest<R> make_refined(Connectivity conn, int base, int ranks) {
  auto f = Forest<R>::new_uniform(std::move(conn), base, ranks);
  f.refine(false, [](tree_id_t t, const typename R::quad_t& q) {
    return (R::level_index(q) + static_cast<morton_t>(t)) % 5 == 0;
  });
  f.partition();
  return f;
}

/// Every rank's ghost set as sorted global indices.
template <class R>
std::vector<std::vector<gidx_t>> ghost_sets(const Forest<R>& f) {
  std::vector<std::vector<gidx_t>> out;
  for (int r = 0; r < f.num_ranks(); ++r) {
    std::vector<gidx_t> g;
    for (const auto& e : f.ghost_layer(r).entries) {
      g.push_back(e.global_index);
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// Ghost sets and mirrors of every rank against the oracle, over both
/// kernel dispatch settings.
template <class R>
void expect_ghost_parity(const Forest<R>& f) {
  std::vector<std::vector<gidx_t>> reference;
  for (int r = 0; r < f.num_ranks(); ++r) {
    reference.push_back(oracle::ghost_set(f, r));
  }
  for (const bool simd : {true, false}) {
    const BatchFlagGuard guard(simd);
    EXPECT_EQ(ghost_sets(f), reference) << R::name << " simd=" << simd;
    for (int r = 0; r < f.num_ranks(); ++r) {
      EXPECT_EQ(f.mirrors(r), oracle::mirrors(f, r))
          << R::name << " simd=" << simd << " rank " << r;
    }
  }
  // Tiny grain: every chunk boundary becomes a seam the batched scan must
  // handle (span staging, cursor seeding, bucket merging).
  const ChunkGrainGuard grain(3);
  EXPECT_EQ(ghost_sets(f), reference) << R::name << " grain=3";
  for (int r = 0; r < f.num_ranks(); ++r) {
    EXPECT_EQ(f.mirrors(r), oracle::mirrors(f, r))
        << R::name << " grain=3 rank " << r;
  }
}

using S2 = StandardRep<2>;
using M3 = MortonRep<3>;

template <class R>
class ReadPathsT : public ::testing::Test {};
TYPED_TEST_SUITE(ReadPathsT, test::AllReps);

TYPED_TEST(ReadPathsT, GhostParityMultiRank) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  expect_ghost_parity(
      make_refined<R>(Connectivity::unit(R::dim), base, 4));
}

TEST(ReadPaths, GhostParityCrossTree2D) {
  expect_ghost_parity(make_refined<S2>(Connectivity::brick2d(3, 2), 2, 5));
}

TEST(ReadPaths, GhostParityCrossTree3D) {
  expect_ghost_parity(make_refined<M3>(Connectivity::brick3d(2, 2, 2), 1, 3));
}

TEST(ReadPaths, GhostParityPeriodicWrap) {
  // Periodic in both directions: neighbor keys wrap back into the source
  // tree (target == t after the wrap) and into sibling trees.
  expect_ghost_parity(
      make_refined<S2>(Connectivity::brick2d(1, 1, true, true), 3, 4));
  expect_ghost_parity(
      make_refined<S2>(Connectivity::brick2d(2, 1, true, true), 2, 3));
}

TEST(ReadPaths, MirrorsMatchPerRankRecomputation) {
  // Pin the one-pass mirrors() to the old O(ranks x ghost) definition:
  // own leaves appearing in some other rank's ghost layer.
  const auto f = make_refined<S2>(Connectivity::brick2d(2, 2), 2, 5);
  for (int r = 0; r < f.num_ranks(); ++r) {
    std::set<gidx_t> expected;
    const auto [first, last] = f.rank_range(r);
    for (int other = 0; other < f.num_ranks(); ++other) {
      if (other == r) {
        continue;
      }
      for (const auto& e : f.ghost_layer(other).entries) {
        if (e.global_index >= first && e.global_index < last) {
          expected.insert(e.global_index);
        }
      }
    }
    const std::vector<gidx_t> got = f.mirrors(r);
    EXPECT_EQ(got, std::vector<gidx_t>(expected.begin(), expected.end()))
        << "rank " << r;
  }
}

// ---- owned-block early-out edge cases: the scan drops a key when every
// leaf it can touch is the rank's own, so rank cuts that sit on tree
// boundaries or one leaf off them, ranks owning whole trees, one-leaf
// ranks and periodic wraps into the source tree must still match the
// oracle exactly.

/// Repartition \p f over cuts.size() + 1 ranks whose ranges start at the
/// given ascending global indices (rank 0 at 0), through
/// partition_weighted with skewed weights: every rank gets the same total
/// weight L (the largest rank's leaf count), its first leaf weighing L
/// minus the rest and every other leaf 1, so the cumulative weight before
/// cut r is exactly r * L and partition_weighted's r/p cut lands on it.
template <class R>
void partition_at(Forest<R>& f, const std::vector<gidx_t>& cuts) {
  std::vector<gidx_t> starts = {0};
  starts.insert(starts.end(), cuts.begin(), cuts.end());
  starts.push_back(f.num_quadrants());
  std::int64_t heaviest = 1;
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    heaviest = std::max<std::int64_t>(heaviest, starts[r + 1] - starts[r]);
  }
  f.set_num_ranks(static_cast<int>(starts.size()) - 1);
  f.partition_weighted([&](tree_id_t t, const typename R::quad_t& q) {
    const auto& tree = f.tree_quadrants(t);
    const gidx_t g = f.global_index(
        t, static_cast<std::size_t>(
               std::lower_bound(tree.begin(), tree.end(), q, RepLess<R>{}) -
               tree.begin()));
    const auto next = std::upper_bound(starts.begin(), starts.end(), g);
    if (*(next - 1) != g) {
      return std::int64_t{1};
    }
    return heaviest - (*next - g - 1);
  });
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    ASSERT_EQ(f.rank_range(static_cast<int>(r)),
              std::make_pair(starts[r], starts[r + 1]))
        << R::name << " rank " << r;
  }
}

template <class R>
void expect_owned_block_edge_cases() {
  const auto brick = R::dim == 2 ? Connectivity::brick2d(2, 2)
                                 : Connectivity::brick3d(2, 2, 1);
  const int base = R::dim == 2 ? 2 : 1;
  auto f = make_refined<R>(brick, base, 1);
  const auto start = [&](tree_id_t t) { return f.global_index(t, 0); };
  // One rank per tree: every cut falls exactly on a tree start and on the
  // previous tree's end.
  partition_at(f, {start(1), start(2), start(3)});
  expect_ghost_parity(f);
  // The middle rank owns trees 1 and 2 whole plus a tail and a head, so
  // its keys into trees 1 and 2 are dropped before bucketing.
  partition_at(f, {start(1) - 3, start(3) + 2});
  expect_ghost_parity(f);
  // A rank of a single leaf, one leaf after a tree start.
  partition_at(f, {start(2) + 1, start(2) + 2});
  expect_ghost_parity(f);

  // Periodic in x: tree 1's last leaf touches tree 0 across the wrap,
  // and tree 0's first leaf touches tree 1. The middle rank misses
  // exactly those two leaves, so neither tree is wholly its own.
  const auto periodic_x = R::dim == 2
                              ? Connectivity::brick2d(2, 1, true, false)
                              : Connectivity::brick3d(2, 1, 1, true);
  auto g = make_refined<R>(periodic_x, base + 1, 1);
  partition_at(g, {1, g.num_quadrants() - 1});
  expect_ghost_parity(g);

  // Fully periodic single tree: wrapped keys land back in the source
  // tree, whose grid blocks straddle the rank cuts on the far side.
  const auto periodic =
      R::dim == 2 ? Connectivity::brick2d(1, 1, true, true)
                  : Connectivity::brick3d(1, 1, 1, true, true, true);
  auto h = make_refined<R>(periodic, base + 1, 1);
  const gidx_t n = h.num_quadrants();
  partition_at(h, {n / 3, n / 3 + 1});
  expect_ghost_parity(h);
  partition_at(h, {1, n - 1});
  expect_ghost_parity(h);
}

TEST(ReadPaths, OwnedBlockEdgeCases2D) {
  expect_owned_block_edge_cases<S2>();
}

TEST(ReadPaths, OwnedBlockEdgeCases3D) {
  expect_owned_block_edge_cases<M3>();
}

template <class R>
void expect_iterate_parity(const Forest<R>& f) {
  const auto batched = [&](const auto& cb) { f.iterate_faces(cb); };
  const auto reference = face_fingerprint<R>(
      [&](const auto& cb) { oracle::iterate_faces(f, cb); });
  ASSERT_FALSE(reference.empty());
  for (const bool simd : {true, false}) {
    const BatchFlagGuard guard(simd);
    EXPECT_EQ(face_fingerprint<R>(batched), reference)
        << R::name << " simd=" << simd;
  }
  const ChunkGrainGuard grain(2);
  EXPECT_EQ(face_fingerprint<R>(batched), reference) << R::name << " grain=2";
}

TYPED_TEST(ReadPathsT, IterateFacesParityHangingAndBoundary) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  expect_iterate_parity(
      make_refined<R>(Connectivity::unit(R::dim), base, 1));
}

TEST(ReadPaths, IterateFacesParityUnbalanced) {
  // A refinement chain leaves the forest non-2:1-balanced: hanging pairs
  // may differ by several levels.
  auto f = Forest<S2>::new_uniform(Connectivity::unit(2), 1);
  f.refine(true, [](tree_id_t, const S2::quad_t& q) {
    const int l = S2::level(q);
    const morton_t chain = l == 0 ? 0 : (morton_t{1} << (2 * (l - 1))) - 1;
    return l < 5 && S2::level_index(q) == chain;
  });
  ASSERT_FALSE(f.is_balanced(BalanceKind::kFace));
  expect_iterate_parity(f);
}

TEST(ReadPaths, IterateFacesParityCrossTreeAndPeriodic) {
  expect_iterate_parity(make_refined<S2>(Connectivity::brick2d(3, 2), 2, 1));
  expect_iterate_parity(
      make_refined<S2>(Connectivity::brick2d(2, 2, true, true), 2, 1));
  expect_iterate_parity(
      make_refined<M3>(Connectivity::brick3d(2, 1, 2), 1, 1));
}

/// Random in-domain canonical points, biased toward leaf boundaries (the
/// half-open convention's interesting case) by snapping some coordinates
/// to coarse grid lines.
std::vector<PointQuery> random_points(Xoshiro256& rng, int dim,
                                      tree_id_t num_trees, std::size_t n) {
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  std::vector<PointQuery> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PointQuery p;
    p.tree = static_cast<tree_id_t>(rng.next_below(
        static_cast<std::uint64_t>(num_trees)));
    auto coord = [&]() {
      std::int64_t c = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(root)));
      if (rng.next_below(4) == 0) {
        c &= ~((std::int64_t{1} << (kCanonicalLevel - 3)) - 1);
      }
      return c;
    };
    p.x = coord();
    p.y = coord();
    p.z = dim == 3 ? coord() : 0;
    pts.push_back(p);
  }
  return pts;
}

TYPED_TEST(ReadPathsT, SearchPointsMatchesPerPointScalar) {
  using R = TypeParam;
  const int base = R::dim == 3 ? 2 : 3;
  const auto f =
      make_refined<R>(Connectivity::unit(R::dim), base, 1);
  Xoshiro256 rng(2024);
  const auto pts = random_points(rng, R::dim, f.num_trees(), 500);
  const std::vector<gidx_t> scalar = oracle::search_points(f, pts);
  for (const bool simd : {true, false}) {
    const BatchFlagGuard guard(simd);
    EXPECT_EQ(f.search_points(pts), scalar) << R::name << " simd=" << simd;
  }
  {
    const ChunkGrainGuard grain(7);
    EXPECT_EQ(f.search_points(pts), scalar) << R::name << " grain=7";
  }
  // The resolved leaf must actually contain its point (half-open boxes).
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto [t, li] = f.locate(scalar[i]);
    ASSERT_EQ(t, pts[i].tree);
    const CanonicalQuadrant c = to_canonical<R>(f.tree_quadrants(t)[li]);
    const std::int64_t h = std::int64_t{1}
                           << (kCanonicalLevel - c.level);
    EXPECT_TRUE(pts[i].x >= c.x && pts[i].x < c.x + h) << i;
    EXPECT_TRUE(pts[i].y >= c.y && pts[i].y < c.y + h) << i;
    if (R::dim == 3) {
      EXPECT_TRUE(pts[i].z >= c.z && pts[i].z < c.z + h) << i;
    }
  }
}

TEST(ReadPaths, SearchPointsMultiTree) {
  const auto f = make_refined<S2>(Connectivity::brick2d(3, 2), 2, 1);
  Xoshiro256 rng(7);
  const auto pts = random_points(rng, 2, f.num_trees(), 400);
  const std::vector<gidx_t> scalar = oracle::search_points(f, pts);
  for (const bool simd : {true, false}) {
    const BatchFlagGuard guard(simd);
    EXPECT_EQ(f.search_points(pts), scalar) << "simd=" << simd;
  }
}

TEST(ReadPaths, SearchPointsRejectsOutOfDomain) {
  const auto f = Forest<S2>::new_uniform(Connectivity::unit(2), 2);
  EXPECT_THROW((void)f.search_points({PointQuery{1, 0, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW((void)f.search_points({PointQuery{0, -1, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)f.search_points({PointQuery{0, 0, 0, 1}}),  // z != 0 in 2D
      std::invalid_argument);
}

/// The same refined mesh in both stacks: identical curve order, so global
/// indices must agree query-for-query.
template <class R>
void expect_vforest_search_points_match(RepKind kind) {
  const int base = R::dim == 3 ? 2 : 3;
  const auto f = make_refined<R>(Connectivity::unit(R::dim), base, 1);
  auto vf = VForest::new_uniform(kind, Connectivity::unit(R::dim), base);
  const auto& ops = vf.ops();
  vf.refine(false, [&](tree_id_t t, const VQuad& q) {
    return (ops.level_index(q) + static_cast<morton_t>(t)) % 5 == 0;
  });
  ASSERT_EQ(vf.num_quadrants(), f.num_quadrants()) << R::name;
  Xoshiro256 rng(99);
  const auto pts = random_points(rng, R::dim, 1, 300);
  const std::vector<gidx_t> expected = f.search_points(pts);
  const std::vector<std::int64_t> got = vf.search_points(pts);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << R::name << " " << i;
  }
}

TEST(ReadPaths, VForestSearchPointsMatchesTemplateForest) {
  expect_vforest_search_points_match<StandardRep<2>>(RepKind::kStandard);
  expect_vforest_search_points_match<StandardRep<3>>(RepKind::kStandard);
  expect_vforest_search_points_match<MortonRep<2>>(RepKind::kMorton);
  expect_vforest_search_points_match<MortonRep<3>>(RepKind::kMorton);
  expect_vforest_search_points_match<AvxRep<2>>(RepKind::kAvx);
  expect_vforest_search_points_match<AvxRep<3>>(RepKind::kAvx);
  expect_vforest_search_points_match<WideMortonRep<2>>(RepKind::kWideMorton);
  expect_vforest_search_points_match<WideMortonRep<3>>(RepKind::kWideMorton);
}

}  // namespace
}  // namespace qforest
