/// \file test_leaf_grid.cpp
/// \brief LeafGrid build against a brute-force scan: on random complete
/// trees in 2D and 3D, every cell's [begin, end) must equal the range of
/// the leaves whose domain intersects the cell. Covers leaves coarser than
/// the grid that span a cell block, trees small enough for a level-0 grid,
/// and chunk grain 3 with the chunks filled by several threads at once,
/// so chunk cuts fall inside cells and concurrent chunks write next to
/// each other (a race in the plain-store fill shows up under the TSAN
/// preset).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bits.hpp"
#include "differential.hpp"
#include "forest/forest.hpp"
#include "forest/leaf_grid.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

/// Fill \p grid over \p tree in chunks of \p grain, handed round-robin to
/// \p threads threads.
template <class R>
void build_chunked(LeafGrid<R>& grid,
                   const std::vector<typename R::quad_t>& tree,
                   std::size_t grain, std::size_t threads) {
  grid.build(tree, [&](std::size_t n, auto&& fill) {
    const std::size_t chunks = (n + grain - 1) / grain;
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t c = w; c < chunks; c += threads) {
          fill(c, c * grain, std::min(n, (c + 1) * grain));
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
  });
}

/// Every cell of \p grid against a scan of all leaves of \p tree for the
/// ones whose box intersects the cell's box; counts the leaves coarser
/// than the grid into \p coarser.
template <class R>
void expect_cells_match_scan(const LeafGrid<R>& grid,
                             const std::vector<typename R::quad_t>& tree,
                             const std::string& what, int& coarser) {
  const int lvl = grid.level();
  const std::int64_t len = std::int64_t{1} << (kCanonicalLevel - lvl);
  const std::int64_t side = std::int64_t{1} << lvl;
  std::vector<CanonicalQuadrant> boxes;
  for (const auto& q : tree) {
    boxes.push_back(to_canonical<R>(q));
    coarser += boxes.back().level < lvl ? 1 : 0;
  }
  auto overlaps = [len](std::int64_t lo, int level, std::int64_t cell) {
    const std::int64_t h = std::int64_t{1} << (kCanonicalLevel - level);
    return lo < (cell + 1) * len && cell * len < lo + h;
  };
  for (std::int64_t cz = 0; cz < (R::dim == 3 ? side : 1); ++cz) {
    for (std::int64_t cy = 0; cy < side; ++cy) {
      for (std::int64_t cx = 0; cx < side; ++cx) {
        std::size_t lo = tree.size();
        std::size_t hi = 0;
        for (std::size_t i = 0; i < boxes.size(); ++i) {
          const CanonicalQuadrant& b = boxes[i];
          if (overlaps(b.x, b.level, cx) && overlaps(b.y, b.level, cy) &&
              (R::dim == 2 || overlaps(b.z, b.level, cz))) {
            lo = std::min(lo, i);
            hi = i + 1;
          }
        }
        const std::uint64_t c =
            R::dim == 3 ? bits::interleave3(static_cast<std::uint32_t>(cx),
                                            static_cast<std::uint32_t>(cy),
                                            static_cast<std::uint32_t>(cz))
                        : bits::interleave2(static_cast<std::uint32_t>(cx),
                                            static_cast<std::uint32_t>(cy));
        ASSERT_EQ(grid.cell(c), std::make_pair(lo, hi))
            << R::name << " " << what << " cell (" << cx << "," << cy << ","
            << cz << ") of level " << lvl;
      }
    }
  }
}

template <class R>
class LeafGridT : public ::testing::Test {};
TYPED_TEST_SUITE(LeafGridT, test::AllReps);

TYPED_TEST(LeafGridT, CellRangesMatchBruteForceScan) {
  using R = TypeParam;
  int coarse_leaves = 0;
  int fine_grids = 0;
  // Unit-tree cases of the differential seed list: sparse deep spikes
  // next to base-level leaves, which the finer grid levels cover by
  // blocks of cells.
  for (std::size_t i = 0; i < std::size(test::kSeeds); i += 3) {
    const test::Case c = test::draw_case<R::dim>(i, test::kSeeds[i]);
    const Forest<R> f = test::random_refined<R>(c);
    const auto& tree = f.tree_quadrants(0);
    for (const auto& [grain, threads] :
         {std::pair<std::size_t, std::size_t>{tree.size(), 1},
          std::pair<std::size_t, std::size_t>{3, 4}}) {
      LeafGrid<R> grid;
      build_chunked(grid, tree, grain, threads);
      fine_grids += grid.level() > 0 ? 1 : 0;
      expect_cells_match_scan(grid, tree,
                              c.describe() + " grain " + std::to_string(grain),
                              coarse_leaves);
    }
  }
  EXPECT_GT(fine_grids, 0) << R::name;
  EXPECT_GT(coarse_leaves, 0) << R::name;
  // Small trees index on a level-0 grid: one cell holds every leaf.
  for (const int level : {0, 1}) {
    const auto f = Forest<R>::new_uniform(Connectivity::unit(R::dim), level);
    const auto& tree = f.tree_quadrants(0);
    LeafGrid<R> grid;
    build_chunked(grid, tree, 3, 2);
    ASSERT_EQ(grid.level(), 0) << R::name;
    EXPECT_EQ(grid.cell(0), std::make_pair(std::size_t{0}, tree.size()));
    int coarser = 0;
    expect_cells_match_scan(grid, tree, "uniform " + std::to_string(level),
                            coarser);
  }
}

}  // namespace
}  // namespace qforest
