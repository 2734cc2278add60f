/// \file test_balance_differential.cpp
/// \brief Seeded differential test of 2:1 balance: random recursive
/// refinements with level jumps of up to five levels, on the unit tree, a
/// brick and a fully periodic brick, for every representation in 2D and
/// 3D. Forest::balance must produce exactly the mesh of the scalar
/// reference oracle::balance (tests/forest_oracle.hpp) and satisfy
/// is_balanced(), over the SIMD and the generic kernels and under a tiny
/// chunk grain. The seed list is fixed, so a failure names a reproducible
/// case; stdlib only (std::mt19937_64 draws each case's parameters, a
/// pure hash of the quadrant drives the refine predicate, which runs
/// concurrently).

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

using test::BatchFlagGuard;

/// One random case: connectivity and balance kind cycle with the case's
/// position in the seed list (so every pairing is covered), the rest is
/// drawn from its seed.
struct Case {
  std::uint64_t seed;
  int conn;                    ///< 0 unit, 1 brick, 2 periodic brick
  BalanceKind kind;
  int base;                    ///< uniform starting level
  int jump;                    ///< deepest refinement: base + jump
  std::uint64_t base_permille; ///< refine probability of a base leaf
  std::uint64_t deep_permille; ///< refine probability below the base

  [[nodiscard]] std::string describe() const {
    return "seed " + std::to_string(seed) + " conn " + std::to_string(conn) +
           " kind " + std::to_string(static_cast<int>(kind)) + " base " +
           std::to_string(base) + " jump " + std::to_string(jump) +
           " permille " + std::to_string(base_permille) + "/" +
           std::to_string(deep_permille);
  }
};

template <int Dim>
Case draw_case(std::size_t position, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Case c{};
  c.seed = seed;
  c.conn = static_cast<int>(position % 3);
  const std::size_t k = (position / 3) % 3;
  c.kind = k == 0 ? BalanceKind::kFace
                  : (k == 1 ? BalanceKind::kEdge : BalanceKind::kFull);
  c.base = Dim == 2 ? 2 : 1;
  c.jump = 3 + static_cast<int>(rng() % 3);
  // Sparse spikes: a few base leaves start a refinement that continues
  // into about 1.5 children per level, so deep leaves end up next to
  // base-level ones (the cascades balance has to resolve).
  c.base_permille = Dim == 2 ? 100 + rng() % 200 : 80 + rng() % 150;
  c.deep_permille = (Dim == 2 ? 330 : 160) + rng() % 80;
  return c;
}

Connectivity make_conn(int dim, int which) {
  if (which == 0) {
    return Connectivity::unit(dim);
  }
  const bool periodic = which == 2;
  return dim == 2 ? Connectivity::brick2d(2, 2, periodic, periodic)
                  : Connectivity::brick3d(2, 1, 2, periodic, periodic,
                                          periodic);
}

/// splitmix64 finalizer: a pure, well-mixed hash for the predicate.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <class R>
Forest<R> random_refined(const Case& c) {
  auto f = Forest<R>::new_uniform(make_conn(R::dim, c.conn), c.base, 3);
  const int cap = c.base + c.jump;
  f.refine(true, [&c, cap](tree_id_t t, const typename R::quad_t& q) {
    const int l = R::level(q);
    if (l >= cap) {
      return false;
    }
    const std::uint64_t h =
        mix(c.seed ^ mix(static_cast<std::uint64_t>(R::level_index(q)) ^
                         (static_cast<std::uint64_t>(l) << 56) ^
                         (static_cast<std::uint64_t>(t) << 48)));
    return h % 1000 < (l == c.base ? c.base_permille : c.deep_permille);
  });
  return f;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55};

template <class R>
class BalanceDifferentialT : public ::testing::Test {};
TYPED_TEST_SUITE(BalanceDifferentialT, test::AllReps);

TYPED_TEST(BalanceDifferentialT, MatchesOracleOnSeededRandomRefinements) {
  using R = TypeParam;
  int unbalanced = 0;
  int deepest_jump = 0;
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const Case c = draw_case<R::dim>(i, kSeeds[i]);
    const Forest<R> f = random_refined<R>(c);
    unbalanced += f.is_balanced(c.kind) ? 0 : 1;
    deepest_jump = std::max(deepest_jump, f.max_level_used() - c.base);
    Forest<R> reference = f;
    oracle::balance(reference, c.kind);
    ASSERT_TRUE(reference.is_balanced(c.kind)) << R::name << " "
                                               << c.describe();
    for (const bool simd : {true, false}) {
      const BatchFlagGuard guard(simd);
      Forest<R> batched = f;
      batched.balance(c.kind);
      EXPECT_TRUE(batched.is_valid()) << R::name << " " << c.describe();
      EXPECT_TRUE(batched.is_balanced(c.kind))
          << R::name << " simd=" << simd << " " << c.describe();
      EXPECT_TRUE(test::same_forest(reference, batched))
          << R::name << " simd=" << simd << " " << c.describe();
    }
    // A tiny grain puts chunk seams inside every worklist.
    const std::size_t saved_grain = chunk_grain();
    set_chunk_grain(3);
    Forest<R> chunked = f;
    chunked.balance(c.kind);
    set_chunk_grain(saved_grain);
    EXPECT_TRUE(test::same_forest(reference, chunked))
        << R::name << " grain=3 " << c.describe();
  }
  // The seed list must actually exercise the fixpoint, up to the
  // deepest level jump.
  EXPECT_GE(unbalanced, 6) << R::name;
  EXPECT_EQ(deepest_jump, 5) << R::name;
}

}  // namespace
}  // namespace qforest
