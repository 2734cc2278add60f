/// \file test_balance_differential.cpp
/// \brief Seeded differential test of 2:1 balance on the random meshes of
/// tests/differential.hpp, for every representation in 2D and 3D.
/// Forest::balance must produce exactly the mesh of the scalar reference
/// oracle::balance (tests/forest_oracle.hpp), over the SIMD and the
/// generic kernels and under a tiny chunk grain, and Forest::is_balanced
/// must agree with the scalar mark sweep oracle::mark_sweep both on the
/// (mostly unbalanced) random mesh and on the balanced result.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "differential.hpp"
#include "forest/forest.hpp"
#include "forest_oracle.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

using test::BatchFlagGuard;
using test::Case;

/// Whether the scalar mark sweep finds nothing to split.
template <class R>
bool oracle_balanced(const Forest<R>& f, BalanceKind kind) {
  const auto split = oracle::mark_sweep(f, kind);
  return std::all_of(split.begin(), split.end(), [](const auto& marks) {
    return std::find(marks.begin(), marks.end(), 1) == marks.end();
  });
}

template <class R>
class BalanceDifferentialT : public ::testing::Test {};
TYPED_TEST_SUITE(BalanceDifferentialT, test::AllReps);

TYPED_TEST(BalanceDifferentialT, MatchesOracleOnSeededRandomRefinements) {
  using R = TypeParam;
  int unbalanced = 0;
  int deepest_jump = 0;
  for (std::size_t i = 0; i < std::size(test::kSeeds); ++i) {
    const Case c = test::draw_case<R::dim>(i, test::kSeeds[i]);
    const Forest<R> f = test::random_refined<R>(c);
    const bool balanced = oracle_balanced(f, c.kind);
    unbalanced += balanced ? 0 : 1;
    deepest_jump = std::max(deepest_jump, f.max_level_used() - c.base);
    Forest<R> reference = f;
    oracle::balance(reference, c.kind);
    ASSERT_TRUE(oracle_balanced(reference, c.kind))
        << R::name << " " << c.describe();
    for (const bool simd : {true, false}) {
      const BatchFlagGuard guard(simd);
      EXPECT_EQ(f.is_balanced(c.kind), balanced)
          << R::name << " simd=" << simd << " " << c.describe();
      Forest<R> batched = f;
      batched.balance(c.kind);
      EXPECT_TRUE(batched.is_valid()) << R::name << " " << c.describe();
      EXPECT_TRUE(batched.is_balanced(c.kind))
          << R::name << " simd=" << simd << " " << c.describe();
      EXPECT_TRUE(test::same_forest(reference, batched))
          << R::name << " simd=" << simd << " " << c.describe();
    }
    // A tiny grain puts chunk seams inside every worklist and grid build.
    const test::ChunkGrainGuard grain(3);
    EXPECT_EQ(f.is_balanced(c.kind), balanced)
        << R::name << " grain=3 " << c.describe();
    Forest<R> chunked = f;
    chunked.balance(c.kind);
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
