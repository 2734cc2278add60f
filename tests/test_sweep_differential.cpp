/// \file test_sweep_differential.cpp
/// \brief Seeded differential test of the read-side users of the shared
/// neighbor-key sweep, on the random meshes of tests/differential.hpp for
/// every representation in 2D and 3D: ghost_layer and mirrors against
/// oracle::ghost_set / oracle::mirrors for 1, 3 and 4 ranks, and the
/// multiset of iterate_faces reports against oracle::iterate_faces, each
/// on the (mostly unbalanced) random mesh and on its balanced result,
/// over the SIMD and the generic kernels and under a tiny chunk grain.

#include <cstdint>
#include <iterator>
#include <string>
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
using test::ChunkGrainGuard;

/// Ghost sets and mirrors of every rank, as sorted global indices.
template <class R>
std::vector<std::vector<gidx_t>> adjacency(const Forest<R>& f) {
  std::vector<std::vector<gidx_t>> out;
  for (int r = 0; r < f.num_ranks(); ++r) {
    std::vector<gidx_t> ghosts;
    for (const auto& e : f.ghost_layer(r).entries) {
      ghosts.push_back(e.global_index);
    }
    out.push_back(std::move(ghosts));
    out.push_back(f.mirrors(r));
  }
  return out;
}

template <class R>
std::vector<std::vector<gidx_t>> oracle_adjacency(const Forest<R>& f) {
  std::vector<std::vector<gidx_t>> out;
  for (int r = 0; r < f.num_ranks(); ++r) {
    out.push_back(oracle::ghost_set(f, r));
    out.push_back(oracle::mirrors(f, r));
  }
  return out;
}

/// Runs \p check under both kernel dispatch settings and under chunk
/// grain 3, naming the setting in \p label.
template <class Check>
void each_setting(Check&& check) {
  for (const bool simd : {true, false}) {
    const BatchFlagGuard guard(simd);
    check(simd ? "simd" : "generic");
  }
  const ChunkGrainGuard grain(3);
  check("grain=3");
}

template <class R>
void expect_sweep_parity(const Forest<R>& mesh, const std::string& what) {
  for (const int ranks : {1, 3, 4}) {
    Forest<R> f = mesh;
    f.set_num_ranks(ranks);
    const auto reference = oracle_adjacency(f);
    each_setting([&](const char* setting) {
      EXPECT_EQ(adjacency(f), reference)
          << R::name << " " << setting << " ranks " << ranks << " " << what;
    });
  }
  const auto reference = test::face_fingerprint<R>(
      [&](const auto& cb) { oracle::iterate_faces(mesh, cb); });
  each_setting([&](const char* setting) {
    EXPECT_EQ(test::face_fingerprint<R>(
                  [&](const auto& cb) { mesh.iterate_faces(cb); }),
              reference)
        << R::name << " " << setting << " " << what;
  });
}

template <class R>
class SweepDifferentialT : public ::testing::Test {};
TYPED_TEST_SUITE(SweepDifferentialT, test::AllReps);

TYPED_TEST(SweepDifferentialT, ReadPathsMatchOracleOnSeededRandomMeshes) {
  using R = TypeParam;
  for (std::size_t i = 0; i < std::size(test::kSeeds); ++i) {
    const Case c = test::draw_case<R::dim>(i, test::kSeeds[i]);
    Forest<R> f = test::random_refined<R>(c);
    expect_sweep_parity(f, "unbalanced " + c.describe());
    f.balance(c.kind);
    expect_sweep_parity(f, "balanced " + c.describe());
  }
}

}  // namespace
}  // namespace qforest
