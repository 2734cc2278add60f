/// \file test_io.cpp
/// \brief Forest serialization + representation-independent checksums:
/// round trips, cross-representation loads, corruption rejection.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "helpers.hpp"

namespace qforest {
namespace {

template <class R>
Forest<R> make_adaptive_forest() {
  const auto conn = R::dim == 2 ? Connectivity::brick2d(2, 1)
                                : Connectivity::brick3d(2, 1, 1);
  auto f = Forest<R>::new_uniform(conn, 2, 3);
  f.refine(false, [](tree_id_t t, const typename R::quad_t& q) {
    return (R::level_index(q) + static_cast<morton_t>(t)) % 3 == 0;
  });
  f.balance(BalanceKind::kFull);
  return f;
}

template <class R>
class IoT : public ::testing::Test {};

using IoReps = ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                                WideMortonRep<2>, StandardRep<3>,
                                MortonRep<3>, AvxRep<3>, WideMortonRep<3>>;
TYPED_TEST_SUITE(IoT, IoReps);

TYPED_TEST(IoT, SaveLoadRoundTrip) {
  using R = TypeParam;
  const auto f = make_adaptive_forest<R>();
  std::stringstream ss;
  save_forest(ss, f);
  const auto g = load_forest<R>(ss);
  ASSERT_EQ(g.num_trees(), f.num_trees());
  EXPECT_EQ(g.num_ranks(), f.num_ranks());
  EXPECT_TRUE(test::same_forest(f, g));
  EXPECT_EQ(forest_checksum(f), forest_checksum(g));
}

TYPED_TEST(IoT, ChecksumChangesWithMesh) {
  using R = TypeParam;
  auto f = make_adaptive_forest<R>();
  const std::uint64_t before = forest_checksum(f);
  f.refine(false, [](tree_id_t, const typename R::quad_t& q) {
    return R::level_index(q) == 1;
  });
  EXPECT_NE(forest_checksum(f), before);
}

TEST(IoCrossRep, SaveMortonLoadEverywhere3D) {
  const auto f = make_adaptive_forest<MortonRep<3>>();
  std::stringstream ss;
  save_forest(ss, f);
  const std::string blob = ss.str();
  const std::uint64_t want = forest_checksum(f);

  {
    std::istringstream in(blob);
    const auto g = load_forest<StandardRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
    EXPECT_EQ(g.num_quadrants(), f.num_quadrants());
  }
  {
    std::istringstream in(blob);
    const auto g = load_forest<AvxRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
  }
  {
    std::istringstream in(blob);
    const auto g = load_forest<WideMortonRep<3>>(in);
    EXPECT_EQ(forest_checksum(g), want);
  }
}

TEST(IoCrossRep, ChecksumEqualAcrossRepresentationsByConstruction) {
  // The same logical mesh built independently in every representation
  // hashes identically.
  const std::uint64_t hs =
      forest_checksum(make_adaptive_forest<StandardRep<3>>());
  EXPECT_EQ(forest_checksum(make_adaptive_forest<MortonRep<3>>()), hs);
  EXPECT_EQ(forest_checksum(make_adaptive_forest<AvxRep<3>>()), hs);
  EXPECT_EQ(forest_checksum(make_adaptive_forest<WideMortonRep<3>>()), hs);
}

TEST(IoErrors, BadMagicRejected) {
  std::istringstream in("NOPE....");
  EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error);
}

TEST(IoErrors, TruncationRejected) {
  const auto f = make_adaptive_forest<MortonRep<3>>();
  std::stringstream ss;
  save_forest(ss, f);
  std::string blob = ss.str();
  blob.resize(blob.size() / 2);
  std::istringstream in(blob);
  EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error);
}

TEST(IoErrors, DimensionMismatchRejected) {
  const auto f = make_adaptive_forest<MortonRep<2>>();
  std::stringstream ss;
  save_forest(ss, f);
  EXPECT_THROW(load_forest<MortonRep<3>>(ss), std::runtime_error);
}

TEST(IoErrors, LevelBeyondRepresentationRejected) {
  // A level-20 3D mesh cannot load into MortonRep<3> (max 18).
  auto f = Forest<StandardRep<3>>::new_root(Connectivity::unit(3));
  f.refine(true, [](tree_id_t, const StandardRep<3>::quad_t& q) {
    return StandardRep<3>::level(q) < 20 &&
           StandardRep<3>::level_index(q) == 0;
  });
  std::stringstream ss;
  save_forest(ss, f);
  EXPECT_THROW(load_forest<MortonRep<3>>(ss), std::invalid_argument);
}

/// Byte offsets in a saved stream: the fixed header (magic, version, dim,
/// brick extents, periodic flags, pad, ranks, trees) is 36 bytes, then
/// tree 0's leaf count (u64) and leaf 0's x, y, z (i64 each).
constexpr std::size_t kTree0Count = 36;
constexpr std::size_t kLeaf0X = kTree0Count + 8;
constexpr std::size_t kLeaf0Z = kLeaf0X + 16;

template <class T>
void poke(std::string& blob, std::size_t offset, T value) {
  std::memcpy(blob.data() + offset, &value, sizeof value);
}

template <class R>
std::string saved_adaptive_forest() {
  std::stringstream ss;
  save_forest(ss, make_adaptive_forest<R>());
  return ss.str();
}

TEST(IoErrors, MalformedLeafStreamRejected) {
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  const std::string blob3 = saved_adaptive_forest<MortonRep<3>>();
  std::int64_t x0 = 0;
  std::memcpy(&x0, blob3.data() + kLeaf0X, sizeof x0);
  struct Case {
    const char* what;
    std::size_t offset;
    std::int64_t value;
  };
  // Bit 0 of x is below MortonRep<3>'s grid: from_canonical would drop
  // it and the stream would load with the original's checksum.
  const Case cases[] = {
      {"x below R's grid", kLeaf0X, x0 | 1},
      {"x on R's grid but not aligned to the leaf level", kLeaf0X,
       root >> 10},
      {"x outside the tree", kLeaf0X, root},
      {"negative x", kLeaf0X, -(root >> 3)},
      {"leaf count beyond the stream", kTree0Count, std::int64_t{1} << 40},
  };
  for (const Case& c : cases) {
    std::string blob = blob3;
    poke(blob, c.offset, c.value);
    std::istringstream in(blob);
    EXPECT_THROW(load_forest<MortonRep<3>>(in), std::runtime_error) << c.what;
  }
  // Nonzero z in 2D, aligned to leaf 0's level (3) so only the 2D rule
  // rejects it.
  std::string blob2 = saved_adaptive_forest<StandardRep<2>>();
  poke(blob2, kLeaf0Z, root >> 3);
  std::istringstream in(blob2);
  EXPECT_THROW(load_forest<StandardRep<2>>(in), std::runtime_error);
}

TEST(IoErrors, ByteReaderRejectsArrayCountBeyondBuffer) {
  // An array header claiming 2^40 elements over an 8-byte payload must
  // fail as truncated before anything is allocated for it.
  io_detail::ByteWriter w;
  w.write(std::uint64_t{1} << 40);
  w.write(std::uint64_t{7});
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  io_detail::ByteReader rd(bytes);
  EXPECT_THROW((void)rd.read_array<std::uint64_t>(), std::runtime_error);
}

TEST(IoReplaceLeaves, RejectsWrongTreeCount) {
  auto f = Forest<MortonRep<3>>::new_uniform(Connectivity::unit(3), 1);
  EXPECT_THROW(f.replace_leaves({}), std::invalid_argument);
}

}  // namespace
}  // namespace qforest
