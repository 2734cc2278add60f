#pragma once
/// \file differential.hpp
/// \brief Shared pieces of the seeded differential tests: random recursive
/// refinements with level jumps of up to five levels on the unit tree, a
/// brick and a fully periodic brick (a fixed seed list, so a failure names
/// a reproducible case; std::mt19937_64 draws each case's parameters and a
/// pure hash of the quadrant drives the refine predicate, which runs
/// concurrently), a chunk-grain guard and an order-independent fingerprint
/// of a face iteration.

#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include "forest/forest.hpp"

namespace qforest::test {

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

inline Connectivity make_conn(int dim, int which) {
  if (which == 0) {
    return Connectivity::unit(dim);
  }
  const bool periodic = which == 2;
  return dim == 2 ? Connectivity::brick2d(2, 2, periodic, periodic)
                  : Connectivity::brick3d(2, 1, 2, periodic, periodic,
                                          periodic);
}

/// splitmix64 finalizer: a pure, well-mixed hash for the predicate.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The case's random mesh, partitioned over three ranks.
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

inline constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55};

/// Restores the chunk grain (tests shrink it to force many chunks).
struct ChunkGrainGuard {
  explicit ChunkGrainGuard(std::size_t grain) : saved_(chunk_grain()) {
    set_chunk_grain(grain);
  }
  ~ChunkGrainGuard() { set_chunk_grain(saved_); }
  std::size_t saved_;
};

using FaceTuple = std::tuple<bool, bool, tree_id_t, std::size_t, int,
                             tree_id_t, std::size_t, int>;

/// Order-independent fingerprint of one face iteration \p iterate(cb):
/// one canonical tuple per emission.
template <class R, class Iterate>
std::multiset<FaceTuple> face_fingerprint(Iterate&& iterate) {
  std::multiset<FaceTuple> out;
  std::mutex mu;
  iterate([&](const FaceInfo<R>& info) {
    const std::lock_guard<std::mutex> lock(mu);
    out.insert({info.is_boundary, info.is_hanging, info.tree[0],
                info.leaf_index[0], info.face[0], info.tree[1],
                info.leaf_index[1], info.face[1]});
  });
  return out;
}

}  // namespace qforest::test
