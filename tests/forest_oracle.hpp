#pragma once
/// \file forest_oracle.hpp
/// \brief Scalar per-quadrant reference implementations of the batched
/// Forest<R> operations, for parity tests and bench ablations only.
///
/// Every function here is written against the public Forest<R> API alone
/// (tree_quadrants, neighbor_at_offset, find_enclosing_leaf,
/// global_index, locate, rank_range, refine) with one neighbor lookup and
/// one whole-tree binary search per (leaf, offset) pair or query — the
/// direct reading of each operation's contract. The library has exactly
/// one algorithm per operation; these are what it is checked and timed
/// against. The shared pure helpers (Forest::for_each_neighbor_offset,
/// Forest::point_key, canonical_touch) are the library's own, so oracle
/// and library can only disagree on the algorithm, not on the
/// definitions.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/canonical.hpp"
#include "core/rep_traits.hpp"
#include "forest/forest.hpp"
#include "forest/point_query.hpp"

namespace qforest::oracle {

/// One complete scalar mark sweep: for every leaf of level >= 2 and every
/// neighbor offset of \p kind, the enclosing leaf of the same-level
/// neighbor is marked when it is two or more levels coarser (a 2:1
/// violation). No early exit: every (leaf, offset) pair is probed.
/// Returns one split bitmap per tree, parallel to tree_quadrants.
template <class R>
std::vector<std::vector<std::uint8_t>> mark_sweep(const Forest<R>& f,
                                                  BalanceKind kind) {
  std::vector<std::vector<std::uint8_t>> split(
      static_cast<std::size_t>(f.num_trees()));
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    split[static_cast<std::size_t>(t)].assign(f.tree_quadrants(t).size(), 0);
  }
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (const auto& q : f.tree_quadrants(t)) {
      const int lvl = R::level(q);
      if (lvl < 2) {
        continue;  // neighbors can never be two levels coarser
      }
      Forest<R>::for_each_neighbor_offset(kind, [&](int dx, int dy, int dz) {
        const auto nb = f.neighbor_at_offset(t, q, dx, dy, dz);
        if (!nb.has_value()) {
          return;  // physical boundary
        }
        const auto enclosing = f.find_enclosing_leaf(nb->tree, nb->quad);
        if (enclosing.has_value() &&
            R::level(f.tree_quadrants(nb->tree)[*enclosing]) < lvl - 1) {
          split[static_cast<std::size_t>(nb->tree)][*enclosing] = 1;
        }
      });
    }
  }
  return split;
}

/// 2:1 balance by fixpoint of scalar mark sweeps; each round splits the
/// marked leaves once through f.refine(false, ...).
template <class R>
void balance(Forest<R>& f, BalanceKind kind = BalanceKind::kFull) {
  using quad_t = typename R::quad_t;
  for (;;) {
    const auto split = mark_sweep(f, kind);
    std::vector<std::vector<quad_t>> marked(split.size());
    bool any = false;
    for (tree_id_t t = 0; t < f.num_trees(); ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const auto& tree = f.tree_quadrants(t);
      for (std::size_t i = 0; i < tree.size(); ++i) {
        if (split[ti][i] != 0) {
          marked[ti].push_back(tree[i]);  // stays curve-sorted
          any = true;
        }
      }
    }
    if (!any) {
      return;
    }
    f.refine(false, [&](tree_id_t t, const quad_t& q) {
      const auto& m = marked[static_cast<std::size_t>(t)];
      return std::binary_search(m.begin(), m.end(), q, RepLess<R>{});
    });
  }
}

/// Global leaf range [first, last) scanned against every kFull neighbor
/// offset: either every out-of-range leaf touched (\p sources false — the
/// ghost layer) or every in-range leaf touching one (\p sources true —
/// the mirrors). Sorted, deduplicated.
template <class R>
std::vector<gidx_t> adjacency(const Forest<R>& f, gidx_t first, gidx_t last,
                              bool sources) {
  const std::int64_t root = std::int64_t{1} << kCanonicalLevel;
  std::vector<gidx_t> seen;
  for (gidx_t g = first; g < last; ++g) {
    const auto [t, i] = f.locate(g);
    const auto& q = f.tree_quadrants(t)[i];
    Forest<R>::for_each_neighbor_offset(
        BalanceKind::kFull, [&, t = t, g = g](int dx, int dy, int dz) {
          const auto nb = f.neighbor_at_offset(t, q, dx, dy, dz);
          if (!nb.has_value()) {
            return;
          }
          auto emit = [&](std::size_t leaf_idx) {
            const gidx_t lg = f.global_index(nb->tree, leaf_idx);
            if (lg < first || lg >= last) {
              seen.push_back(sources ? g : lg);
            }
          };
          const auto enclosing = f.find_enclosing_leaf(nb->tree, nb->quad);
          if (enclosing.has_value()) {
            emit(*enclosing);
            return;
          }
          // The neighbor region is covered by finer leaves: a contiguous
          // run from the first leaf >= nb->quad. The reference leaf is
          // translated into the neighbor tree's frame so the touch test
          // works across tree faces.
          const auto& tree = f.tree_quadrants(nb->tree);
          CanonicalQuadrant ref = to_canonical<R>(q);
          ref.x -= nb->tree_step[0] * root;
          ref.y -= nb->tree_step[1] * root;
          ref.z -= nb->tree_step[2] * root;
          for (auto cur = std::lower_bound(tree.begin(), tree.end(), nb->quad,
                                           RepLess<R>{});
               cur != tree.end() && R::is_ancestor(nb->quad, *cur); ++cur) {
            if ((nb->tree != t || !R::equal(*cur, q)) &&
                canonical_touch<R::dim>(to_canonical<R>(*cur), ref)) {
              emit(static_cast<std::size_t>(cur - tree.begin()));
            }
          }
        });
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return seen;
}

/// Global indices of \p rank's ghost layer (Forest::ghost_layer order).
template <class R>
std::vector<gidx_t> ghost_set(const Forest<R>& f, int rank) {
  const auto [first, last] = f.rank_range(rank);
  return adjacency(f, first, last, false);
}

/// Sorted global indices of \p rank's mirror leaves (Forest::mirrors).
template <class R>
std::vector<gidx_t> mirrors(const Forest<R>& f, int rank) {
  const auto [first, last] = f.rank_range(rank);
  return adjacency(f, first, last, true);
}

/// Serial face iteration in leaf order, with Forest::iterate_faces's
/// exactly-once contract: every physical boundary face, hanging pairs from
/// the finer side, equal-size pairs from the globally lower leaf, nothing
/// toward a finer neighbor region.
template <class R, class Fn>
void iterate_faces(const Forest<R>& f, Fn&& cb) {
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const auto& tree = f.tree_quadrants(t);
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const auto& q = tree[i];
      for (int face = 0; face < DimConstants<R::dim>::num_faces; ++face) {
        FaceInfo<R> info;
        info.tree[0] = t;
        info.quad[0] = q;
        info.leaf_index[0] = i;
        info.face[0] = face;
        const int axis = face >> 1;
        const int sign = (face & 1) ? 1 : -1;
        const auto nb =
            f.neighbor_at_offset(t, q, axis == 0 ? sign : 0,
                                 axis == 1 ? sign : 0, axis == 2 ? sign : 0);
        if (!nb.has_value()) {
          info.is_boundary = true;
          cb(info);
          continue;
        }
        const auto enclosing = f.find_enclosing_leaf(nb->tree, nb->quad);
        if (!enclosing.has_value()) {
          continue;  // neighbor region finer: those leaves emit toward us
        }
        const auto& leaf = f.tree_quadrants(nb->tree)[*enclosing];
        if (R::level(leaf) == R::level(q)) {
          if (f.global_index(t, i) > f.global_index(nb->tree, *enclosing)) {
            continue;  // equal-size pair: the lower side emits
          }
        } else {
          info.is_hanging = true;  // an enclosing leaf is never finer
        }
        info.tree[1] = nb->tree;
        info.quad[1] = leaf;
        info.leaf_index[1] = *enclosing;
        info.face[1] = face ^ 1;
        cb(info);
      }
    }
  }
}

/// Point location, one whole-tree upper_bound per query: the containing
/// leaf is the last leaf <= the point's max_level key in curve order.
/// Queries must lie inside their tree's domain.
template <class R>
std::vector<gidx_t> search_points(const Forest<R>& f,
                                  const std::vector<PointQuery>& queries) {
  std::vector<gidx_t> out;
  out.reserve(queries.size());
  for (const PointQuery& p : queries) {
    const auto& tree = f.tree_quadrants(p.tree);
    const auto key = Forest<R>::point_key(p);
    const auto it =
        std::upper_bound(tree.begin(), tree.end(), key, RepLess<R>{});
    assert(it != tree.begin());
    out.push_back(f.global_index(
        p.tree, static_cast<std::size_t>(it - tree.begin()) - 1));
  }
  return out;
}

}  // namespace qforest::oracle
