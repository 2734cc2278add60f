#pragma once
/// \file leaf_grid.hpp
/// \brief Coarse Morton-cell index over one tree's curve-sorted leaf array:
/// the lookup structure the neighbor-key sweeps (balance marks, the ghost
/// adjacency scan, face iteration) resolve their same-tree keys against.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/bits.hpp"
#include "core/canonical.hpp"
#include "core/rep_traits.hpp"
#include "obs/metrics.hpp"

namespace qforest {

/// The leaves of the curve-sorted \p tree that touch the reference domain
/// \p ref through the same-level key \p key, where \p up is the index of
/// the first leaf after \p key (searched from \p lo on): the enclosing
/// leaf tree[up - 1] when there is one (emitted unconditionally: an
/// enclosing leaf always touches the reference, which is adjacent to the
/// key region it contains); otherwise the key's finer descendants, a
/// contiguous run from \p up on (scanned no further than \p hi), filtered
/// by the canonical touch test. Finer-run leaves are strictly finer than
/// the same-level reference, so they can never be the reference leaf
/// itself, which a periodic wrap can land on.
template <class R, class Fn>
void for_each_touching(const std::vector<typename R::quad_t>& tree,
                       std::size_t lo, std::size_t up, std::size_t hi,
                       const typename R::quad_t& key,
                       const CanonicalQuadrant& ref, Fn&& fn) {
  if (up > lo && (R::equal(tree[up - 1], key) ||
                  R::is_ancestor(tree[up - 1], key))) {
    fn(up - 1);
    return;
  }
  for (std::size_t r = up; r < hi && R::is_ancestor(key, tree[r]); ++r) {
    if (canonical_touch<R::dim>(to_canonical<R>(tree[r]), ref)) {
      fn(r);
    }
  }
}

/// Cell c of the uniform level-level() grid maps to the contiguous leaf
/// index range [begin, end) of the leaves intersecting it — contiguous
/// because the leaves are sorted along the curve and grid cells are
/// aligned blocks. A lookup then touches only the few leaves of one cell
/// instead of binary-searching the whole tree. The grid refers to the leaf
/// array it was built over and is stale once that array changes.
template <class R>
class LeafGrid {
 public:
  using quad_t = typename R::quad_t;
  static constexpr int dim = R::dim;

  /// Index the curve-sorted, non-overlapping leaves of \p tree. The level
  /// is chosen so cells hold ~2+ leaves on average (a finer grid would
  /// cost more to build than it saves); a leaf coarser than the grid
  /// covers an aligned block of cells, contiguous in cell-Morton order.
  /// \p for_chunks(n, fill) must call fill(chunk, b, e) over a partition
  /// of [0, n), concurrently or not. The fill is plain stores: consecutive
  /// leaves meet in at most one cell, so every cell has exactly one first
  /// intersecting leaf (its begin writer) and one last (its end writer).
  template <class ForChunks>
  void build(const std::vector<quad_t>& tree, ForChunks&& for_chunks) {
    static obs::Counter& c_builds = obs::counter("forest.markgrid.builds");
    c_builds.add(1);
    tree_ = &tree;
    const std::size_t n = tree.size();
    level_ = 0;
    while (level_ + 1 <= R::max_level &&
           (std::size_t{1} << (dim * (level_ + 1))) * 2 <= n) {
      ++level_;
    }
    const std::size_t cells = std::size_t{1} << (dim * level_);
    begin_.assign(cells, n);
    end_.assign(cells, 0);
    for_chunks(n, [&](std::size_t, std::size_t b, std::size_t e) {
      // Half-open cell ranges of leaves b-1 (empty sentinel before the
      // first leaf), i and i+1 (sentinel past the last cell).
      Cells prev = b > 0 ? cells_of(tree[b - 1]) : Cells{0, 0};
      Cells cur = cells_of(tree[b]);
      for (std::size_t i = b; i < e; ++i) {
        const Cells next = i + 1 < n ? cells_of(tree[i + 1])
                                     : Cells{cells, cells};
        for (std::uint64_t c = cur.lo + (prev.hi > cur.lo); c < cur.hi; ++c) {
          begin_[c] = i;
        }
        for (std::uint64_t c = cur.lo; c < cur.hi - (next.lo < cur.hi); ++c) {
          end_[c] = i + 1;
        }
        prev = cur;
        cur = next;
      }
    });
  }

  [[nodiscard]] bool built() const { return tree_ != nullptr; }
  void invalidate() { tree_ = nullptr; }
  [[nodiscard]] int level() const { return level_; }

  /// The leaf range [begin, end) of cell-Morton index \p c.
  [[nodiscard]] std::pair<std::size_t, std::size_t> cell(
      std::uint64_t c) const {
    return {begin_[c], end_[c]};
  }

  /// The leaf range of the aligned cell block covered by key \p nc: a
  /// superset of the leaves that intersect (and hence may touch) the
  /// key's domain. Empty (first >= second) only for an incomplete tree.
  [[nodiscard]] std::pair<std::size_t, std::size_t> block(
      const CanonicalQuadrant& nc) const {
    const Cells c = cells_of(nc);
    return {begin_[c.lo], end_[c.hi - 1]};
  }

  /// Index of the leaf equal to or enclosing the canonical key \p nc, if
  /// any. The enclosure intersects the cell containing the key's corner,
  /// so the range-local upper_bound equals the global one whenever an
  /// enclosure exists (an out-of-range predecessor cannot be an ancestor:
  /// ancestors contain the corner and hence the cell).
  [[nodiscard]] std::optional<std::size_t> enclosing(
      const CanonicalQuadrant& nc) const {
    const auto [lo, hi] = cell(cells_of(nc).lo);
    if (lo >= hi) {
      return std::nullopt;  // defensive: only an incomplete tree has one
    }
    const quad_t key = from_canonical<R>(nc);
    const std::size_t up = upper(lo, hi, key);
    if (up > lo && (R::equal((*tree_)[up - 1], key) ||
                    R::is_ancestor((*tree_)[up - 1], key))) {
      return up - 1;
    }
    return std::nullopt;
  }

  /// for_each_touching over the key's block range \p blk (from block):
  /// every leaf it reports lies in \p blk, which is what lets a caller
  /// skip a key whose block it already owns.
  template <class Fn>
  void touching(const CanonicalQuadrant& nc,
                std::pair<std::size_t, std::size_t> blk,
                const CanonicalQuadrant& ref, Fn&& fn) const {
    const auto [lo, hi] = blk;
    if (lo >= hi) {
      return;  // defensive: only an incomplete tree has one
    }
    const quad_t key = from_canonical<R>(nc);
    for_each_touching<R>(*tree_, lo, upper(lo, hi, key), hi, key, ref, fn);
  }

 private:
  /// Half-open cell-Morton range [lo, hi) a leaf or key intersects.
  struct Cells {
    std::uint64_t lo;
    std::uint64_t hi;
  };

  [[nodiscard]] Cells cells_of(const quad_t& q) const {
    return cells_of(to_canonical<R>(q));
  }

  [[nodiscard]] Cells cells_of(const CanonicalQuadrant& c) const {
    const int shift = kCanonicalLevel - level_;
    const std::uint64_t lo = cell_morton(c.x >> shift, c.y >> shift,
                                         c.z >> shift);
    const int coarser = std::max(level_ - c.level, 0);
    return {lo, lo + (std::uint64_t{1} << (dim * coarser))};
  }

  static std::uint64_t cell_morton(std::int64_t cx, std::int64_t cy,
                                   std::int64_t cz) {
    if constexpr (dim == 3) {
      return bits::interleave3(static_cast<std::uint32_t>(cx),
                               static_cast<std::uint32_t>(cy),
                               static_cast<std::uint32_t>(cz));
    } else {
      (void)cz;
      return bits::interleave2(static_cast<std::uint32_t>(cx),
                               static_cast<std::uint32_t>(cy));
    }
  }

  /// Index of the first leaf in [lo, hi) after \p key.
  [[nodiscard]] std::size_t upper(std::size_t lo, std::size_t hi,
                                  const quad_t& key) const {
    const auto first = tree_->begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = tree_->begin() + static_cast<std::ptrdiff_t>(hi);
    return static_cast<std::size_t>(
        std::upper_bound(first, last, key, RepLess<R>{}) - tree_->begin());
  }

  const std::vector<quad_t>* tree_ = nullptr;
  int level_ = 0;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> end_;
};

}  // namespace qforest
