#pragma once
/// \file workload.hpp
/// \brief The paper's synthetic benchmark workload (§3.1): an array of
/// 2,396,745 3D quadrants of mixed refinement levels limited by a maximum
/// of 7, plus pre-drawn random operation arguments. The kernel under test
/// is called in a loop over the quadrants and its output is folded into a
/// local sink variable "to prevent subsequent memory access".

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch_ops.hpp"
#include "core/canonical.hpp"
#include "core/types.hpp"
#include "forest/connectivity.hpp"
#include "util/random.hpp"

namespace qforest::bench {

/// Paper §3.1 workload size.
inline constexpr std::size_t kPaperQuadrantCount = 2396745;
/// Paper §3.1 maximum refinement level of the workload.
inline constexpr int kPaperMaxLevel = 7;

/// Compiler barrier: force the value to be materialized (same contract as
/// benchmark::DoNotOptimize, local so the figure harness needs no
/// google-benchmark dependency).
template <class T>
inline void do_not_optimize(T& value) {
#if defined(__GNUC__)
  asm volatile("" : "+m"(value) : : "memory");
#else
  volatile T sink = value;
  (void)sink;
#endif
}

/// Representation-independent description of one workload element.
struct WorkItem {
  morton_t level_index;   ///< index relative to the item's level
  std::uint8_t level;     ///< in [0, kPaperMaxLevel]
  std::uint8_t child;     ///< random child/sibling id in [0, 2^d)
  std::uint8_t face;      ///< random face id in [0, 2d)
  std::uint8_t interior_face;  ///< face whose neighbor stays in the tree
};

/// Draw the paper workload: levels uniform in [0, max_level], positions
/// uniform per level, fixed seed for reproducibility.
std::vector<WorkItem> make_work_items(std::size_t n, int max_level, int dim,
                                      std::uint64_t seed = 20240229);

/// Materialize the workload as quadrants of representation \p R.
template <class R>
struct Workload {
  std::vector<typename R::quad_t> quads;
  std::vector<WorkItem> items;  ///< parallel to quads

  /// Built through the bulk de-interleave kernel: items are grouped per
  /// level (morton_quadrant_n takes level-uniform runs), converted in
  /// bulk, and scattered back to their original slots.
  static Workload build(const std::vector<WorkItem>& items) {
    Workload w;
    w.items = items;
    w.quads.resize(items.size());
    int max_level = 0;
    for (const WorkItem& it : items) {
      max_level = std::max<int>(max_level, it.level);
    }
    std::vector<morton_t> il;
    std::vector<std::size_t> slots;
    std::vector<typename R::quad_t> quads;
    for (int lvl = 0; lvl <= max_level; ++lvl) {
      il.clear();
      slots.clear();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].level == lvl) {
          il.push_back(items[i].level_index);
          slots.push_back(i);
        }
      }
      if (il.empty()) {
        continue;
      }
      quads.resize(il.size());
      BatchOps<R>::morton_quadrant_n(il.data(), quads.data(), il.size(), lvl);
      for (std::size_t k = 0; k < slots.size(); ++k) {
        w.quads[slots[k]] = quads[k];
      }
    }
    return w;
  }
};

/// Shared refinement criterion of the forest benches: a distance band
/// around a sphere through the domain (a proxy for a shock front /
/// interface an application tracks). Canonical coordinates are exact for
/// every representation (the wide-morton grid exceeds 32-bit coordinates).
/// Keep this the single definition — the e2e and batch ablations must
/// measure the same mesh for their BENCH_*.json files to be comparable.
template <class R>
bool near_sphere(const typename R::quad_t& q) {
  const CanonicalQuadrant c = to_canonical<R>(q);
  const double scale = std::ldexp(1.0, kCanonicalLevel);
  const double h = std::ldexp(1.0, kCanonicalLevel - c.level) / scale;
  const double cx = static_cast<double>(c.x) / scale + h / 2;
  const double cy = static_cast<double>(c.y) / scale + h / 2;
  const double cz = static_cast<double>(c.z) / scale + h / 2;
  const double dx = cx - 0.5, dy = cy - 0.5, dz = cz - 0.5;
  const double r = std::sqrt(dx * dx + dy * dy + dz * dz);
  return std::abs(r - 0.35) < h;
}

/// Speedup of \p batched_s over \p scalar_s in percent (the gated
/// boost_percent of the BENCH_*.json ablation records).
inline double pct(double scalar_s, double batched_s) {
  return batched_s > 0 ? (scalar_s / batched_s - 1.0) * 100.0 : 0.0;
}

/// Leaf-for-leaf equality of two forests (the ablations' mesh check).
template <class F>
bool same_mesh(const F& a, const F& b) {
  if (a.num_trees() != b.num_trees()) {
    return false;
  }
  for (tree_id_t t = 0; t < a.num_trees(); ++t) {
    if (!std::equal(a.tree_quadrants(t).begin(), a.tree_quadrants(t).end(),
                    b.tree_quadrants(t).begin(), b.tree_quadrants(t).end(),
                    F::rep::equal)) {
      return false;
    }
  }
  return true;
}

}  // namespace qforest::bench
