#pragma once
/// \file vforest.hpp
/// \brief VForest: a forest whose quadrant representation is chosen at
/// run time.
///
/// The paper's conclusion describes "a new branch of high-level algorithms
/// that operate on virtualized quadrants" so the representation becomes a
/// run-time choice (configuration file, CLI flag) instead of a template
/// parameter. VForest provides that choice as a thin facade: it holds one
/// of the eight shipped Forest<R> instantiations (4 representations x
/// 2D/3D) in a std::variant, picked by new_uniform from (kind, dim), and
/// every later call is a single std::visit into the matching Forest<R>
/// method. There is no second copy of any AMR algorithm: VForest runs the
/// same batched, tree x chunk-parallel code as Forest<R>, so its meshes
/// are identical to the template forest's by construction.
///
/// Callbacks keep representation-neutral VQuad signatures; each quadrant
/// (for coarsen, each family) is boxed through VirtualOpsAdapter<R>.
/// Because the work runs in Forest<R>, the refine and coarsen callbacks
/// may run concurrently, under the same contract and opt-outs as
/// Forest<R>'s (set_tree_parallelism / set_intra_tree_parallelism);
/// search() stays a serial traversal. ops() exposes the per-quadrant
/// virtual interface whose dispatch cost bench_virtual measures.

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/virtual_ops.hpp"
#include "forest/connectivity.hpp"
#include "forest/forest.hpp"
#include "forest/point_query.hpp"

namespace qforest {

/// Forest of octrees with a run-time-selected quadrant representation.
class VForest {
 public:
  using refine_fn = std::function<bool(tree_id_t, const VQuad&)>;
  /// coarsen callback: (tree, family of 2^dim boxed quadrants) -> coarsen?
  using coarsen_fn = std::function<bool(tree_id_t, const VQuad*)>;
  /// search callback: (tree, ancestor, first, last, is_leaf) -> descend?
  using search_fn = std::function<bool(tree_id_t, const VQuad&, std::size_t,
                                       std::size_t, bool)>;

  /// Uniformly refined forest with representation \p kind; the dimension
  /// is \p conn's. Throws std::invalid_argument on a bad level or dim.
  static VForest new_uniform(RepKind kind, Connectivity conn, int level);

  /// Root-only forest.
  static VForest new_root(RepKind kind, Connectivity conn) {
    return new_uniform(kind, std::move(conn), 0);
  }

  [[nodiscard]] const VirtualQuadrantOps& ops() const { return *ops_; }
  [[nodiscard]] RepKind kind() const { return kind_; }
  [[nodiscard]] const Connectivity& connectivity() const;
  [[nodiscard]] tree_id_t num_trees() const;
  [[nodiscard]] std::int64_t num_quadrants() const;
  /// Leaves of tree \p t in curve order, boxed (a copy).
  [[nodiscard]] std::vector<VQuad> tree_quadrants(tree_id_t t) const;
  [[nodiscard]] int max_level_used() const;

  /// Forest<R>::refine; recursive re-examines children.
  void refine(bool recursive, const refine_fn& should_refine);

  /// Forest<R>::coarsen: replace accepted complete families by their
  /// parent.
  void coarsen(bool recursive, const coarsen_fn& should_coarsen);

  /// Enforce the 2:1 condition across faces/edges/corners (kFull).
  void balance();

  /// Check the kFull 2:1 condition.
  [[nodiscard]] bool is_balanced() const;

  /// Top-down traversal with pruning (Forest<R>::search).
  void search(const search_fn& cb) const;

  /// Batched point location, same contract as Forest<R>::search_points:
  /// the global index of the leaf containing each canonical query point
  /// (see point_query.hpp), in input order. Throws std::invalid_argument
  /// when a query lies outside the domain.
  [[nodiscard]] std::vector<std::int64_t> search_points(
      const std::vector<PointQuery>& queries) const;

  /// Structural validation (sortedness, no overlap, completeness).
  [[nodiscard]] bool is_valid() const;

 private:
  using Variant =
      std::variant<Forest<StandardRep<2>>, Forest<StandardRep<3>>,
                   Forest<MortonRep<2>>, Forest<MortonRep<3>>,
                   Forest<AvxRep<2>>, Forest<AvxRep<3>>,
                   Forest<WideMortonRep<2>>, Forest<WideMortonRep<3>>>;

  VForest(RepKind kind, const VirtualQuadrantOps& ops, Variant forest)
      : kind_(kind), ops_(&ops), forest_(std::move(forest)) {}

  RepKind kind_;
  const VirtualQuadrantOps* ops_;
  Variant forest_;
};

}  // namespace qforest
