#include "forest/vforest.hpp"

#include <stdexcept>
#include <type_traits>

namespace qforest {
namespace {

/// Representation of the Forest<R> alternative a visitor received.
template <class F>
using rep_of = typename std::remove_cvref_t<F>::rep;

template <template <int> class Rep, class Variant>
Variant uniform(Connectivity conn, int level) {
  if (conn.dim() == 2) {
    return Forest<Rep<2>>::new_uniform(std::move(conn), level);
  }
  return Forest<Rep<3>>::new_uniform(std::move(conn), level);
}

}  // namespace

VForest VForest::new_uniform(RepKind kind, Connectivity conn, int level) {
  const VirtualQuadrantOps& ops = virtual_ops(kind, conn.dim());
  switch (kind) {
    case RepKind::kStandard:
      return {kind, ops, uniform<StandardRep, Variant>(std::move(conn), level)};
    case RepKind::kMorton:
      return {kind, ops, uniform<MortonRep, Variant>(std::move(conn), level)};
    case RepKind::kAvx:
      return {kind, ops, uniform<AvxRep, Variant>(std::move(conn), level)};
    case RepKind::kWideMorton:
      return {kind, ops,
              uniform<WideMortonRep, Variant>(std::move(conn), level)};
  }
  throw std::invalid_argument("VForest: unknown representation kind");
}

const Connectivity& VForest::connectivity() const {
  return std::visit(
      [](const auto& f) -> const Connectivity& { return f.connectivity(); },
      forest_);
}

tree_id_t VForest::num_trees() const {
  return std::visit([](const auto& f) { return f.num_trees(); }, forest_);
}

std::int64_t VForest::num_quadrants() const {
  return std::visit([](const auto& f) { return f.num_quadrants(); }, forest_);
}

std::vector<VQuad> VForest::tree_quadrants(tree_id_t t) const {
  return std::visit(
      [t](const auto& f) {
        using R = rep_of<decltype(f)>;
        const auto& leaves = f.tree_quadrants(t);
        std::vector<VQuad> out;
        out.reserve(leaves.size());
        for (const auto& q : leaves) {
          out.push_back(VirtualOpsAdapter<R>::box(q));
        }
        return out;
      },
      forest_);
}

int VForest::max_level_used() const {
  return std::visit([](const auto& f) { return f.max_level_used(); }, forest_);
}

void VForest::refine(bool recursive, const refine_fn& should_refine) {
  std::visit(
      [&](auto& f) {
        using R = rep_of<decltype(f)>;
        f.refine(recursive, [&](tree_id_t t, const typename R::quad_t& q) {
          return should_refine(t, VirtualOpsAdapter<R>::box(q));
        });
      },
      forest_);
}

void VForest::coarsen(bool recursive, const coarsen_fn& should_coarsen) {
  std::visit(
      [&](auto& f) {
        using R = rep_of<decltype(f)>;
        f.coarsen(recursive,
                  [&](tree_id_t t, const typename R::quad_t* family) {
                    VQuad boxed[DimConstants<R::dim>::num_children];
                    for (int c = 0; c < DimConstants<R::dim>::num_children;
                         ++c) {
                      boxed[c] = VirtualOpsAdapter<R>::box(family[c]);
                    }
                    return should_coarsen(t, boxed);
                  });
      },
      forest_);
}

void VForest::balance() {
  std::visit([](auto& f) { f.balance(BalanceKind::kFull); }, forest_);
}

bool VForest::is_balanced() const {
  return std::visit(
      [](const auto& f) { return f.is_balanced(BalanceKind::kFull); },
      forest_);
}

void VForest::search(const search_fn& cb) const {
  std::visit(
      [&](const auto& f) {
        using R = rep_of<decltype(f)>;
        f.search([&](tree_id_t t, const typename R::quad_t& anc,
                     std::size_t first, std::size_t last, bool is_leaf) {
          return cb(t, VirtualOpsAdapter<R>::box(anc), first, last, is_leaf);
        });
      },
      forest_);
}

std::vector<std::int64_t> VForest::search_points(
    const std::vector<PointQuery>& queries) const {
  return std::visit(
      [&](const auto& f) { return f.search_points(queries); }, forest_);
}

bool VForest::is_valid() const {
  return std::visit([](const auto& f) { return f.is_valid(); }, forest_);
}

}  // namespace qforest
