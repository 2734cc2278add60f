#pragma once
/// \file helpers.hpp
/// \brief Shared test utilities: random quadrant generation, the list of
/// representation types under test, canonical-form and forest-equality
/// matchers, and the kernel-dispatch flag guard.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_ops.hpp"
#include "core/canonical.hpp"
#include "core/debug_check.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "core/rep_traits.hpp"
#include "forest/connectivity.hpp"
#include "util/random.hpp"

namespace qforest::test {

#if QFOREST_DEBUG_CHECKS_ENABLED
/// The whole suite runs with the debug-check detectors compiled in (see
/// tests/CMakeLists.txt): this global environment fails the binary when
/// any detector recorded a violation that no test consumed — the "clean
/// suite stays silent" half of the contract. Tests that deliberately seed
/// a violation (test_debug_checks.cpp) must call
/// debug::reset_violations() before finishing.
class DebugCheckSilence : public ::testing::Environment {
 public:
  void TearDown() override {
    EXPECT_EQ(qforest::debug::total_violations(), 0u)
        << "debug-check detectors recorded unconsumed violations: "
        << qforest::debug::violation_summary();
  }
};

inline ::testing::Environment* const kDebugCheckSilenceEnv =
    ::testing::AddGlobalTestEnvironment(new DebugCheckSilence);
#endif

/// Deepest level at which the 64-bit level-relative Morton index of the
/// representation stays within 63 bits (morton_quadrant precondition).
template <class R>
constexpr int max_index_level() {
  return std::min(R::max_level, 63 / R::dim - (63 % R::dim == 0 ? 1 : 0));
}

/// Uniformly random quadrant: random level in [0, cap], random position.
template <class R>
typename R::quad_t random_quadrant(Xoshiro256& rng, int max_level_cap = -1) {
  int cap = max_index_level<R>();
  if (max_level_cap >= 0) {
    cap = std::min(cap, max_level_cap);
  }
  const int lvl = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(cap) + 1));
  const morton_t il =
      rng.next_below(std::uint64_t{1} << (R::dim * lvl));
  return R::morton_quadrant(il, lvl);
}

/// Random quadrant at exactly \p lvl.
template <class R>
typename R::quad_t random_quadrant_at(Xoshiro256& rng, int lvl) {
  const morton_t il =
      rng.next_below(std::uint64_t{1} << (R::dim * lvl));
  return R::morton_quadrant(il, lvl);
}

/// gtest assertion: two quadrants of possibly different representations
/// denote the same mesh primitive.
template <class RA, class RB>
::testing::AssertionResult canonically_equal(const typename RA::quad_t& a,
                                             const typename RB::quad_t& b) {
  const CanonicalQuadrant ca = to_canonical<RA>(a);
  const CanonicalQuadrant cb = to_canonical<RB>(b);
  if (ca == cb) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << RA::name << "(" << ca.x << "," << ca.y << "," << ca.z << ",l"
         << ca.level << ") vs " << RB::name << "(" << cb.x << "," << cb.y
         << "," << cb.z << ",l" << cb.level << ")";
}

/// gtest assertion: two forests hold the same leaves tree for tree (and
/// the same payloads, when the channel is enabled).
template <class F>
::testing::AssertionResult same_forest(const F& a, const F& b) {
  using R = typename F::rep;
  if (a.num_quadrants() != b.num_quadrants()) {
    return ::testing::AssertionFailure()
           << "leaf counts differ: " << a.num_quadrants() << " vs "
           << b.num_quadrants();
  }
  for (tree_id_t t = 0; t < a.num_trees(); ++t) {
    const auto& ta = a.tree_quadrants(t);
    const auto& tb = b.tree_quadrants(t);
    if (ta.size() != tb.size()) {
      return ::testing::AssertionFailure()
             << "tree " << t << " sizes differ: " << ta.size() << " vs "
             << tb.size();
    }
    for (std::size_t i = 0; i < ta.size(); ++i) {
      if (!R::equal(ta[i], tb[i])) {
        return ::testing::AssertionFailure()
               << "tree " << t << " leaf " << i << " differs";
      }
      if (a.payload_enabled() &&
          a.tree_payloads(t)[i] != b.tree_payloads(t)[i]) {
        return ::testing::AssertionFailure()
               << "tree " << t << " payload " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Sets the process-global kernel dispatch flag (batch::set_enabled: SIMD
/// or generic BatchOps kernels) for one scope and restores it even when
/// an ASSERT_ bails out of the test body, so later tests never run with
/// stale state.
struct BatchFlagGuard {
  explicit BatchFlagGuard(bool on) : saved_(batch::enabled()) {
    batch::set_enabled(on);
  }
  ~BatchFlagGuard() { batch::set_enabled(saved_); }
  bool saved_;
};

/// All shipped representations, used by TYPED_TEST suites.
using Reps2D = ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                                WideMortonRep<2>>;
using Reps3D = ::testing::Types<StandardRep<3>, MortonRep<3>, AvxRep<3>,
                                WideMortonRep<3>>;
using AllReps =
    ::testing::Types<StandardRep<2>, MortonRep<2>, AvxRep<2>,
                     WideMortonRep<2>, StandardRep<3>, MortonRep<3>,
                     AvxRep<3>, WideMortonRep<3>>;

}  // namespace qforest::test
