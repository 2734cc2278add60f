/// \file amr_bench.cpp
/// \brief Seeded AMR time-step benchmark over the four quadrant
/// representations (standard, morton, avx, wide-morton).
///
/// Usage:
///   amr_bench --workload adapt3d|solve3d|remesh3d
///             --rep standard|morton|avx|wide-morton --seed N --seconds S
///             [--min-steps N] [--small] [--trace-out FILE]
///
/// One process runs one representation, so its peak RSS and set-up time
/// are its own; perfbench/run.py runs several such processes per
/// representation in turn and merges their samples. Every input the forest sees (front path, band radii, query
/// points) is derived from --seed, so one seed gives the same meshes for
/// all four representations; each step's outputs are printed for
/// perfbench/run.py to compare across representations.
///
/// The benchmark measures the library from outside: it times the calls
/// into the public API and wraps each one in an obs::TraceSpan (category
/// "bench", args rep and n = work units). With QFOREST_TRACE / QFOREST_METRICS
/// set the run is the traced one: half the time runs untraced and half
/// traced (the difference is the tracing overhead), the obs counters are
/// reported, the core kernels are probed on the final leaves and the spans
/// are written to --trace-out.
///
/// Output: one JSON document on stdout with the raw samples, counters,
/// step records and check counts; perfbench/run.py turns them into the
/// benchmark's metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_ops.hpp"
#include "core/canonical.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "core/quadrant_wide.hpp"
#include "forest/forest.hpp"
#include "forest/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/random.hpp"

namespace {

using namespace qforest;

constexpr int kRanks = 4;

struct Options {
  std::string workload;
  std::string rep;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t min_steps = 22;
  bool small = false;
  std::string trace_out;
};

std::int64_t now_ns() { return obs::trace_clock_ns(); }

// ------------------------------------------------------------------ checks

/// Correctness checks: every one is counted, a failing one is reported on
/// stderr and in the output, never dropped.
class Checks {
 public:
  void expect(bool ok, const char* what, const char* rep, long step) {
    ++run_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s (rep %s, step %ld)\n", what, rep,
                   step);
    }
  }
  [[nodiscard]] long run() const { return run_; }
  [[nodiscard]] long failed() const { return failed_; }

 private:
  long run_ = 0;
  long failed_ = 0;
};

// ------------------------------------------------------------------ memory

/// Reset the VmHWM high-water mark to the current RSS.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ------------------------------------------------------------- inputs

/// Per-purpose random stream: the same (seed, purpose, index) always gives
/// the same draws.
Xoshiro256 stream(std::uint64_t seed, std::uint64_t purpose,
                  std::uint64_t index) {
  return Xoshiro256(seed * 0x9E3779B97F4A7C15ull ^ (purpose << 48) ^
                    (index * 0xD1B54A32D192ED03ull));
}

/// Leaf center and edge length in tree-local units. Computed from the
/// canonical form, so every representation sees the same values.
template <class R>
void local_box(const typename R::quad_t& q, double c[3], double& h) {
  const CanonicalQuadrant cq = to_canonical<R>(q);
  const double scale = std::ldexp(1.0, -kCanonicalLevel);
  h = std::ldexp(1.0, -cq.level);
  c[0] = static_cast<double>(cq.x) * scale + h / 2;
  c[1] = static_cast<double>(cq.y) * scale + h / 2;
  c[2] = static_cast<double>(cq.z) * scale + h / 2;
}

/// Leaf center and edge length in domain units (trees are unit cubes
/// placed on the brick grid).
template <class R>
void leaf_box(const Connectivity& conn, tree_id_t t,
              const typename R::quad_t& q, double c[3], double& h) {
  local_box<R>(q, c, h);
  const auto origin = conn.tree_coords(t);
  for (int a = 0; a < 3; ++a) {
    c[a] += origin[static_cast<std::size_t>(a)];
  }
}

/// Spherical shell |x - center| = radius; a leaf is "on" it when its
/// center lies within width * h of the shell.
struct Shell {
  double center[3];
  double radius;
  double width;

  [[nodiscard]] bool near(const double c[3], double h) const {
    const double dx = c[0] - center[0];
    const double dy = c[1] - center[1];
    const double dz = c[2] - center[2];
    return std::abs(std::sqrt(dx * dx + dy * dy + dz * dz) - radius) <
           width * h;
  }
};

/// Uniform query points over every tree of the domain.
std::vector<PointQuery> make_points(std::uint64_t seed, std::uint64_t index,
                                    int num_trees, std::size_t n) {
  Xoshiro256 rng = stream(seed, 3, index);
  const std::uint64_t root = std::uint64_t{1} << kCanonicalLevel;
  std::vector<PointQuery> pts(n);
  for (PointQuery& p : pts) {
    p.tree = static_cast<tree_id_t>(rng.next_below(
        static_cast<std::uint64_t>(num_trees)));
    p.x = static_cast<std::int64_t>(rng.next_below(root));
    p.y = static_cast<std::int64_t>(rng.next_below(root));
    p.z = static_cast<std::int64_t>(rng.next_below(root));
  }
  return pts;
}

// ---------------------------------------------------------- step outputs

/// Representation-independent mesh fingerprint: a hash of every leaf's
/// canonical form in curve order.
template <class R>
std::uint64_t mesh_fingerprint(const Forest<R>& f) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    mix(static_cast<std::uint64_t>(t));
    for (const auto& q : f.tree_quadrants(t)) {
      const CanonicalQuadrant c = to_canonical<R>(q);
      mix(static_cast<std::uint64_t>(c.x));
      mix(static_cast<std::uint64_t>(c.y));
      mix(static_cast<std::uint64_t>(c.z) ^
          (static_cast<std::uint64_t>(c.level) << 58));
    }
  }
  return h;
}

std::uint64_t hash_indices(const std::vector<gidx_t>& v) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const gidx_t g : v) {
    h = (h ^ static_cast<std::uint64_t>(g)) * 0x100000001B3ull;
  }
  return h;
}

/// What one step produced; compared across representations.
struct StepRecord {
  std::uint64_t fingerprint = 0;
  std::int64_t leaves = 0;
  std::int64_t faces = 0;
  std::int64_t hanging = 0;
  std::uint64_t search_hash = 0;
};

/// Everything measured for one representation.
struct RepResult {
  const char* name = "";
  std::size_t leaf_bytes = 0;
  std::vector<double> setup_s;
  std::vector<double> step_ns;  ///< untraced step wall times
  std::vector<double> work;     ///< work units (leaves) of each step
  std::vector<double> traced_step_ns;
  std::vector<double> traced_work;
  long peak_rss_kb = 0;
  std::map<std::string, std::uint64_t> counters;
  std::vector<StepRecord> records;
};

/// Time one public call inside a "bench" span; \p fn returns the call's
/// work units, attached as the span's "n" arg.
template <class Fn>
void phase(const char* name, int rep, Fn&& fn) {
  obs::TraceSpan span("bench", name);
  span.arg("rep", rep);
  span.arg("n", static_cast<std::int64_t>(fn()));
}

/// Face count of one iterate_faces sweep (the callback runs concurrently).
template <class R>
std::int64_t count_faces(const Forest<R>& f, StepRecord& rec) {
  std::atomic<std::int64_t> faces{0};
  std::atomic<std::int64_t> hanging{0};
  f.iterate_faces([&](const FaceInfo<R>& info) {
    // mo: relaxed — independent tallies read after the sweep joins.
    faces.fetch_add(1, std::memory_order_relaxed);
    if (info.is_hanging) {
      hanging.fetch_add(1, std::memory_order_relaxed);
    }
  });
  rec.faces = faces.load();
  rec.hanging = hanging.load();
  return rec.faces;
}

/// Payload of a leaf: a function of its global index, so the exchange
/// moves values that differ per leaf.
template <class R>
void fill_payloads(Forest<R>& f, std::uint64_t seed) {
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    const std::size_t n = f.tree_quadrants(t).size();
    for (std::size_t i = 0; i < n; ++i) {
      f.payload(t, i) =
          (static_cast<std::uint64_t>(f.global_index(t, i)) + 1) * seed;
    }
  }
}

template <class R>
std::vector<GhostLayer<R>> build_ghosts(const Forest<R>& f) {
  std::vector<GhostLayer<R>> ghosts;
  ghosts.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    ghosts.push_back(f.ghost_layer(r));
  }
  return ghosts;
}

std::int64_t ghost_entries(const auto& ghosts) {
  std::int64_t n = 0;
  for (const auto& g : ghosts) {
    n += static_cast<std::int64_t>(g.entries.size());
  }
  return n;
}

/// The message-passing exchange must deliver exactly what the shared-
/// memory reference Forest::ghost_exchange reads.
template <class R>
void check_exchange(const Forest<R>& f, const std::vector<GhostLayer<R>>& g,
                    const GhostExchangeResult& res, Checks& checks, long step) {
  for (int r = 0; r < kRanks; ++r) {
    checks.expect(res.payloads[static_cast<std::size_t>(r)] ==
                      f.ghost_exchange(r, g[static_cast<std::size_t>(r)]),
                  "exchanged payloads equal Forest::ghost_exchange", R::name,
                  step);
  }
}

// ------------------------------------------------------------- workloads

/// Sizes of the three workloads; --small shrinks them for the smoke test.
struct Sizes {
  int adapt_min = 3, adapt_max = 6;
  int solve_min = 3, solve_max = 7;
  int remesh_min = 2, remesh_max = 8;
  std::size_t adapt_points = 4096;
  std::size_t solve_points = 16384;
  int solve_exchanges = 3;

  static Sizes make(bool small) {
    Sizes s;
    if (small) {
      s.adapt_max = 5;
      s.solve_max = 6;
      s.remesh_max = 6;
      s.solve_points = 4096;
    }
    return s;
  }
};

/// adapt3d: the full AMR step on a 2x2x1 brick with a spherical front
/// orbiting the brick's center on a seeded circle.
template <class R>
class Adapt3d {
 public:
  /// Steps per orbit. The brick is 4-fold symmetric about the orbit's
  /// axis, so every quarter orbit repeats the same mix of tree-face
  /// crossings; timed runs end on a whole quarter.
  static constexpr long kOrbitSteps = 32;
  static constexpr long kStepBlock = kOrbitSteps / 4;

  Adapt3d(const Sizes& s, std::uint64_t seed) : s_(s), seed_(seed) {
    Xoshiro256 rng = stream(seed, 1, 0);
    radius_ = 0.33 + 0.04 * rng.next_double();
    phase_ = rng.next_double() * 2 * std::numbers::pi;
    direction_ = rng.next_bool() ? 1.0 : -1.0;
    height_ = 0.45 + 0.1 * rng.next_double();
  }

  /// Construction plus the initial adapt to the front's start position.
  Forest<R> setup(int rep) const {
    std::optional<Forest<R>> f;
    phase("new_uniform", rep, [&] {
      f.emplace(Forest<R>::new_uniform(Connectivity::brick3d(2, 2, 1),
                                       s_.adapt_min, kRanks));
      f->enable_payload();
      return f->num_quadrants();
    });
    const Shell sh = front(0);
    phase("refine", rep, [&] {
      f->refine(true, [&](tree_id_t t, const typename R::quad_t& q) {
        return R::level(q) < s_.adapt_max && on(*f, sh, t, q);
      });
      return f->num_quadrants();
    });
    phase("balance", rep, [&] {
      f->balance(BalanceKind::kFull);
      return f->num_quadrants();
    });
    return std::move(*f);
  }

  /// One AMR step toward front position \p k. Returns its timed ns.
  std::int64_t step(Forest<R>& f, long k, int rep, StepRecord& rec,
                    Checks& checks) const {
    const Shell sh = front(k);
    const auto points =
        make_points(seed_, static_cast<std::uint64_t>(k), 4, s_.adapt_points);
    std::vector<GhostLayer<R>> ghosts;
    GhostExchangeResult exchanged;
    std::vector<gidx_t> found;
    std::int64_t fill_ns = 0;
    const std::int64_t t0 = now_ns();
    {
      obs::TraceSpan step_span("bench", "step");
      step_span.arg("rep", rep);
      phase("refine", rep, [&] {
        f.refine(true, [&](tree_id_t t, const typename R::quad_t& q) {
          return R::level(q) < s_.adapt_max && on(f, sh, t, q);
        });
        return f.num_quadrants();
      });
      phase("coarsen", rep, [&] {
        const gidx_t before = f.num_quadrants();
        f.coarsen(true, [&](tree_id_t t, const typename R::quad_t* fam) {
          if (R::level(fam[0]) <= s_.adapt_min) {
            return false;
          }
          for (int c = 0; c < (1 << R::dim); ++c) {
            if (on(f, sh, t, fam[c])) {
              return false;
            }
          }
          return true;
        });
        return before;
      });
      phase("balance", rep, [&] {
        f.balance(BalanceKind::kFull);
        return f.num_quadrants();
      });
      phase("partition", rep, [&] {
        f.partition_weighted([](tree_id_t, const typename R::quad_t& q) {
          return std::int64_t{1} + R::level(q);
        });
        return f.num_quadrants();
      });
      phase("ghost_layer", rep, [&] {
        ghosts = build_ghosts(f);
        return f.num_quadrants();
      });
      {
        // Not a library call: set the data the exchange moves.
        const std::int64_t f0 = now_ns();
        phase("payload_fill", rep, [&] {
          fill_payloads(f, seed_ + static_cast<std::uint64_t>(k));
          return f.num_quadrants();
        });
        fill_ns = now_ns() - f0;
      }
      phase("exchange", rep, [&] {
        exchanged = exchange_ghost_payloads(f, ghosts);
        return ghost_entries(ghosts);
      });
      phase("iterate_faces", rep, [&] { return count_faces(f, rec); });
      phase("search_points", rep, [&] {
        found = f.search_points(points);
        return points.size();
      });
      step_span.arg("n", static_cast<std::int64_t>(f.num_quadrants()));
    }
    const std::int64_t ns = now_ns() - t0 - fill_ns;
    rec.leaves = f.num_quadrants();
    rec.search_hash = hash_indices(found);
    rec.fingerprint = mesh_fingerprint(f);
    check_exchange(f, ghosts, exchanged, checks, k);
    return ns;
  }

 private:
  static bool on(const Forest<R>& f, const Shell& sh, tree_id_t t,
                 const typename R::quad_t& q) {
    double c[3];
    double h;
    leaf_box<R>(f.connectivity(), t, q, c, h);
    return sh.near(c, h);
  }

  /// Front at step \p k. The whole shell stays inside the domain, so its
  /// leaf count barely depends on the seed.
  [[nodiscard]] Shell front(long k) const {
    constexpr double kOrbitRadius = 0.45;
    const double turns = static_cast<double>(k) / kOrbitSteps;
    const double angle = phase_ + direction_ * 2 * std::numbers::pi * turns;
    return Shell{{1.0 + kOrbitRadius * std::cos(angle),
                  1.0 + kOrbitRadius * std::sin(angle), height_},
                 radius_,
                 1.5};
  }

  Sizes s_;
  std::uint64_t seed_;
  double radius_ = 0.35;
  double phase_ = 0;
  double direction_ = 1;
  double height_ = 0.5;
};

/// solve3d: a static balanced mesh in the unit cube; each iteration
/// exchanges ghost payloads, sweeps the faces and locates a point batch.
template <class R>
class Solve3d {
 public:
  Solve3d(const Sizes& s, std::uint64_t seed) : s_(s), seed_(seed) {
    Xoshiro256 rng = stream(seed, 1, 0);
    for (double& c : shell_.center) {
      c = 0.48 + 0.04 * rng.next_double();
    }
    shell_.radius = 0.34 + 0.02 * rng.next_double();
    shell_.width = 1.0;
  }

  struct State {
    Forest<R> forest;
    std::vector<GhostLayer<R>> ghosts;
  };

  /// Construction, the adapt to the static mesh and its ghost layers.
  State setup(int rep) const {
    std::optional<Forest<R>> f;
    phase("new_uniform", rep, [&] {
      f.emplace(Forest<R>::new_uniform(Connectivity::unit(3), s_.solve_min,
                                       kRanks));
      f->enable_payload();
      return f->num_quadrants();
    });
    phase("refine", rep, [&] {
      f->refine(true, [&](tree_id_t, const typename R::quad_t& q) {
        double c[3];
        double h;
        local_box<R>(q, c, h);
        return R::level(q) < s_.solve_max && shell_.near(c, h);
      });
      return f->num_quadrants();
    });
    phase("balance", rep, [&] {
      f->balance(BalanceKind::kFull);
      return f->num_quadrants();
    });
    phase("payload_fill", rep, [&] {
      fill_payloads(*f, seed_);
      return f->num_quadrants();
    });
    std::vector<GhostLayer<R>> ghosts;
    phase("ghost_layer", rep, [&] {
      ghosts = build_ghosts(*f);
      return f->num_quadrants();
    });
    return State{std::move(*f), std::move(ghosts)};
  }

  std::int64_t step(State& st, long k, int rep, StepRecord& rec,
                    Checks& checks) const {
    const auto points = make_points(seed_, static_cast<std::uint64_t>(k), 1,
                                    s_.solve_points);
    std::vector<GhostExchangeResult> exchanged(
        static_cast<std::size_t>(s_.solve_exchanges));
    std::vector<gidx_t> found;
    const std::int64_t t0 = now_ns();
    {
      obs::TraceSpan step_span("bench", "step");
      step_span.arg("rep", rep);
      for (auto& res : exchanged) {
        phase("exchange", rep, [&] {
          res = exchange_ghost_payloads(st.forest, st.ghosts);
          return ghost_entries(st.ghosts);
        });
      }
      phase("iterate_faces", rep, [&] { return count_faces(st.forest, rec); });
      phase("search_points", rep, [&] {
        found = st.forest.search_points(points);
        return points.size();
      });
      step_span.arg("n", static_cast<std::int64_t>(st.forest.num_quadrants()));
    }
    const std::int64_t ns = now_ns() - t0;
    if (fingerprint_ == 0) {
      fingerprint_ = mesh_fingerprint(st.forest);
    }
    rec.fingerprint = fingerprint_;
    rec.leaves = st.forest.num_quadrants();
    rec.search_hash = hash_indices(found);
    for (const auto& res : exchanged) {
      check_exchange(st.forest, st.ghosts, res, checks, k);
    }
    return ns;
  }

 private:
  Sizes s_;
  std::uint64_t seed_;
  Shell shell_{};
  mutable std::uint64_t fingerprint_ = 0;  ///< the mesh never changes
};

/// remesh3d: refine a seeded shell band from the base level to the
/// finest level, then coarsen everything back (no balance, no reads).
template <class R>
class Remesh3d {
 public:
  Remesh3d(const Sizes& s, std::uint64_t seed) : s_(s), seed_(seed) {}

  /// Construction plus one warm-up cycle.
  Forest<R> setup(int rep) const {
    std::optional<Forest<R>> f;
    phase("new_uniform", rep, [&] {
      f.emplace(Forest<R>::new_uniform(Connectivity::brick3d(2, 2, 1),
                                       s_.remesh_min, kRanks));
      return f->num_quadrants();
    });
    phase("refine", rep, [&] {
      refine(*f, band(-1));
      return f->num_quadrants();
    });
    phase("coarsen", rep, [&] {
      const gidx_t before = f->num_quadrants();
      coarsen(*f);
      return before;
    });
    return std::move(*f);
  }

  std::int64_t step(Forest<R>& f, long k, int rep, StepRecord& rec,
                    Checks& checks) const {
    const Shell sh = band(k);
    std::int64_t refine_ns = 0;
    std::int64_t coarsen_ns = 0;
    {
      obs::TraceSpan step_span("bench", "step");
      step_span.arg("rep", rep);
      std::int64_t t0 = now_ns();
      phase("refine", rep, [&] {
        refine(f, sh);
        return f.num_quadrants();
      });
      refine_ns = now_ns() - t0;
      step_span.arg("n", static_cast<std::int64_t>(f.num_quadrants()));
      rec.leaves = f.num_quadrants();
      {
        // The peak mesh is fingerprinted between the two timed calls.
        obs::TraceSpan check_span("bench", "fingerprint");
        check_span.arg("rep", rep);
        rec.fingerprint = mesh_fingerprint(f);
      }
      t0 = now_ns();
      phase("coarsen", rep, [&] {
        const gidx_t before = f.num_quadrants();
        coarsen(f);
        return before;
      });
      coarsen_ns = now_ns() - t0;
    }
    checks.expect(f.num_quadrants() == base_leaves(), "coarsen returns to base",
                  R::name, k);
    return refine_ns + coarsen_ns;
  }

 private:
  /// Band of cycle \p k: per-tree shell with seeded center, radius and
  /// width (tree-local coordinates).
  [[nodiscard]] Shell band(long k) const {
    Xoshiro256 rng = stream(seed_, 2, static_cast<std::uint64_t>(k + 1));
    Shell sh{};
    for (double& c : sh.center) {
      c = 0.48 + 0.04 * rng.next_double();
    }
    sh.radius = 0.33 + 0.04 * rng.next_double();
    sh.width = 1.2 + 0.2 * rng.next_double();
    return sh;
  }

  void refine(Forest<R>& f, const Shell& sh) const {
    f.refine(true, [&](tree_id_t, const typename R::quad_t& q) {
      double c[3];
      double h;
      local_box<R>(q, c, h);
      return R::level(q) < s_.remesh_max && sh.near(c, h);
    });
  }

  void coarsen(Forest<R>& f) const {
    f.coarsen(true, [&](tree_id_t, const typename R::quad_t* fam) {
      return R::level(fam[0]) > s_.remesh_min;
    });
  }

  /// The core probes run on a peak mesh: the final state is the base mesh.
  void prepare_probe(Forest<R>& f, long k) const { refine(f, band(k)); }

  [[nodiscard]] std::int64_t base_leaves() const {
    return std::int64_t{4} << (3 * s_.remesh_min);
  }

  Sizes s_;
  std::uint64_t seed_;
};

// ----------------------------------------------------------- core probes

/// Time the BatchOps kernels and the R::less sort on the leaves of \p f,
/// each inside one "bench" span (traced run only). Every probe repeats its
/// pass until it has run for at least kProbeNs; n counts all repeats.
template <class R>
void probe_core(const Forest<R>& f, int rep, std::uint64_t seed) {
  using quad_t = typename R::quad_t;
  constexpr std::int64_t kProbeNs = 20'000'000;
  std::vector<std::vector<quad_t>> by_level(
      static_cast<std::size_t>(R::max_level) + 1);
  std::vector<quad_t> all;
  for (tree_id_t t = 0; t < f.num_trees(); ++t) {
    for (const quad_t& q : f.tree_quadrants(t)) {
      by_level[static_cast<std::size_t>(R::level(q))].push_back(q);
      all.push_back(q);
    }
  }
  const std::size_t n = all.size();
  std::vector<quad_t> out(n);
  std::vector<std::int64_t> ox(n), oy(n), oz(n);
  auto repeat = [&](const char* name, auto&& body) {
    obs::TraceSpan span("bench", name);
    span.arg("rep", rep);
    const std::int64_t start = now_ns();
    std::size_t units = 0;
    do {
      units += body();
      // The outputs are never read: keep the compiler from dropping the
      // stores (the ClobberMemory idiom).
      asm volatile("" : : "r"(out.data()), "r"(ox.data()) : "memory");
    } while (now_ns() - start < kProbeNs);
    span.arg("n", static_cast<std::int64_t>(units));
  };
  repeat("core.neighbor_at_offset", [&] {
    std::size_t keys = 0;
    for (std::size_t l = 0; l < by_level.size(); ++l) {
      const auto& in = by_level[l];
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (in.empty() || (dx == 0 && dy == 0 && dz == 0)) {
              continue;
            }
            BatchOps<R>::neighbor_at_offset_n(in.data(), ox.data(), oy.data(),
                                              oz.data(), in.size(), dx, dy,
                                              dz, static_cast<int>(l));
            keys += in.size();
          }
        }
      }
    }
    return keys;
  });
  repeat("core.child_uniform", [&] {
    std::size_t quads = 0;
    for (std::size_t l = 0; l + 1 < by_level.size(); ++l) {
      const auto& in = by_level[l];
      for (int c = 0; c < (1 << R::dim) && !in.empty(); ++c) {
        BatchOps<R>::child_uniform(in.data(), out.data(), in.size(), c,
                                   static_cast<int>(l));
        quads += in.size();
      }
    }
    return quads;
  });
  repeat("core.parent_uniform", [&] {
    std::size_t quads = 0;
    for (std::size_t l = 1; l < by_level.size(); ++l) {
      const auto& in = by_level[l];
      BatchOps<R>::parent_uniform(in.data(), out.data(), in.size(),
                                  static_cast<int>(l));
      quads += in.size();
    }
    return quads;
  });
  // The shuffle copy is part of each pass; it is small next to the sort.
  Xoshiro256 rng = stream(seed, 4, 0);
  std::vector<quad_t> shuffled = all;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  repeat("core.less_sort", [&] {
    out = shuffled;
    std::sort(out.begin(), out.end(), RepLess<R>{});
    return n;
  });
}

/// Streaming pass over a leaf-sized buffer: a same-run measure of memory
/// bandwidth, so a slower runner shows apart from a slower code change.
/// Returns ns per byte (median of the repeats).
double stream_ns_per_byte(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 1 << 20) & ~std::size_t{7};
  std::vector<std::uint64_t> a(bytes / 8, 1);
  std::vector<std::uint64_t> b(bytes / 8, 0);
  std::vector<double> samples;
  const std::int64_t start = now_ns();
  std::uint64_t sink = 0;
  do {
    obs::TraceSpan span("bench", "calib.stream");
    span.arg("n", static_cast<std::int64_t>(bytes));
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < a.size(); ++i) {
      b[i] = a[i] + sink;
    }
    sink += b[sink % b.size()];
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(2 * bytes));
  } while (now_ns() - start < 50'000'000 || samples.size() < 5);
  volatile std::uint64_t keep = sink;
  (void)keep;
  const auto mid = samples.begin() +
                   static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

// ---------------------------------------------------------- result JSON

void put_array(std::string& out, const char* key,
               const std::vector<double>& v) {
  out += ",\"";
  out += key;
  out += "\":[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    out += buf;
  }
  out += "]";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string result_json(const Options& opt, const RepResult& r,
                        const Checks& checks, double stream) {
  std::string out = "{\"workload\":\"" + opt.workload + "\"";
  out += ",\"rep\":\"" + std::string(r.name) + "\"";
  out += ",\"threads\":" + std::to_string(detail::forest_pool().size());
  out += ",\"ranks\":" + std::to_string(kRanks);
  out += ",\"leaf_bytes\":" + std::to_string(r.leaf_bytes);
  out += ",\"peak_rss_kb\":" + std::to_string(r.peak_rss_kb);
  out += ",\"checks_run\":" + std::to_string(checks.run());
  out += ",\"checks_failed\":" + std::to_string(checks.failed());
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"stream_ns_per_byte\":%.17g", stream);
  out += buf;
  put_array(out, "setup_s", r.setup_s);
  put_array(out, "step_ns", r.step_ns);
  put_array(out, "work", r.work);
  put_array(out, "traced_step_ns", r.traced_step_ns);
  put_array(out, "traced_work", r.traced_work);
  out += ",\"counters\":{";
  for (const auto& [name, value] : r.counters) {
    out += (out.back() == '{' ? "\"" : ",\"") + name +
           "\":" + std::to_string(value);
  }
  out += "},\"records\":[";
  for (const StepRecord& rec : r.records) {
    out += out.back() == '[' ? "[" : ",[";
    out += hex(rec.fingerprint) + "," + std::to_string(rec.leaves) + "," +
           std::to_string(rec.faces) + "," + std::to_string(rec.hanging) +
           "," + hex(rec.search_hash) + "]";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------- run loop

long status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::atol(line.c_str() + len);
    }
  }
  return 0;
}

template <class State>
auto& forest_of(State& s) {
  if constexpr (requires { s.forest; }) {
    return s.forest;
  } else {
    return s;
  }
}

/// Run one workload for representation \p R, alone in this process.
///
/// A timed set-up, kWarmSteps untimed steps, then timed steps until
/// --seconds are spent, the workload's step block (if it has one) is whole
/// and at least --min-steps samples exist. Peak RSS is the process's VmHWM
/// after the timed steps, reset once the process is up. When tracing, the
/// first half of the time runs untraced and the second half traced (the
/// difference is the tracing overhead); the obs counters cover the set-up
/// and the traced half, the same region as the spans.
template <class R, template <class> class Workload>
int run_rep(const Options& opt, int rep) {
  constexpr int kWarmSteps = 1;
  const bool traced = obs::tracing_enabled() || obs::metrics_enabled();
  const Workload<R> w(Sizes::make(opt.small), opt.seed);
  Checks checks;
  RepResult res;
  res.name = R::name;
  res.leaf_bytes = sizeof(typename R::quad_t);
  // The obs registries must outlive the forest pool: its workers still
  // add to par.pool.idle_wait_ns while they shut down at exit, so the
  // registries are constructed (and hence destroyed) first.
  obs::reset_metrics();
  (void)obs::trace_clock_ns();
  (void)detail::forest_pool();  // start the pool threads before the reset
  reset_peak_rss();

  std::optional<decltype(w.setup(rep))> state;
  const std::int64_t t0 = now_ns();
  {
    obs::TraceSpan span("bench", "setup");
    span.arg("rep", rep);
    state.emplace(w.setup(rep));
  }
  res.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  auto& f = forest_of(*state);

  long k = 0;
  long block = 1;
  if constexpr (requires { Workload<R>::kStepBlock; }) {
    block = Workload<R>::kStepBlock;
  }
  auto step = [&](std::vector<double>* samples, std::vector<double>* work) {
    StepRecord rec;
    const std::int64_t ns = w.step(*state, k++, rep, rec, checks);
    if (samples != nullptr) {
      samples->push_back(static_cast<double>(ns));
      work->push_back(static_cast<double>(rec.leaves));
    }
    res.records.push_back(rec);
  };
  auto run_steps = [&](double block_ns, std::size_t min_steps,
                       std::vector<double>* samples,
                       std::vector<double>* work) {
    const std::int64_t start = now_ns();
    for (std::size_t n = 0;; ++n) {
      const auto elapsed = static_cast<double>(now_ns() - start);
      const bool whole = static_cast<long>(n) % block == 0;
      if ((whole && n >= min_steps && elapsed >= block_ns) ||
          elapsed > 3 * block_ns + 2e9) {
        break;  // the second test bounds a pathologically slow build
      }
      step(samples, work);
    }
  };
  for (int i = 0; i < kWarmSteps; ++i) {
    step(nullptr, nullptr);
  }
  const double budget_ns = opt.seconds * 1e9;
  if (traced) {
    obs::set_tracing(false);
    obs::set_metrics(false);
    const std::size_t half = (opt.min_steps + 1) / 2;
    run_steps(budget_ns / 2, half, &res.step_ns, &res.work);
    obs::set_tracing(true);
    obs::set_metrics(true);
    run_steps(budget_ns / 2, half, &res.traced_step_ns,
              &res.traced_work);
    for (const auto& c : obs::metrics_snapshot().counters) {
      res.counters[c.name] = c.value;
    }
  } else {
    run_steps(budget_ns, opt.min_steps, &res.step_ns, &res.work);
  }
  res.peak_rss_kb = status_kb("VmHWM:");
  checks.expect(f.is_valid(), "is_valid after the run", R::name, k);
  checks.expect(f.is_balanced(BalanceKind::kFull),
                "is_balanced after the run", R::name, k);

  double stream = 0;
  if (traced) {
    if constexpr (requires { w.prepare_probe(f, k); }) {
      w.prepare_probe(f, k);
    }
    probe_core(f, rep, opt.seed);
    stream = stream_ns_per_byte(static_cast<std::size_t>(f.num_quadrants()) *
                                sizeof(typename R::quad_t));
    if (!opt.trace_out.empty()) {
      checks.expect(obs::write_trace_json(opt.trace_out.c_str()),
                    "trace file written", R::name, k);
    }
  }
  std::printf("%s\n", result_json(opt, res, checks, stream).c_str());
  return 0;
}

template <template <class> class Workload>
int run_workload(const Options& opt) {
  if (opt.rep == StandardRep<3>::name) {
    return run_rep<StandardRep<3>, Workload>(opt, 0);
  }
  if (opt.rep == MortonRep<3>::name) {
    return run_rep<MortonRep<3>, Workload>(opt, 1);
  }
  if (opt.rep == AvxRep<3>::name) {
    return run_rep<AvxRep<3>, Workload>(opt, 2);
  }
  if (opt.rep == WideMortonRep<3>::name) {
    return run_rep<WideMortonRep<3>, Workload>(opt, 3);
  }
  return 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: amr_bench --workload adapt3d|solve3d|remesh3d "
               "--rep standard|morton|avx|wide-morton --seed N --seconds S "
               "[--min-steps N] [--small] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--rep" && has_value) {
      opt.rep = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (a == "--min-steps" && has_value) {
      opt.min_steps = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--small") {
      opt.small = true;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) {
    return usage();
  }
  if (opt.workload == "adapt3d") {
    return run_workload<Adapt3d>(opt);
  }
  if (opt.workload == "solve3d") {
    return run_workload<Solve3d>(opt);
  }
  if (opt.workload == "remesh3d") {
    return run_workload<Remesh3d>(opt);
  }
  return usage();
}
