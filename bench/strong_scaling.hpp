#pragma once
/// \file strong_scaling.hpp
/// \brief Simulated MPI strong-scaling driver for the figure benchmarks
/// (bench-only code; test_par checks its semantics).
///
/// The paper's Figures 2-7 plot kernel runtime against 2..512 MPI tasks.
/// The kernels are embarrassingly parallel per-quadrant loops with no
/// communication, so an MPI strong-scaling run at T tasks executes N/T
/// loop iterations per rank and reports the slowest rank's time. We
/// reproduce those semantics exactly on one node: split the index range
/// into T contiguous chunks, run each chunk's loop serially, time each
/// chunk with the per-thread CPU clock, and report the maximum — what
/// MPI_Wtime around an MPI_Barrier'ed loop would measure, minus noise.
/// See ARCHITECTURE.md, "The distributed layer", for why this
/// substitution preserves the figures' scientific content (relative
/// representation speedups per task count).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace qforest::par {

/// One measured point of a scaling series.
struct ScalingPoint {
  int tasks = 0;
  double max_task_seconds = 0.0;  ///< what the paper's y-axis shows
  double sum_task_seconds = 0.0;  ///< total CPU work, for sanity checks
};

/// A named runtime-vs-tasks series (one line in a paper figure).
struct ScalingSeries {
  std::string label;
  std::vector<ScalingPoint> points;
};

/// Run \p kernel(begin, end) over [0, n) split into \p tasks chunks and
/// return the simulated strong-scaling time (max over chunk times).
///
/// \p repetitions repeats the whole sweep and keeps the minimum per chunk,
/// suppressing scheduler noise. The kernel must be pure over disjoint
/// chunks (no shared mutable state).
template <class Kernel>
ScalingPoint run_strong_scaling(std::size_t n, int tasks, Kernel&& kernel,
                                int repetitions = 3) {
  ScalingPoint point;
  point.tasks = tasks;
  std::vector<double> best(static_cast<std::size_t>(tasks), 1.0e300);
  for (int rep = 0; rep < repetitions; ++rep) {
    for (int t = 0; t < tasks; ++t) {
      const std::size_t begin = n * static_cast<std::size_t>(t) /
                                static_cast<std::size_t>(tasks);
      const std::size_t end = n * (static_cast<std::size_t>(t) + 1) /
                              static_cast<std::size_t>(tasks);
      const double t0 = thread_cpu_time_s();
      kernel(begin, end);
      const double dt = thread_cpu_time_s() - t0;
      if (dt < best[static_cast<std::size_t>(t)]) {
        best[static_cast<std::size_t>(t)] = dt;
      }
    }
  }
  for (double b : best) {
    point.sum_task_seconds += b;
    if (b > point.max_task_seconds) {
      point.max_task_seconds = b;
    }
  }
  return point;
}

/// The task counts of the paper's x-axes: powers of two from 2 to 512.
std::vector<int> paper_task_counts(int max_tasks = 512);

/// The simulated rank counts of the sharded-exchange strong-scaling
/// bench: powers of two from 8 to \p max_ranks.
std::vector<int> shard_rank_counts(int max_ranks = 64);

/// Parallel efficiency of a \p ranks-shard wall time against the serial
/// reference on a host with \p hw_cores: speedup / ideal speedup, where
/// the ideal is min(ranks, hw_cores) — more shards than cores cannot beat
/// the core count, and fewer shards than cores cannot use them all.
double scaling_efficiency(double serial_seconds, double wall_seconds,
                          int ranks, unsigned hw_cores);

}  // namespace qforest::par
