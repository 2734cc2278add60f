#pragma once
/// \file figure.hpp
/// \brief Shared harness regenerating the paper's Figures 2-7: one
/// strong-scaling series per quadrant representation for a single
/// low-level kernel, printed as the table of runtimes the paper plots,
/// followed by the paper-style "average performance boost" summary and a
/// google-benchmark micro section for per-op throughput.
///
/// Usage: each bench_figN binary instantiates run_figure() with three
/// kernel functors (standard / raw Morton / AVX). A kernel receives the
/// workload and an index range and folds its outputs into a local sink
/// (paper §3.1 methodology).

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/quadrant_avx.hpp"
#include "core/quadrant_morton.hpp"
#include "core/quadrant_std.hpp"
#include "strong_scaling.hpp"
#include "simd/feature_detect.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload.hpp"

namespace qforest::bench {

/// Configuration of a figure run; defaults follow the paper. Override via
/// environment variables QFOREST_BENCH_N / _MAX_TASKS / _SWEEPS for quick
/// experimentation.
struct FigureConfig {
  std::size_t n = kPaperQuadrantCount;
  int max_level = kPaperMaxLevel;
  int max_tasks = 512;
  int sweeps = 3;  ///< repetitions per task count (min is kept)

  static FigureConfig from_env();
};

/// One representation's measured series plus the paper-style speedup
/// relative to the standard baseline.
struct FigureSeries {
  std::string label;
  std::vector<double> seconds;  ///< per task count
};

/// Run the harness for one kernel. KernelS/KernelM/KernelA are callables
/// (const Workload<R>&, begin, end) -> void for the respective reps.
template <class KernelS, class KernelM, class KernelA>
void run_figure(const char* figure_id, const char* kernel_name,
                const char* paper_claim, KernelS&& ks, KernelM&& km,
                KernelA&& ka, const FigureConfig& cfg = FigureConfig::from_env()) {
  std::printf("== %s: strong scaling of %s over %zu 3D quadrants"
              " (levels <= %d) ==\n",
              figure_id, kernel_name, cfg.n, cfg.max_level);
  std::printf("paper: %s\n", paper_claim);
  std::printf("cpu features: %s%s\n", simd::feature_string().c_str(),
              QFOREST_HAVE_AVX2 ? " (intrinsics path compiled in)"
                                : " (scalar fallback for AVX rep)");

  const auto items = make_work_items(cfg.n, cfg.max_level, 3);
  const auto ws = Workload<StandardRep<3>>::build(items);
  const auto wm = Workload<MortonRep<3>>::build(items);
  const auto wa = Workload<AvxRep<3>>::build(items);

  const auto tasks = par::paper_task_counts(cfg.max_tasks);
  Table table({"tasks", "standard [s]", "morton-id [s]", "avx [s]",
               "morton-id boost %", "avx boost %"});
  RunningStats boost_m, boost_a;
  BenchJson json;
  for (const int t : tasks) {
    const auto ps = par::run_strong_scaling(
        cfg.n, t, [&](std::size_t b, std::size_t e) { ks(ws, b, e); },
        cfg.sweeps);
    const auto pm = par::run_strong_scaling(
        cfg.n, t, [&](std::size_t b, std::size_t e) { km(wm, b, e); },
        cfg.sweeps);
    const auto pa = par::run_strong_scaling(
        cfg.n, t, [&](std::size_t b, std::size_t e) { ka(wa, b, e); },
        cfg.sweeps);
    const double bm =
        speedup_percent(ps.max_task_seconds, pm.max_task_seconds);
    const double ba =
        speedup_percent(ps.max_task_seconds, pa.max_task_seconds);
    boost_m.add(bm);
    boost_a.add(ba);
    table.add_row({Table::fmt(static_cast<long long>(t)),
                   Table::fmt(ps.max_task_seconds, 6),
                   Table::fmt(pm.max_task_seconds, 6),
                   Table::fmt(pa.max_task_seconds, 6), Table::fmt(bm, 1),
                   Table::fmt(ba, 1)});
    json.begin_record();
    json.field("bench", figure_id);
    json.field("kernel", kernel_name);
    json.field("tasks", static_cast<long long>(t));
    json.field("standard_seconds", ps.max_task_seconds);
    json.field("morton_seconds", pm.max_task_seconds);
    json.field("avx_seconds", pa.max_task_seconds);
    json.field("morton_boost_percent", bm);
    json.field("avx_boost_percent", ba);
  }
  table.print();
  std::printf("measured average boost vs standard: morton-id %+.1f%%, "
              "avx %+.1f%%\n\n",
              boost_m.mean(), boost_a.mean());
  // "Figure 3" -> BENCH_figure_3.json
  std::string fname = "BENCH_";
  for (const char* p = figure_id; *p != '\0'; ++p) {
    fname += *p == ' ' ? '_'
                       : static_cast<char>(
                             std::tolower(static_cast<unsigned char>(*p)));
  }
  fname += ".json";
  json.write(fname.c_str());
}

/// Register the per-op micro benchmarks for one kernel with
/// google-benchmark (items/sec throughput, single task).
template <class KernelS, class KernelM, class KernelA>
void register_micro_benchmarks(const char* kernel_name, KernelS ks,
                               KernelM km, KernelA ka,
                               const FigureConfig& cfg) {
  static auto items =
      make_work_items(cfg.n, cfg.max_level, 3);
  static auto ws = Workload<StandardRep<3>>::build(items);
  static auto wm = Workload<MortonRep<3>>::build(items);
  static auto wa = Workload<AvxRep<3>>::build(items);
  const std::size_t n = items.size();

  benchmark::RegisterBenchmark(
      (std::string(kernel_name) + "/standard").c_str(),
      [n, ks](benchmark::State& state) {
        for (auto _ : state) {
          ks(ws, 0, n);
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                                static_cast<std::int64_t>(n));
      });
  benchmark::RegisterBenchmark(
      (std::string(kernel_name) + "/morton-id").c_str(),
      [n, km](benchmark::State& state) {
        for (auto _ : state) {
          km(wm, 0, n);
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                                static_cast<std::int64_t>(n));
      });
  benchmark::RegisterBenchmark(
      (std::string(kernel_name) + "/avx").c_str(),
      [n, ka](benchmark::State& state) {
        for (auto _ : state) {
          ka(wa, 0, n);
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                                static_cast<std::int64_t>(n));
      });
}

/// Standard main() body for a figure binary: figure table first, then the
/// google-benchmark micro section.
int figure_main(int argc, char** argv);

}  // namespace qforest::bench
