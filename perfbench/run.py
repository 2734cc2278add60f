#!/usr/bin/env python3
"""Seeded AMR time-step benchmark of qforest's four quadrant representations.

Run from the repository root:

    python3 perfbench/run.py --workload adapt3d --seed 1 --seconds 16 --trace 0

Smoke test (reduced sizes, every workload and metric):

    python3 perfbench/tests/test_smoke.py

Workloads (all 3D, each runs standard, morton, avx and wide-morton in turn):

  adapt3d   the full AMR step (refine, coarsen, balance, partition_weighted,
            ghost_layer for 4 ranks, exchange_ghost_payloads, iterate_faces,
            search_points) following a spherical front on a 2x2x1 brick
  solve3d   the read side on a static balanced mesh: ghost exchanges,
            iterate_faces and a point-search batch per iteration
  remesh3d  write path: refine a shell band from level 2 to 8, coarsen back
  all       every workload above, untraced then traced, metric names
            prefixed by "<workload>/" (one command for every metric)

The first run configures and builds perfbench/amr_bench (with the library
sources of this checkout) under $CARGO_TARGET_DIR (default .bench_build).
Each representation runs alone in its own processes (3 rounds, taken in
turn with the other representations, each a twelfth of --seconds), so its
peak RSS and set-up time are its own. Noise control: the forest
pool is pinned to QFOREST_THREADS=2 threads, exchanges use 4 simulated
ranks, and MALLOC_ARENA_MAX=1 keeps peak RSS a measure of live data rather
than of how allocations scattered over per-thread malloc arenas.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  ns_per_leaf.<rep>       median wall time of one step / its leaf count
  ns_per_leaf_tail.<rep>  highest percentile of those samples with at least
                          ten samples beyond it (sample count printed)
  peak_rss_mb.<rep>       highest VmHWM of the representation's processes
  setup_s                 construction + initial adapt, median of the 3
                          rounds' set-ups, summed over the representations
  check_pass_ratio        correctness checks passed / checks run

--trace 1 runs with QFOREST_TRACE=1 QFOREST_METRICS=1 and reports the
per-layer metrics (see per_layer): *_ns_per_* are the self times of the
benchmark's spans around each public call (set-up included) per work unit;
balance_iterations and refine_waves are per call, markgrid_builds and
pool_tasks per step (the set-up counts as one); the shares are counter
ratios; core.* time the BatchOps kernels and an R::less sort on the final
leaves; step.unattributed_share is step time outside every phase span;
obs.trace_overhead_share compares the traced and untraced halves of the
run; calib.stream_ns_per_byte is a same-run streaming pass. Every Perfetto
trace must pass tools/validate_trace.py.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adapt3d", "solve3d", "remesh3d")
REPS = ("standard", "morton", "avx", "wide-morton")
THREADS = 2
# Each representation runs in ROUNDS processes, taken in turn with the other
# representations, so a slow spell of the host spreads over all of them
# instead of landing on one. MIN_STEPS samples per representation put the
# tail percentile (ten samples above it) above the median.
ROUNDS = 3
MIN_STEPS = 22
RUN_TIMEOUT_S = 170


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "amr_bench"


# ------------------------------------------------------------------ stats


def tail(xs: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile."""
    s = sorted(xs)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ------------------------------------------------------------- end to end


def end_to_end(reps: list[dict], checks: tuple[int, int]) -> tuple[dict, list[str]]:
    metrics: dict = {}
    lines = [f"{'rep':12s} {'samples':>7s} {'ns/leaf':>10s} {'tail':>10s} "
             f"{'pct':>5s} {'rss MB':>8s} {'setup s':>8s} {'leaves':>9s}"]
    setup = 0.0
    for rep in reps:
        name = rep["rep"]
        per_leaf = [ns / w for ns, w in zip(rep["step_ns"], rep["work"])]
        t, pct = tail(per_leaf)
        rss = rep["peak_rss_kb"] / 1024.0
        su = median(rep["setup_s"])
        setup += su
        metrics[f"ns_per_leaf.{name}"] = (median(per_leaf), "ns")
        metrics[f"ns_per_leaf_tail.{name}"] = (t, "ns")
        metrics[f"peak_rss_mb.{name}"] = (rss, "MB")
        lines.append(f"{name:12s} {len(per_leaf):7d} {median(per_leaf):10.2f} "
                     f"{t:10.2f} {pct:5.1f} {rss:8.1f} {su:8.3f} "
                     f"{median(rep['work']):9.0f}")
    run, failed = checks
    metrics["setup_s"] = (setup, "s")
    metrics["check_pass_ratio"] = (1.0 - ratio(failed, run), "ratio")
    return metrics, lines


# -------------------------------------------------------------- per layer


def bench_spans(trace: dict) -> list[dict]:
    """Benchmark spans with their self time: duration minus the part covered
    by directly nested benchmark spans on the same thread."""
    spans = [e for e in trace["traceEvents"]
             if e.get("ph") == "X" and e.get("cat") == "bench"]
    spans.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    stack: list[dict] = []
    for e in spans:
        e["self"] = e["dur"]
        while stack and (stack[-1]["tid"] != e["tid"] or
                         e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]):
            stack.pop()
        e["parent"] = stack[-1]["name"] if stack else None
        if stack:
            stack[-1]["self"] -= e["dur"]
        stack.append(e)
    return spans


class SpanTotals:
    """Totals per span name of self time and duration (ns), work units and
    calls, plus the self time of the spans nested directly in a step."""

    def __init__(self, spans: list[dict]):
        self.ns: dict[str, float] = {}
        self.dur: dict[str, float] = {}
        self.n: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.in_step: dict[str, float] = {}
        for e in spans:
            name = e["name"]
            self.ns[name] = self.ns.get(name, 0.0) + e["self"] * 1e3
            self.dur[name] = self.dur.get(name, 0.0) + e["dur"] * 1e3
            self.n[name] = self.n.get(name, 0.0) + e.get("args", {}).get("n", 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            if e["parent"] == "step":
                self.in_step[name] = self.in_step.get(name, 0.0) + e["self"] * 1e3
        self.step_ns = self.dur.get("step", 0.0)

    def per_unit(self, name: str) -> float:
        return ratio(self.ns.get(name, 0.0), self.n.get(name, 0.0))

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)


PHASES = ("refine", "coarsen", "balance", "partition", "ghost_layer",
          "payload_fill", "exchange", "iterate_faces", "search_points",
          "fingerprint")


def per_layer(reps: list[dict], traces: list[list[dict]]) -> tuple[dict, list[str]]:
    metrics: dict = {}
    lines = ["traced step time by phase, % of step span time:"]
    traced = untraced = 0.0
    for rep, rep_traces in zip(reps, traces):
        name = rep["rep"]
        s = SpanTotals([e for trace in rep_traces for e in bench_spans(trace)])
        c = rep["counters"]
        steps = s.count("step") + s.count("setup")
        exchanges = s.count("exchange")
        region_ns = s.dur.get("setup", 0.0) + s.step_ns

        def put(key: str, value: float, unit: str) -> None:
            metrics[f"{key}.{name}"] = (value, unit)

        put("forest.balance_ns_per_leaf", s.per_unit("balance"), "ns")
        put("forest.balance_iterations",
            ratio(c.get("forest.balance.iterations", 0), s.count("balance")), "count")
        put("forest.markgrid_builds",
            ratio(c.get("forest.markgrid.builds", 0), steps), "count")
        local_keys = c.get("forest.scan.local_keys", 0)
        merge_keys = c.get("forest.scan.merge_keys", 0)
        put("forest.scan_merge_share", ratio(merge_keys, local_keys + merge_keys), "ratio")
        put("forest.ghost_layer_ns_per_leaf", s.per_unit("ghost_layer"), "ns")
        put("forest.refine_ns_per_leaf", s.per_unit("refine"), "ns")
        put("forest.coarsen_ns_per_leaf", s.per_unit("coarsen"), "ns")
        put("forest.refine_waves",
            ratio(c.get("forest.refine.waves", 0), s.count("refine")), "count")
        acc = c.get("forest.coarsen.families_accepted", 0)
        rej = c.get("forest.coarsen.families_rejected", 0)
        put("forest.coarsen_accept_share", ratio(acc, acc + rej), "ratio")
        put("forest.partition_ns_per_leaf", s.per_unit("partition"), "ns")
        put("forest.iterate_faces_ns_per_face", s.per_unit("iterate_faces"), "ns")
        put("forest.search_points_ns_per_point", s.per_unit("search_points"), "ns")
        put("io.exchange_ns_per_ghost", s.per_unit("exchange"), "ns")
        put("io.exchange_drain_wait_share",
            ratio(c.get("io.exchange.drain_wait_ns", 0),
                  s.ns.get("exchange", 0.0) * rep["ranks"]), "ratio")
        put("io.exchange_bytes", ratio(c.get("par.msg.send_bytes", 0), exchanges), "B")
        put("par.msg_wait_block_ms",
            ratio(c.get("par.msg.wait_block_ns", 0) / 1e6, exchanges), "ms")
        tasks = c.get("par.pool.tasks", 0)
        put("par.pool_idle_share",
            ratio(c.get("par.pool.idle_wait_ns", 0), region_ns * rep["threads"]), "ratio")
        put("par.pool_helped_share", ratio(c.get("par.pool.helped_tasks", 0), tasks), "ratio")
        put("par.pool_tasks", ratio(tasks, steps), "count")
        put("core.neighbor_at_offset_ns_per_key", s.per_unit("core.neighbor_at_offset"), "ns")
        put("core.child_uniform_ns_per_quad", s.per_unit("core.child_uniform"), "ns")
        put("core.parent_uniform_ns_per_quad", s.per_unit("core.parent_uniform"), "ns")
        put("core.less_sort_ns_per_quad", s.per_unit("core.less_sort"), "ns")
        put("core.leaf_bytes", rep["leaf_bytes"], "B")
        remainder = s.ns.get("step", 0.0)
        put("step.unattributed_share", ratio(remainder, s.step_ns), "ratio")

        shares = [f"{p} {100 * ratio(s.in_step.get(p, 0.0), s.step_ns):.1f}"
                  for p in PHASES if s.in_step.get(p)]
        lines.append(f"  {name:12s} " + ", ".join(shares) +
                     f", unattributed {100 * ratio(remainder, s.step_ns):.1f}")
        traced += median(rep["traced_step_ns"])
        untraced += median(rep["step_ns"])
    metrics["obs.trace_overhead_share"] = (ratio(traced, untraced) - 1.0, "ratio")
    metrics["calib.stream_ns_per_byte"] = (
        median([rep["stream_ns_per_byte"] for rep in reps]), "ns/B")
    return metrics, lines


# ------------------------------------------------------------------- run


def compare_records(reps: list[dict]) -> tuple[int, int]:
    """Every representation must produce what standard produced (mesh
    fingerprint, leaf count, face counts, search_points results) at every
    step that both ran in the same round. Returns (checks run, checks
    failed)."""
    run = failed = 0
    fields = ("mesh fingerprint", "leaf count", "face count", "hanging face count",
              "search_points results")
    for rep in reps[1:]:
        for rnd, (want_steps, got_steps) in enumerate(zip(reps[0]["records"],
                                                          rep["records"])):
            for step, (want, got) in enumerate(zip(want_steps, got_steps)):
                for field, a, b in zip(fields, want, got):
                    run += 1
                    if a != b:
                        failed += 1
                        log(f"check failed: {field} of {rep['rep']} differs from "
                            f"standard's at round {rnd} step {step}")
    return run, failed


def merge(launches: list[dict]) -> dict:
    """One representation's launches as one result: samples and set-ups
    pooled, peak RSS the highest, counters summed, records kept per
    launch."""
    merged = dict(launches[0])
    for key in ("setup_s", "step_ns", "work", "traced_step_ns", "traced_work"):
        merged[key] = [x for launch in launches for x in launch[key]]
    merged["peak_rss_kb"] = max(launch["peak_rss_kb"] for launch in launches)
    merged["stream_ns_per_byte"] = median(launch["stream_ns_per_byte"]
                                          for launch in launches)
    counters: dict[str, int] = {}
    for launch in launches:
        for name, value in launch["counters"].items():
            counters[name] = counters.get(name, 0) + value
    merged["counters"] = counters
    merged["records"] = [launch["records"] for launch in launches]
    return merged


def validate_trace(path: Path) -> bool:
    tool = ROOT / "tools" / "validate_trace.py"
    if not tool.exists():
        log(f"missing {tool}")
        return False
    r = subprocess.run([sys.executable, str(tool), str(path)],
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    return r.returncode == 0


def run_workload(exe: Path, workload: str, trace: int, args: argparse.Namespace,
                 deadline: float) -> tuple[dict, list[str], int, int]:
    """Run every representation of one workload, one process each."""
    env = dict(os.environ)
    env["QFOREST_THREADS"] = str(THREADS)
    env["MALLOC_ARENA_MAX"] = "1"
    for var in ("QFOREST_TRACE", "QFOREST_METRICS", "QFOREST_NO_BATCH",
                "QFOREST_SERIAL_TREES", "QFOREST_NO_OVERLAP"):
        env.pop(var, None)
    if trace:
        env["QFOREST_TRACE"] = "1"
        env["QFOREST_METRICS"] = "1"
    seconds = args.seconds / (ROUNDS * len(REPS))
    min_steps = -(-MIN_STEPS // ROUNDS)
    # A short untimed run first, so the first representation measured does
    # not also pay for waking an idle machine.
    subprocess.run([str(exe), "--workload", workload, "--rep", REPS[1], "--seed",
                    str(args.seed), "--seconds", "0.5", "--small"],
                   env=env, stdout=subprocess.DEVNULL, stderr=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    launches: dict[str, list[dict]] = {rep: [] for rep in REPS}
    traces: dict[str, list[dict]] = {rep: [] for rep in REPS}
    run = failed = 0
    for rnd in range(ROUNDS):
        for rep in REPS:
            cmd = [str(exe), "--workload", workload, "--rep", rep, "--seed",
                   str(args.seed), "--seconds", repr(seconds), "--min-steps",
                   str(min_steps)]
            trace_path = build_dir() / f"trace_{workload}_{rep}_{rnd}.json"
            if trace:
                trace_path.unlink(missing_ok=True)
                cmd += ["--trace-out", str(trace_path)]
            if args.small:
                cmd.append("--small")
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True, check=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
            raw = json.loads(proc.stdout.strip().splitlines()[-1])
            launches[rep].append(raw)
            run += raw["checks_run"]
            failed += raw["checks_failed"]
            if trace:
                run += 1
                if not validate_trace(trace_path):
                    failed += 1
                    log(f"{rep}: {trace_path.name} failed tools/validate_trace.py")
                with open(trace_path, encoding="utf-8") as f:
                    traces[rep].append(json.load(f))
    reps = [merge(launches[rep]) for rep in REPS]
    cross_run, cross_failed = compare_records(reps)
    run += cross_run
    failed += cross_failed
    header = (f"== {workload}: seed {args.seed}, {args.seconds:g} s, {reps[0]['threads']} "
              f"pool threads, {reps[0]['ranks']} ranks, trace {trace}")
    if trace:
        metrics, lines = per_layer(reps, [traces[rep] for rep in REPS])
    else:
        metrics, lines = end_to_end(reps, (run, failed))
    return metrics, [header] + lines, run, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced mesh sizes (smoke test)")
    args = ap.parse_args()

    started = time.monotonic()
    try:
        exe = build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"build failed: {e}")
        return 2
    log(f"build ready in {time.monotonic() - started:.1f} s")

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    metrics: dict = {}
    attempted = failed = 0
    for w, trace in runs:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            m, lines, run, bad = run_workload(exe, w, trace, args, deadline)
        except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
            log(f"{w}: benchmark run failed: {e}")
            return 3
        prefix = f"{w}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += run
        failed += bad
        print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
