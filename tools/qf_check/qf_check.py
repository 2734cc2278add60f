#!/usr/bin/env python3
"""qf_check — AST/model-based concurrency contract checker for qforest.

Checks that Clang Thread Safety annotations cannot express:

  mo-comment             every memory_order_* site needs a `// mo:`
                         justification; full inventory via --mo-inventory
  unnamed-raii           TraceSpan/LockGuard/UniqueLock/ThreadRankScope
                         constructed as a discarded temporary
  guarded-by             access to a QF_GUARDED_BY member without the lock
                         (the no-clang mirror of -Wthread-safety)
  blocking-while-locked  blocking primitive (condvar wait, pop_blocking,
                         wait_idle, parallel_for, join, sleep, collectives)
                         transitively reachable while a lock is held
  lock-order             nested-acquisition graph (DOT via
                         --lock-order-dot); any cycle is an error
  mutable-static         unsynchronized static (also plain-bool-flag)
  atomic-ref-bool        std::atomic_ref<bool> over bool storage
  volatile-sync          volatile integral used as a synchronization flag
  detached-thread        `.detach()` on a thread
  system-clock           std::chrono::system_clock (not monotonic)
  sleep-poll             sleep_for / sleep_until inside a loop
  stale-allow            a suppression comment that suppresses nothing
                         (only when all checks run)

Engines: `--engine tokens` (stdlib lexer, always available — the ctest
default), `--engine libclang` (clang.cindex when importable — the CI
default), `--engine auto` (libclang if importable, else tokens).

Suppress a finding with `// qf-allow(<check>): reason` on its line
(`lint-allow` is accepted too); suppressions are listed in the summary.

Exit status: 1 when any unsuppressed finding remains, else 0.

Examples:
  tools/qf_check/qf_check.py src
  tools/qf_check/qf_check.py --engine tokens --mo-inventory mo.json \\
      --lock-order-dot lock_order.dot src
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks as checks_mod           # noqa: E402
import cpp_model                      # noqa: E402

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# The annotation header defines the lock wrappers themselves (lock() on a
# bare mutex, adopt_lock plumbing) — the one file the discipline checks
# must not read literally.
DEFAULT_EXCLUDES = {"thread_annotations.hpp"}


def gather_files(paths, excludes):
    files = []
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in SOURCE_SUFFIXES))
        else:
            files.append(p)
    return [f for f in files if f.name not in excludes]


def build_model(files, engine):
    if engine in ("auto", "libclang"):
        try:
            import clang_engine
            if clang_engine.available():
                return clang_engine.build_model(files), "libclang"
            if engine == "libclang":
                print("qf_check: libclang engine requested but "
                      "clang.cindex/libclang is not available",
                      file=sys.stderr)
                sys.exit(2)
        except ImportError:
            if engine == "libclang":
                raise
    return cpp_model.build_model(files), "tokens"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", help="directories or files to check")
    ap.add_argument("--engine", choices=("auto", "tokens", "libclang"),
                    default="auto")
    ap.add_argument("--checks", default="all",
                    help="comma-separated check names (default: all); "
                         f"known: {', '.join(sorted(checks_mod.ALL_CHECKS))}")
    ap.add_argument("--mo-inventory", metavar="PATH",
                    help="write the memory-order inventory JSON here")
    ap.add_argument("--lock-order-dot", metavar="PATH",
                    help="write the nested-acquisition graph (DOT) here")
    ap.add_argument("--no-default-excludes", action="store_true",
                    help="also scan thread_annotations.hpp")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-exemption summary")
    args = ap.parse_args()

    excludes = set() if args.no_default_excludes else set(DEFAULT_EXCLUDES)
    files = gather_files(args.paths, excludes)
    if not files:
        print("qf_check: no source files found", file=sys.stderr)
        return 2

    model, engine = build_model(files, args.engine)

    selected = (sorted(checks_mod.ALL_CHECKS)
                if args.checks == "all" else args.checks.split(","))
    unknown = [c for c in selected if c not in checks_mod.ALL_CHECKS]
    if unknown:
        print(f"qf_check: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    findings = []
    suppressed = []
    for name in selected:
        for f in checks_mod.ALL_CHECKS[name](model):
            sup = model.suppressions.get((f.file, f.line))
            if sup and checks_mod.CHECK_OF_LABEL.get(sup[0]) == name:
                suppressed.append((f, sup[1]))
            else:
                findings.append(f)
    if args.checks == "all":
        used = {(f.file, f.line) for f, _ in suppressed}
        findings.extend(checks_mod.stale_allow_findings(model, used))

    findings.sort(key=lambda f: (f.file, f.line, f.check))
    for f in findings:
        print(f"{f.file}:{f.line}: [{f.check}] {f.message}")
    if not args.quiet:
        for f, reason in sorted(suppressed,
                                key=lambda x: (x[0].file, x[0].line)):
            print(f"{f.file}:{f.line}: [{f.check}] suppressed: {reason}")

    if args.mo_inventory:
        inv = checks_mod.mo_inventory(model)
        pathlib.Path(args.mo_inventory).write_text(
            json.dumps(inv, indent=2) + "\n")
        print(f"qf_check: wrote {args.mo_inventory} "
              f"({inv['justified']}/{inv['total']} sites justified)")
    if args.lock_order_dot:
        nodes, edges = checks_mod.lock_order_graph(model)
        pathlib.Path(args.lock_order_dot).write_text(
            checks_mod.lock_order_dot(nodes, edges))
        ncyc = len(checks_mod.find_cycles(nodes, edges))
        print(f"qf_check: wrote {args.lock_order_dot} "
              f"({len(nodes)} lock(s), {len(edges)} edge(s), "
              f"{ncyc} cycle(s))")

    print(f"qf_check[{engine}]: {len(files)} file(s), "
          f"{len(findings)} finding(s), {len(suppressed)} suppressed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
