#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_engine_throughput.json
against the tracked baseline in bench/baselines/.

Usage:
    check_bench_regression.py --fresh BENCH_engine_throughput.json \
        [--baseline bench/baselines/BENCH_engine_throughput.json] \
        [--tolerance 0.60]

What to gate comes from the fresh artifact's `gate` block, written by
the bench binary next to the numbers it names:

    "gate": {"metrics": ["warm_qps", "ops.quadtree_qps", ...],
             "checks": ["speedup_ge_5x", ...]}

Checks, in order of how much we trust them on shared hardware:

  1. `checks.*` — the bench binary's own pass/fail booleans (speedup,
     determinism, same-seed identity). These are load-independent: every
     check in either file must be true, and every check the gate lists
     must be present in both (a stale artifact predating a section fails
     loudly instead of passing by omission).
  2. `config` — the fresh run must measure the same workload as the
     baseline (domain, rows, eps, query counts, seed); otherwise the
     QPS comparison is meaningless and the gate fails loudly instead of
     comparing apples to oranges.
  3. Each gated metric (a dotted path, e.g. `ops.quadtree_qps`) — a
     fresh value below `tolerance * baseline` fails. The default
     tolerance is 0.60: hosted CI runners are noisy-neighbour machines
     where 20-30 % swings are routine, so the gate is sized to catch real
     regressions (a mutex on the hot path, an accidental O(n^2)) while
     staying quiet about scheduler jitter. Tighten with --tolerance on
     quiet hardware.

Metrics the gate does not list (cold_qps: 3 cache-cleared queries
dominated by the constrained sensitivity computation, where a single
page-cache miss moves the number by 2x) are reported by the bench but
never gated.
"""

import argparse
import json
import sys


def fail(message):
    print(f"BENCH GATE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def lookup(run, path):
    value = run
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def main():
    parser = argparse.ArgumentParser(
        description="Gate bench throughput against the tracked baseline.")
    parser.add_argument("--fresh", required=True,
                        help="JSON artifact of the run under test")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_engine_throughput.json",
        help="tracked baseline JSON (default: %(default)s)")
    parser.add_argument(
        "--tolerance", type=float, default=0.60,
        help="each gated metric must be >= tolerance * baseline "
             "(default: %(default)s, sized for noisy hosted runners)")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load artifacts: {error}")

    gate = fresh.get("gate", {})
    metrics = gate.get("metrics", [])
    required_checks = gate.get("checks", [])
    if not metrics or not required_checks:
        fail("fresh artifact has no gate block listing metrics and checks")

    for name, run in (("fresh", fresh), ("baseline", baseline)):
        checks = run.get("checks", {})
        missing = [key for key in required_checks if key not in checks]
        if missing:
            fail(f"{name} artifact predates the current bench sections "
                 f"(missing checks: {', '.join(missing)}) — regenerate it")
        bad = [key for key, ok in checks.items() if ok is not True]
        if bad:
            fail(f"{name} run failed its own checks: {', '.join(bad)}")

    if fresh.get("config") != baseline.get("config"):
        fail("workload config drifted from the baseline — regenerate "
             f"the baseline. fresh={fresh.get('config')} "
             f"baseline={baseline.get('config')}")

    reports = []
    regressed = False
    for path in metrics:
        fresh_value = lookup(fresh, path)
        base_value = lookup(baseline, path)
        if not isinstance(fresh_value, (int, float)) or not isinstance(
                base_value, (int, float)) or base_value <= 0:
            fail(f"{path} missing or non-positive: fresh={fresh_value} "
                 f"baseline={base_value} — regenerate the baseline")
        ratio = fresh_value / base_value
        regressed |= ratio < args.tolerance
        reports.append(f"{path} {fresh_value:.0f} vs baseline "
                       f"{base_value:.0f} ({ratio:.2f}x)")

    report = (f"{'; '.join(reports)}; gate {args.tolerance:.2f}x; "
              f"cold_qps {fresh.get('cold_qps')} (reported, not gated)")
    if regressed:
        fail(report)
    print(f"BENCH GATE OK: {report}")


if __name__ == "__main__":
    main()
