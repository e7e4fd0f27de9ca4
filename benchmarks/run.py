#!/usr/bin/env python3
"""The sfkit benchmark: verified checks per second and residual margin.

Run from the repository root:

    python3 benchmarks/run.py --workload mb --seed 1 --seconds 20 --trace 0

Workloads: ``mb``, ``circle``, ``line_plane``, ``degeneration`` (see
``workloads.py``). The run is one process on one thread, a closed loop: each
check starts when the previous one has been gated.

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
prints the per-layer metrics: every check of a fixed schedule runs untraced
and then traced, the two must give bit-identical outputs, the schedule is
repeated at least twice and its counts must repeat exactly.

How much work a run does follows from ``--seconds`` and each workload's
nominal round time, not from the clock, so one ``(seed, seconds)`` always runs
the same checks and gets the same failures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
checks that raised or missed their gate; ``correct`` is false when the
program's own numbers disagree with the gate (a reported residual or order
that does not match its outputs, or a check reported as passed that the gate
fails), or when the traced run is not bit-identical or its counts do not
repeat.

Seeds: ``--seed 1`` is the default seed, used while tuning. ``--seed 1729``
is held out: a claim made on other seeds can be rechecked on it.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_CHECKS = 110  # so that at least 10 checks lie beyond the 90th percentile
MIN_PASSES = 2    # traced passes, so that counts can be compared between passes
TRACE_COST = 2.2  # a traced pass runs each check untraced, then traced
SETUP_RUNS = 3
END_TO_END = (("setup_s", "s"), ("verified_per_s", "1/s"), ("check_ms_p50", "ms"),
              ("check_ms_p90", "ms"), ("pass_share", "fraction"),
              ("min_margin_digits", "digits"))

# Set-up in a fresh interpreter: import sfkit (numpy, scipy.special) and run
# the warm-up round.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import workloads
workloads.warm_up(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, name, str(seed),
                               str(BENCH)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _failure_notes(failures):
    return [f"failed {n}x {cls}: {err}" for (cls, err), n in sorted(failures.items())]


def _record_failure(failures, check, out):
    if out.error is None:
        err = "gate"
    else:
        err = out.error + ("" if out.typed else " (untyped)")
    failures[(check.cls, err)] += 1


def timed_rounds(wl, seconds: float) -> int:
    """Timed rounds of an untraced run: ``seconds`` of work at the nominal
    round time, and at least ``MIN_CHECKS`` checks."""
    per_round = len(wl.build_round(wl.timed_key(0, 0)))
    return max(math.ceil(MIN_CHECKS / per_round), round(seconds / wl.round_s))


def traced_passes(wl, seconds: float) -> int:
    """Passes of the traced schedule that fill ``seconds`` at the nominal
    round time, and at least ``MIN_PASSES``."""
    pass_s = TRACE_COST * wl.trace_rounds * wl.round_s
    return max(MIN_PASSES, round(seconds / pass_s))


def measure(wl_name: str, seed: int, seconds: float):
    """Untraced run: reference rounds, then a fixed number of seeded rounds."""
    import workloads

    wl = workloads.WORKLOADS[wl_name]
    keys = [(k, True) for k in wl.reference_keys()]
    keys += [(wl.timed_key(seed, r), False) for r in range(timed_rounds(wl, seconds))]
    times, margins = [], []
    passed = 0
    correct = True
    failures = collections.Counter()
    t_start = time.perf_counter()
    for key, reference in keys:
        for check in wl.build_round(key):
            t0 = time.perf_counter()
            out = workloads.run_check(check)
            times.append(time.perf_counter() - t0)
            correct &= out.consistent
            if out.passed:
                passed += 1
                if reference:
                    margins.append(out.margin)
            else:
                _record_failure(failures, check, out)
    elapsed = time.perf_counter() - t_start
    metrics = {
        "verified_per_s": passed / elapsed,
        "check_ms_p50": statistics.median(times) * 1e3,
        "check_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
        "pass_share": passed / len(times),
        "min_margin_digits": min(margins) if margins else 0.0,
    }
    notes = [f"{len(times)} checks in {elapsed:.2f} s"] + _failure_notes(failures)
    return correct, len(times), len(times) - passed, metrics, notes


def measure_traced(wl_name: str, seed: int, seconds: float):
    """Traced run over a fixed schedule, each check untraced then traced."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[wl_name]
    checks = [c for r in range(wl.trace_rounds)
              for c in wl.build_round(wl.timed_key(seed, r))]
    passes, first_bits, first_counts = [], None, None
    plain_ns = traced_ns = 0
    attempted = failed = 0
    correct = True
    notes = []
    failures = collections.Counter()
    for _ in range(traced_passes(wl, seconds)):
        tracer = tracing.Tracer(workloads.MODULES)
        bits = []
        for check in checks:
            t0 = time.perf_counter_ns()
            plain = workloads.run_check(check)
            t1 = time.perf_counter_ns()
            with tracer.installed():
                t2 = time.perf_counter_ns()
                traced = workloads.run_check(
                    check, lambda fn, cls=check.cls: tracer.check(cls, fn))
                t3 = time.perf_counter_ns()
            plain_ns += t1 - t0
            traced_ns += t3 - t2
            attempted += 1
            correct &= plain.consistent and traced.consistent
            if plain.fingerprint != traced.fingerprint:
                correct = False
                notes.append(f"traced output differs: {check}")
            if not traced.passed:
                failed += 1
                _record_failure(failures, check, traced)
            bits.append(traced.fingerprint)
        counts = tracing.counts(tracer)
        if first_counts is None:
            first_bits, first_counts = bits, counts
        else:
            if bits != first_bits:
                correct = False
                notes.append(f"pass {len(passes) + 1} outputs differ from pass 1")
            for k, v in counts.items():
                if v != first_counts[k]:
                    correct = False
                    notes.append(f"pass {len(passes) + 1}: {k} = {v}, pass 1 had "
                                 f"{first_counts[k]}")
        passes.append(tracer)
    overhead = (traced_ns - plain_ns) / plain_ns if plain_ns else 0.0
    metrics = tracing.layer_metrics(passes, overhead)
    notes = [f"{len(passes)} traced passes of {len(checks)} checks"] + notes \
        + _failure_notes(failures)
    return correct, attempted, failed, metrics, notes


def run(wl_name: str, seed: int, seconds: float, trace: bool):
    """Warm up, measure, and return (result object, human-readable notes)."""
    import tracing
    import workloads

    workloads.warm_up(wl_name, seed)
    if trace:
        correct, attempted, failed, values, notes = measure_traced(wl_name, seed, seconds)
        units = dict(tracing.PER_LAYER)
    else:
        correct, attempted, failed, values, notes = measure(wl_name, seed, seconds)
        values["setup_s"] = setup_seconds(wl_name, seed)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, notes


def report(result, notes) -> None:
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:55s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    sys.path.insert(0, str(BENCH))
    try:
        import workloads  # noqa: F401  (imports sfkit from the checkout)
    except ImportError as exc:
        print(f"run.py: cannot import sfkit: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
