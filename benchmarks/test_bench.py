"""Self-test of the benchmark at small size.

    python3 -m pytest benchmarks/test_bench.py -q
"""
import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sfkit.errors import NonConvergence  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Runs of a few checks: no minimum count, one set-up probe, one traced round."""
    monkeypatch.setattr(run, "MIN_CHECKS", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    for name, wl in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(wl, trace_rounds=1))
    return monkeypatch


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_printed_with_unit(small, capsys, trace, section):
    result, notes = run.run("line_plane", 1, 0, trace)
    run.report(result, notes)
    lines = capsys.readouterr().out.strip().splitlines()
    printed = json.loads(lines[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == want
    for name, m in printed["metrics"].items():
        assert math.isfinite(m["value"])
        assert any(line.startswith(name + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1])


def _failing_workload(monkeypatch):
    def untyped(*args):
        raise ZeroDivisionError("complex division by zero")

    def typed(*args):
        raise NonConvergence("budget exhausted")

    monkeypatch.setattr(workloads.limits, "limit_b_to_1", untyped)
    monkeypatch.setattr(workloads.limits, "eta_ratio_limit", typed)

    def build(key):
        return [workloads.Check("hyperbolic-line", "hyperbolic_limit_I", seed=key),
                workloads.Check("b_to_1", "limit_b_to_1", args=(1, 1.0)),
                workloads.Check("eta_ratio", "eta_ratio_limit")]

    wl = workloads.Workload("failing", build, 1, 1, 1.0)
    monkeypatch.setitem(workloads.WORKLOADS, "failing", wl)


def test_failed_check_is_counted_and_run_goes_on(small):
    _failing_workload(small)
    correct, attempted, failed, metrics, notes = run.measure("failing", 1, 0)
    assert correct and attempted == 6 and failed == 4
    assert metrics["pass_share"] == pytest.approx(2 / 6)
    assert "failed 2x b_to_1: ZeroDivisionError (untyped)" in notes
    assert "failed 2x eta_ratio: NonConvergence" in notes
    correct, attempted, failed, _, notes = run.measure_traced("failing", 1, 0)
    assert correct and attempted == 6 and failed == 4


def test_work_is_set_by_seconds_not_the_clock(small):
    _failing_workload(small)
    wl = workloads.WORKLOADS["failing"]
    assert run.timed_rounds(wl, 3.4) == 3 and run.traced_passes(wl, 6.6) == 3
    assert run.measure("failing", 1, 3)[1:3] == (12, 8)


def test_identity_gate_and_program_verdict(monkeypatch):
    def fake(lhs, rhs, resid, passed):
        rep = SimpleNamespace(lhs=lhs, rhs=rhs, rel_residual=resid, passed=passed)
        monkeypatch.setattr(workloads.identities, "evaluate_identity",
                            lambda *a, **k: rep)
        return workloads.run_check(workloads.Check("complex-MB", "complex_beta", seed=1))

    ok = fake(1.0, 1.0 + 2e-5, 2e-5 / (1 + 2e-5), True)
    assert ok.passed and ok.consistent and ok.margin == pytest.approx(math.log10(5), 1e-4)
    reported_fail = fake(1.0, 1.001, 0.001 / 1.001, False)
    assert not reported_fail.passed and reported_fail.consistent
    # a check the program calls passed but the gate fails is a wrong answer
    wrong = fake(1.0, 1.001, 0.001 / 1.001, True)
    assert not wrong.passed and not wrong.consistent
    misreported = fake(1.0, 1.0 + 2e-5, 1e-12, True)
    assert misreported.passed and not misreported.consistent


def test_counts_repeat_and_originals_restored(small):
    originals = {n: getattr(workloads.elliptic, n)
                 for n in ("elliptic_gamma", "circle_beta_integral", "circle_beta_adaptive")}
    runs = [run.measure_traced("circle", 1, 0) for _ in range(2)]
    for correct, *_ in runs:
        assert correct
    counts = [{k: r[3][k] for k in tracing.COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["elliptic.elliptic_gamma.points"] > 0
    assert {n: getattr(workloads.elliptic, n) for n in originals} == originals


def test_seed_blocks_are_disjoint():
    wl = workloads.WORKLOADS["mb"]
    for seed in (0, 1, 1729):
        timed = {wl.timed_key(seed, r) for r in (0, 1, workloads.ROUND_LIMIT - 2)}
        assert wl.warm_key(seed) not in timed
        assert not timed & set(wl.reference_keys())
        assert max(timed) < workloads.SECOND_DRAW
        assert wl.warm_key(seed) not in {wl.timed_key(seed + 1, 0), wl.timed_key(seed - 1, 0)}
    with pytest.raises(ValueError):
        wl.timed_key(1, workloads.ROUND_LIMIT - 1)
