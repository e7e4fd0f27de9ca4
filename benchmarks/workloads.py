"""Workloads of the sfkit benchmark: the checks each one runs, and their gate.

A check is one ``(identity, seed)`` evaluation through
``identities.evaluate_identity`` or one degeneration sweep through a
``limits`` function. Checks come in rounds. A round is built from a single
integer key: for identity workloads the key is the identity seed of every
check in the round, for the degeneration workload it seeds the draw of the
sweep parameters.

Keys, for a workload seed ``s >= 0``:

* reference rounds use keys ``1..reference_rounds``, the same in every run,
  so the accuracy margin (``min_margin_digits``) repeats exactly;
* timed round ``r`` uses ``TIMED_BASE + s * ROUND_LIMIT + r``;
* the warm-up round uses ``TIMED_BASE + s * ROUND_LIMIT + ROUND_LIMIT - 1``,
  a key no timed round reaches.

An identity drawn twice in a round takes its second seed at key + SECOND_DRAW,
which lies above every key.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "sfkit" / "__init__.py").is_file():
    raise ImportError(f"sfkit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import sfkit  # noqa: E402
from sfkit import elliptic, gamma_core, hyperbolic, identities, limits, numerics  # noqa: E402
from sfkit.errors import SfkitError  # noqa: E402

if Path(sfkit.__file__).resolve().parent != SRC / "sfkit":
    raise ImportError(f"imported sfkit from {sfkit.__file__}, not from {SRC}")

MODULES = {"gamma_core": gamma_core, "hyperbolic": hyperbolic, "elliptic": elliptic,
           "numerics": numerics, "identities": identities}

TIMED_BASE = 1_000_000
ROUND_LIMIT = 10_000
SECOND_DRAW = 2 ** 62  # seed offset of a round's second draw of one identity

# The pinned tolerance floors per registry kind (the registered tolerances
# at the time the benchmark was written). The gate uses these, not the
# tolerance a report carries, so loosening a registered tolerance cannot
# turn a failing check into a passing one.
TOLERANCE = {"hyperbolic-line": 1e-6, "elliptic-circle": 1e-8,
             "complex-MB": 1e-4, "complex-plane": 1e-3}
MIN_ORDER = 0.8  # acceptance-suite rule for degeneration sweeps

MB = ("complex_beta", "complex_trafo_I", "complex_trafo_II", "complex_trafo_III",
      "complex_str_MB", "complex_dBW", "complex_degtrafo_I", "complex_infy_MB",
      "complex_trafo_II_deg")
CIRCLE = ("elliptic_beta", "v_trafo_1", "v_trafo_2", "v_trafo_3")
HYPERBOLIC = ("hyperbolic_beta", "hyperbolic_trafo_I", "hyperbolic_trafo_II",
              "hyperbolic_trafo_III", "hyperbolic_limit_I", "hyperbolic_AW",
              "hyperbolic_gmro", "hyperbolic_infy", "hyperbolic_infy_degenerate")
PLANE = ("complex_plane_beta", "complex_plane_str")
KIND_OF = {**{i: "complex-MB" for i in MB}, **{i: "elliptic-circle" for i in CIRCLE},
           **{i: "hyperbolic-line" for i in HYPERBOLIC},
           **{i: "complex-plane" for i in PLANE}}


@dataclass(frozen=True)
class Check:
    """One unit of work: an identity at a seed, or a sweep with its arguments."""
    cls: str   # registry kind of an identity, or the sweep class
    name: str  # identity id, or the limits function
    seed: int | None = None
    args: tuple = ()
    kwargs: tuple = ()

    def call(self):
        if self.seed is not None:
            return identities.evaluate_identity(self.name, seed=self.seed)
        return getattr(limits, self.name)(*self.args, **dict(self.kwargs))


@dataclass
class Outcome:
    passed: bool
    margin: float | None = None  # log10(bound / observed) of a passed check
    error: str | None = None     # exception type name
    typed: bool = True           # False for an exception outside SfkitError
    consistent: bool = True      # the program's own numbers agree with the gate
    fingerprint: bytes = b""     # exact bits of the outputs


def _bits(*values) -> bytes:
    flat = []
    for v in values:
        flat += [complex(v).real, complex(v).imag]
    return struct.pack(f"<{len(flat)}d", *flat)


def run_check(check: Check, runner=None) -> Outcome:
    """Evaluate and gate one check. Any exception is a failed check.

    ``runner(fn)``, when given, calls ``fn`` (the evaluation alone, without
    the gate); the traced run passes one that records the check's span.
    """
    try:
        result = runner(check.call) if runner else check.call()
    except Exception as exc:  # the run keeps going; the failure is counted
        return Outcome(passed=False, error=type(exc).__name__,
                       typed=isinstance(exc, SfkitError),
                       fingerprint=f"{type(exc).__name__}: {exc}".encode())
    if check.seed is not None:
        return judge_identity(check, result)
    return judge_sweep(result)


def judge_identity(check: Check, rep) -> Outcome:
    """Pass when the recomputed relative residual is within the pinned floor."""
    lhs, rhs = complex(rep.lhs), complex(rep.rhs)
    bits = _bits(lhs, rhs)
    if not all(map(math.isfinite, (lhs.real, lhs.imag, rhs.real, rhs.imag))):
        return Outcome(passed=False, consistent=not rep.passed, fingerprint=bits)
    scale = max(abs(lhs), abs(rhs))
    resid = abs(lhs - rhs) / scale if scale > 0 else 0.0
    tol = TOLERANCE[check.cls]
    passed = resid <= tol
    consistent = (math.isclose(resid, rep.rel_residual, rel_tol=1e-9, abs_tol=1e-300)
                  and (passed or not rep.passed))
    margin = math.log10(tol / max(resid, 1e-300)) if passed else None
    return Outcome(passed=passed, margin=margin, consistent=consistent,
                   fingerprint=bits)


def fitted_order(deltas, errors) -> float:
    """Slope of log|ratio - 1| against log delta."""
    return float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])


def judge_sweep(sweep) -> Outcome:
    """Pass when |ratio - 1| falls strictly along the sweep with order >= 0.8."""
    ratios = [complex(r) for r in sweep.ratios]
    bits = _bits(*ratios, sweep.fitted_order)
    errs = [abs(r - 1) for r in ratios]
    if not all(map(math.isfinite, errs)) or min(errs) <= 0 or len(errs) < 2:
        return Outcome(passed=False, fingerprint=bits,
                       consistent=not sweep.fitted_order >= MIN_ORDER)
    order = fitted_order(sweep.deltas, errs)
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    passed = monotone and order >= MIN_ORDER
    consistent = math.isclose(order, sweep.fitted_order, rel_tol=1e-9)
    margin = math.log10(order / MIN_ORDER) if passed else None
    return Outcome(passed=passed, margin=margin, consistent=consistent,
                   fingerprint=bits)


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------

def _identity_round(ids, slowest=None):
    """Every identity at the key's seed; ``slowest`` again at a second seed.

    Drawing the round's slowest identity twice makes it a wider share of the
    checks, so that the 90th percentile falls inside its cost range rather
    than at the edge between it and the next-slower identity.
    """
    def build(key):
        checks = [Check(KIND_OF[i], i, seed=key) for i in ids]
        if slowest is not None:
            checks.append(Check(KIND_OF[slowest], slowest, seed=key + SECOND_DRAW))
        return checks
    return build


def _geometric(start, stop, ratio):
    out = [start]
    while out[-1] * ratio >= stop * (1 - 1e-12):
        out.append(out[-1] * ratio)
    return tuple(out)


# b -> i at deltas from 4e-4 down to 5e-5: |q| -> 1 and the scalar
# q-Pochhammer sums run to K ~ 3/delta ~ 60k terms per point
DEEP_B_TO_I = _geometric(4e-4, 5e-5, 0.92)
# eta ratio down to 1e-4: (q; q)_inf underflows to 0 near |q| = 0.9987
DEEP_ETA = _geometric(3.2e-3, 1e-4, 0.5)
# elliptic -> hyperbolic collapse at real b: the lattice at v = 0.02 has
# about 48k terms
COLLAPSE_VS = (0.04, 0.028, 0.02)
REAL_B = (1.0, 1.3)


def degeneration_round(key):
    """Sweeps drawn from the key.

    The mix balances the two scalar-heavy paths in time: two long-lattice
    elliptic collapses against six deep b -> i sweeps, plus six short
    sweeps. Sorted by cost, the short sweeps take the lower 43% of a round,
    the deep b -> i sweeps the next 43% (so the median lands on them) and the
    collapses the top 14% (so the 90th percentile lands on them).
    """
    rng = np.random.default_rng([key, 0xDE6])

    def x_draw():
        return complex(rng.uniform(-0.3, 0.6), rng.uniform(-0.9, -0.3))

    def sweep(cls, fn, *args, **kwargs):
        return Check(cls, fn, args=args, kwargs=tuple(sorted(kwargs.items())))

    mp = hyperbolic.ModularPair(*REAL_B)
    checks = [sweep("elliptic_to_hyperbolic", "elliptic_to_hyperbolic_ratio",
                    rng.uniform(0.3, 0.7) * mp.Q, mp, COLLAPSE_VS)
              for _ in range(2)]
    checks += [sweep("b_to_i_deep", "limit_b_to_i", int(rng.integers(-2, 3)),
                     x_draw(), DEEP_B_TO_I) for _ in range(6)]
    checks += [sweep("b_to_i_fine", "limit_b_to_i", int(rng.integers(-2, 3)),
                     x_draw(), limits.FINE_DELTAS) for _ in range(2)]
    # Im y >= -0.1 keeps y away from the pole of the n = -2 target at y = -i,
    # near which the approach at these deltas is still pre-asymptotic
    checks += [sweep("b_to_1", "limit_b_to_1", int(rng.choice([-2, -1, 1, 2])),
                     complex(rng.uniform(0.3, 1.5), rng.uniform(-0.1, 0.2)))
               for _ in range(2)]
    modes = ("b_to_i", "b_to_1")
    checks.append(sweep("eta_ratio", "eta_ratio_limit", limits.ETA_DELTAS,
                        mode=modes[int(rng.integers(2))]))
    checks.append(sweep("eta_ratio_deep", "eta_ratio_limit", DEEP_ETA,
                        mode=modes[int(rng.integers(2))]))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    build_round: object       # key -> list[Check]
    reference_rounds: int     # rounds at keys 1..n, the margin set
    trace_rounds: int         # timed rounds in one traced pass
    round_s: float            # nominal seconds per round, sets the work of a run

    def reference_keys(self):
        return range(1, self.reference_rounds + 1)

    def timed_key(self, seed: int, r: int) -> int:
        if not 0 <= r < ROUND_LIMIT - 1:
            raise ValueError(f"round {r} outside the key block of a seed")
        return TIMED_BASE + seed * ROUND_LIMIT + r

    def warm_key(self, seed: int) -> int:
        return TIMED_BASE + seed * ROUND_LIMIT + ROUND_LIMIT - 1


# Why each workload exists is recorded in BENCHMARK.json and README.md. The
# nominal round times are medians measured at the seed commit on a 2-CPU VM.
WORKLOADS = {w.name: w for w in (
    Workload("mb", _identity_round(MB, "complex_degtrafo_I"), 2, 2, 1.4),
    Workload("circle", _identity_round(CIRCLE), 2, 4, 0.6),
    Workload("line_plane", _identity_round(HYPERBOLIC + PLANE, "complex_plane_str"), 2, 4,
             0.95),
    Workload("degeneration", degeneration_round, 1, 2, 1.55),
)}


def warm_up(name: str, seed: int) -> None:
    """One untimed round at the workload's warm-up key."""
    wl = WORKLOADS[name]
    for check in wl.build_round(wl.warm_key(seed)):
        run_check(check)
