"""Spans around sfkit's public functions, for the traced benchmark run.

The tracer replaces each traced function in every sfkit module that binds it
(``from .gamma_core import log_q_pochhammer_inf`` binds a name in the importing
module; ``ell.elliptic_gamma`` is looked up on the defining module), so calls
made inside sfkit are seen too. The originals are put back when the
``installed()`` block ends. The wrappers return exactly what the wrapped
function returns, so a traced check computes the same bits as an untraced one.

Self time is a span's duration minus the durations of its direct child spans.
The callables that the quadrature engines receive (integrands, bilateral-sum
terms) are wrapped as child spans, so an engine's self time is its overhead
on top of the kernel work it drives.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import sys
from time import perf_counter_ns

# The truncation the double product of the elliptic gamma needs: the lattice
# {(j, k) : j + k <= J} with max(|p|, |q|)^J <= 1e-17.
_LATTICE_EPS = 1e-17

KINDS = ("complex-MB", "elliptic-circle", "hyperbolic-line", "complex-plane")
SWEEPS = ("b_to_i_fine", "b_to_i_deep", "b_to_1", "eta_ratio",
          "eta_ratio_deep", "elliptic_to_hyperbolic")

# Per-layer metrics (name, unit). Counts are taken over one pass of the traced
# schedule; times are averaged over every traced pass.
PER_LAYER = (
    ("gamma_core.log_field_gamma_array.points", "count"),
    ("gamma_core.log_field_gamma_array.ns_per_point", "ns"),
    ("gamma_core.log_q_pochhammer_inf.points", "count"),
    ("gamma_core.log_q_pochhammer_inf.ns_per_point", "ns"),
    ("gamma_core.q_pochhammer_inf.self_ms", "ms"),
    ("gamma_core.bracket_power.points", "count"),
    ("gamma_core.bracket_power.ns_per_point", "ns"),
    ("gamma_core.field_gamma.calls", "count"),
    ("hyperbolic.log_gamma2_array.points", "count"),
    ("hyperbolic.log_gamma2_array.self_ns_per_point", "ns"),
    ("hyperbolic.gamma2.calls", "count"),
    ("hyperbolic.gamma2.self_ms", "ms"),
    ("hyperbolic.gamma_h_integral.calls", "count"),
    ("hyperbolic.gamma_h_integral.ms_per_call", "ms"),
    ("elliptic.elliptic_gamma.points", "count"),
    ("elliptic.elliptic_gamma.point_terms", "count"),
    ("elliptic.elliptic_gamma.ns_per_point_term", "ns"),
    ("elliptic.circle_beta_integral.nodes", "count"),
    ("elliptic.circle_beta_adaptive.useful_node_share", "fraction"),
    ("numerics.integrate_line.nodes", "count"),
    ("numerics.integrate_line.overhead_ns_per_node", "ns"),
    ("numerics.integrate_line.err_over_goal_p50", "ratio"),
    ("numerics.bilateral_sum.labels", "count"),
    ("numerics.bilateral_sum.self_ms", "ms"),
    ("numerics.integrate_plane.nodes", "count"),
    ("numerics.integrate_plane.overhead_ns_per_node", "ns"),
    *((f"identities.ms_per_check.{k}", "ms") for k in KINDS),
    ("identities.self_share", "fraction"),
    ("identities.hyp_probe_point_share", "fraction"),
    ("identities.sample_params.us_per_call", "us"),
    *((f"limits.ms_per_sweep.{s}", "ms") for s in SWEEPS),
    ("trace.overhead_share", "fraction"),
)

# Metrics that depend only on the checks run, never on the clock; they must
# repeat exactly from pass to pass and from run to run.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER
                      if unit == "count" or name.endswith(
                          ("err_over_goal_p50", "useful_node_share",
                           "hyp_probe_point_share")))


def lattice_terms(base) -> int:
    """Terms of the truncated (j, k) lattice for the base pair (p, q)."""
    top = max(abs(base.p), abs(base.q))
    if top == 0:
        return 1
    J = math.ceil(math.log(_LATTICE_EPS) / math.log(top))
    return (J + 1) * (J + 2) // 2


class _Stat:
    __slots__ = ("calls", "points", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span aggregates for one pass of traced checks."""

    def __init__(self, sfkit_modules):
        self._modules = sfkit_modules
        self._stack = []  # child-time accumulators of the open spans
        self.stats = {}
        self.line_depth = 0
        self.probe_points = 0
        self.point_terms = 0
        self.accepted_nodes = 0
        self.adaptive_nodes = 0
        self.err_over_goal = []
        self.check_ms = {}  # check class -> list of ms
        self.check_ns = 0
        self.check_self_ns = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        frame = [0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = _Stat()
            st.calls += 1
            st.total_ns += dt
            st.self_ns += dt - frame[0]

    def _count(self, name, points):
        self.stats[name].points += points

    def check(self, name, fn):
        """Run one check as the root span; returns fn()'s result."""
        frame = [0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            dt = perf_counter_ns() - t0
            self._stack.pop()
            self.check_ns += dt
            self.check_self_ns += dt - frame[0]
            self.check_ms.setdefault(name, []).append(dt / 1e6)

    # -- wrappers ------------------------------------------------------------

    def _plain(self, name, fn, size_arg=None):
        def wrapper(*args, **kwargs):
            out = self._span(name, fn, args, kwargs)
            if size_arg is not None:
                self._count(name, _size(args[size_arg]))
            return out
        return wrapper

    def _callback(self, name, fn, count_points):
        def callback(x, *rest):
            out = self._span(name, fn, (x,) + rest, {})
            self._count(name, _size(x) if count_points else 1)
            return out
        return callback

    def _engine(self, name, fn, count_points, on_result=None):
        """Wrap an engine taking a callable first; the callable becomes a child."""
        cb_name = name + ".callback"

        def wrapper(f, *args, **kwargs):
            cb = self._callback(cb_name, f, count_points)
            out = self._span(name, fn, (cb,) + args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out
        return wrapper

    def _wrappers(self):
        m = self._modules
        gc, hyp, ell, num, ids = (m["gamma_core"], m["hyperbolic"], m["elliptic"],
                                  m["numerics"], m["identities"])
        # the originals, looked up before any module attribute is replaced
        log_g2, ell_gamma = hyp.log_gamma2_array, ell.elliptic_gamma
        circle_fixed, circle_adaptive = ell.circle_beta_integral, ell.circle_beta_adaptive

        def log_gamma2_array(u, mp):
            out = self._span("hyperbolic.log_gamma2_array", log_g2, (u, mp), {})
            n = _size(u)
            self._count("hyperbolic.log_gamma2_array", n)
            if self.line_depth == 0:
                self.probe_points += n
            return out

        def elliptic_gamma(z, base, **kwargs):
            out = self._span("elliptic.elliptic_gamma", ell_gamma, (z, base), kwargs)
            n = _size(z)
            self._count("elliptic.elliptic_gamma", n)
            self.point_terms += n * lattice_terms(base)
            return out

        def circle_beta_integral(t, base, nodes):
            out = self._span("elliptic.circle_beta_integral", circle_fixed,
                             (t, base, nodes), {})
            self._count("elliptic.circle_beta_integral", int(nodes))
            return out

        def circle_beta_adaptive(*args, **kwargs):
            before = self.stats.get("elliptic.circle_beta_integral")
            before = before.points if before else 0
            out = self._span("elliptic.circle_beta_adaptive", circle_adaptive,
                             args, kwargs)
            self.accepted_nodes += int(out[1])
            self.adaptive_nodes += \
                self.stats["elliptic.circle_beta_integral"].points - before
            return out

        line_engine = self._engine("numerics.integrate_line",
                                   num.integrate_line, True, self._line_result)

        def integrate_line(f, *args, **kwargs):
            self.line_depth += 1
            try:
                return line_engine(f, *args, **kwargs)
            finally:
                self.line_depth -= 1

        return {
            gc.log_field_gamma_array: self._plain(
                "gamma_core.log_field_gamma_array", gc.log_field_gamma_array, 0),
            gc.log_q_pochhammer_inf: self._plain(
                "gamma_core.log_q_pochhammer_inf", gc.log_q_pochhammer_inf, 0),
            gc.q_pochhammer_inf: self._plain(
                "gamma_core.q_pochhammer_inf", gc.q_pochhammer_inf),
            gc.bracket_power: self._plain(
                "gamma_core.bracket_power", gc.bracket_power, 0),
            gc.field_gamma: self._plain("gamma_core.field_gamma", gc.field_gamma),
            log_g2: log_gamma2_array,
            hyp.gamma2: self._plain("hyperbolic.gamma2", hyp.gamma2),
            hyp.gamma_h_integral: self._plain(
                "hyperbolic.gamma_h_integral", hyp.gamma_h_integral),
            ell_gamma: elliptic_gamma,
            circle_fixed: circle_beta_integral,
            circle_adaptive: circle_beta_adaptive,
            num.integrate_line: integrate_line,
            num.bilateral_sum: self._engine(
                "numerics.bilateral_sum", num.bilateral_sum, False),
            num.integrate_plane: self._engine(
                "numerics.integrate_plane", num.integrate_plane, True),
            ids.sample_params: self._plain(
                "identities.sample_params", ids.sample_params),
        }

    def _line_result(self, args, kwargs, out):
        spec = args[1] if len(args) > 1 else kwargs.get("spec")
        if spec is None:
            spec = self._modules["numerics"].QuadratureSpec()
        val, err = out
        goal = max(spec.abs_tol, spec.rel_tol * abs(val))
        self.err_over_goal.append(float(err) / goal)

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers wherever an sfkit module binds a traced function."""
        wrappers = self._wrappers()
        by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
        patched = []
        try:
            for mod in [m for n, m in sys.modules.items()
                        if n == "sfkit" or n.startswith("sfkit.")]:
                for attr, val in list(vars(mod).items()):
                    hit = by_id.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, val))
            yield self
        finally:
            for mod, attr, val in reversed(patched):
                setattr(mod, attr, val)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def counts(tracer: Tracer) -> dict:
    """The clock-free metrics of one traced pass."""
    return {k: v for k, v in layer_metrics([tracer], 0.0).items()
            if k in COUNT_METRICS}


def layer_metrics(passes, overhead_share) -> dict:
    """Per-layer metrics from the tracers of every traced pass.

    Counts come from the first pass (the caller checks that every pass
    repeats them); times are sums over all passes divided by the number of
    passes, or per-point rates over all passes.
    """
    n_pass = len(passes)

    def tot(name, field):
        return sum(getattr(t.stats[name], field) for t in passes if name in t.stats)

    def first(name, field):
        st = passes[0].stats.get(name)
        return getattr(st, field) if st else 0

    def per_point(name, field="total_ns", points=None):
        return _ratio(tot(name, field), tot(name, "points") if points is None else points)

    first_pass = passes[0]
    out = {
        "gamma_core.log_field_gamma_array.points":
            first("gamma_core.log_field_gamma_array", "points"),
        "gamma_core.log_field_gamma_array.ns_per_point":
            per_point("gamma_core.log_field_gamma_array"),
        "gamma_core.log_q_pochhammer_inf.points":
            first("gamma_core.log_q_pochhammer_inf", "points"),
        "gamma_core.log_q_pochhammer_inf.ns_per_point":
            per_point("gamma_core.log_q_pochhammer_inf"),
        "gamma_core.q_pochhammer_inf.self_ms":
            tot("gamma_core.q_pochhammer_inf", "self_ns") / n_pass / 1e6,
        "gamma_core.bracket_power.points": first("gamma_core.bracket_power", "points"),
        "gamma_core.bracket_power.ns_per_point": per_point("gamma_core.bracket_power"),
        "gamma_core.field_gamma.calls": first("gamma_core.field_gamma", "calls"),
        "hyperbolic.log_gamma2_array.points":
            first("hyperbolic.log_gamma2_array", "points"),
        "hyperbolic.log_gamma2_array.self_ns_per_point":
            per_point("hyperbolic.log_gamma2_array", "self_ns"),
        "hyperbolic.gamma2.calls": first("hyperbolic.gamma2", "calls"),
        "hyperbolic.gamma2.self_ms": tot("hyperbolic.gamma2", "self_ns") / n_pass / 1e6,
        "hyperbolic.gamma_h_integral.calls": first("hyperbolic.gamma_h_integral", "calls"),
        "hyperbolic.gamma_h_integral.ms_per_call":
            _ratio(tot("hyperbolic.gamma_h_integral", "total_ns") / 1e6,
                   tot("hyperbolic.gamma_h_integral", "calls")),
        "elliptic.elliptic_gamma.points": first("elliptic.elliptic_gamma", "points"),
        "elliptic.elliptic_gamma.point_terms": first_pass.point_terms,
        "elliptic.elliptic_gamma.ns_per_point_term":
            per_point("elliptic.elliptic_gamma",
                      points=sum(t.point_terms for t in passes)),
        "elliptic.circle_beta_integral.nodes":
            first("elliptic.circle_beta_integral", "points"),
        "elliptic.circle_beta_adaptive.useful_node_share":
            _ratio(first_pass.accepted_nodes, first_pass.adaptive_nodes),
        "numerics.integrate_line.nodes": first("numerics.integrate_line.callback", "points"),
        "numerics.integrate_line.overhead_ns_per_node":
            per_point("numerics.integrate_line", "self_ns",
                      tot("numerics.integrate_line.callback", "points")),
        "numerics.integrate_line.err_over_goal_p50": _median(first_pass.err_over_goal),
        "numerics.bilateral_sum.labels": first("numerics.bilateral_sum.callback", "points"),
        "numerics.bilateral_sum.self_ms":
            tot("numerics.bilateral_sum", "self_ns") / n_pass / 1e6,
        "numerics.integrate_plane.nodes":
            first("numerics.integrate_plane.callback", "points"),
        "numerics.integrate_plane.overhead_ns_per_node":
            per_point("numerics.integrate_plane", "self_ns",
                      tot("numerics.integrate_plane.callback", "points")),
    }
    check_ms = {}
    for t in passes:
        for name, ms in t.check_ms.items():
            check_ms.setdefault(name, []).extend(ms)
    for k in KINDS:
        out[f"identities.ms_per_check.{k}"] = _median(check_ms.get(k, []))
    out["identities.self_share"] = _ratio(sum(t.check_self_ns for t in passes),
                                          sum(t.check_ns for t in passes))
    out["identities.hyp_probe_point_share"] = _ratio(
        first_pass.probe_points, first("hyperbolic.log_gamma2_array", "points"))
    out["identities.sample_params.us_per_call"] = _ratio(
        tot("identities.sample_params", "total_ns") / 1e3,
        tot("identities.sample_params", "calls"))
    for s in SWEEPS:
        out[f"limits.ms_per_sweep.{s}"] = _median(check_ms.get(s, []))
    out["trace.overhead_share"] = overhead_share
    return out
