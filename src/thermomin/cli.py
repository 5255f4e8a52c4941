"""Command line front end: sweep data generation and self-validation.

Commands
--------
sweep-time      CSV of concurrence and nonlocality values along the exact
                (or numerically integrated) trajectory for each (n, r) pair.
sweep-strength  CSV of projective and weak nonlocality values for each
                measurement strength x at fixed (n, r).
validate        Cross-checks the closed forms against the brute-force
                route and the exact propagator against the fixed-step
                order-5 integrator; exit status 0 only if every check
                passes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import dynamics, measures, oracle, qstate


# Most states per evaluate_measures call in sweep-time; it bounds the call's
# working memory for any grid size and step count. Measured in process on a
# 2-vCPU x86 guest with BLAS on one thread, a call's tracemalloc peak is
# about 1.7 kB per state (0.86 MB at 512 states), and the fastest of six
# runs of a 3x3x200 grid took 40 ms at 512 and at 1024 states per slice,
# against 49 ms at 256.
_MEASURE_SLICE = 512


class InvalidConfig(ValueError):
    """Sweep configuration violates its contract."""


class IoFailure(RuntimeError):
    """Output file could not be written."""


@dataclass
class SweepConfig:
    """Parameter axes and output location for the sweep commands."""

    n_values: list = field(default_factory=lambda: [1.0])
    r_values: list = field(default_factory=lambda: [1.0])
    x_values: list = field(default_factory=lambda: [0.1, 1.0, 3.0, 30.0])
    t_max: float = 5.0
    t_steps: int = 200
    output_path: str = ""

    def validate(self):
        if not self.n_values or not self.r_values or not self.x_values:
            raise InvalidConfig("n, r and x value lists must be non-empty")
        # Checked before any array is sized from it, as integrate checks its steps.
        if isinstance(self.t_steps, bool) or not isinstance(self.t_steps, Integral):
            raise InvalidConfig(f"steps must be an integer, got {self.t_steps!r}")
        if not (2 <= self.t_steps <= dynamics.MAX_STEPS):
            raise InvalidConfig(f"steps must lie in [2, {dynamics.MAX_STEPS}], got {self.t_steps}")
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise InvalidConfig(f"t-max must be finite and > 0, got {self.t_max}")
        # Written "not >=" so that NaN is refused here, before any output.
        if any(not (n >= 0.0) for n in self.n_values):
            raise InvalidConfig(f"every --n value must be >= 0, got {self.n_values}")
        if any(not (0.0 <= r <= 1.0) for r in self.r_values):
            raise InvalidConfig("all r values must lie in [0, 1]")
        if any(not (x >= 0.0) for x in self.x_values):
            raise InvalidConfig(f"every --x value must be >= 0, got {self.x_values}")
        if not self.output_path:
            raise InvalidConfig("an output path is required (--out)")


def _cells(*columns):
    """Each row of the 1-d columns as "%.12g" cells, each followed by ","; + 0.0 writes a negative zero as 0."""
    row_format = "%.12g," * len(columns)
    return [row_format % tuple(row) for row in (np.column_stack(columns) + 0.0).tolist()]


def _blocks(shared, heads, *columns):
    """Per head, one "%" of a template whose row i is a %s head, shared[i], then one "%.12g" cell per column.

    Each column yields one 1-d array per head (+ 0.0 writes -0 as 0). The
    shared cells are literal text in the template; as "%.12g" output they
    hold only digits, "-", ".", "e", "+", "inf" or "nan", never a "%".
    """
    k = len(columns) + 1
    tail = ",".join(["%.12g"] * len(columns)) + "\n"
    template = "".join("%s" + cells + tail for cells in shared)
    for head, *cols in zip(heads, *columns):
        args = [head] * (k * len(shared))
        for j, col in enumerate(cols, 1):
            args[j::k] = (col + 0.0).tolist()
        yield template % tuple(args)


def _write_rows(path: str, header: str, blocks):
    """Write the header line, then each block as it is made, never the whole text at once; OSError -> IoFailure."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(blocks)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _states_on_grid(p: dynamics.ModelParams, t_max: float, t_steps: int, integrator: str):
    """States at the t_steps uniform output times, exact or integrated.

    integrator "rk4" selects the fixed-step order-5 integrator
    (dynamics.integrate); the name is kept for existing callers. It takes sub
    steps per output interval and keeps every sub-th state as it steps
    (dynamics._integrate_rows), so the rows are bitwise integrate's
    states[::sub] and the memory held is that of the rows and one window of
    steps, not of the trajectory (256 MB at MAX_STEPS).
    """
    times = np.linspace(0.0, t_max, t_steps)
    if integrator == "analytic":
        return times, dynamics.analytic_states(p, times)
    if integrator == "rk4":
        per_unit = dynamics.DEFAULT_STEPS_PER_UNIT_TIME
        sub = max(1, math.ceil(per_unit * t_max / (t_steps - 1)))
        return times, dynamics._integrate_rows(p, t_max, sub * (t_steps - 1), sub)
    raise InvalidConfig(f"unknown integrator {integrator!r} (use 'analytic' or 'rk4')")


def _measures_on_grid(pairs, cfg: SweepConfig, integrator: str):
    """Output times and the (3, len(pairs), t_steps) C, N2, N1 values of every (n, r) trajectory.

    The trajectories go into one stack, whose measures are evaluated in
    slices of at most _MEASURE_SLICE states; each state's values do not
    depend on the slice it is in. The stack is freed on return, before the
    rows are formatted.
    """
    states = np.empty((len(pairs), cfg.t_steps, 4, 4), dtype=complex)
    for i, (n, r) in enumerate(pairs):
        times, states[i] = _states_on_grid(dynamics.ModelParams(n=n, r=r), cfg.t_max, cfg.t_steps, integrator)
    flat = states.reshape(-1, 4, 4)
    values = np.empty((3, len(flat)))
    for i in range(0, len(flat), _MEASURE_SLICE):
        # The weak columns are not written.
        rep = measures.evaluate_measures(flat[i : i + _MEASURE_SLICE], measures.WeakStrength(0.0))
        values[:, i : i + _MEASURE_SLICE] = rep.C, rep.N2, rep.N1
    return times, values.reshape(3, len(pairs), cfg.t_steps)


def run_time_sweep(cfg: SweepConfig, integrator: str = "analytic") -> int:
    """Write n,r,gamma_t,C,N2,N1 rows ordered by (n, r, gamma_t), one block per (n, r); returns row count."""
    cfg.validate()
    pairs = [(n, r) for n in sorted(cfg.n_values) for r in sorted(cfg.r_values)]
    times, values = _measures_on_grid(pairs, cfg, integrator)
    _write_rows(cfg.output_path, "n,r,gamma_t,C,N2,N1", _blocks(_cells(times), _cells(*zip(*pairs)), *values))
    return len(pairs) * cfg.t_steps


def run_strength_sweep(cfg: SweepConfig, integrator: str = "analytic") -> int:
    """Write x,gamma_t,N2,N1,N2W,N1W rows ordered by (x, gamma_t); returns row count.

    Requires exactly one n and one r value; the weak values scale the
    projective ones by (1 - t1*t2) at each strength. Each strength is one
    block, and the gamma_t, N2 and N1 cells are formatted once for all.
    """
    cfg.validate()
    if len(cfg.n_values) != 1 or len(cfg.r_values) != 1:
        raise InvalidConfig("sweep-strength needs exactly one n and one r value")
    p = dynamics.ModelParams(n=cfg.n_values[0], r=cfg.r_values[0])
    times, states = _states_on_grid(p, cfg.t_max, cfg.t_steps, integrator)
    b = qstate._bloch(qstate.validate_state(states))
    n2s, n1s = measures._hs_min(b), measures._trace_min(b)
    xs = sorted(cfg.x_values)
    factors = [measures.weak_factor(measures.WeakStrength(x)) for x in xs]
    weak = (f * n2s for f in factors), (f * n1s for f in factors)
    _write_rows(cfg.output_path, "x,gamma_t,N2,N1,N2W,N1W", _blocks(_cells(times, n2s, n1s), _cells(xs), *weak))
    return len(xs) * cfg.t_steps


# ----------------------------------------------------------------------
# validate command


def _random_states(rng, k: int, dim: int = 4) -> np.ndarray:
    """(k, dim, dim) stack of Ginibre states, each drawn as a real then an imaginary part."""
    g = rng.normal(size=(k, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _random_degenerate_state(rng) -> np.ndarray:
    """Random state whose subsystem-a marginal is exactly maximally mixed."""
    # Mixture of the four Bell projectors, rotated locally and optionally
    # blended with I/2 x tau_b; every ingredient has zero a-side Bloch
    # vector, and the a-side rotation moves the optimum off the grid axes.
    bell = np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]]) / math.sqrt(2.0)
    probs = rng.dirichlet(np.ones(4))
    rho = sum(pk * np.outer(v, v) for pk, v in zip(probs, bell))
    ua = _random_qubit_unitary(rng) if rng.random() < 0.5 else qstate.ID2
    lift = np.kron(ua, _random_qubit_unitary(rng))
    rho = lift @ rho @ lift.conj().T
    if rng.random() < 0.5:
        tau = _random_states(rng, 1, dim=2)[0]
        lam = rng.uniform(0.2, 0.8)
        rho = lam * rho + (1.0 - lam) * np.kron(qstate.ID2 / 2.0, tau)
    return rho


def _random_qubit_unitary(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b = q[0] + 1j * q[1], q[2] + 1j * q[3]
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _degenerate_edge_states() -> np.ndarray:
    """A fixed stack of degenerate-marginal states at the edges of the
    oracle's eigenvector route, drawn from a generator of its own, so that
    the report's seeded draws do not move: locally rotated Bell-diagonal
    states whose top or bottom two correlation singular values lie 1e-2 to
    1e-15 apart, blends lam rho + (1 - lam) I/2 x tau of the first of them
    for lam = 1e-1 to 1e-12, and two product states I/2 x tau (lam = 0)."""
    rng = np.random.default_rng(0)
    gaps = (1e-2, 1e-5, 1e-8, 1e-11, 1e-13, 1e-15)
    c = np.array([row for g in gaps for row in ((0.45, g - 0.45, 0.1), (0.6, -0.2, 0.2 - g))])
    zeros = np.zeros((len(c), 3))
    bell = qstate.bloch_compose(qstate.BlochRep(x=zeros, y=zeros, C=np.eye(3) * c[:, None]))
    u = np.array([[_random_qubit_unitary(rng) for _ in range(2)] for _ in c])
    lift = np.einsum("sij,skl->sikjl", u[:, 0], u[:, 1]).reshape(-1, 4, 4)
    rotated = lift @ bell @ lift.conj().swapaxes(-1, -2)
    lam = np.array([1e-1, 1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-12, 0.0, 0.0])[:, None, None]
    products = np.kron(qstate.ID2 / 2.0, _random_states(rng, len(lam), dim=2))
    return np.concatenate([rotated, lam * rotated[: len(lam)] + (1.0 - lam) * products])


_GRID_COMBOS = [(n, r) for n in (0.1, 0.5, 1.0) for r in (0.3, 0.5, 1.0)]


def _check_rk4_agreement(lines):
    worst = 0.0
    for n, r in _GRID_COMBOS:
        p = dynamics.ModelParams(n=n, r=r)
        traj = dynamics.integrate(p, 5.0, steps=500)
        dev = float(np.max(np.abs(traj.states - dynamics.analytic_states(p, traj.times))))
        lines.append(f"    n={n:<4g} r={r:<4g} max element dev = {dev:.6e}")
        worst = max(worst, dev)
    return worst


def _post_state_contracts(rho, ds, xs):
    """Largest deviations over states rho[i], each measured along ds[i] at strength xs[i], of the projective
    map's idempotence, the weak pair's normalization K+^dag K+ + K-^dag K- = 1, the identity
    rho - Omega = (1 - 2 t1 t2)(rho - post), and the limits x = 0 (rho) and x = 30 (post)."""
    rho = qstate.validate_state(np.array(rho))
    ms = np.array([d.unit_vector() for d in ds])[:, None]
    w0, w30 = measures.WeakStrength(0.0), measures.WeakStrength(30.0)
    t = np.array([[(0.0, 1.0), (w.t1, w.t2), (w0.t1, w0.t2), (w30.t1, w30.t2)] for w in map(measures.WeakStrength, xs)])
    # One map call: each state's projective, weak, x = 0 and x = 30 post-states.
    maps = oracle._post_states(rho[:, None], ms[:, None], t[..., 0], t[..., 1])[:, :, 0]
    post, omega, still, full = maps.swapaxes(0, 1)
    twice = oracle._post_states(qstate.validate_state(post), ms, 0.0, 1.0)[:, 0]
    p1, p2 = oracle._projectors(ms[:, 0])
    a, b = t[:, 1, 0, None, None], t[:, 1, 1, None, None]
    k = np.array([a * p1 + b * p2, b * p1 + a * p2])
    norm = (k.conj().swapaxes(-1, -2) @ k).sum(axis=0) - qstate.ID2
    ident = (rho - omega) - (1.0 - 2.0 * a * b) * (rho - post)
    return tuple(float(np.abs(d).max()) for d in (twice - post, norm, ident, np.array([still - rho, full - post])))


def _trajectory_direct_samples():
    """(50, 4, 4) stack: five times on each of ten exact trajectories."""
    times = np.array([0.25, 0.8, 1.5, 2.5, 4.0])
    combos = _GRID_COMBOS + [(0.3, 0.9)]
    return np.concatenate([dynamics.analytic_states(dynamics.ModelParams(n=n, r=r), times) for n, r in combos])


def run_validation(sample_count: int = 20, seed: int = 7):
    """Cross-check report and exit status (0 only if every check passes).

    Sections: (a) exact propagator vs the fixed-step order-5 integrator,
    (b) closed forms vs brute-force maximization on trajectory and seeded
    random states, (c) invariant suites, (d) weak-measurement scaling,
    which checks the direct maximization ratio (1 - 2 t1 t2)^2 and reports
    its difference from the (1 - t1 t2) convention as information. Each
    check draws its seeded states first and evaluates them as one stack.
    """
    if sample_count < 1:
        raise InvalidConfig(f"sample count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    lines = ["thermomin validation report", f"seed = {seed}, random samples = {sample_count}", ""]
    results = []

    def record(passed, detail):
        results.append(passed)
        lines.append(f"    {detail} -> {'PASS' if passed else 'FAIL'}")

    # (a) exact propagator vs integrator
    lines.append("[a] exact propagator vs fixed-step order-5 integrator (gamma*t in [0, 5], 500 steps)")
    worst = _check_rk4_agreement(lines)
    record(worst <= 1e-8, f"worst dev = {worst:.6e} (tolerance 1.0e-08)")
    lines.append("")

    # (b) closed forms vs brute force
    lines.append("[b] closed-form measures vs brute-force maximization")
    samples = _trajectory_direct_samples()
    dev_hs = float(np.max(np.abs(measures.hs_min(samples) - oracle.brute_force_hs_min(samples))))
    dev_tr = float(np.max(np.abs(measures.trace_min(samples) - oracle.brute_force_trace_min(samples))))
    record(
        dev_hs <= 1e-9 and dev_tr <= 1e-9,
        f"trajectory samples ({len(samples)}, direct case): hs dev = {dev_hs:.6e}, "
        f"trace dev = {dev_tr:.6e} (tolerance 1.0e-09)",
    )
    states = np.array(
        [_random_states(rng, 1)[0] if i % 2 == 0 else _random_degenerate_state(rng) for i in range(sample_count)]
    )
    # The edge states share the random states' calls: a state's value does
    # not depend on the stack it is in.
    edges = _degenerate_edge_states()
    both = np.concatenate([states, edges])
    n2, n1 = measures.hs_min(both), measures.trace_min(both)
    dev = np.maximum(np.abs(n2 - oracle.brute_force_hs_min(both)), np.abs(n1 - oracle.brute_force_trace_min(both)))
    grid = oracle._marginal_direction(states)[1]
    dev_direct = float(dev[:sample_count][~grid].max(initial=0.0))
    dev_grid = float(dev[:sample_count][grid].max(initial=0.0))
    record(
        dev_direct <= 1e-9 and dev_grid <= 1e-3,
        f"random states ({sample_count}, {grid.sum()} via grid search): direct dev = "
        f"{dev_direct:.6e} (tol 1.0e-09), grid dev = {dev_grid:.6e} (tol 1.0e-03)",
    )
    w = measures.WeakStrength(1.0)
    scale = 1.0 - 2.0 * w.t1 * w.t2
    weak = np.maximum(
        np.abs(scale**2 * n2[sample_count:] - oracle.brute_force_weak_min(edges, w, "hs")),
        np.abs(scale * n1[sample_count:] - oracle.brute_force_weak_min(edges, w, "trace")),
    )
    dev = float(np.maximum(dev[sample_count:], weak).max())
    record(
        dev <= 1e-12,
        f"degenerate edges ({len(edges)} states: singular-value gaps 1e-2 to 1e-15, blends to 1e-12, "
        f"products; projective and x=1): max dev = {dev:.6e} (tol 1.0e-12)",
    )
    lines.append("")

    # (c) invariant suites
    lines.append("[c] invariant suites")
    states = _random_states(rng, 100)
    dev = float(np.max(np.abs(qstate.bloch_compose(qstate.bloch_decompose(states)) - states)))
    record(dev <= 1e-12, f"bloch round trip (100 states): max dev = {dev:.6e} (tol 1.0e-12)")

    # Drawn one matrix at a time, in the report's seeded order, then solved
    # as one stack per dimension.
    drawn = []
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        drawn.append(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    dev = 0.0
    for dim in sorted({len(m) for m in drawn}):
        g = np.array([m for m in drawn if len(m) == dim])
        h = 0.5 * (g + g.conj().swapaxes(-1, -2))
        evals, vecs = qstate.hermitian_eigensystem(h)
        dev = max(dev, float(np.max(np.abs((vecs * evals[:, None, :]) @ vecs.conj().swapaxes(-1, -2) - h))))
        dev = max(dev, float(np.max(np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(dim)))))
    record(dev <= 1e-10, f"eigensystem reconstruction (100 matrices): max dev = {dev:.6e} (tol 1.0e-10)")

    states = _random_states(rng, 50)
    traceless = states - np.trace(states, axis1=-2, axis2=-1)[:, None, None] / 4.0 * np.eye(4)
    ok = bool(np.all(qstate.trace_norm(traceless) >= np.sqrt(qstate.hs_norm_sq(traceless)) - 1e-12))
    red = qstate.partial_trace(states, "b")
    ok = ok and bool(np.all(np.abs(np.trace(red, axis1=-2, axis2=-1).real - 1.0) <= 1e-12))
    record(ok, "trace_norm >= hs norm and trace-preserving reductions (50 states)")

    # Five trajectories of 12 times each, one row per trajectory.
    times = np.linspace(0.0, 5.0, 12)
    pairs = ((0.1, 0.3), (0.1, 1.0), (0.5, 0.5), (1.0, 0.3), (1.0, 1.0))
    states = np.array([dynamics.analytic_states(dynamics.ModelParams(n=n, r=r), times) for n, r in pairs])
    rep = measures.evaluate_measures(states, measures.WeakStrength(1.0))
    c_x = measures.concurrence_xstate(states)
    r23 = np.abs(states[..., 1, 2])
    dev = max(float(np.max(np.abs(a - b))) for a, b in ((c_x, rep.C), (2.0 * r23**2, rep.N2), (2.0 * r23, rep.N1)))
    record(dev <= 1e-10, f"x-state shortcuts vs general routes (60 samples): max dev = {dev:.6e} (tol 1.0e-10)")
    bounds = (0.0 <= rep.C) & (rep.C <= 1.0) & (rep.N2W <= rep.N2 + 1e-15) & (rep.N1W <= rep.N1 + 1e-15)
    ok = bool(np.all(bounds & (rep.N1 >= rep.N2 - 1e-12)))
    ok = ok and all(np.all(v[:, 1:] <= v[:, :-1] + 1e-12) for v in (rep.C, rep.N2, rep.N1))
    record(ok, "measure bounds, weak <= projective, monotone decay along trajectories")

    triples = [(_random_states(rng, 1)[0], _random_qubit_unitary(rng), _random_qubit_unitary(rng)) for _ in range(15)]
    states = np.array([rho for rho, _, _ in triples])
    lifts = np.array([np.kron(ua, ub) for _, ua, ub in triples])
    rotated = lifts @ states @ lifts.conj().swapaxes(-1, -2)
    dev = max(float(np.max(np.abs(f(rotated) - f(states)))) for f in (measures.hs_min, measures.trace_min))
    record(dev <= 1e-8, f"local-unitary invariance (15 states): max dev = {dev:.6e} (tol 1.0e-08)")

    xs = np.linspace(0.0, 5.0, 21)
    factors = [measures.weak_factor(measures.WeakStrength(float(x))) for x in xs]
    ok = all(b > a for a, b in zip(factors, factors[1:]))
    ok = ok and abs(factors[0] - 0.5) <= 1e-14
    ok = ok and abs(measures.weak_factor(measures.WeakStrength(30.0)) - 1.0) <= 1e-12
    record(ok, "weak factor strictly increasing, f(0) = 1/2, f(30) = 1")

    # Drawn one (state, direction, strength) at a time, then checked as one stack.
    draws = [
        (_random_states(rng, 1)[0], oracle.direction_from_vector(rng.normal(size=3)), float(rng.uniform(0.0, 3.0)))
        for _ in range(15)
    ]
    dev_idem, dev_norm, dev_ident, dev_limit = _post_state_contracts(*zip(*draws))
    record(
        dev_idem <= 1e-12 and dev_norm <= 1e-14 and dev_ident <= 1e-13 and dev_limit <= 1e-12,
        f"post-state contracts: idempotence {dev_idem:.2e}, operator normalization {dev_norm:.2e}, "
        f"weak identity {dev_ident:.2e}, strength limits {dev_limit:.2e}",
    )

    ok = True
    try:
        for n, r in ((0.1, 1.0), (1.0, 0.5)):
            p = dynamics.ModelParams(n=n, r=r)
            traj = dynamics.integrate(p, 5.0, steps=200)
            qstate.validate_state(traj.states[::20])
            qstate.validate_state(dynamics.analytic_states(p, np.linspace(0.0, 50.0, 26)))
    except (qstate.NotHermitian, qstate.TraceNotOne, qstate.NotPositive):
        ok = False
    record(ok, "every sampled trajectory state passes validation")
    lines.append("")

    # (d) weak-measurement scaling
    lines.append("[d] weak-measurement scaling conventions")
    rho = dynamics.analytic_state_at(dynamics.ModelParams(n=0.5, r=0.5), 1.0)
    n2 = oracle.brute_force_hs_min(rho)
    n1 = oracle.brute_force_trace_min(rho)
    worst_ratio_dev = max(
        abs(oracle.brute_force_weak_min(rho, w, "hs") / n2 - (1.0 - 2.0 * w.t1 * w.t2) ** 2)
        for w in map(measures.WeakStrength, (0.5, 1.0, 2.0))
    )
    record(
        worst_ratio_dev <= 1e-6,
        f"direct maximization ratio |rho-Omega|_2^2 / N2 equals (1-2 t1 t2)^2: "
        f"max dev = {worst_ratio_dev:.6e} (tolerance 1.0e-06)",
    )
    w = measures.WeakStrength(1.0)
    ratio_tr = oracle.brute_force_weak_min(rho, w, "trace") / n1
    lines.append(
        f"    info: trace ratio at x=1 measured = {ratio_tr:.12g}, "
        f"(1-2 t1 t2) = {1.0 - 2.0 * w.t1 * w.t2:.12g}"
    )
    lines.append(
        f"    info: the reported weak columns N2W/N1W scale by (1 - t1 t2) = "
        f"{measures.weak_factor(w):.12g} at x=1, which differs from the direct "
        "maximization factors above by construction"
    )
    lines.append("")

    failed = results.count(False)
    status = 0 if failed == 0 else 1
    lines.append(f"summary: {len(results)} required checks, {failed} failed")
    lines.append(f"exit status: {status}")
    return "\n".join(lines) + "\n", status


# ----------------------------------------------------------------------
# argument handling


def _parse_floats(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse numeric list {text!r}") from exc


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidConfig(f"config line {raw.strip()!r} is not key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("_", "-")] = val.strip()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return values


def _option_values(args) -> dict:
    """Command line flags over the --config file's values, keyed by flag name.

    A file key that is not a flag of the command run, a misspelt one among
    them, is refused instead of dropped."""
    internal = ("command", "config", "default_n", "default_r")
    flags = {key.replace("_", "-"): v for key, v in vars(args).items() if key not in internal}
    values = _load_config_file(args.config) if args.config else {}
    unknown = [key for key in values if key not in flags]
    if unknown:
        raise InvalidConfig(f"config {args.config}: {', '.join(unknown)} is not a {args.command} option")
    values.update((key, v) for key, v in flags.items() if v is not None)
    return values


def _sweep_config(values: dict, default_n: str, default_r: str) -> SweepConfig:
    return SweepConfig(
        n_values=_parse_floats(values.get("n", default_n)),
        r_values=_parse_floats(values.get("r", default_r)),
        x_values=_parse_floats(values.get("x", "0.1,1,3,30")),
        t_max=float(values.get("t-max", "5")),
        t_steps=int(values.get("steps", "200")),
        output_path=values.get("out", ""),
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once: parse_args leaves it unchanged, and one per main call made memory creep."""
    description = "Entanglement and measurement-induced nonlocality sweeps for two atoms in thermal reservoirs."
    parser = argparse.ArgumentParser(prog="thermomin", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; command line flags override it")

    sweep_common = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep_common.add_argument("--n", help="comma-separated mean photon numbers")
    sweep_common.add_argument("--r", help="comma-separated initial purity weights")
    sweep_common.add_argument("--t-max", help="largest scaled time gamma*t")
    sweep_common.add_argument("--steps", help="number of uniform time points")
    sweep_common.add_argument("--out", help="output CSV path")
    sweep_common.add_argument(
        "--integrator",
        choices=("analytic", "rk4"),
        help="state source for the sweep: the exact propagator (default) or, "
        "under the name rk4, the fixed-step order-5 integrator",
    )

    p_time = sub.add_parser("sweep-time", parents=[sweep_common], help="C, N2, N1 along the trajectory")
    p_time.set_defaults(default_n="1", default_r="1")

    p_strength = sub.add_parser(
        "sweep-strength", parents=[sweep_common], help="projective and weak nonlocality per strength x"
    )
    p_strength.add_argument("--x", help="comma-separated weak measurement strengths")
    p_strength.set_defaults(default_n="0.5", default_r="0.5")

    p_val = sub.add_parser("validate", parents=[common], help="run the cross-check report")
    p_val.add_argument("--samples", help="number of seeded random states")
    p_val.add_argument("--seed", help="random seed for the report")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        values = _option_values(args)
        if args.command in ("sweep-time", "sweep-strength"):
            run = run_time_sweep if args.command == "sweep-time" else run_strength_sweep
            cfg = _sweep_config(values, args.default_n, args.default_r)
            count = run(cfg, integrator=values.get("integrator", "analytic"))
            print(f"wrote {count} rows to {cfg.output_path}")
            return 0
        report, status = run_validation(int(values.get("samples", "20")), int(values.get("seed", "7")))
        print(report, end="")
        return status
    except (InvalidConfig, IoFailure, ValueError, dynamics.StepTooLarge, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
