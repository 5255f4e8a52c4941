"""Two atoms in independent thermal reservoirs.

Initial-state family, exact propagator, a fixed-step order-5 Taylor
integrator for the thermal master equation, and extraction of the
entanglement sudden-death time. All public time arguments are in scaled
units gamma*t; the decay rate gamma enters only the raw generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp, expm1, isfinite, sqrt

import numpy as np

from .qstate import ID2, _psd_certified, validate_state

INTEGRATOR_PSD_SLACK = -1e-8
DEFAULT_STEPS_PER_UNIT_TIME = 100
INTEGRATOR_ORDER = 5
SUDDEN_DEATH_HORIZON = 50.0
SUDDEN_DEATH_XTOL = 1e-9
# Largest step count integrate accepts: it stores every step's 4x4 state,
# 256 bytes, so this bounds the trajectory at 256 MB (gamma*t up to 10^4 at
# the default step density).
MAX_STEPS = 1_000_000

# Stored states advanced per batched product of step powers in integrate.
_BLOCK = 50
# Equal cells per pass of sudden_death_time's bracket search: a pass is one
# call on their 63 interior points; six narrow [0, 50] to 50/64^6 = 7.5e-10.
_SECTIONS = 64

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# Raising/lowering operators of each atom on the joint space.
_LADDERS = (
    (np.kron(SIGMA_PLUS, ID2), np.kron(SIGMA_MINUS, ID2)),
    (np.kron(ID2, SIGMA_PLUS), np.kron(ID2, SIGMA_MINUS)),
)


class StepTooLarge(RuntimeError):
    """An integration step produced a state outside the positivity slack."""


class NoBracket(RuntimeError):
    """Concurrence stays positive over the whole search horizon."""


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: both reservoirs share the same gamma and n.

    n is the mean thermal photon number (>= 0), r the weight of the
    maximally entangled component in the initial state (in [0, 1]), and
    gamma the spontaneous emission rate (> 0). n is at most sqrt(float max)/4,
    about 3.35e153, so that the 4 n^2 terms of the exact solution stay finite.
    """

    n: float
    r: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        n_max = sqrt(np.finfo(float).max) / 4.0
        if not (0.0 <= self.n <= n_max):
            raise ValueError(f"n must lie in [0, {n_max:.6g}], got {self.n}")
        if not (0.0 <= self.r <= 1.0):
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Scaled times gamma*t and the matching (N, 4, 4) array of states."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.times)


def initial_state(p: ModelParams) -> np.ndarray:
    """(1-r)|11><11| + r|phi+><phi+| with |phi+> = (|01> + |10>)/sqrt(2)."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - p.r
    rho[1, 1] = rho[2, 2] = p.r / 2.0
    rho[1, 2] = rho[2, 1] = p.r / 2.0
    return validate_state(rho)


def analytic_states(p: ModelParams, times) -> np.ndarray:
    """Exact solution of the thermal master equation at scaled times >= 0.

    Returns an (N, 4, 4) stack, one state per entry of the 1-d array times.
    The populations relax toward the thermal product values n^2/(2n+1)^2,
    n(n+1)/(2n+1)^2 (twice) and (n+1)^2/(2n+1)^2 while the single
    coherence decays as rho23(t) = (r/2) exp(-(2n+1) t). Every element is
    a valid state by construction, so the stack is not validated here: the
    measures validate what they are given, once per call.

    rho11 and rho44 are written as products that contain no cancellation,
    with u = 1 - e1 from expm1, so rho44(0) is exactly 0 and both stay
    accurate to relative roundoff where they are small. e1 and u are
    math.exp and math.expm1 of the products -(2n+1) t, mapped over the
    times with np.fromiter: numpy's vectorized exp differs from math.exp by
    one unit in the last place on a few percent of arguments, which moves a
    printed sweep digit now and then (3 of 180,000 rows on 100 seeded
    3x3x200 grids). The rest is numpy elementwise arithmetic with the
    Python-float parameters, in the order of the one-time formula, so every
    state is bitwise what that formula gives at its time.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d array, got shape {t.shape}")
    bad = ~(t >= 0.0)
    if bad.any():
        raise ValueError(f"scaled time must be >= 0, got {t[bad][0]}")
    n, r = p.n, p.r
    k = 2.0 * n + 1.0
    g = k * k
    b = r * k - 2.0 * (n + 1.0)
    a = r * (n + 1.0) * (4.0 * n + 2.0) - 2.0 * (n + 1.0) ** 2
    kt = (-k * t).tolist()
    e1 = np.fromiter(map(exp, kt), float, len(kt))
    u = -np.fromiter(map(expm1, kt), float, len(kt))
    rho = np.zeros((len(t), 4, 4), dtype=complex)
    rho[:, 0, 0] = (n + (n + 1.0) * e1) * (n * u + (1.0 - r) * k * e1) / g
    rho[:, 1, 1] = rho[:, 2, 2] = (2.0 * n * (n + 1.0) - b * e1 + a * e1 * e1) / (2.0 * g)
    rho[:, 3, 3] = (n + 1.0) * u * ((n + 1.0) * u + r * k * e1) / g
    rho[:, 1, 2] = rho[:, 2, 1] = 0.5 * r * e1
    return rho


def analytic_state_at(p: ModelParams, t: float) -> np.ndarray:
    """Exact solution at one scaled time t >= 0: analytic_states for a batch of one."""
    return analytic_states(p, [t])[0]


def lindblad_rhs(p: ModelParams, rho) -> np.ndarray:
    """Thermal generator: d(rho)/dt for two independent reservoirs.

    Each atom contributes a decay channel at rate gamma*(n+1) and an
    excitation channel at rate gamma*n, in Lindblad form; the result is
    Hermitian and traceless.
    """
    return _rated_sum(p, _dissipators(np.asarray(rho, dtype=complex)))


def _dissipators(rho):
    """The rate-free terms 2 a rho b - (b a) rho - rho (b a) of each atom's decay
    (a lowers) and excitation (a raises) channel, in lindblad_rhs's order."""
    for raise_op, lower_op in _LADDERS:
        for a, b in ((lower_op, raise_op), (raise_op, lower_op)):
            yield 2.0 * a @ rho @ b - (b @ a) @ rho - rho @ (b @ a)


def _rated_sum(p: ModelParams, terms) -> np.ndarray:
    """The _dissipators terms times their rates gamma (n + 1) / 2 and gamma n / 2, summed from zero."""
    down, up = 0.5 * p.gamma * (p.n + 1.0), 0.5 * p.gamma * p.n
    return sum(rate * term for rate, term in zip((down, up, down, up), terms))


@functools.cache
def _basis_dissipators():
    """The (4, 16, 4, 4) _dissipators terms of the 16 basis matrices, built on first use and kept read-only."""
    parts = np.array(list(_dissipators(np.eye(16, dtype=complex).reshape(16, 4, 4))))
    parts.flags.writeable = False
    return parts


def _rhs_superoperator(p: ModelParams) -> np.ndarray:
    """16x16 matrix acting on row-major vectorized states: lindblad_rhs of the
    16 basis matrices, by linearity, from their rate-free terms built once."""
    return _rated_sum(p, _basis_dissipators()).reshape(16, 16).T


def _taylor_step(a: np.ndarray) -> np.ndarray:
    """Truncated Taylor polynomial sum_{j <= INTEGRATOR_ORDER} a^j / j! of exp(a)."""
    step = term = np.eye(len(a), dtype=complex)
    for j in range(1, INTEGRATOR_ORDER + 1):
        term = term @ a / j
        step = step + term
    return step


def integrate(p: ModelParams, t_max: float, steps: int | None = None) -> Trajectory:
    """Fixed-step order-5 trajectory over scaled time [0, t_max].

    Each step applies the order-5 truncated Taylor polynomial of the
    step-scaled generator, sum_{j<=5} (hL)^j / j!, so the global error
    falls as h^5. Order 5 is the lowest that meets the 1e-8
    exact-vs-integrator contract at 500 steps over [0, 5]: on this linear
    generator every order-4 Runge-Kutta method, classical RK4 included,
    is the order-4 truncation and misses it. The series is truncated on
    purpose: a matrix exponential would make this a second exact
    propagator instead of an independent check of the first.

    t_max must be finite and > 0. steps is the number of steps taken (default
    100 per unit of scaled time), at most MAX_STEPS, which is checked before
    the trajectory is allocated; there is no substepping. The step matrix S and
    its powers S^2, ..., S^50 are formed once, and the trajectory advances 50
    stored states at a time, as one matrix-vector product of those powers'
    stacked rows with the last stored state, written straight into the
    trajectory; in exact arithmetic each stored state is still one Taylor step
    from the one before it. Every stored state is symmetrized and trace
    renormalized in place, and checked against the integrator positivity slack:
    a state with an eigenvalue below -1e-8, or with an entry that is not
    finite, raises StepTooLarge naming the first such step; for a state that is
    not finite it also names h (2n+1), the step in units of the decay time.
    Only a trajectory that Gershgorin discs cannot certify (they certify every
    step of the paper's X family) takes a batched eigvalsh.
    """
    if not (isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if steps is None:
        steps = max(1, round(DEFAULT_STEPS_PER_UNIT_TIME * t_max))
    if not (1 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must lie in [1, {MAX_STEPS}], got {steps}")
    h = t_max / steps
    times = np.linspace(0.0, t_max, steps + 1)
    states = np.empty((steps + 1, 4, 4), dtype=complex)
    states[0] = initial_state(p)
    # A step far too large can overflow, in its Taylor terms, its powers or
    # in the states, before the check; the check below reports it as
    # StepTooLarge, not as a floating-point warning.
    with np.errstate(all="ignore"):
        # Work in scaled time: d(rho)/d(gamma t) = rhs/gamma.
        step = _taylor_step(h * _rhs_superoperator(p) / p.gamma)
        powers = np.empty((min(_BLOCK, steps), 16, 16), dtype=complex)
        powers[0] = step
        for j in range(1, len(powers)):
            powers[j] = step @ powers[j - 1]
        for k in range(0, steps, len(powers)):
            block = states[k + 1 : k + 1 + len(powers)]
            np.matmul(powers[: len(block)].reshape(-1, 16), states[k].reshape(-1), out=block.reshape(-1))
            block += block.conj().swapaxes(-1, -2)
            block *= 0.5
            block /= np.trace(block, axis1=-2, axis2=-1).real[:, None, None]
    _check_steps(states[1:], times[1:], h * (2.0 * p.n + 1.0))
    return Trajectory(times=times, states=states)


def _check_steps(states: np.ndarray, times: np.ndarray, decay_step: float):
    """StepTooLarge at the first of states outside the integrator slack.

    decay_step is h (2n+1), named when the first such state is not finite."""
    if _psd_certified(states, INTEGRATOR_PSD_SLACK):
        return
    # The states before the first non-finite one are solved in place, as a
    # view: a masked copy would double the trajectory's memory.
    finite = np.isfinite(states).all(axis=(1, 2))
    ok = len(states) if finite.all() else int(np.argmin(finite))
    lowest = np.full(len(states), np.nan)
    lowest[:ok] = np.linalg.eigvalsh(states[:ok])[:, 0]
    bad = ~(lowest >= INTEGRATOR_PSD_SLACK)
    if bad.any():
        k = int(np.argmax(bad))
        if k == ok:
            raise StepTooLarge(
                f"state at gamma*t = {times[k]:.6f} is not finite; "
                f"the step times the decay scale is h*(2n+1) = {decay_step:.3e}"
            )
        raise StepTooLarge(
            f"state at gamma*t = {times[k]:.6f} has eigenvalue {lowest[k]:.3e} "
            f"below slack {INTEGRATOR_PSD_SLACK:.0e}; reduce the step size"
        )


def _entanglement_gap(p: ModelParams, times) -> np.ndarray:
    """|rho23| - sqrt(rho11 rho44) of the exact solution at each time; concurrence is positive iff this is."""
    rho = analytic_states(p, times)
    return np.abs(rho[:, 1, 2]) - np.sqrt(np.maximum(rho[:, 0, 0].real * rho[:, 3, 3].real, 0.0))


def sudden_death_time(p: ModelParams, scan_step: float = 0.005):
    """Smallest scaled time where the concurrence of the exact solution hits zero.

    Returns None when the initial state is unentangled (r = 0), and raises
    NoBracket when the concurrence stays positive up to SUDDEN_DEATH_HORIZON
    (the vacuum-reservoir case n = 0, r near 1).

    Concurrence is an entanglement monotone, so local channels cannot raise
    it, and the exact state at t + s is the state at t sent through the
    same local thermal channel on each atom. So the gap
    |rho23| - sqrt(rho11 rho44) changes sign at most once, and its signs at
    0 and at the horizon give the verdict. Each pass then evaluates the 63
    interior points of 64 equal cells in one call and keeps the cell that
    holds the first dead point (the last cell if none is dead), until the
    bracket is at most SUDDEN_DEATH_XTOL wide; its midpoint is returned. A
    root takes at most 7 calls.

    scan_step must be finite and > 0, else ValueError; it no longer affects
    the result and is kept so that existing calls still work.
    """
    if not (isfinite(scan_step) and scan_step > 0.0):
        raise ValueError(f"scan_step must be finite and > 0, got {scan_step}")
    lo, hi = 0.0, SUDDEN_DEATH_HORIZON
    alive = _entanglement_gap(p, [lo, hi]) > 0.0
    if not alive[0]:
        return None
    if alive[1]:
        raise NoBracket(
            f"concurrence stays positive up to gamma*t = {SUDDEN_DEATH_HORIZON}; "
            "no sudden death for these parameters"
        )
    while hi - lo > SUDDEN_DEATH_XTOL:
        edges = np.linspace(lo, hi, _SECTIONS + 1)
        i = int(np.argmax(np.append(_entanglement_gap(p, edges[1:-1]) <= 0.0, True)))
        lo, hi = float(edges[i]), float(edges[i + 1])
    return 0.5 * (lo + hi)
