"""Two atoms in independent thermal reservoirs.

Initial-state family, exact propagator, a fixed-step order-5 Taylor
integrator for the thermal master equation, and extraction of the
entanglement sudden-death time. All public time arguments are in scaled
units gamma*t; the decay rate gamma enters only the raw generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, sqrt

import numpy as np

from .qstate import ID2, validate_state

INTEGRATOR_PSD_SLACK = -1e-8
DEFAULT_STEPS_PER_UNIT_TIME = 100
INTEGRATOR_ORDER = 5
SUDDEN_DEATH_HORIZON = 50.0
SUDDEN_DEATH_XTOL = 1e-9

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
    gamma the spontaneous emission rate (> 0).
    """

    n: float
    r: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not (self.n >= 0.0):
            raise ValueError(f"n must be >= 0, got {self.n}")
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


def _analytic_elements(p: ModelParams, t: float):
    """Nonzero elements (rho11, rho22, rho44, rho23) at scaled time t.

    rho11 and rho44 are written as products that contain no cancellation,
    with u = 1 - e1 from expm1, so rho44(0) is exactly 0 and both stay
    accurate to relative roundoff where they are small.
    """
    n, r = p.n, p.r
    k = 2.0 * n + 1.0
    g = k * k
    b = r * k - 2.0 * (n + 1.0)
    a = r * (n + 1.0) * (4.0 * n + 2.0) - 2.0 * (n + 1.0) ** 2
    e1, u = exp(-k * t), -expm1(-k * t)
    rho11 = (n + (n + 1.0) * e1) * (n * u + (1.0 - r) * k * e1) / g
    rho22 = (2.0 * n * (n + 1.0) - b * e1 + a * e1 * e1) / (2.0 * g)
    rho44 = (n + 1.0) * u * ((n + 1.0) * u + r * k * e1) / g
    rho23 = 0.5 * r * e1
    return rho11, rho22, rho44, rho23


def analytic_states(p: ModelParams, times) -> np.ndarray:
    """Exact solution of the thermal master equation at scaled times >= 0.

    Returns an (N, 4, 4) stack, one state per entry of the 1-d array times.
    The populations relax toward the thermal product values n^2/(2n+1)^2,
    n(n+1)/(2n+1)^2 (twice) and (n+1)^2/(2n+1)^2 while the single
    coherence decays as rho23(t) = (r/2) exp(-(2n+1) t). Every element is
    a valid state by construction, so the stack is not validated here: the
    measures validate what they are given, once per call.

    The elements are taken one time at a time with math.exp and math.expm1:
    numpy's vectorized exp differs from them by one unit in the last place
    on a few percent of arguments, which moves a printed sweep digit now and
    then (3 of 180,000 rows on 100 seeded 3x3x200 grids).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a 1-d array, got shape {t.shape}")
    bad = ~(t >= 0.0)
    if bad.any():
        raise ValueError(f"scaled time must be >= 0, got {t[bad][0]}")
    elements = np.array([_analytic_elements(p, s) for s in t.tolist()]).reshape(-1, 4)
    rho = np.zeros((len(t), 4, 4), dtype=complex)
    rho[:, 0, 0] = elements[:, 0]
    rho[:, 1, 1] = rho[:, 2, 2] = elements[:, 1]
    rho[:, 3, 3] = elements[:, 2]
    rho[:, 1, 2] = rho[:, 2, 1] = elements[:, 3]
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
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    down = 0.5 * p.gamma * (p.n + 1.0)
    up = 0.5 * p.gamma * p.n
    for raise_op, lower_op in _LADDERS:
        num = raise_op @ lower_op
        nlo = lower_op @ raise_op
        out += down * (2.0 * lower_op @ rho @ raise_op - num @ rho - rho @ num)
        out += up * (2.0 * raise_op @ rho @ lower_op - nlo @ rho - rho @ nlo)
    return out


def _rhs_superoperator(p: ModelParams) -> np.ndarray:
    """16x16 matrix acting on row-major vectorized states; built from lindblad_rhs by linearity."""
    sup = np.zeros((16, 16), dtype=complex)
    for k in range(16):
        basis = np.zeros((4, 4), dtype=complex)
        basis[k // 4, k % 4] = 1.0
        sup[:, k] = lindblad_rhs(p, basis).reshape(-1)
    return sup


def _taylor_step(a: np.ndarray) -> np.ndarray:
    """Truncated Taylor polynomial sum_{j <= INTEGRATOR_ORDER} a^j / j! of exp(a)."""
    step = np.eye(len(a), dtype=complex)
    term = step
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

    steps is the number of steps taken (default 100 per unit of scaled
    time); there is no substepping. Every stored state is symmetrized and
    trace renormalized, and checked against the integrator positivity
    slack: a state with an eigenvalue below -1e-8, or with an entry that is
    not finite, raises StepTooLarge naming the first such step. The check
    runs as one batched eigenvalue solve over the whole trajectory.
    """
    if not (t_max > 0.0):
        raise ValueError(f"t_max must be > 0, got {t_max}")
    if steps is None:
        steps = max(1, round(DEFAULT_STEPS_PER_UNIT_TIME * t_max))
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    h = t_max / steps
    # Work in scaled time: d(rho)/d(gamma t) = rhs/gamma.
    step = _taylor_step(h * _rhs_superoperator(p) / p.gamma)
    times = np.linspace(0.0, t_max, steps + 1)
    states = np.empty((steps + 1, 4, 4), dtype=complex)
    states[0] = initial_state(p)
    # A step far too large can overflow before the check; the check below
    # reports it as StepTooLarge, not as a floating-point warning.
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            rho = (step @ states[k - 1].reshape(-1)).reshape(4, 4)
            rho = 0.5 * (rho + rho.conj().T)
            states[k] = rho / np.trace(rho).real
    _check_steps(states[1:], times[1:])
    return Trajectory(times=times, states=states)


def _check_steps(states: np.ndarray, times: np.ndarray):
    """StepTooLarge at the first of states outside the integrator slack."""
    # The states before the first non-finite one are solved in place, as a
    # view: a masked copy would double the trajectory's memory.
    finite = np.isfinite(states).all(axis=(1, 2))
    ok = len(states) if finite.all() else int(np.argmin(finite))
    lowest = np.full(len(states), np.nan)
    lowest[:ok] = np.linalg.eigvalsh(states[:ok])[:, 0]
    bad = ~(lowest >= INTEGRATOR_PSD_SLACK)
    if bad.any():
        k = int(np.argmax(bad))
        raise StepTooLarge(
            f"state at gamma*t = {times[k]:.6f} has eigenvalue {lowest[k]:.3e} "
            f"below slack {INTEGRATOR_PSD_SLACK:.0e}; reduce the step size"
        )


def _entanglement_gap(p: ModelParams, t: float) -> float:
    """|rho23| - sqrt(rho11 rho44); concurrence is positive iff this is."""
    rho11, _, rho44, rho23 = _analytic_elements(p, t)
    return abs(rho23) - sqrt(max(rho11 * rho44, 0.0))


def sudden_death_time(p: ModelParams, scan_step: float = 0.005):
    """Smallest scaled time where the concurrence of the exact solution hits zero.

    Returns None when the initial state is already unentangled (r = 0).
    Raises NoBracket when the concurrence stays positive over the whole
    search horizon (the vacuum-reservoir case n = 0, r near 1). The root
    is located by a linear scan followed by bisection to 1e-9.
    """
    if _entanglement_gap(p, 0.0) <= 0.0:
        return None
    lo = 0.0
    hi = None
    t = scan_step
    while t <= SUDDEN_DEATH_HORIZON + 1e-12:
        if _entanglement_gap(p, t) <= 0.0:
            hi = t
            break
        lo = t
        t += scan_step
    if hi is None:
        raise NoBracket(
            f"concurrence stays positive up to gamma*t = {SUDDEN_DEATH_HORIZON}; "
            "no sudden death for these parameters"
        )
    while hi - lo > SUDDEN_DEATH_XTOL:
        mid = 0.5 * (lo + hi)
        if _entanglement_gap(p, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
