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

from .qstate import ID2, hermitian_eigensystem, validate_state

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
    """Scaled times gamma*t and the matching sequence of states."""

    times: np.ndarray
    states: list

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
    e1 = exp(-k * t)
    u = -expm1(-k * t)
    rho11 = (n + (n + 1.0) * e1) * (n * u + (1.0 - r) * k * e1) / g
    rho22 = (2.0 * n * (n + 1.0) - b * e1 + a * e1 * e1) / (2.0 * g)
    rho44 = (n + 1.0) * u * ((n + 1.0) * u + r * k * e1) / g
    rho23 = 0.5 * r * e1
    return rho11, rho22, rho44, rho23


def analytic_state_at(p: ModelParams, t: float) -> np.ndarray:
    """Exact solution of the thermal master equation at scaled time t >= 0.

    The populations relax toward the thermal product values n^2/(2n+1)^2,
    n(n+1)/(2n+1)^2 (twice) and (n+1)^2/(2n+1)^2 while the single
    coherence decays as rho23(t) = (r/2) exp(-(2n+1) t).
    """
    if t < 0.0:
        raise ValueError(f"scaled time must be >= 0, got {t}")
    rho11, rho22, rho44, rho23 = _analytic_elements(p, t)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho11
    rho[1, 1] = rho[2, 2] = rho22
    rho[3, 3] = rho44
    rho[1, 2] = rho[2, 1] = rho23
    return validate_state(rho)


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
    time); there is no substepping. Every stored state is re-validated:
    symmetrized, trace renormalized, and checked against the integrator
    positivity slack (StepTooLarge beyond -1e-8).
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
    rho = initial_state(p)
    states = [rho]
    v = rho.reshape(-1).copy()
    for k in range(steps):
        v = step @ v
        rho = v.reshape(4, 4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        evals, _ = hermitian_eigensystem(rho)
        if evals[-1] < INTEGRATOR_PSD_SLACK:
            raise StepTooLarge(
                f"state at gamma*t = {times[k + 1]:.6f} has eigenvalue {evals[-1]:.3e} "
                f"below slack {INTEGRATOR_PSD_SLACK:.0e}; reduce the step size"
            )
        states.append(rho)
        v = rho.reshape(-1).copy()
    return Trajectory(times=times, states=states)


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
