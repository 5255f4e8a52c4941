"""Brute-force route to every optimized quantity.

Post-measurement states are constructed explicitly from the Kraus
operators of the measurement on subsystem a, and the nonlocality values
are maximized over measurement directions by definition, with no use of
the closed formulas. Both routes take their matrix spectra from the same
LAPACK solvers; the independence that the cross-check relies on is
algorithmic: explicit post-measurement states and a direct maximization
here, closed formulas on the Bloch data in ``measures``.

Measurements that preserve the marginal of subsystem a: when the marginal
is non-degenerate only its own eigenbasis qualifies and the value is
computed directly; when it is degenerate every direction qualifies and a
theta/phi grid search with one local refinement pass takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import WeakStrength
from .qstate import ID2, PAULIS, validate_state

MARGINAL_GAP_EPS = 1e-9
GRID_RESOLUTION = 100
REFINE_FACTOR = 10


@dataclass(frozen=True)
class MeasurementDirection:
    """Spherical angles of the Bloch unit vector defining a local projective measurement."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])

    def projectors(self):
        """Orthogonal 2x2 projectors (1 +- m.sigma)/2 summing to the identity."""
        m = self.unit_vector()
        p1 = 0.5 * (ID2 + m[0] * PAULIS[0] + m[1] * PAULIS[1] + m[2] * PAULIS[2])
        return p1, ID2 - p1


def direction_from_vector(m) -> MeasurementDirection:
    """Measurement direction along an arbitrary nonzero 3-vector."""
    m = np.asarray(m, dtype=float)
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    theta = math.acos(max(-1.0, min(1.0, m[2] / norm)))
    phi = math.atan2(m[1], m[0]) % (2.0 * math.pi)
    return MeasurementDirection(theta=theta, phi=phi)


def projective_post_state(rho, d: MeasurementDirection) -> np.ndarray:
    """Apply the local projective measurement on subsystem a and discard outcomes."""
    return _post_states(validate_state(rho), d.unit_vector()[None], 0.0, 1.0)[0]


def weak_post_state(rho, d: MeasurementDirection, w: WeakStrength) -> np.ndarray:
    """Two-outcome weak measurement on subsystem a: P(+) rho P(+) + P(-) rho P(-)."""
    return _post_states(validate_state(rho), d.unit_vector()[None], w.t1, w.t2)[0]


def _marginal_direction(rho):
    """Unit Bloch axis of the top eigenvector of subsystem a's marginal.

    None when the marginal is degenerate (eigenvalue gap at most
    MARGINAL_GAP_EPS): then every direction preserves it and the value
    needs the grid search.
    """
    marg = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    evals, vecs = np.linalg.eigh(marg)
    if not evals[-1] - evals[0] > MARGINAL_GAP_EPS:
        return None
    top = vecs[:, -1]
    m = np.array([(top.conj() @ s @ top).real for s in PAULIS])
    return m / np.linalg.norm(m)


def _direction_batch(thetas, phis):
    """Directions for every (theta, phi) pair, theta-major so that argmax
    tie-breaking picks the lexicographically smallest pair."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.reshape(-1)
    pp = pp.reshape(-1)
    st = np.sin(tt)
    ms = np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=1)
    return tt, pp, ms


def _lift_batch(p: np.ndarray) -> np.ndarray:
    """kron(p_i, I2) for a batch of 2x2 operators."""
    return np.einsum("nab,cd->nacbd", p, ID2).reshape(-1, 4, 4)


def _projector_batch(ms: np.ndarray):
    n = ms.shape[0]
    p1 = np.broadcast_to(0.5 * ID2, (n, 2, 2)).copy()
    for k in range(3):
        p1 += 0.5 * ms[:, k, None, None] * PAULIS[k]
    return p1, ID2 - p1


def _post_states(rho, ms, t1: float, t2: float) -> np.ndarray:
    """K+ rho K+ + K- rho K- on subsystem a for each unit direction in ms (shape (k, 3)).

    The Kraus pair is K+ = t1 P1 + t2 P2 and K- = t2 P1 + t1 P2 with
    P1, P2 = (1 +- m.sigma)/2; (t1, t2) = (0, 1) is the projective
    measurement, the weak one takes the amplitudes of its WeakStrength.
    """
    p1, p2 = _projector_batch(ms)
    plus = _lift_batch(t1 * p1 + t2 * p2)
    minus = _lift_batch(t2 * p1 + t1 * p2)
    return plus @ rho @ plus + minus @ rho @ minus


def _batch_values(deltas, norm: str) -> np.ndarray:
    if norm == "hs":
        return np.sum(np.abs(deltas) ** 2, axis=(1, 2))
    if norm == "trace":
        return np.abs(np.linalg.eigvalsh(deltas)).sum(axis=1)
    raise ValueError("norm must be 'hs' or 'trace'")


def _grid_maximize(values) -> float:
    """Largest values(ms) over a theta/phi grid plus one refinement pass."""
    g = GRID_RESOLUTION
    thetas = np.linspace(0.0, math.pi, g)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False)
    tt, pp, ms = _direction_batch(thetas, phis)
    coarse = values(ms)
    best = int(np.argmax(coarse))
    # One refinement pass at 10x resolution around the best cell.
    dt = math.pi / (g - 1)
    dp = 2.0 * math.pi / (2 * g)
    fine_t = np.clip(tt[best] + np.linspace(-dt, dt, 2 * REFINE_FACTOR + 1), 0.0, math.pi)
    fine_p = (pp[best] + np.linspace(-dp, dp, 2 * REFINE_FACTOR + 1)) % (2.0 * math.pi)
    _, _, ms_fine = _direction_batch(fine_t, fine_p)
    return max(float(coarse[best]), float(values(ms_fine).max()))


def _brute_force(rho, norm: str, w: WeakStrength | None = None) -> float:
    rho = validate_state(rho)
    t1, t2 = (0.0, 1.0) if w is None else (w.t1, w.t2)

    def values(ms):
        return _batch_values(rho - _post_states(rho, ms, t1, t2), norm)

    m = _marginal_direction(rho)
    if m is not None:
        return float(values(m[None])[0])
    return _grid_maximize(values)


def brute_force_hs_min(rho) -> float:
    """Definition-level Hilbert-Schmidt nonlocality: max |rho - post|^2 over
    marginal-preserving projective measurements on subsystem a."""
    return _brute_force(rho, "hs")


def brute_force_trace_min(rho) -> float:
    """Definition-level trace-norm nonlocality over the same measurement set."""
    return _brute_force(rho, "trace")


def brute_force_weak_min(rho, w: WeakStrength, norm: str) -> float:
    """Maximal p-norm disturbance under the weak measurement itself.

    Maximizes |rho - Omega(rho)|_p^p over the same marginal-preserving
    measurement set, with Omega built from the weak operators. Because
    rho - Omega(rho) = (1 - 2 t1 t2) (rho - post_projective), this equals
    (1 - 2 t1 t2)^2 times the projective Hilbert-Schmidt value, or
    (1 - 2 t1 t2) times the projective trace value. Note that this direct
    maximization is NOT the scaled quantity reported by weak_hs_min and
    weak_trace_min, which use the factor (1 - t1 t2); the gap between the
    two conventions is reported by the validation command rather than
    hidden here.
    """
    if norm not in ("hs", "trace"):
        raise ValueError("norm must be 'hs' or 'trace'")
    return _brute_force(rho, norm, w)
