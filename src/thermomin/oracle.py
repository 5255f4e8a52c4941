"""Brute-force route to every optimized quantity.

Post-measurement states are the Kraus map K+ rho K+ + K- rho K- on
subsystem a, summed as 2 a^2 rho + 2 b^2 S rho S with S = (m.sigma) x I:
the same operator sum with its exactly cancelling cross terms left out
(see ``_post_states``), so still the definition, not a closed formula.
The map is one product of state terms (rho and its nine Pauli sandwiches,
scaled by the pair's coefficients) with direction columns (1 and m_k m_l).
The values are maximized over measurement directions by definition.

Each direction's disturbance D = rho - Omega(rho) is formed explicitly
as a 4x4 matrix by the same product, with the state terms scaled by the
coefficients of the identity minus the map. Its Hilbert-Schmidt norm is
the sum of its squared entries. Its trace norm comes from the 2x2 block
that D holds between the two eigenvectors of m.sigma, with weights in
closed form in m: S D S = -D makes D block off-diagonal in that basis (see
``_trace_norms``), and on seeded states the block norm matches the sum of
|eigenvalues| of D to 1.1e-15. So the oracle takes no matrix spectrum at
all and shares no solver with ``measures``; the cross-check rests on two
different algorithms: explicit post-measurement states, entrywise norms
and a direct maximization here, closed formulas on the Bloch data with
LAPACK singular values and eigenvalues there.

Measurements that preserve the marginal of subsystem a: when the marginal
is non-degenerate only the measurement along its Bloch vector x (its
eigenbasis) qualifies and the value is computed directly; when it is
degenerate, |x| < MARGINAL_EPS as in ``measures``, every direction
qualifies and a theta/phi grid search with one local refinement pass
takes over. Measuring along m and along -m is the same measurement (P1
and P2 swap, and so do K+ and K-), so the coarse grid covers the upper
hemisphere only: the full theta/phi grid is closed under antipodes, and
the half left out repeats the disturbances of the half searched (see
``_coarse_grid``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import MARGINAL_EPS, WeakStrength
from .qstate import ID2, PAULIS, validate_state

GRID_RESOLUTION = 100
REFINE_FACTOR = 10
# Directions per pass of a grid search. The disturbances of the whole
# 10,000-direction coarse grid take 2.5 MB, and their temporaries as much
# again, which set the peak memory of a validate run; a row's value does
# not depend on the chunk it is computed in.
_CHUNK = 4000

# sigma_k x I, the Paulis acting on subsystem a.
_LIFTED_PAULIS = np.kron(PAULIS, ID2)


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
    """Unit Bloch vector x/|x| of subsystem a's marginal, x_i = Tr(marg sigma_i), or
    None when the marginal is degenerate, |x| < MARGINAL_EPS (|x| is its eigenvalue
    gap): then every direction preserves it and the value needs the grid search."""
    marg = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    x = np.einsum("ij,kji->k", marg, PAULIS).real
    norm = float(np.linalg.norm(x))
    return None if norm < MARGINAL_EPS else x / norm


def _direction_batch(thetas, phis):
    """Directions for every (theta, phi) pair, theta-major so that argmax
    tie-breaking picks the lexicographically smallest pair."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.reshape(-1)
    pp = pp.reshape(-1)
    st = np.sin(tt)
    ms = np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=1)
    return tt, pp, ms


def _kraus_terms(rho, c_rho: float, c_s: float) -> np.ndarray:
    """The (10, 32) real view of [c_rho rho; c_s (sigma_k x I) rho (sigma_l x I)]: the Kraus map's state half."""
    sandwiches = ((_LIFTED_PAULIS @ rho)[:, None] @ _LIFTED_PAULIS).reshape(9, 16)
    return np.concatenate([c_rho * rho.reshape(1, 16), c_s * sandwiches]).view(float)


def _kraus_columns(ms) -> np.ndarray:
    """The (k, 10) rows [1, m_k m_l] of the unit directions ms (shape (k, 3)): the Kraus map's direction half."""
    cols = np.empty((len(ms), 10))
    cols[:, 0] = 1.0
    np.multiply(ms[:, :, None], ms[:, None, :], out=cols[:, 1:].reshape(-1, 3, 3))
    return cols


def _post_states(rho, ms, t1: float, t2: float) -> np.ndarray:
    """K+ rho K+ + K- rho K- on subsystem a for each unit direction in ms (shape (k, 3)).

    The Kraus pair is K+ = t1 P1 + t2 P2 and K- = t2 P1 + t1 P2 with
    P1, P2 = (1 +- m.sigma)/2; (t1, t2) = (0, 1) is the projective
    measurement, the weak one takes the amplitudes of its WeakStrength.
    With S = (m.sigma) x I the pair is K+- = a I +- b S, a, b = (t1 +- t2)/2,
    so the cross terms a b (S rho + rho S) cancel in the sum and the map is
    exactly 2 a^2 rho + 2 b^2 S rho S, where S rho S is the sum over k, l of
    m_k m_l (sigma_k x I) rho (sigma_l x I). The nine sandwiches are formed
    once; all directions then take one real (k, 10) @ (10, 32) product.
    """
    terms = _kraus_terms(rho, 0.5 * (t1 + t2) ** 2, 0.5 * (t1 - t2) ** 2)
    return (_kraus_columns(ms) @ terms).view(complex).reshape(-1, 4, 4)


def _trace_norms(deltas, ms) -> np.ndarray:
    """|D|_1 of each disturbance D (rows of deltas) for its direction in ms, without an eigensolve.

    D = rho - Omega(rho) = 2 b^2 (rho - S rho S) with S = (m.sigma) x I and
    S^2 = I, so S D S = -D. In the eigenbasis u+, u- of m.sigma, D is then
    [[0, B], [B^+, 0]] with the 2x2 block B = (<u+| x I) D (|u-> x I); its
    eigenvalues are +-s1, +-s2, the singular values of B, and
    |D|_1 = 2 (s1 + s2) = 2 sqrt(|B|_F^2 + 2 |det B|).
    The eigenvectors are those of n.sigma for n = s m, with s = -1 if
    m_z < 0 and +1 otherwise: u+ = (c, w) and u- = (-conj w, c) with
    c = 1 + n_z >= 1 and w = n_x + i n_y, each of squared length 2c, so no
    pole divides by zero. For n = -m the pair comes out swapped, which turns
    B into B^+ and leaves the norm unchanged. B_bb' sums conj(u+_a) u-_a'
    D_(ab),(a'b') / 2c over a, a', with weights for aa' = 00, 01, 10, 11 of
    (-conj w c, c^2, -conj w^2, conj w c) / 2c = (-conj w, c, -conj w^2 / c, conj w) / 2.
    """
    s = np.where(ms[:, 2] < 0.0, -1.0, 1.0)
    c = 1.0 + s * ms[:, 2]
    wbar = s * (ms[:, 0] - 1j * ms[:, 1])
    coef = 0.5 * np.stack([-wbar, c, -wbar * wbar / c, wbar], axis=1).reshape(-1, 1, 4)
    blocks = deltas.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    b = (coef @ blocks).reshape(-1, 4)
    det = b[:, 0] * b[:, 3] - b[:, 1] * b[:, 2]
    fro = np.einsum("ij,ij->i", b.view(float), b.view(float))
    return 2.0 * np.sqrt(fro + 2.0 * np.abs(det))


@functools.cache
def _coarse_grid():
    """The coarse directions of every grid search: the upper-hemisphere half of
    the GRID_RESOLUTION x 2 GRID_RESOLUTION theta/phi grid, built on first use
    and kept read-only.

    Cell (i, j) of the full grid has the antipode (g-1-i, (j+g) mod 2g), equal
    to -m to within 7.8e-16, so the full grid is closed under antipodes. The
    direction columns m_k m_l are the same floats for m and -m, and
    ``_trace_norms`` takes its eigenvectors from n = s m, so a search value at
    -m equals the one at m bit for bit (no grid direction has m_z = 0, where
    s would not flip): the theta indices g//2 ... g-1 only repeat the first
    g//2. The theta = 0 pole stays in, so theta-major argmax tie-breaking is
    unchanged.
    """
    g = GRID_RESOLUTION
    thetas = np.linspace(0.0, math.pi, g)[: g // 2]
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False)
    grid = _direction_batch(thetas, phis)
    for a in grid:
        a.flags.writeable = False
    return grid


def _grid_maximize(values) -> float:
    """Largest values(ms) over a theta/phi grid plus one refinement pass."""
    g = GRID_RESOLUTION
    tt, pp, ms = _coarse_grid()
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
    if norm not in ("hs", "trace"):
        raise ValueError("norm must be 'hs' or 'trace'")
    rho = validate_state(rho)
    t1, t2 = (0.0, 1.0) if w is None else (w.t1, w.t2)
    terms = _kraus_terms(rho, 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2)

    def values(ms):
        """|rho - post|_2^2 (real^2 + imag^2 of the entries) or |rho - post|_1 per direction."""
        out = np.empty(len(ms))
        for i in range(0, len(ms), _CHUNK):
            part = ms[i : i + _CHUNK]
            deltas = (_kraus_columns(part) @ terms).view(complex)
            out[i : i + _CHUNK] = (
                np.einsum("ij,ij->i", deltas.view(float), deltas.view(float)) if norm == "hs" else _trace_norms(deltas, part)
            )
        return out

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
    return _brute_force(rho, norm, w)
