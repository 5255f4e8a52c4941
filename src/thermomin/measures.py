"""Closed-form two-qubit correlation measures.

Implements concurrence, the Hilbert-Schmidt and trace-norm variants of
measurement-induced nonlocality (the maximal disturbance achievable with
local projective measurements that leave the marginal of subsystem a
unchanged), and their weak-measurement counterparts obtained by scaling
with the strength factor (1 - t1*t2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qstate import (
    SIGMA_Y,
    BlochRep,
    _bloch,
    hermitian_eigensystem,
    matrix_sqrt_psd,
    psd_roots,
    validate_state,
)

# Below this Bloch-vector norm the marginal of subsystem a counts as
# degenerate and the measurement direction becomes a free optimization
# variable (the x = 0 branch of the closed formulas).
MARGINAL_EPS = 1e-9

X_STRUCTURE_TOL = 1e-12

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)


class NotXState(ValueError):
    """State is not of X form (diagonal plus the (2,3) coherence)."""


class NegativeStrength(ValueError):
    """Weak measurement strength must be non-negative."""


@dataclass(frozen=True)
class WeakStrength:
    """Weak measurement strength x with derived amplitudes.

    t1 = sqrt((1 - tanh x)/2) and t2 = sqrt((1 + tanh x)/2), evaluated in
    the overflow-safe forms 1/sqrt(1 + e^(2x)) and 1/sqrt(1 + e^(-2x)) so
    that t1*t2 = sech(x)/2 holds to machine precision even for large x.
    """

    x: float
    t1: float = field(init=False)
    t2: float = field(init=False)

    def __post_init__(self):
        if not (self.x >= 0.0):
            raise NegativeStrength(f"strength must be >= 0, got {self.x}")
        # math.exp overflows past ~709; by then t1 is zero anyway.
        object.__setattr__(self, "t1", 1.0 / math.sqrt(1.0 + math.exp(min(2.0 * self.x, 700.0))))
        object.__setattr__(self, "t2", 1.0 / math.sqrt(1.0 + math.exp(-2.0 * self.x)))


@dataclass(frozen=True, eq=False)
class TraceMinCanonicalForm:
    """Correlation singular values and rotated Bloch vector feeding the trace-norm formula."""

    c: np.ndarray
    xr: np.ndarray
    alpha: float
    beta_tilde: float
    chi_plus: float
    chi_minus: float


@dataclass(frozen=True)
class MeasureReport:
    """All five correlation values at one evaluation point."""

    C: float
    N2: float
    N1: float
    N2W: float
    N1W: float


def concurrence(rho) -> float:
    """Concurrence of a two-qubit state.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix.

    Returns
    -------
    float
        max{0, l1 - l2 - l3 - l4} where l_i are the descending square
        roots of the eigenvalues of rho (sy x sy) rho* (sy x sy). Zero for
        separable states, one for maximally entangled states.
    """
    return _concurrence(validate_state(rho))


def _concurrence(rho: np.ndarray) -> float:
    root = matrix_sqrt_psd(rho)
    flipped = _SYSY @ rho.conj() @ _SYSY
    # Hermitian route: eigenvalues of sqrt(rho) rho~ sqrt(rho) equal those of rho rho~.
    m = root @ flipped @ root
    evals, _ = hermitian_eigensystem(0.5 * (m + m.conj().T))
    lam = psd_roots(evals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_xstate(rho) -> float:
    """Concurrence shortcut for states with only diagonal and (2,3) entries."""
    rho = validate_state(rho)
    mask = np.ones((4, 4), dtype=bool)
    mask[range(4), range(4)] = False
    mask[1, 2] = mask[2, 1] = False
    worst = float(np.max(np.abs(rho[mask])))
    if worst > X_STRUCTURE_TOL:
        raise NotXState(f"off-structure entry magnitude {worst:.3e} exceeds {X_STRUCTURE_TOL:.0e}")
    geo = math.sqrt(max(rho[0, 0].real * rho[3, 3].real, 0.0))
    return 2.0 * max(0.0, abs(rho[1, 2]) - geo)


def hs_min(rho) -> float:
    """Hilbert-Schmidt measurement-induced nonlocality.

    Closed form on the Bloch data with T = C/2: Tr(T T^t) minus either the
    projection onto the marginal Bloch direction (non-degenerate marginal)
    or the smallest eigenvalue of T T^t (degenerate marginal).
    """
    return _hs_min(_bloch(validate_state(rho)))


def _hs_min(b: BlochRep) -> float:
    T = b.C / 2.0
    M = T @ T.T
    trace = float(np.trace(M))
    norm_x = float(np.linalg.norm(b.x))
    if norm_x < MARGINAL_EPS:
        evals, _ = hermitian_eigensystem(M.astype(complex))
        return max(0.0, trace - float(evals[-1]))
    xh = b.x / norm_x
    return max(0.0, trace - float(xh @ M @ xh))


def canonicalize_correlations(b) -> TraceMinCanonicalForm:
    """Rotate Bloch data into the frame where the correlation matrix is diagonal.

    C = Oa diag(c) Ob^t by singular value decomposition; the Bloch vector
    of subsystem a transforms as xr = Oa^t x. The trace-norm nonlocality is
    invariant under this local rotation, so the closed formula may always
    be evaluated on (c, xr).
    """
    Oa, c, _ = np.linalg.svd(b.C)
    xr = Oa.T @ b.x
    norm_x = float(np.linalg.norm(xr))
    alpha = float((c @ c) * norm_x**2 - np.sum(c**2 * xr**2))
    beta_tilde = float(
        xr[0] ** 2 * c[1] ** 2 * c[2] ** 2
        + xr[1] ** 2 * c[2] ** 2 * c[0] ** 2
        + xr[2] ** 2 * c[0] ** 2 * c[1] ** 2
    )
    spread = 2.0 * math.sqrt(max(beta_tilde, 0.0)) * norm_x
    chi_plus = max(alpha + spread, 0.0)
    chi_minus = max(alpha - spread, 0.0)
    return TraceMinCanonicalForm(
        c=c, xr=xr, alpha=alpha, beta_tilde=beta_tilde, chi_plus=chi_plus, chi_minus=chi_minus
    )


def trace_min(rho) -> float:
    """Trace-norm measurement-induced nonlocality.

    Canonicalizes the correlation matrix first, then evaluates the closed
    formula: max singular value for a degenerate marginal, otherwise
    (sqrt(chi+) + sqrt(chi-)) / (2 |x|). When the rotated Bloch vector
    lies on a canonical axis or plane, chi- vanishes or factors exactly
    and the generic difference formula loses half its digits through the
    square root, so those configurations use the algebraically identical
    reduced forms instead.
    """
    return _trace_min(_bloch(validate_state(rho)))


def _trace_min(b: BlochRep) -> float:
    canon = canonicalize_correlations(b)
    c = canon.c
    u = canon.xr**2
    usum = float(u.sum())
    if math.sqrt(usum) < MARGINAL_EPS:
        return float(c[0])
    big = u > 1e-14 * usum
    if int(big.sum()) == 1:
        axis = int(np.argmax(u))
        return float(max(c[i] for i in range(3) if i != axis))
    if int(big.sum()) == 2:
        k = int(np.argmin(u))
        i, j = (m for m in range(3) if m != k)
        s = c[i] ** 2 * u[j] + c[j] ** 2 * u[i]
        return float(max(c[k], math.sqrt(s / usum)))
    return (math.sqrt(canon.chi_plus) + math.sqrt(canon.chi_minus)) / (2.0 * math.sqrt(usum))


def weak_factor(w: WeakStrength) -> float:
    """Scaling factor 1 - t1*t2 = 1 - sech(x)/2, increasing from 1/2 to 1."""
    return 1.0 - w.t1 * w.t2


def weak_hs_min(rho, w: WeakStrength) -> float:
    """Weak-measurement Hilbert-Schmidt nonlocality, (1 - t1*t2) * hs_min."""
    return weak_factor(w) * hs_min(rho)


def weak_trace_min(rho, w: WeakStrength) -> float:
    """Weak-measurement trace-norm nonlocality, (1 - t1*t2) * trace_min."""
    return weak_factor(w) * trace_min(rho)


def evaluate_measures(rho, w: WeakStrength) -> MeasureReport:
    """Concurrence plus all four nonlocality values at one (state, strength) point."""
    rho = validate_state(rho)
    b = _bloch(rho)
    c = _concurrence(rho)
    n2 = _hs_min(b)
    n1 = _trace_min(b)
    f = weak_factor(w)
    return MeasureReport(C=c, N2=n2, N1=n1, N2W=f * n2, N1W=f * n1)
