"""Closed-form two-qubit correlation measures.

Implements concurrence, the Hilbert-Schmidt and trace-norm variants of
measurement-induced nonlocality (the maximal disturbance achievable with
local projective measurements that leave the marginal of subsystem a
unchanged), and their weak-measurement counterparts obtained by scaling
with the strength factor (1 - t1*t2).

Both nonlocality values come from the singular values k1 >= k2 of the
correlation matrix projected off subsystem a's Bloch direction, N2 =
(k1^2 + k2^2)/4 and N1 = k1, with no cancellation to cost digits.

Every measure takes one 4x4 state, for which it returns a float, or a
(..., 4, 4) stack, for which it returns an array of the leading shape.
A single state is a stack of one: both go through the same vectorized
code, so stack[i] gives bitwise the same value as the stack does at i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qstate import SIGMA_Y, BlochRep, _bloch, _out, _raise_first, matrix_sqrt_psd, validate_state

# Below this Bloch-vector norm |x| (the eigenvalue gap) subsystem a's marginal
# counts as degenerate and the measurement direction becomes a free variable:
# the unprojected C in ``_nonlocality`` and the eigenvector route of ``oracle``.
MARGINAL_EPS = 1e-9

X_STRUCTURE_TOL = 1e-12

_SYSY = np.kron(SIGMA_Y, SIGMA_Y)

# Entries that vanish in an X state: all but the diagonal and the (2,3) pair.
_OFF_X = ~np.eye(4, dtype=bool)
_OFF_X[1, 2] = _OFF_X[2, 1] = False


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
    """Correlation singular values and rotated Bloch vector feeding the trace-norm formula.

    For stacked Bloch data every field carries the stack's leading axes.
    """

    c: np.ndarray
    xr: np.ndarray
    alpha: float
    beta_tilde: float
    chi_plus: float
    chi_minus: float


@dataclass(frozen=True)
class MeasureReport:
    """All five correlation values at one evaluation point, or arrays over a stack."""

    C: float | np.ndarray
    N2: float | np.ndarray
    N1: float | np.ndarray
    N2W: float | np.ndarray
    N1W: float | np.ndarray


def _sum3(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis of length 3, in a fixed order for every batch size."""
    return (a[..., 0] + a[..., 1]) + a[..., 2]


def concurrence(rho):
    """Concurrence of a two-qubit state.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix or (..., 4, 4) stack of them.

    Returns
    -------
    float or ndarray
        max{0, l1 - l2 - l3 - l4} where l_i are the descending square
        roots of the eigenvalues of rho (sy x sy) rho* (sy x sy). Zero for
        separable states, one for maximally entangled states.
    """
    return _out(_concurrence(validate_state(rho)))


def _concurrence(rho: np.ndarray) -> np.ndarray:
    # With R = sqrt(rho), R rho~ R = A A^dag for A = R (sy x sy) conj(R), so
    # the l_i are the singular values of A. Taking them directly keeps full
    # relative accuracy near pure states, where an eigensolve of A A^dag
    # followed by square roots loses half the digits of the small ones.
    root = matrix_sqrt_psd(rho)
    lam = np.linalg.svd(root @ _SYSY @ root.conj(), compute_uv=False)
    return np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0)


def concurrence_xstate(rho):
    """Concurrence shortcut for states with only diagonal and (2,3) entries.

    2 max(0, |rho23| - sqrt(rho11 rho44)) for one state or a (..., 4, 4)
    stack; raises NotXState naming the first state, for a stack by its
    index, with an off-structure entry beyond X_STRUCTURE_TOL.
    """
    rho = validate_state(rho)
    worst = np.abs(rho[..., _OFF_X]).max(axis=-1)
    message = f"off-structure entry magnitude {{:.3e}} exceeds {X_STRUCTURE_TOL:.0e}"
    _raise_first(worst > X_STRUCTURE_TOL, NotXState, message, worst)
    geo = np.sqrt(np.maximum(rho[..., 0, 0].real * rho[..., 3, 3].real, 0.0))
    return _out(2.0 * np.maximum(0.0, np.abs(rho[..., 1, 2]) - geo))


def canonicalize_correlations(b) -> TraceMinCanonicalForm:
    """Rotate Bloch data into the frame where the correlation matrix is diagonal.

    C = Oa diag(c) Ob^t by singular value decomposition; the Bloch vector
    of subsystem a transforms as xr = Oa^t x. The trace-norm nonlocality is
    invariant under this local rotation, so the closed formula may always
    be evaluated on (c, xr). b may hold a stack of Bloch data.
    """
    Oa, c, _ = np.linalg.svd(b.C)
    xr = _sum3(Oa.swapaxes(-1, -2) * b.x[..., None, :])
    norm_sq = _sum3(xr * xr)
    c2, u = c**2, xr**2
    alpha = _sum3(c2) * norm_sq - _sum3(c2 * u)
    beta_tilde = (
        u[..., 0] * c2[..., 1] * c2[..., 2]
        + u[..., 1] * c2[..., 2] * c2[..., 0]
        + u[..., 2] * c2[..., 0] * c2[..., 1]
    )
    spread = 2.0 * np.sqrt(np.maximum(beta_tilde, 0.0)) * np.sqrt(norm_sq)
    return TraceMinCanonicalForm(
        c=c,
        xr=xr,
        alpha=_out(alpha),
        beta_tilde=_out(beta_tilde),
        chi_plus=_out(np.maximum(alpha + spread, 0.0)),
        chi_minus=_out(np.maximum(alpha - spread, 0.0)),
    )


def hs_min(rho):
    """Hilbert-Schmidt measurement-induced nonlocality N2 = (k1^2 + k2^2)/4.

    k1 >= k2 are the singular values of C projected off subsystem a's Bloch
    direction, or of C itself for a degenerate marginal (``_nonlocality``).
    """
    return _out(_nonlocality(_bloch(validate_state(rho)))[0])


def trace_min(rho):
    """Trace-norm measurement-induced nonlocality N1 = k1, k1 as in ``hs_min``.

    Equal to (sqrt(chi+) + sqrt(chi-)) / (2 |x|) of ``canonicalize_correlations``,
    without that formula's cancellation near a canonical axis or plane.
    """
    return _out(_nonlocality(_bloch(validate_state(rho)))[1])


def _nonlocality(b: BlochRep) -> tuple[np.ndarray, np.ndarray]:
    """(N2, N1) from one singular value decomposition per state.

    Measuring a along x^ = x/|x| leaves D = 1/4 sum_ij K_ij s_i x s_j with
    K = (I - x^ x^t) C of rank at most 2, so |D|_2^2 = (k1^2 + k2^2)/4 and
    |D|_1 = k1. A degenerate marginal takes x^ = 0, K = C: then the same
    expressions are the maxima over all directions.
    """
    norm_x = np.sqrt(_sum3(b.x * b.x))
    xh = b.x / np.where(norm_x < MARGINAL_EPS, np.inf, norm_x)[..., None]
    xc = _sum3(xh[..., None, :] * b.C.swapaxes(-1, -2))
    k = np.linalg.svd(b.C - xh[..., :, None] * xc[..., None, :], compute_uv=False)
    return (k[..., 0] ** 2 + k[..., 1] ** 2) / 4.0, k[..., 0]


def weak_factor(w: WeakStrength) -> float:
    """Scaling factor 1 - t1*t2 = 1 - sech(x)/2, increasing from 1/2 to 1."""
    return 1.0 - w.t1 * w.t2


def weak_hs_min(rho, w: WeakStrength):
    """Weak-measurement Hilbert-Schmidt nonlocality, (1 - t1*t2) * hs_min."""
    return weak_factor(w) * hs_min(rho)


def weak_trace_min(rho, w: WeakStrength):
    """Weak-measurement trace-norm nonlocality, (1 - t1*t2) * trace_min."""
    return weak_factor(w) * trace_min(rho)


def evaluate_measures(rho, w: WeakStrength) -> MeasureReport:
    """Concurrence plus all four nonlocality values at one (state, strength) point.

    rho may be a (..., 4, 4) stack, e.g. a whole trajectory; it is validated
    once and its Bloch data are shared between N2 and N1.
    """
    rho = validate_state(rho)
    b = _bloch(rho)
    n2, n1 = _nonlocality(b)
    f = weak_factor(w)
    return MeasureReport(
        C=_out(_concurrence(rho)), N2=_out(n2), N1=_out(n1), N2W=_out(f * n2), N1W=_out(f * n1)
    )
