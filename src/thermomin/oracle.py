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
coefficients of the identity minus the map, and normed by ``qstate``'s
``hs_norm_sq`` and ``trace_norm``. The directions of a degenerate
marginal come from the oracle's own 3x3 Jacobi sweeps, not from a LAPACK
eigensolve. So the two routes are independent in their algorithms: an
explicit Kraus map maximized over directions here, closed formulas on the
Bloch data in ``measures``.

Measurements that preserve the marginal of subsystem a: when it is
non-degenerate only the one along its Bloch vector x qualifies and the
value is computed directly; when it is degenerate, |x| < MARGINAL_EPS as
in ``measures``, every direction qualifies. Then the Hilbert-Schmidt value
along m is a quadratic form m^T A m (see ``_quadratic_forms``), largest
at A's top eigenvector, and the trace value is largest on the circle of
directions orthogonal to A's bottom eigenvector, which holds the other
two. So a degenerate state takes its largest Kraus-route value at A's
three eigenvectors, found by cyclic Jacobi sweeps (see
``_jacobi_eigenvectors``). Every value returned is a definition-level
value at an explicit direction, so an error in the solve can only lower it.

Every ``brute_force_*`` function takes one 4x4 state, for which it returns
a float, or a (..., 4, 4) stack, for which it returns an array of the
leading shape, validated once. Its non-degenerate states take one batched
product, each along its own direction; its degenerate states take one
Jacobi solve and one batched product, three directions each, per slice
of _CHUNK states. A state gets bitwise the same value in a stack as
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import MARGINAL_EPS, WeakStrength, _out
from .qstate import ID2, PAULIS, hs_norm_sq, trace_norm, validate_state

# A call takes its degenerate states _CHUNK at a time, each slice with its
# own Kraus terms (about 10 KB a state), so that its memory does not grow
# with the stack. A state's value does not depend on the slice it is in.
_CHUNK = 500

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
        return _projectors(self.unit_vector())


def _projectors(ms):
    """The projectors (1 +- m.sigma)/2, (..., 2, 2) each, of unit vectors ms (..., 3)."""
    m = ms[..., None, None]
    p1 = 0.5 * (ID2 + m[..., 0, :, :] * PAULIS[0] + m[..., 1, :, :] * PAULIS[1] + m[..., 2, :, :] * PAULIS[2])
    return p1, ID2 - p1


def direction_from_vector(m) -> MeasurementDirection:
    """Measurement direction along an arbitrary nonzero, finite 3-vector."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"direction vector must be finite, got {m.tolist()}")
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(m))
    if norm in (0.0, math.inf) and m.any():
        # The squares overflowed or underflowed: rescale by the largest entry.
        m = m / np.abs(m).max()
        norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    theta = math.acos(max(-1.0, min(1.0, m[2] / norm)))
    phi = math.atan2(m[1], m[0]) % (2.0 * math.pi)
    return MeasurementDirection(theta=theta, phi=phi)


def projective_post_state(rho, d: MeasurementDirection) -> np.ndarray:
    """Apply the local projective measurement on subsystem a and discard outcomes."""
    return _post_states(validate_state(rho)[None], d.unit_vector()[None, None], 0.0, 1.0)[0, 0]


def weak_post_state(rho, d: MeasurementDirection, w: WeakStrength) -> np.ndarray:
    """Two-outcome weak measurement on subsystem a: P(+) rho P(+) + P(-) rho P(-)."""
    return _post_states(validate_state(rho)[None], d.unit_vector()[None, None], w.t1, w.t2)[0, 0]


def _marginal_direction(rho):
    """Unit Bloch vectors x/|x| of subsystem a's marginals, x_i = Tr(marg sigma_i), of
    an (N, 4, 4) stack, and the (N,) mask of degenerate marginals, |x| < MARGINAL_EPS
    (|x| is the eigenvalue gap): every direction preserves those, and their value
    takes the eigenvector route of ``_brute_force``. A degenerate state's row is x itself."""
    marg = np.einsum("...ikjk->...ij", rho.reshape(-1, 2, 2, 2, 2))
    x = np.einsum("...ij,kji->...k", marg, PAULIS).real
    # |x| as one dot product per row, the same float for every stack size.
    norm = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    degenerate = norm[:, 0] < MARGINAL_EPS
    return x / np.where(degenerate[:, None], 1.0, norm), degenerate


def _kraus_terms(rho, c_rho: float, c_s: float) -> np.ndarray:
    """The (..., 10, 32) real view of [c_rho rho; c_s (sigma_k x I) rho (sigma_l x I)]
    for a state or a (..., 4, 4) stack: the Kraus map's state half."""
    lead = rho.shape[:-2]
    sandwiches = ((_LIFTED_PAULIS @ rho[..., None, :, :])[..., :, None, :, :] @ _LIFTED_PAULIS).reshape(lead + (9, 16))
    return np.concatenate([c_rho * rho.reshape(lead + (1, 16)), c_s * sandwiches], axis=-2).view(float)


def _kraus_columns(ms) -> np.ndarray:
    """The (k, 10) rows [1, m_k m_l] of the unit directions ms (shape (k, 3)): the Kraus map's direction half."""
    cols = np.empty((len(ms), 10))
    cols[:, 0] = 1.0
    np.multiply(ms[:, :, None], ms[:, None, :], out=cols[:, 1:].reshape(-1, 3, 3))
    return cols


def _post_states(rho, ms, t1, t2) -> np.ndarray:
    """K+ rho K+ + K- rho K- on subsystem a, (..., k, 4, 4), for a state or a
    (..., 4, 4) stack, each along its own unit directions ms (..., k, 3).

    K+ = t1 P1 + t2 P2 and K- = t2 P1 + t1 P2 with P1, P2 = (1 +- m.sigma)/2;
    (0, 1) is projective. The leading axes of rho, ms and of the arrays or
    floats t1, t2 broadcast.
    With S = (m.sigma) x I the pair is K+- = a I +- b S, a, b = (t1 +- t2)/2,
    so the cross terms cancel and the map is exactly 2 a^2 rho + 2 b^2 S rho S,
    with S rho S the sum of m_k m_l (sigma_k x I) rho (sigma_l x I): one real
    (k, 10) @ (10, 32) product per state of its columns and terms.
    """
    t1, t2 = np.broadcast_arrays(t1, t2)
    # Python float arithmetic: numpy's square differs from ** in the last bit on some floats.
    c = np.array([(0.5 * (a + b) ** 2, 0.5 * (a - b) ** 2) for a, b in zip(t1.ravel().tolist(), t2.ravel().tolist())])
    terms = _kraus_terms(rho, *c.T.reshape((2,) + t1.shape + (1, 1)))
    product = _kraus_columns(ms.reshape(-1, 3)).reshape(ms.shape[:-1] + (10,)) @ terms
    return product.view(complex).reshape(product.shape[:-1] + (4, 4))


def _own_direction_values(terms, ms, norm: str) -> np.ndarray:
    """Disturbance norms of the S states with (S, 10, 32) terms, each along its
    own k directions ms (S, k, 3): one batched (S, k, 10) @ (S, 10, 32) product,
    viewed as the (S, k) explicit 4x4 disturbances and normed by ``qstate``."""
    cols = _kraus_columns(ms.reshape(-1, 3)).reshape(ms.shape[:-1] + (10,))
    product = cols @ terms
    d = product.view(complex).reshape(product.shape[:-1] + (4, 4))
    return hs_norm_sq(d) if norm == "hs" else trace_norm(d)


def _quadratic_forms(scaled) -> np.ndarray:
    """The (S, 3, 3) symmetric matrices A with |D|_2^2 = m^T A m for the
    Kraus route's disturbance D along every unit direction m, for the
    (S, 4, 4) states X = (c_rho - c_s) rho.

    D = c_rho rho + c_s S rho S with c_s = -c_rho and S = (m.sigma) x I is
    (X - S X S) / 2, so |D|_2^2 = |X|^2 / 2 - sum_kl m_k m_l Tr(sigma_k X sigma_l X) / 2,
    with sigma_k standing for sigma_k x I, and A = |X|^2 / 2 I + F with
    F_kl = -Tr(sigma_k X sigma_l X) / 2, real and symmetric by cyclicity.
    The part I/2 x X_b of X, with X_b its reduced operator on b, commutes
    with every S and adds nothing to D. It is taken out first: left in,
    it would make A's entries differences of terms of size |X|^2.
    """
    count = len(scaled)
    x = scaled.reshape(count, 2, 2, 2, 2).copy()
    half_b = 0.5 * np.einsum("sakal->skl", x)
    x[:, 0, :, 0] -= half_b
    x[:, 1, :, 1] -= half_b
    x = x.reshape(count, 4, 4)
    lifted = _LIFTED_PAULIS @ x[:, None]
    f = -0.5 * np.einsum("skij,slji->skl", lifted, lifted).real
    flat = x.reshape(count, 16).view(float)
    a = 0.5 * (f + f.swapaxes(-1, -2))
    a[:, [0, 1, 2], [0, 1, 2]] += 0.5 * np.einsum("sj,sj->s", flat, flat)[:, None]
    return a


def _jacobi_eigenvectors(a) -> np.ndarray:
    """Eigenvectors of the real symmetric (S, 3, 3) matrices a, as the
    columns of (S, 3, 3) orthogonal matrices: eight sweeps of the cyclic
    Jacobi method (Golub & Van Loan, Matrix Computations, 8.5) in numpy.

    Each rotation in the (p, q) plane zeroes a_pq with
    t = tan(theta) = sgn(d) e / (|d| + sqrt(d^2 + e^2)), d = a_qq - a_pp and
    e = 2 a_pq: the textbook sgn(tau) / (|tau| + sqrt(1 + tau^2)) with
    tau = d / e, multiplied through by |e|. No quotient divides by a tiny
    a_pq, so no square overflows, and t = 0 where d = e = 0.
    """
    a = a.copy()
    eye = np.eye(3)
    v = np.empty_like(a)
    v[:] = eye
    rot = np.empty_like(a)
    for _ in range(8):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            d = a[:, q, q] - a[:, p, p]
            e = 2.0 * a[:, p, q]
            den = np.abs(d) + np.sqrt(d * d + e * e)
            t = np.where(d < 0.0, -e, e) / np.where(den > 0.0, den, 1.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            rot[:] = eye
            rot[:, p, p] = rot[:, q, q] = c
            rot[:, p, q] = t * c
            rot[:, q, p] = -t * c
            a = rot.swapaxes(-1, -2) @ a @ rot
            v = v @ rot
    return v


def _brute_force(rho, norm: str, w: WeakStrength | None = None):
    if norm not in ("hs", "trace"):
        raise ValueError("norm must be 'hs' or 'trace'")
    rho = validate_state(rho)
    t1, t2 = (0.0, 1.0) if w is None else (w.t1, w.t2)
    c_rho, c_s = 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2
    flat = rho.reshape(-1, 4, 4)
    ms, degenerate = _marginal_direction(flat)
    out = np.empty(len(flat))
    direct = ~degenerate
    if direct.any():
        out[direct] = _own_direction_values(_kraus_terms(flat[direct], c_rho, c_s), ms[direct, None], norm)[:, 0]
    # A degenerate state takes its largest Kraus-route value at the three
    # eigenvectors of its quadratic form: the hs optimum is one of them and
    # the trace optimum's circle holds two (see README).
    free = np.flatnonzero(degenerate)
    for i in range(0, len(free), _CHUNK):
        states = flat[free[i : i + _CHUNK]]
        axes = _jacobi_eigenvectors(_quadratic_forms((c_rho - c_s) * states)).swapaxes(-1, -2)
        out[free[i : i + _CHUNK]] = _own_direction_values(_kraus_terms(states, c_rho, c_s), axes, norm).max(axis=1)
    return _out(out.reshape(rho.shape[:-2]))


def brute_force_hs_min(rho):
    """Definition-level Hilbert-Schmidt nonlocality: max |rho - post|^2 over
    marginal-preserving projective measurements on subsystem a; a float for
    one state, an array of the leading shape for a (..., 4, 4) stack."""
    return _brute_force(rho, "hs")


def brute_force_trace_min(rho):
    """Definition-level trace-norm nonlocality over the same measurement set,
    for one state or a stack."""
    return _brute_force(rho, "trace")


def brute_force_weak_min(rho, w: WeakStrength, norm: str):
    """Maximal p-norm disturbance under the weak measurement itself.

    Maximizes |rho - Omega(rho)|_p^p over the same marginal-preserving
    measurement set, with Omega built from the weak operators, for one
    state or a stack. Because
    rho - Omega(rho) = (1 - 2 t1 t2) (rho - post_projective), this equals
    (1 - 2 t1 t2)^2 times the projective Hilbert-Schmidt value, or
    (1 - 2 t1 t2) times the projective trace value. Note that this direct
    maximization is NOT the scaled quantity reported by weak_hs_min and
    weak_trace_min, which use the factor (1 - t1 t2); the gap between the
    two conventions is reported by the validation command rather than
    hidden here.
    """
    return _brute_force(rho, norm, w)
