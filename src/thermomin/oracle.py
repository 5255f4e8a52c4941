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
that D holds between the eigenvectors of m.sigma, with weights in closed
form in m, read from terms put once into 2x2 block order (see
``_trace_norms`` and ``_block_order``). So the oracle takes no matrix
spectrum and shares no solver with ``measures``: explicit post-measurement
states, entrywise norms and a direct maximization here, closed formulas on
the Bloch data with LAPACK singular values and eigenvalues there.

Measurements that preserve the marginal of subsystem a: when it is
non-degenerate only the one along its Bloch vector x qualifies and the
value is computed directly; when it is degenerate, |x| < MARGINAL_EPS as
in ``measures``, every direction qualifies and a theta/phi grid search
with one local refinement pass takes over. Measuring along m and along -m
is the same measurement, so the coarse grid covers the upper hemisphere
only (see ``_coarse_grid``).

Every ``brute_force_*`` function takes one 4x4 state, for which it returns
a float, or a (..., 4, 4) stack, for which it returns an array of the
leading shape, validated once. Its non-degenerate states take one batched
product, each along its own direction; its degenerate states share the
passes of one grid search (see ``_grid_maximize``). A state gets bitwise
the same value in a stack as alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import MARGINAL_EPS, WeakStrength, _out
from .qstate import ID2, PAULIS, validate_state

GRID_RESOLUTION = 100
REFINE_FACTOR = 10
# (direction, state) pairs per pass of a grid search. A pass's disturbances
# take 256 KB at 1000 pairs and its trace-norm temporaries about as much
# again; 1000 to 3000 pairs take the same time to within noise. A state's
# value does not depend on the pass it is computed in.
_CHUNK = 1000

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
    return _post_states(validate_state(rho)[None], d.unit_vector()[None, None], 0.0, 1.0)[0, 0]


def weak_post_state(rho, d: MeasurementDirection, w: WeakStrength) -> np.ndarray:
    """Two-outcome weak measurement on subsystem a: P(+) rho P(+) + P(-) rho P(-)."""
    return _post_states(validate_state(rho)[None], d.unit_vector()[None, None], w.t1, w.t2)[0, 0]


def _marginal_direction(rho):
    """Unit Bloch vectors x/|x| of subsystem a's marginals, x_i = Tr(marg sigma_i), of
    an (N, 4, 4) stack, and the (N,) mask of degenerate marginals, |x| < MARGINAL_EPS
    (|x| is the eigenvalue gap): every direction preserves those, and their value
    needs the grid search. A degenerate state's row is x itself."""
    marg = np.einsum("...ikjk->...ij", rho.reshape(-1, 2, 2, 2, 2))
    x = np.einsum("...ij,kji->...k", marg, PAULIS).real
    # |x| as one dot product per row, the same float for every stack size.
    norm = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    degenerate = norm[:, 0] < MARGINAL_EPS
    return x / np.where(degenerate[:, None], 1.0, norm), degenerate


def _direction_batch(thetas, phis):
    """Directions for every (theta, phi) pair, theta-major so that argmax
    tie-breaking picks the lexicographically smallest pair. Leading axes pair
    up: (S, kt) thetas and (S, kp) phis give S grids of kt kp directions,
    with angles of shape (S, kt kp) and directions of shape (S, kt kp, 3)."""
    tt, pp = np.broadcast_arrays(thetas[..., :, None], phis[..., None, :])
    tt = tt.reshape(tt.shape[:-2] + (-1,))
    pp = pp.reshape(pp.shape[:-2] + (-1,))
    st = np.sin(tt)
    ms = np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=-1)
    return tt, pp, ms


def _kraus_terms(rho, c_rho: float, c_s: float) -> np.ndarray:
    """The (..., 10, 32) real view of [c_rho rho; c_s (sigma_k x I) rho (sigma_l x I)]
    for a state or a (..., 4, 4) stack: the Kraus map's state half."""
    lead = rho.shape[:-2]
    sandwiches = ((_LIFTED_PAULIS @ rho[..., None, :, :])[..., :, None, :, :] @ _LIFTED_PAULIS).reshape(lead + (9, 16))
    return np.concatenate([c_rho * rho.reshape(lead + (1, 16)), c_s * sandwiches], axis=-2).view(float)


def _block_order(terms) -> np.ndarray:
    """The (..., 10, 32) terms with each term's 16 entries regrouped from
    (a b, a' b') to (a a', b b'): rows aa' of the 2x2 blocks over b, b'. A copy."""
    lead = terms.shape[:-1]
    # Axes a, b, a', b' and the real/imaginary pair; b swaps with a'.
    return terms.reshape(lead + (2, 2, 2, 2, 2)).swapaxes(-4, -3).reshape(lead + (32,))


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


def _trace_norms(blocks, ms) -> np.ndarray:
    """|D|_1 of each disturbance D for its direction in ms (k, 3), without an eigensolve.

    blocks holds D in 2x2 block order, (k, 4, 4 S) for S states measured
    along the same k directions: row aa' of direction j holds D_(ab),(a'b')
    of each state in turn, over bb'. The result has the shape (k, S).
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
    The weights are formed once per direction and applied to all S states
    in one (1, 4) @ (4, 4 S) product.
    """
    k = len(ms)
    s = np.where(ms[:, 2] < 0.0, -1.0, 1.0)
    c = 1.0 + s * ms[:, 2]
    wbar = s * (ms[:, 0] - 1j * ms[:, 1])
    coef = 0.5 * np.stack([-wbar, c, -wbar * wbar / c, wbar], axis=1).reshape(k, 1, 4)
    b = (coef @ blocks).reshape(k, -1, 4)
    det = b[..., 0] * b[..., 3] - b[..., 1] * b[..., 2]
    fro = np.einsum("...j,...j->...", b.view(float), b.view(float))
    return 2.0 * np.sqrt(fro + 2.0 * np.abs(det))


def _norms(product, ms, norm: str) -> np.ndarray:
    """Disturbance norms of S states along the k directions ms (k, 3), as (k, S),
    from the real (k, 32 S) product of the directions' columns with the states'
    terms: |D|_2^2, the sum of squares of each state's 32 floats in natural
    order, or |D|_1 from the (k, 4, 4 S) blocks of block-ordered terms."""
    if norm == "hs":
        floats = product.reshape(len(ms), -1, 32)
        return np.einsum("...j,...j->...", floats, floats)
    return _trace_norms(product.view(complex).reshape(len(ms), 4, -1), ms)


def _own_direction_values(terms, ms, norm: str) -> np.ndarray:
    """Disturbance norms of the S states with (S, 10, 32) terms, each along its
    own k directions ms (S, k, 3): one batched (S, k, 10) @ (S, 10, 32) product."""
    cols = _kraus_columns(ms.reshape(-1, 3)).reshape(ms.shape[:-1] + (10,))
    return _norms((cols @ terms).reshape(-1, 32), ms.reshape(-1, 3), norm).reshape(ms.shape[:-1])


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


def _grid_maximize(terms, norm: str) -> np.ndarray:
    """Largest disturbance norm of each of the S states with (S, 10, 32) terms
    over a theta/phi grid plus one refinement pass around its best cell.

    Each coarse pass builds the columns of its directions once and multiplies
    them with the terms of all S states side by side, (k, 10) @ (10, 32 S):
    the columns are (state, entry) for the hs norm and, for the trace norm's
    block-ordered terms, (aa', state, bb'), so that the product reshapes to
    the (k, 4, 4 S) blocks of ``_trace_norms`` as a view. The best value and
    cell of each state run across the passes, keeping the first cell on ties
    as one argmax over the whole grid would. A pass holds at most _CHUNK
    (direction, state) pairs once S is at most _CHUNK // 2, past which two
    directions would exceed it; _brute_force passes slices of that many.
    """
    count = len(terms)
    g = GRID_RESOLUTION
    tt, pp, ms = _coarse_grid()
    rows = 4 if norm == "trace" else 1
    wide = terms.reshape(count, 10, rows, -1).transpose(1, 2, 0, 3).reshape(10, -1)
    best = np.full(count, -np.inf)
    cell = np.zeros(count, dtype=int)
    # A one-direction product would take BLAS's matrix-vector kernel, whose
    # sums can differ in the last bit from the matrix-matrix kernel's, so the
    # passes split the grid evenly with at least two directions each.
    passes = -(-len(ms) // max(2, _CHUNK // count))
    bounds = [len(ms) * j // passes for j in range(passes + 1)]
    for i, end in zip(bounds, bounds[1:]):
        part = ms[i:end]
        values = _norms(_kraus_columns(part) @ wide, part, norm)
        top = np.argmax(values, axis=0)
        top_values = values[top, np.arange(count)]
        better = top_values > best
        best[better] = top_values[better]
        cell[better] = i + top[better]
    # One refinement pass at 10x resolution around each state's best cell,
    # its directions built pass by pass.
    dt = np.linspace(-math.pi / (g - 1), math.pi / (g - 1), 2 * REFINE_FACTOR + 1)
    dp = np.linspace(-math.pi / g, math.pi / g, 2 * REFINE_FACTOR + 1)
    per_pass = max(1, _CHUNK // len(dt) ** 2)
    for i in range(0, count, per_pass):
        here = cell[i : i + per_pass, None]
        _, _, ms_fine = _direction_batch(np.clip(tt[here] + dt, 0.0, math.pi), (pp[here] + dp) % (2.0 * math.pi))
        fine = _own_direction_values(terms[i : i + per_pass], ms_fine, norm)
        np.maximum(best[i : i + per_pass], fine.max(axis=1), out=best[i : i + per_pass])
    return best


def _brute_force(rho, norm: str, w: WeakStrength | None = None):
    if norm not in ("hs", "trace"):
        raise ValueError("norm must be 'hs' or 'trace'")
    rho = validate_state(rho)
    t1, t2 = (0.0, 1.0) if w is None else (w.t1, w.t2)

    def terms_of(states):
        terms = _kraus_terms(states, 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2)
        return _block_order(terms) if norm == "trace" else terms
    flat = rho.reshape(-1, 4, 4)
    ms, degenerate = _marginal_direction(flat)
    out = np.empty(len(flat))
    direct = ~degenerate
    if direct.any():
        out[direct] = _own_direction_values(terms_of(flat[direct]), ms[direct, None], norm)[:, 0]
    # The grid search takes the degenerate states _CHUNK // 2 at a time, each
    # slice with its own terms (about 10 KB a state).
    grid, half = np.flatnonzero(degenerate), max(1, _CHUNK // 2)
    for i in range(0, len(grid), half):
        out[grid[i : i + half]] = _grid_maximize(terms_of(flat[grid[i : i + half]]), norm)
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
