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
``_trace_weights``, ``_trace_norms`` and ``_block_order``). So the oracle takes no matrix
spectrum and shares no solver with ``measures``: explicit post-measurement
states, entrywise norms and a direct maximization here, closed formulas on
the Bloch data with LAPACK singular values and eigenvalues there.

Measurements that preserve the marginal of subsystem a: when it is
non-degenerate only the one along its Bloch vector x qualifies and the
value is computed directly; when it is degenerate, |x| < MARGINAL_EPS as
in ``measures``, every direction qualifies and a theta/phi grid search
with one local refinement pass takes over. Measuring along m and along -m
is the same measurement, so the coarse grid covers the upper hemisphere
only. Its direction columns and trace-norm weights depend on the grid
alone and are built once per process (see ``_coarse_grid``); the
refinement forms those of its directions in each pass. A screen, the
disturbance's 2x2 block taken straight from the state, picks the few
coarse cells that can hold each state's best value, and only those take
the Kraus route, in products of that state's own terms (see
``_grid_maximize``); every value returned is still a Kraus-route value.

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
# Coarse cells per Kraus product of one state, and (direction, state) pairs
# per refinement pass, of a grid search. A product's disturbances take
# 256 KB at 1000 rows and its trace-norm temporaries about as much again.
# A state's value does not depend on the product it is computed in.
_CHUNK = 1000
# A state's coarse cell takes the Kraus route when its screen value lies
# within _SCREEN_MARGIN max(1, top) of that state's top (see _grid_maximize).
# A screen slice holds at most _SCREEN_PAIRS (direction, state) pairs and
# _SCREEN_PAIRS // 10 directions: at 10 states, 1,000 to 2,000 directions a
# slice measured fastest, and the whole grid at once slower.
_SCREEN_MARGIN = 1e-9
_SCREEN_PAIRS = 10_000

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
    needs the grid search. A degenerate state's row is x itself."""
    marg = np.einsum("...ikjk->...ij", rho.reshape(-1, 2, 2, 2, 2))
    x = np.einsum("...ij,kji->...k", marg, PAULIS).real
    # |x| as one dot product per row, the same float for every stack size.
    norm = np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    degenerate = norm[:, 0] < MARGINAL_EPS
    return x / np.where(degenerate[:, None], 1.0, norm), degenerate


def _direction_batch(thetas, phis):
    """Unit directions for every (theta, phi) pair, theta-major so that argmax
    tie-breaking picks the lexicographically smallest pair. Leading axes pair
    up: (S, kt) thetas and (S, kp) phis give S grids of kt kp directions, of
    shape (S, kt kp, 3)."""
    tt, pp = np.broadcast_arrays(thetas[..., :, None], phis[..., None, :])
    tt = tt.reshape(tt.shape[:-2] + (-1,))
    pp = pp.reshape(pp.shape[:-2] + (-1,))
    st = np.sin(tt)
    return np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=-1)


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


def _trace_weights(ms) -> np.ndarray:
    """The (k, 1, 4) weights that ``_trace_norms`` applies to the 2x2 blocks of
    disturbances measured along the unit directions ms (k, 3).

    D = rho - Omega(rho) = 2 b^2 (rho - S rho S) with S = (m.sigma) x I and
    S^2 = I, so S D S = -D. In the eigenbasis u+, u- of m.sigma, D is then
    [[0, B], [B^+, 0]] with the 2x2 block B = (<u+| x I) D (|u-> x I).
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
    return 0.5 * np.stack([-wbar, c, -wbar * wbar / c, wbar], axis=1).reshape(len(ms), 1, 4)


def _trace_norms(blocks, weights) -> np.ndarray:
    """|D|_1 of each disturbance D along k directions with the (k, 1, 4)
    ``_trace_weights``, without an eigensolve.

    blocks holds D in 2x2 block order, (k, 4, 4 S) for S states measured
    along the same k directions: row aa' of direction j holds D_(ab),(a'b')
    of each state in turn, over bb'. The result has the shape (k, S). Each
    direction's weights give the block B of all S states in one
    (1, 4) @ (4, 4 S) product; the eigenvalues of D are +-s1, +-s2, the
    singular values of B, so |D|_1 = 2 (s1 + s2) = 2 sqrt(|B|_F^2 + 2 |det B|).
    """
    b = (weights @ blocks).reshape(len(weights), -1, 4)
    det = b[..., 0] * b[..., 3] - b[..., 1] * b[..., 2]
    fro = np.einsum("...j,...j->...", b.view(float), b.view(float))
    return 2.0 * np.sqrt(fro + 2.0 * np.abs(det))


def _norms(product, norm: str, weights=None) -> np.ndarray:
    """Disturbance norms of S states along k directions, as (k, S), from the
    real (k, 32 S) product of the directions' columns with the states' terms:
    |D|_2^2, the sum of squares of each state's 32 floats in natural order,
    or |D|_1 from the (k, 4, 4 S) blocks of block-ordered terms and the
    directions' (k, 1, 4) ``_trace_weights``."""
    if norm == "hs":
        floats = product.reshape(len(product), -1, 32)
        return np.einsum("...j,...j->...", floats, floats)
    return _trace_norms(product.view(complex).reshape(len(product), 4, -1), weights)


def _own_direction_values(terms, ms, norm: str) -> np.ndarray:
    """Disturbance norms of the S states with (S, 10, 32) terms, each along its
    own k directions ms (S, k, 3): one batched (S, k, 10) @ (S, 10, 32) product,
    with the columns and weights formed for these directions."""
    flat = ms.reshape(-1, 3)
    cols = _kraus_columns(flat).reshape(ms.shape[:-1] + (10,))
    weights = _trace_weights(flat) if norm == "trace" else None
    return _norms((cols @ terms).reshape(-1, 32), norm, weights).reshape(ms.shape[:-1])


def _search_grid(thetas, phis):
    """The theta/phi grid that the coarse passes read, kept read-only: its
    thetas (kt,) and phis (kp,), whose cell j is (thetas[j // kp], phis[j % kp]),
    and the (kt kp, 10) Kraus columns and (kt kp, 1, 4) trace-norm weights of
    its theta-major directions."""
    cols = np.empty((len(thetas) * len(phis), 10))
    weights = np.empty((len(cols), 1, 4), dtype=complex)
    # Built a few theta rows at a time, so that the directions and their
    # temporaries stay small beside the grid.
    rows = max(1, _CHUNK // len(phis))
    for i in range(0, len(thetas), rows):
        ms = _direction_batch(thetas[i : i + rows], phis)
        cells = slice(i * len(phis), i * len(phis) + len(ms))
        cols[cells] = _kraus_columns(ms)
        weights[cells] = _trace_weights(ms)
    grid = (thetas, phis, cols, weights)
    for a in grid:
        a.flags.writeable = False
    return grid


@functools.cache
def _coarse_grid():
    """The grid of every coarse search: the upper-hemisphere half of the
    GRID_RESOLUTION x 2 GRID_RESOLUTION theta/phi grid, as ``_search_grid``,
    built on first use. Its columns and weights take about 1.4 MB.

    Cell (i, j) of the full grid has the antipode (g-1-i, (j+g) mod 2g), equal
    to -m to within 7.8e-16, so the full grid is closed under antipodes. The
    direction columns m_k m_l are the same floats for m and -m, and
    ``_trace_weights`` takes its eigenvectors from n = s m, so a search value
    at -m equals the one at m bit for bit (no grid direction has m_z = 0,
    where s would not flip): the theta indices g//2 ... g-1 only repeat the
    first g//2. The theta = 0 pole stays in, so theta-major argmax
    tie-breaking is unchanged.
    """
    g = GRID_RESOLUTION
    return _search_grid(np.linspace(0.0, math.pi, g)[: g // 2], np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False))


def _screen_coefficients(scaled):
    """The (S, 10) and (S, 5) coefficients of ``_screen`` for the (S, 4, 4)
    states X = (c_rho - c_s) rho, with sigma_k standing for sigma_k x I.

    2 |B|_F^2 = |X|^2 / 2 - sum_kl m_k m_l Tr(sigma_k X sigma_l X) / 2 is
    linear in the Kraus columns [1, m_k m_l]. With the 2x2 blocks R_i of X,
    i = aa', B = sum_i w_i R_i, so det B sums
    w_i w_j (R_i[0, 0] R_j[1, 1] - R_i[0, 1] R_j[1, 0]). The
    ``_trace_weights`` are w = (c/2) (-z, 1, -z^2, z) with z = (n_x - i n_y) / c,
    so each w_i w_j is +-(c/2)^2 z^n, n = 0 .. 4: the 16 terms fold into 5.
    """
    count = len(scaled)
    fro = np.empty((count, 10))
    flat = scaled.reshape(count, 16).view(float)
    fro[:, 0] = 0.5 * np.einsum("sj,sj->s", flat, flat)
    lifted = _LIFTED_PAULIS @ scaled[:, None]
    fro[:, 1:] = -0.5 * np.einsum("skij,slji->skl", lifted, lifted).real.reshape(count, 9)
    r = scaled.reshape(count, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(count, 4, 4)
    det = r[:, :, None, 0] * r[:, None, :, 3] - r[:, :, None, 1] * r[:, None, :, 2]
    power, sign = np.array([1, 0, 2, 1]), np.array([-1.0, 1.0, -1.0, 1.0])
    fold = np.zeros((4, 4, 5))
    fold[np.arange(4)[:, None], np.arange(4), power[:, None] + power] = sign[:, None] * sign
    return fro, det.reshape(count, 16) @ fold.reshape(16, 5)


def _screen(cols, weights, coefs, norm: str) -> np.ndarray:
    """The (S, k) screen values of the S states with ``_screen_coefficients``
    coefs along k directions with (k, 10) Kraus columns and (k, 4) trace
    weights: 2 |B|_F^2, or 2 sqrt(|B|_F^2 + 2 |det B|) as in ``_trace_norms``,
    from forms in the directions, so that no (direction, state) pair forms B."""
    fro_coef, det_coef = coefs
    fro = fro_coef @ cols.T
    if norm == "hs":
        return fro
    # (c/2)^2 z^n from w_1 = c/2 and w_3 / w_1 = z.
    powers = np.empty((5, len(weights)), dtype=complex)
    powers[0] = weights[:, 1] ** 2
    powers[1:] = weights[:, 3] / weights[:, 1]
    det = np.abs(det_coef @ np.multiply.accumulate(powers, out=powers))
    # sqrt(2 (fro + 4 |det B|)) in place; fro can round below zero where D vanishes.
    det *= 4.0
    det += fro
    det *= 2.0
    np.maximum(det, 0.0, out=det)
    return np.sqrt(det, out=det)


def _grid_maximize(terms, norm: str, scaled) -> np.ndarray:
    """Largest disturbance norm of each of the S states with (S, 10, 32) terms
    over a theta/phi grid plus one refinement pass around its best cell.

    Every value is a Kraus-route value; a screen picks the coarse cells that
    take that route. D = c_rho rho + c_s S rho S with c_s = -c_rho and
    S = (m.sigma) x I holds only the block B = (<u+| x I) X (|u-> x I) of
    the (S, 4, 4) states scaled = X = (c_rho - c_s) rho (see
    ``_trace_weights``), and ``_screen`` takes its norm straight from X. A
    cell takes the Kraus route for a state, with that state's own terms,
    only when its screen value lies within _SCREEN_MARGIN max(1, top) of
    the state's top screen value. On seeded states the screen stays within
    3e-15 of the Kraus value at every cell, so every other cell's Kraus
    value lies below the best, and the best value and cell (the first on
    ties, as one argmax over the whole grid would keep) are those of the
    full search.

    A state takes every cell but the pole's repeats through the Kraus route
    when one of its screen values strays from its Kraus value by more than
    half the margin, so a screen that strays near a top costs time, not a
    value. So does a flat state, whose disturbance (nearly) vanishes, such
    as a product state I/2 x tau: three times the sphere mean of its hs
    screen, which bounds that screen at every direction, is at most
    _SCREEN_MARGIN. Every cell then lies within the margin of its top, and
    the trace screen's square root amplifies its rounding past half the
    margin.

    The refinement's 441 directions per state all take the Kraus route:
    building their directions, columns and weights costs more than their
    norms, and screening them measured slower.
    """
    count = len(terms)
    g = GRID_RESOLUTION
    thetas, phis, cols, weights = _coarse_grid()
    fro, det = _screen_coefficients(scaled)
    # Columns 1, 5 and 9 take m_x^2, m_y^2 and m_z^2, whose sphere means are 1/3.
    flat = 3.0 * fro[:, 0] + fro[:, 1] + fro[:, 5] + fro[:, 9] <= _SCREEN_MARGIN
    # At theta = 0, cells 1 .. len(phis) - 1 repeat the pole of cell 0, value
    # for value, and the first cell wins ties: only cell 0 of them is searched.
    repeats = len(phis) if thetas[0] == 0.0 else 1
    # The (state, cell) pairs near each state's running top, as keys
    # state * len(cols) + cell, and their screen values, slice by slice.
    keys, pair_screen = [], []
    top = np.full(count, -np.inf)
    slices = -(-len(cols) // max(2, min(_SCREEN_PAIRS // 10, _SCREEN_PAIRS // count)))
    bounds = [len(cols) * j // slices for j in range(slices + 1)]
    for i, end in zip(bounds, bounds[1:]):
        screen = _screen(cols[i:end], weights[i:end, 0], (fro, det), norm)
        np.maximum(top, screen.max(axis=1), out=top)
        # The pole's repeats, masked in the screen itself: a (S, k) mask kept
        # alive into the next slice raised validate's peak RSS by about 0.2 MB.
        screen[:, max(1, i) - i : max(repeats, i) - i] = -np.inf
        # Flat states keep no cells here.
        floor = np.where(flat, np.inf, top - _SCREEN_MARGIN * np.maximum(1.0, top))
        found = np.flatnonzero(screen >= floor[:, None])
        state, c = np.divmod(found, end - i)
        keys.append(state * len(cols) + i + c)
        pair_screen.append(screen.take(found))
    pair_state, pair_cell = np.divmod(np.concatenate(keys), len(cols))
    pair_screen = np.concatenate(pair_screen)
    # Drop the pairs below the margin of their state's final top.
    near = pair_screen >= floor[pair_state]
    slack = 0.5 * _SCREEN_MARGIN * np.maximum(1.0, top)
    best = np.empty(count)
    cell = np.empty(count, dtype=int)
    for k in range(count):
        mine = near & (pair_state == k)
        # Rebinding screen frees the last slice's screen before the refinement.
        cells, screen = pair_cell[mine], pair_screen[mine]
        values = None if flat[k] else _cell_values(terms[k], cells, norm)
        if values is None or np.abs(values - screen).max() > slack[k]:
            cells = np.r_[0, repeats : len(cols)]
            values = _cell_values(terms[k], cells, norm)
        j = values.argmax()
        best[k], cell[k] = values[j], cells[j]
    # One refinement pass at 10x resolution around each state's best cell,
    # its directions, columns and weights built pass by pass.
    dt = np.linspace(-math.pi / (g - 1), math.pi / (g - 1), 2 * REFINE_FACTOR + 1)
    dp = np.linspace(-math.pi / g, math.pi / g, 2 * REFINE_FACTOR + 1)
    per_pass = max(1, _CHUNK // len(dt) ** 2)
    for i in range(0, count, per_pass):
        row, col = np.divmod(cell[i : i + per_pass, None], len(phis))
        ms_fine = _direction_batch(np.clip(thetas[row] + dt, 0.0, math.pi), (phis[col] + dp) % (2.0 * math.pi))
        fine = _own_direction_values(terms[i : i + per_pass], ms_fine, norm)
        np.maximum(best[i : i + per_pass], fine.max(axis=1), out=best[i : i + per_pass])
    return best


def _cell_values(terms, cells, norm: str) -> np.ndarray:
    """Kraus-route disturbance norms, (k,), of one state with (10, 32) terms
    at k >= 1 coarse cells, in products of at most _CHUNK cells. Each
    product takes at least two rows: a one-row product would take BLAS's
    matrix-vector kernel, whose sums can differ in the last bit from the
    matrix-matrix kernel's."""
    _, _, cols, weights = _coarse_grid()
    rows = np.repeat(cells, 2) if len(cells) == 1 else cells
    parts = min(-(-len(rows) // _CHUNK), len(rows) // 2)
    values = np.empty((len(rows), 1))
    for j in range(parts):
        part = slice(len(rows) * j // parts, len(rows) * (j + 1) // parts)
        values[part] = _norms(cols[rows[part]] @ terms, norm, weights[rows[part]])
    return values[: len(cells), 0]


def _brute_force(rho, norm: str, w: WeakStrength | None = None):
    if norm not in ("hs", "trace"):
        raise ValueError("norm must be 'hs' or 'trace'")
    rho = validate_state(rho)
    t1, t2 = (0.0, 1.0) if w is None else (w.t1, w.t2)
    c_rho, c_s = 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2

    def terms_of(states):
        terms = _kraus_terms(states, c_rho, c_s)
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
        states = flat[grid[i : i + half]]
        out[grid[i : i + half]] = _grid_maximize(terms_of(states), norm, (c_rho - c_s) * states)
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
