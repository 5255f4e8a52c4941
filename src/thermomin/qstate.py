"""Dense 2x2/4x4 complex matrix helpers for two-qubit states.

Basis convention, fixed everywhere in this package: the two-qubit
computational basis is ordered |11>, |10>, |01>, |00> with |1> the excited
atomic level, so index 0 is the doubly excited state and index 3 the joint
ground state. Subsystem a is the left tensor factor. Bloch components use
the standard unnormalized Pauli operators, x_i = Tr(rho (sigma_i x I)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_SLACK = -1e-10
_CERTIFY_SLICE = 256

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Pauli tensor basis for Bloch conversions, in the order of the Bloch
# components: sigma_i x I (x), I x sigma_i (y), sigma_i x sigma_j (C, row
# by row).
_PAULI_BASIS = np.array(
    [np.kron(s, ID2) for s in PAULIS]
    + [np.kron(ID2, s) for s in PAULIS]
    + [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
)
# Each operator P has exactly one nonzero entry P[j, i] in each column i,
# so Tr(rho P) is the sum over i of rho[i, j(i)] * P[j(i), i]. _bloch adds
# these four terms in the order i = 0..3 with elementwise operations, so
# every state of a stack gets bitwise the value it gets alone.
_BLOCH_COLS = np.argmax(_PAULI_BASIS != 0, axis=1)
_BLOCH_PHASES = np.take_along_axis(_PAULI_BASIS, _BLOCH_COLS[:, None, :], axis=1)[:, 0, :]


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOne(ValueError):
    """State trace differs from one beyond tolerance."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite slack."""


def _as_stack(m) -> np.ndarray:
    """A square matrix or a (..., k, k) stack of them, as a finite complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(-2, -1))
    _raise_first(~finite, ValueError, "matrix entries must all be finite", finite)
    return a


def _out(values: np.ndarray):
    """A Python float for a single matrix or state, the array itself for a stack."""
    return float(values) if values.ndim == 0 else values


def _raise_first(bad: np.ndarray, exc: type, message: str, values: np.ndarray):
    """Raise exc for the first flagged matrix of a stack; message formats its value.

    For a stack the message starts with the matrix's index, e.g. "state 3: ".
    """
    if not bad.any():
        return
    index = np.unravel_index(int(np.argmax(bad)), bad.shape)
    where = ""
    if index:
        where = f"state {index[0] if len(index) == 1 else tuple(int(i) for i in index)}: "
    raise exc(where + message.format(values[index]))


def _require_hermitian(a: np.ndarray, name: str):
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    message = f"|{name} - {name}^dag| = {{:.3e}} exceeds {HERMITICITY_TOL:.0e}"
    _raise_first(dev > HERMITICITY_TOL, NotHermitian, message, dev)


def _require_psd(lowest: np.ndarray):
    """NotPositive unless every smallest eigenvalue is within PSD_SLACK."""
    message = f"smallest eigenvalue {{:.3e}} below slack {PSD_SLACK:.0e}"
    _raise_first(lowest < PSD_SLACK, NotPositive, message, lowest)


def _psd_certified(h: np.ndarray, slack: float) -> bool:
    """True when Gershgorin discs put every eigenvalue of the Hermitian (..., 4, 4) stack h at or above
    slack: each row bound 2 Re h_ii - sum_j |h_ij| (which double-counts a negative diagonal) clears slack
    by 1e-12 max(1, largest row sum), more than its rounding plus eigvalsh's backward error (about
    100 eps |h|_2), so a certified stack passes the eigenvalue check too; a non-finite entry never
    certifies. Checked in slices of _CERTIFY_SLICE matrices (temporaries near 50 KB), with row sums by a
    matrix-vector product: numpy's own sum over 4 floats takes several times as long."""
    flat = h.reshape(-1, 4, 4)
    with np.errstate(all="ignore"):
        for i in range(0, len(flat), _CERTIFY_SLICE):
            part = flat[i : i + _CERTIFY_SLICE]
            rows = (np.abs(part).reshape(-1, 4) @ np.ones(4)).reshape(-1, 4)
            bound = 2.0 * np.diagonal(part, axis1=-2, axis2=-1).real - rows
            if not bound.min() >= slack + 1e-12 * max(1.0, rows.max()):
                return False
    return True


def validate_state(m) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of 4x4 density matrices.

    m is one 4x4 matrix or a (..., 4, 4) stack, checked in one pass; only a stack that Gershgorin
    discs cannot certify positive (_psd_certified; they certify every state of the paper's X family)
    takes a batched eigvalsh. Returns the input as a complex ndarray when all three invariants hold
    for every matrix, otherwise raises NotHermitian / TraceNotOne / NotPositive naming the size of
    the violation and, for a stack, the index of the first offending matrix.
    """
    rho = _as_stack(m)
    if rho.shape[-1] != 4:
        raise ValueError(f"expected 4x4 matrices, got {rho.shape[-1]}x{rho.shape[-1]}")
    _require_hermitian(rho, "rho")
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    message = f"|Tr(rho) - 1| = {{:.3e}} exceeds {TRACE_TOL:.0e}"
    _raise_first(trace_dev > TRACE_TOL, TraceNotOne, message, trace_dev)
    # Halving each term first keeps entries above half the float range finite.
    # Halving is exact for normal floats, so away from the subnormal range the
    # sum is the same float as halving (rho + rho^H).
    sym = 0.5 * rho + 0.5 * rho.conj().swapaxes(-1, -2)
    if not _psd_certified(sym, PSD_SLACK):
        _require_psd(np.linalg.eigvalsh(sym)[..., 0])
    return rho


def hermitian_eigensystem(m):
    """Eigenvalues and eigenvectors of a Hermitian matrix or a (..., k, k) stack.

    LAPACK's Hermitian solver (``np.linalg.eigh``) after a Hermiticity
    check, which raises NotHermitian beyond HERMITICITY_TOL; eigh itself
    reads only the lower triangle. Returns ``(evals, vecs)`` with
    eigenvalues sorted in descending order along the last axis and the
    matching orthonormal eigenvectors as columns.
    """
    a = _as_stack(m)
    _require_hermitian(a, "m")
    evals, vecs = np.linalg.eigh(a)
    return evals[..., ::-1], vecs[..., ::-1]


def psd_roots(evals: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of positive-semidefinite matrices.

    evals holds one spectrum along its last axis. Roundoff floor: an
    eigenvalue at or below len(spectrum) * eps * max|spectrum| (the cut
    numpy's ``matrix_rank`` uses) cannot be told apart from zero in double
    precision and counts as exactly zero. The square root would otherwise
    turn a roundoff of ~1e-17 into ~3e-9, e.g. in the zero eigenvalues of a
    rank-deficient state.
    """
    floor = evals.shape[-1] * np.finfo(float).eps * np.abs(evals).max(axis=-1, keepdims=True)
    return np.sqrt(np.where(evals > floor, evals, 0.0))


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix or a stack of them."""
    evals, vecs = hermitian_eigensystem(m)
    _require_psd(evals[..., -1])
    s = (vecs * psd_roots(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    s += s.conj().swapaxes(-1, -2)
    s *= 0.5
    return s


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Reduced 2x2 state of subsystem "a" (left factor) or "b" (right); (..., 2, 2) for a stack."""
    rho = validate_state(rho)
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if subsystem == "a":
        return np.einsum("...ikjk->...ij", r)
    if subsystem == "b":
        return np.einsum("...kikj->...ij", r)
    raise ValueError("subsystem must be 'a' or 'b'")


@dataclass(frozen=True, eq=False)
class BlochRep:
    """Bloch vectors of both subsystems and the 3x3 correlation matrix.

    For a stack of states the fields carry its leading axes: x and y are
    (..., 3), C is (..., 3, 3).
    """

    x: np.ndarray
    y: np.ndarray
    C: np.ndarray


def bloch_decompose(rho) -> BlochRep:
    """Pauli expectation values x_i, y_j, c_ij of a valid state or a (..., 4, 4) stack."""
    return _bloch(validate_state(rho))


def _bloch(rho: np.ndarray) -> BlochRep:
    """bloch_decompose without the validation, for callers that already did it."""
    # One term of each of the 15 sums at a time: the fancy index copies, so
    # the phases multiply that copy in place and rho is left as it was.
    v = rho[..., 0, _BLOCH_COLS[:, 0]]
    v *= _BLOCH_PHASES[:, 0]
    for i in range(1, 4):
        t = rho[..., i, _BLOCH_COLS[:, i]]
        t *= _BLOCH_PHASES[:, i]
        v += t
    v = v.real
    return BlochRep(x=v[..., 0:3], y=v[..., 3:6], C=v[..., 6:15].reshape(v.shape[:-1] + (3, 3)))


def bloch_compose(b: BlochRep) -> np.ndarray:
    """Rebuild a density matrix, or a (..., 4, 4) stack, from Bloch data; raises NotPositive for non-states."""
    v = np.concatenate([b.x, b.y, np.reshape(b.C, np.shape(b.C)[:-2] + (9,))], axis=-1)
    return validate_state((ID4 + np.tensordot(v, _PAULI_BASIS, axes=1)) / 4.0)


def hs_norm_sq(m):
    """Squared Hilbert-Schmidt norm, the sum of squared entry magnitudes; a
    float for one matrix, an array of the leading shape for a (..., k, k) stack."""
    f = np.ascontiguousarray(_as_stack(m)).view(float)
    return _out(np.einsum("...ij,...ij->...", f, f))


def trace_norm(m):
    """Trace norm, the sum of singular values; a float for one matrix, an
    array of the leading shape for a stack."""
    return _out(np.linalg.svd(_as_stack(m), compute_uv=False).sum(axis=-1))
