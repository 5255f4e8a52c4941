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

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Pauli tensor basis, precomputed once for Bloch conversions.
_PAULI_A = [np.kron(s, ID2) for s in PAULIS]
_PAULI_B = [np.kron(ID2, s) for s in PAULIS]
_PAULI_AB = [[np.kron(si, sj) for sj in PAULIS] for si in PAULIS]


class NotHermitian(ValueError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOne(ValueError):
    """State trace differs from one beyond tolerance."""


class NotPositive(ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite slack."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    return a


def _require_hermitian(a: np.ndarray, name: str):
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"|{name} - {name}^dag| = {dev:.3e} exceeds {HERMITICITY_TOL:.0e}")


def validate_state(m) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix.

    Returns the matrix (as a complex ndarray) when all three invariants
    hold, otherwise raises NotHermitian / TraceNotOne / NotPositive naming
    the size of the violation.
    """
    rho = _as_matrix(m)
    if rho.shape[0] != 4:
        raise ValueError(f"expected a 4x4 matrix, got {rho.shape[0]}x{rho.shape[0]}")
    _require_hermitian(rho, "rho")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if trace_dev > TRACE_TOL:
        raise TraceNotOne(f"|Tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    evals, _ = hermitian_eigensystem(0.5 * (rho + rho.conj().T))
    if evals[-1] < PSD_SLACK:
        raise NotPositive(f"smallest eigenvalue {evals[-1]:.3e} below slack {PSD_SLACK:.0e}")
    return rho


def hermitian_eigensystem(m):
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    LAPACK's Hermitian solver (``np.linalg.eigh``) after a Hermiticity
    check, which raises NotHermitian beyond HERMITICITY_TOL; eigh itself
    reads only the lower triangle. Returns ``(evals, vecs)`` with
    eigenvalues sorted in descending order and the matching orthonormal
    eigenvectors as columns.
    """
    a = _as_matrix(m)
    _require_hermitian(a, "m")
    evals, vecs = np.linalg.eigh(a)
    return evals[::-1], vecs[:, ::-1]


def psd_roots(evals: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of a positive-semidefinite matrix.

    Roundoff floor: an eigenvalue at or below len(evals) * eps * max|evals|
    (the cut numpy's ``matrix_rank`` uses) cannot be told apart from zero
    in double precision and counts as exactly zero. The square root would
    otherwise turn a roundoff of ~1e-17 into ~3e-9, e.g. in the zero
    eigenvalues of a rank-deficient state.
    """
    floor = len(evals) * np.finfo(float).eps * float(np.max(np.abs(evals)))
    return np.sqrt(np.where(evals > floor, evals, 0.0))


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix."""
    evals, vecs = hermitian_eigensystem(m)
    if evals[-1] < PSD_SLACK:
        raise NotPositive(f"smallest eigenvalue {evals[-1]:.3e} below slack {PSD_SLACK:.0e}")
    s = (vecs * psd_roots(evals)) @ vecs.conj().T
    return 0.5 * (s + s.conj().T)


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Reduced 2x2 state of subsystem "a" (left factor) or "b" (right)."""
    rho = validate_state(rho)
    r = rho.reshape(2, 2, 2, 2)
    if subsystem == "a":
        return np.einsum("ikjk->ij", r)
    if subsystem == "b":
        return np.einsum("kikj->ij", r)
    raise ValueError("subsystem must be 'a' or 'b'")


@dataclass(frozen=True, eq=False)
class BlochRep:
    """Bloch vectors of both subsystems and the 3x3 correlation matrix."""

    x: np.ndarray
    y: np.ndarray
    C: np.ndarray


def bloch_decompose(rho) -> BlochRep:
    """Pauli expectation values of a valid state: x_i, y_j, c_ij."""
    return _bloch(validate_state(rho))


def _bloch(rho: np.ndarray) -> BlochRep:
    """bloch_decompose without the validation, for callers that already did it."""
    x = np.array([np.einsum("ij,ji->", rho, p).real for p in _PAULI_A])
    y = np.array([np.einsum("ij,ji->", rho, p).real for p in _PAULI_B])
    C = np.array(
        [[np.einsum("ij,ji->", rho, _PAULI_AB[i][j]).real for j in range(3)] for i in range(3)]
    )
    return BlochRep(x=x, y=y, C=C)


def bloch_compose(b: BlochRep) -> np.ndarray:
    """Rebuild a density matrix from Bloch data; raises NotPositive for non-states."""
    rho = ID4.copy()
    for i in range(3):
        rho += b.x[i] * _PAULI_A[i]
        rho += b.y[i] * _PAULI_B[i]
        for j in range(3):
            rho += b.C[i, j] * _PAULI_AB[i][j]
    return validate_state(rho / 4.0)


def hs_norm_sq(m) -> float:
    """Squared Hilbert-Schmidt norm, the sum of squared entry magnitudes."""
    a = _as_matrix(m)
    return float(np.vdot(a, a).real)


def trace_norm(m) -> float:
    """Trace norm, the sum of singular values."""
    return float(np.linalg.svd(_as_matrix(m), compute_uv=False).sum())
