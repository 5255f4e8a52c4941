import warnings

import numpy as np
import pytest

from thermomin import (
    BlochRep,
    ModelParams,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    analytic_state_at,
    bloch_compose,
    bloch_decompose,
    hermitian_eigensystem,
    hs_norm_sq,
    matrix_sqrt_psd,
    partial_trace,
    trace_norm,
    validate_state,
)
from thermomin.dynamics import INTEGRATOR_PSD_SLACK
from thermomin.qstate import _CERTIFY_SLICE, PSD_SLACK, _psd_certified

from _helpers import bell_phi_plus, ginibre_state, partial_trace_direct, random_hermitian


class TestValidateState:
    def test_maximally_mixed_is_valid(self):
        rho = validate_state(np.eye(4) / 4.0)
        assert rho.shape == (4, 4)

    def test_pure_projector_is_valid(self):
        validate_state(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.0, 0.0, 0.0, -0.001]) / 0.999
        with pytest.raises(NotPositive):
            validate_state(m)

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            validate_state(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_state(np.eye(4) / 2.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            validate_state(np.eye(2) / 2.0)

    def test_nan_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            validate_state(m)


def x_form(rng):
    """Hermitian matrix of the paper's X family: diagonal (a, b, b, d) and the
    coherence h_23 = conj(h_32), real or complex; its smallest eigenvalue is
    min(a, d, b - |h_23|), which Gershgorin's discs give exactly."""
    a, b, d = rng.random(3)
    m = np.diag([a, b, b, d]).astype(complex)
    m[1, 2] = b * rng.random() * (1.0 if rng.random() < 0.5 else np.exp(2j * np.pi * rng.random()))
    m[2, 1] = np.conj(m[1, 2])
    return m


def general_form(rng):
    """x_form plus a general Hermitian matrix of scale 1, 1e-6, 1e-12 or 1e-14:
    every entry is nonzero, and at the smaller scales the discs' bound sits
    near the smallest eigenvalue."""
    return x_form(rng) + (1.0, 1e-6, 1e-12, 1e-14)[rng.integers(4)] * random_hermitian(rng, 4)


def with_lowest(h, target):
    """target I + s (h - lambda_min I), with s > 0 setting the trace to 1: a
    matrix whose smallest eigenvalue is target up to rounding."""
    lowest = np.linalg.eigvalsh(h)[0]
    s = (1.0 - 4.0 * target) / (np.trace(h).real - 4.0 * lowest)
    return target * np.eye(4) + s * (h - lowest * np.eye(4))


def near_slack(form, slack, seed, count=60):
    """count seeded matrices of form for each lambda_min = slack (1 +- delta);
    delta = 1 puts it at 0 and at twice the slack."""
    rng = np.random.default_rng(seed)
    return [
        with_lowest(form(rng), slack * (1.0 + sign * delta))
        for _ in range(count)
        for delta in (0.0, 1e-3, 1e-6, 1e-9, 1.0)
        for sign in (1.0, -1.0)
    ]


def eigen_verdict(m):
    """validate_state's positivity verdict by an eigen-solve alone: None, or the NotPositive message."""
    lowest = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))[..., 0].reshape(-1)
    bad = np.flatnonzero(lowest < PSD_SLACK)
    if not len(bad):
        return None
    where = f"state {bad[0]}: " if m.ndim == 3 else ""
    return where + f"smallest eigenvalue {lowest[bad[0]]:.3e} below slack {PSD_SLACK:.0e}"


def verdict(m):
    try:
        validate_state(m)
    except NotPositive as exc:
        return str(exc)
    return None


class TestPositivityCertificate:
    @pytest.mark.parametrize("slack", [PSD_SLACK, INTEGRATOR_PSD_SLACK])
    @pytest.mark.parametrize("form", [x_form, general_form])
    def test_a_certified_matrix_passes_the_eigenvalue_check(self, form, slack):
        matrices = near_slack(form, slack, seed=81)
        certified = [m for m in matrices if _psd_certified(m, slack)]
        assert all(np.linalg.eigvalsh(m)[0] >= slack for m in certified)
        # Both sides of the certificate are reached near the slack.
        assert 0 < len(certified) < len(matrices)
        assert _psd_certified(np.array(certified), slack)
        assert not _psd_certified(np.array(matrices), slack)

    @pytest.mark.parametrize("form", [x_form, general_form])
    def test_validate_state_gives_the_eigen_solve_verdict(self, form):
        matrices = near_slack(form, PSD_SLACK, seed=82)
        assert {eigen_verdict(m) is None for m in matrices} == {True, False}
        for m in matrices:
            assert verdict(m) == eigen_verdict(m)
        stack = np.array(matrices)
        assert verdict(stack) == eigen_verdict(stack)
        assert verdict(stack[::-1]) == eigen_verdict(stack[::-1])

    def test_off_diagonal_row_sums_count(self):
        # An X state whose coherence exceeds its populations by 1e-6 has the
        # eigenvalue -1e-6; the diagonal alone would certify it.
        m = np.diag([0.3, 0.25, 0.25, 0.2]).astype(complex)
        m[1, 2] = m[2, 1] = 0.25 + 1e-6
        for slack in (PSD_SLACK, INTEGRATOR_PSD_SLACK):
            assert not _psd_certified(m, slack)
        with pytest.raises(NotPositive, match="^smallest eigenvalue -1.000e-06 below slack -1e-10$"):
            validate_state(m)

    def test_row_sums_that_overflow_fall_back_to_the_eigen_solve(self):
        # Each entry and the symmetrization stay finite; row 0's sum does not.
        m = np.diag([0.25] * 4).astype(complex)
        m[0, 1:] = m[1:, 0] = 7e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _psd_certified(m, PSD_SLACK)
            with pytest.raises(NotPositive, match=r"^smallest eigenvalue -1\.212e\+308 below slack -1e-10$"):
                validate_state(m)

    def test_one_bad_matrix_in_a_later_slice_is_found(self):
        stack = np.repeat((np.eye(4) / 4.0)[None], 2 * _CERTIFY_SLICE + 3, axis=0).astype(complex)
        assert _psd_certified(stack, PSD_SLACK)
        stack[_CERTIFY_SLICE + 7, 0, 0] = np.nan
        assert not _psd_certified(stack, PSD_SLACK)
        stack[_CERTIFY_SLICE + 7, 0, 0] = 0.25
        stack[_CERTIFY_SLICE + 7, 0, 3] = stack[_CERTIFY_SLICE + 7, 3, 0] = 0.25 + 1e-6
        assert not _psd_certified(stack, INTEGRATOR_PSD_SLACK)
        with pytest.raises(NotPositive, match=f"^state {_CERTIFY_SLICE + 7}: smallest eigenvalue"):
            validate_state(stack)


class TestHermitianEigensystem:
    def test_identity(self):
        evals, _ = hermitian_eigensystem(np.eye(4, dtype=complex))
        np.testing.assert_allclose(evals, [1, 1, 1, 1])

    def test_diagonal_sorted_descending(self):
        evals, vecs = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        np.testing.assert_allclose(evals, [3, 2, 1, 0])
        # eigenvectors follow the sorting permutation
        recon = (vecs * evals) @ vecs.conj().T
        np.testing.assert_allclose(recon, np.diag([3.0, 1.0, 2.0, 0.0]), atol=1e-12)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            evals, vecs = hermitian_eigensystem(h)
            worst = max(worst, np.max(np.abs((vecs * evals) @ vecs.conj().T - h)))
            worst = max(worst, np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))))
            for k in range(dim):
                worst = max(worst, np.max(np.abs(h @ vecs[:, k] - evals[k] * vecs[:, k])))
            assert np.all(np.diff(evals) <= 1e-14)
        assert worst <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4, dtype=complex)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        root = matrix_sqrt_psd(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex))
        np.testing.assert_allclose(root, np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-12)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = g @ g.conj().T
            root = matrix_sqrt_psd(p)
            assert np.max(np.abs(root @ root - p)) <= 1e-10 * max(1.0, np.max(np.abs(p)))
            assert np.max(np.abs(root - root.conj().T)) <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositive):
            matrix_sqrt_psd(np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex))


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rho_a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
        rho_b = np.array([[0.4, -0.1j], [0.1j, 0.6]], dtype=complex)
        rho = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(rho, "a"), rho_a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(rho, "b"), rho_b, atol=1e-13)

    def test_bell_marginals_maximally_mixed(self):
        rho = bell_phi_plus()
        np.testing.assert_allclose(partial_trace(rho, "a"), np.eye(2) / 2.0, atol=1e-13)
        np.testing.assert_allclose(partial_trace(rho, "b"), np.eye(2) / 2.0, atol=1e-13)

    def test_trajectory_marginal_matches_direct_summation(self):
        rho = analytic_state_at(ModelParams(n=1.0, r=1.0), 1.0)
        for sub in ("a", "b"):
            red = partial_trace(rho, sub)
            np.testing.assert_allclose(red, partial_trace_direct(rho, sub), atol=1e-14)
            # X structure leaves the marginals diagonal
            assert abs(red[0, 1]) <= 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = ginibre_state(rng)
            for sub in ("a", "b"):
                assert abs(np.trace(partial_trace(rho, sub)) - 1.0) <= 1e-12

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4.0, "c")


class TestBloch:
    def test_maximally_mixed(self):
        b = bloch_decompose(np.eye(4) / 4.0)
        np.testing.assert_allclose(b.x, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.y, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.C, 0.0, atol=1e-14)

    def test_bell_state_correlations(self):
        b = bloch_decompose(bell_phi_plus())
        np.testing.assert_allclose(b.x, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.y, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.C, np.diag([1.0, 1.0, -1.0]), atol=1e-14)

    def test_trajectory_bloch_structure(self):
        rho = analytic_state_at(ModelParams(n=0.5, r=0.8), 0.7)
        d = rho.real.diagonal()
        b = bloch_decompose(rho)
        expected_z = d[0] + d[1] - d[2] - d[3]
        np.testing.assert_allclose(b.x, [0.0, 0.0, expected_z], atol=1e-14)
        np.testing.assert_allclose(b.y, [0.0, 0.0, d[0] - d[1] + d[2] - d[3]], atol=1e-14)
        r23 = rho[1, 2].real
        expected_c = np.diag([2.0 * r23, 2.0 * r23, d[0] - d[1] - d[2] + d[3]])
        np.testing.assert_allclose(b.C, expected_c, atol=1e-14)

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(1000):
            rho = ginibre_state(rng)
            b = bloch_decompose(rho)
            back = bloch_compose(b)
            worst = max(worst, np.max(np.abs(back - rho)))
            b2 = bloch_decompose(back)
            worst = max(worst, np.max(np.abs(b2.x - b.x)))
            worst = max(worst, np.max(np.abs(b2.y - b.y)))
            worst = max(worst, np.max(np.abs(b2.C - b.C)))
        assert worst <= 1e-12

    def test_valid_state_bounds(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            b = bloch_decompose(ginibre_state(rng))
            assert np.linalg.norm(b.x) <= 1.0 + 1e-12
            assert np.linalg.norm(b.y) <= 1.0 + 1e-12
            assert np.max(np.abs(b.C)) <= 1.0 + 1e-12

    def test_decompose_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(16)
        stack = np.array([ginibre_state(rng) for _ in range(5)])
        for rho in (stack, stack[2]):
            before = rho.tobytes()
            bloch_decompose(rho)
            assert rho.tobytes() == before

    def test_compose_rejects_non_state(self):
        bad = BlochRep(x=np.zeros(3), y=np.zeros(3), C=np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(NotPositive):
            bloch_compose(bad)


class TestNorms:
    def test_identity(self):
        assert hs_norm_sq(np.eye(4, dtype=complex)) == pytest.approx(4.0, abs=1e-14)
        assert trace_norm(np.eye(4, dtype=complex)) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        z = np.zeros((4, 4), dtype=complex)
        assert hs_norm_sq(z) == 0.0
        assert trace_norm(z) == 0.0

    def test_diagonal(self):
        m = np.diag([1.0, -2.0, 0.0, 0.0]).astype(complex)
        assert hs_norm_sq(m) == pytest.approx(5.0, abs=1e-14)
        assert trace_norm(m) == pytest.approx(3.0, abs=1e-12)

    def test_trace_norm_dominates_hs(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            h = random_hermitian(rng, 4)
            assert trace_norm(h) >= np.sqrt(hs_norm_sq(h)) - 1e-12

    def test_rank_one_equality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            m = 1.7 * np.outer(v, v.conj())
            assert trace_norm(m) == pytest.approx(np.sqrt(hs_norm_sq(m)), abs=1e-10)

    @pytest.mark.parametrize("shape", [(7, 4, 4), (2, 3, 4, 4), (5, 2, 2), (1, 3, 3)], ids=str)
    def test_stack_matches_single_matrices_bitwise(self, shape):
        rng = np.random.default_rng(19)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for norm in (hs_norm_sq, trace_norm):
            values = norm(stack)
            assert isinstance(values, np.ndarray) and values.shape == shape[:-2]
            singles = [norm(m) for m in stack.reshape((-1,) + shape[-2:])]
            assert all(type(v) is float for v in singles)
            assert values.reshape(-1).tolist() == singles

    def test_hs_norm_of_a_strided_view(self):
        m = np.random.default_rng(20).normal(size=(4, 8)) + 0j
        assert hs_norm_sq(m[:, ::2]) == pytest.approx(float(np.sum(np.abs(m[:, ::2]) ** 2)), rel=1e-15)

    def test_non_hermitian_singular_values(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            expected = np.linalg.svd(m, compute_uv=False).sum()
            assert trace_norm(m) == pytest.approx(expected, abs=1e-10)
