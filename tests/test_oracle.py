import math
import tracemalloc

import numpy as np
import pytest

from thermomin import (
    MeasurementDirection,
    ModelParams,
    WeakStrength,
    analytic_state_at,
    brute_force_hs_min,
    brute_force_trace_min,
    brute_force_weak_min,
    direction_from_vector,
    hs_min,
    hs_norm_sq,
    partial_trace,
    projective_post_state,
    trace_min,
    trace_norm,
    weak_post_state,
)
from thermomin import oracle
from thermomin.cli import _trajectory_direct_samples
from thermomin.measures import MARGINAL_EPS
from thermomin.oracle import _kraus_columns, _kraus_terms, _marginal_direction, _post_states

from _helpers import ID2, SX, SY, SZ, bell_diagonal_state, bell_phi_plus, ginibre_state, random_qubit_unitary


class TestMeasurementDirection:
    def test_projectors_are_orthogonal_resolution(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d = direction_from_vector(rng.normal(size=3))
            p1, p2 = d.projectors()
            assert np.max(np.abs(p1 + p2 - np.eye(2))) <= 1e-14
            assert np.max(np.abs(p1 @ p1 - p1)) <= 1e-14
            assert np.max(np.abs(p1 @ p2)) <= 1e-14

    def test_round_trip_through_angles(self):
        m = np.array([0.3, -0.4, 0.5])
        d = direction_from_vector(m)
        np.testing.assert_allclose(d.unit_vector(), m / np.linalg.norm(m), atol=1e-14)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MeasurementDirection(theta=-0.1, phi=0.0)
        with pytest.raises(ValueError):
            MeasurementDirection(theta=1.0, phi=7.0)
        with pytest.raises(ValueError):
            direction_from_vector(np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "m, theta, phi",
        [
            ([1e200, 0.0, 1e200], math.pi / 4, 0.0),
            ([-1e300, 1e300, 0.0], math.pi / 2, 0.75 * math.pi),
            ([1e-200, 0.0, 1e-200], math.pi / 4, 0.0),
            ([0.0, 0.0, -5e-324], math.pi, 0.0),
            ([0.0, 5e-324, 0.0], math.pi / 2, math.pi / 2),
        ],
    )
    def test_huge_and_tiny_vectors_are_rescaled(self, m, theta, phi):
        # Their squares overflow to inf or underflow to 0.
        d = direction_from_vector(m)
        assert d.theta == pytest.approx(theta, abs=1e-15)
        assert d.phi == pytest.approx(phi, abs=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_ordinary_vectors_keep_their_unscaled_angles(self):
        rng = np.random.default_rng(42)
        for m in rng.normal(size=(50, 3)):
            norm = float(np.linalg.norm(m))
            d = direction_from_vector(m)
            assert d.theta == math.acos(max(-1.0, min(1.0, m[2] / norm)))
            assert d.phi == math.atan2(m[1], m[0]) % (2.0 * math.pi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [[math.inf, 0.0, 0.0], [0.0, -math.inf, 1.0], [math.nan, 0.0, 1.0]], ids=str)
    def test_rejects_non_finite_vectors(self, m):
        with pytest.raises(ValueError, match=r"must be finite, got \["):
            direction_from_vector(m)


class TestProjectivePostState:
    def test_diagonal_state_unchanged_by_z(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        d = direction_from_vector([0.0, 0.0, 1.0])
        np.testing.assert_allclose(projective_post_state(rho, d), rho, atol=1e-14)

    def test_bell_state_dephased_by_z(self):
        post = projective_post_state(bell_phi_plus(), direction_from_vector([0, 0, 1.0]))
        np.testing.assert_allclose(post, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = ginibre_state(rng)
            d = direction_from_vector(rng.normal(size=3))
            once = projective_post_state(rho, d)
            twice = projective_post_state(once, d)
            assert np.max(np.abs(twice - once)) <= 1e-12

    def test_marginal_transforms_consistently(self):
        rng = np.random.default_rng(43)
        rho = ginibre_state(rng)
        d = direction_from_vector(rng.normal(size=3))
        p1, p2 = d.projectors()
        marg = partial_trace(rho, "a")
        expected = p1 @ marg @ p1 + p2 @ marg @ p2
        np.testing.assert_allclose(partial_trace(projective_post_state(rho, d), "a"), expected, atol=1e-13)


class TestWeakPostState:
    def test_zero_strength_is_identity_channel(self):
        rng = np.random.default_rng(44)
        rho = ginibre_state(rng)
        d = direction_from_vector(rng.normal(size=3))
        omega = weak_post_state(rho, d, WeakStrength(0.0))
        assert np.max(np.abs(omega - rho)) <= 1e-13

    def test_large_strength_reaches_projective(self):
        rng = np.random.default_rng(45)
        rho = ginibre_state(rng)
        d = direction_from_vector(rng.normal(size=3))
        omega = weak_post_state(rho, d, WeakStrength(30.0))
        assert np.max(np.abs(omega - projective_post_state(rho, d))) <= 1e-12

    def test_operator_normalization(self):
        for x in (0.0, 0.7, 3.0, 30.0):
            w = WeakStrength(x)
            d = direction_from_vector([0.2, 0.5, -0.8])
            p1, p2 = d.projectors()
            plus = w.t1 * p1 + w.t2 * p2
            minus = w.t2 * p1 + w.t1 * p2
            total = plus.conj().T @ plus + minus.conj().T @ minus
            assert np.max(np.abs(total - np.eye(2))) <= 1e-14

    def test_disturbance_identity(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            rho = ginibre_state(rng)
            d = direction_from_vector(rng.normal(size=3))
            w = WeakStrength(float(rng.uniform(0.0, 4.0)))
            omega = weak_post_state(rho, d, w)
            post = projective_post_state(rho, d)
            factor = 1.0 - 2.0 * w.t1 * w.t2
            assert np.max(np.abs((rho - omega) - factor * (rho - post))) <= 1e-13

    def test_trace_preserved(self):
        rng = np.random.default_rng(47)
        rho = ginibre_state(rng)
        d = direction_from_vector(rng.normal(size=3))
        omega = weak_post_state(rho, d, WeakStrength(1.3))
        assert abs(np.trace(omega) - 1.0) <= 1e-13


class TestBruteForceProjective:
    def test_trajectory_sample_direct_case(self):
        rho = analytic_state_at(ModelParams(n=0.5, r=0.8), 0.7)
        assert abs(brute_force_hs_min(rho) - hs_min(rho)) <= 1e-9
        assert abs(brute_force_trace_min(rho) - trace_min(rho)) <= 1e-9

    def test_bell_state_grid_case(self):
        # A degenerate marginal: the optimum lies at an eigenvector of the
        # quadratic form, here a coordinate axis. With the projector's
        # entries exactly 1/2 (bell_phi_plus rounds 1/sqrt(2) first), the
        # values are exact.
        rho = np.zeros((4, 4), dtype=complex)
        rho[1:3, 1:3] = 0.5
        assert np.max(np.abs(rho - bell_phi_plus())) <= 2e-16
        assert brute_force_hs_min(rho) == 0.5
        assert brute_force_trace_min(rho) == 1.0

    def test_product_state_vanishes(self):
        rho = np.kron(np.diag([0.75, 0.25]), np.diag([0.6, 0.4])).astype(complex)
        assert brute_force_hs_min(rho) <= 1e-9
        assert brute_force_trace_min(rho) <= 1e-9

    def test_degenerate_case_matches_closed_form(self):
        rng = np.random.default_rng(48)
        for k in range(8):
            rho = bell_diagonal_state(rng)
            if k % 2:
                # rotating both sides keeps the marginal degenerate but moves
                # the optimal axis off the coordinate axes
                lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
                rho = lift @ rho @ lift.conj().T
            for closed, brute in ((hs_min, brute_force_hs_min), (trace_min, brute_force_trace_min)):
                reference = closed(rho)
                value = brute(rho)
                assert abs(value - reference) <= 1e-12

    def test_random_states_direct_case(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            rho = ginibre_state(rng)
            assert abs(brute_force_hs_min(rho) - hs_min(rho)) <= 1e-9
            assert abs(brute_force_trace_min(rho) - trace_min(rho)) <= 1e-9


class TestBruteForceWeak:
    def test_zero_strength_gives_zero(self):
        rng = np.random.default_rng(50)
        rho = ginibre_state(rng)
        w = WeakStrength(0.0)
        assert brute_force_weak_min(rho, w, "hs") <= 1e-13
        assert brute_force_weak_min(rho, w, "trace") <= 1e-13

    def test_saturation_matches_projective_oracle(self):
        rng = np.random.default_rng(51)
        rho = ginibre_state(rng)
        w = WeakStrength(30.0)
        assert brute_force_weak_min(rho, w, "hs") == pytest.approx(brute_force_hs_min(rho), abs=1e-10)
        assert brute_force_weak_min(rho, w, "trace") == pytest.approx(
            brute_force_trace_min(rho), abs=1e-10
        )

    def test_scaling_against_projective_value(self):
        rho = analytic_state_at(ModelParams(n=0.5, r=0.5), 1.0)
        w = WeakStrength(1.0)
        sech1 = 1.0 / math.cosh(1.0)
        ratio_hs = brute_force_weak_min(rho, w, "hs") / brute_force_hs_min(rho)
        assert ratio_hs == pytest.approx((1.0 - sech1) ** 2, abs=1e-6)
        ratio_tr = brute_force_weak_min(rho, w, "trace") / brute_force_trace_min(rho)
        assert ratio_tr == pytest.approx(1.0 - sech1, abs=1e-6)

    def test_rejects_unknown_norm(self):
        with pytest.raises(ValueError):
            brute_force_weak_min(bell_phi_plus(), WeakStrength(1.0), "nuclear")


class TestKrausExpansion:
    @pytest.mark.parametrize("x", [None, 0.0, 0.7, 3.0, 30.0], ids=lambda x: "projective" if x is None else f"x={x}")
    def test_post_states_equal_literal_kraus_sum(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        rng = np.random.default_rng(52)
        ms = np.vstack([np.eye(3), rng.normal(size=(47, 3))])
        ms /= np.linalg.norm(ms, axis=1, keepdims=True)
        for _ in range(4):
            rho = ginibre_state(rng)
            rows = _post_states(rho, ms, t1, t2)
            for m, row in zip(ms, rows):
                p1, p2 = direction_from_vector(m).projectors()
                plus = np.kron(t1 * p1 + t2 * p2, ID2)
                minus = np.kron(t2 * p1 + t1 * p2, ID2)
                assert np.max(np.abs(row - (plus @ rho @ plus + minus @ rho @ minus))) <= 1e-14


class TestOracleMatchesPostStateMaps:
    """The oracle's values are the norms of rho minus the public post-state
    maps along atom a's Bloch vector x, the one marginal-preserving direction
    of a direct-case state. Measured at most 5.6e-16 apart."""

    @staticmethod
    def states():
        rng = np.random.default_rng(86)
        states = np.concatenate([[ginibre_state(rng) for _ in range(200)], _trajectory_direct_samples()])
        assert not _marginal_direction(states)[1].any()
        return states

    @staticmethod
    def check(states, values, post):
        """values (hs, trace) of the stack against the norms of rho - post(rho, d)."""
        for rho, hs, tr in zip(states, *values):
            marg = partial_trace(rho, "a")
            x = [np.trace(marg @ p).real for p in (SX, SY, SZ)]
            delta = rho - post(rho, direction_from_vector(x))
            assert abs(hs - hs_norm_sq(delta)) <= 1e-14
            assert abs(tr - trace_norm(delta)) <= 1e-14

    def test_projective(self):
        states = self.states()
        self.check(states, (brute_force_hs_min(states), brute_force_trace_min(states)), projective_post_state)

    @pytest.mark.parametrize("x", [0.0, 0.7, 3.0])
    def test_weak(self, x):
        w = WeakStrength(x)
        states = self.states()
        values = brute_force_weak_min(states, w, "hs"), brute_force_weak_min(states, w, "trace")
        self.check(states, values, lambda rho, d: weak_post_state(rho, d, w))


def single_post_states(rho, ms, t1, t2):
    """One state's post-measurement states along the unit directions ms (k, 3),
    as one 2-d (k, 10) @ (10, 32) product with Python-float coefficients."""
    terms = _kraus_terms(rho, 0.5 * (t1 + t2) ** 2, 0.5 * (t1 - t2) ** 2)
    return (_kraus_columns(ms) @ terms).view(complex).reshape(-1, 4, 4)


class TestStackedPostStates:
    @staticmethod
    def draws(seed, count=9, k=3):
        rng = np.random.default_rng(seed)
        states = np.array([ginibre_state(rng) if i % 2 else degenerate_marginal_state(rng) for i in range(count)])
        ds = [[direction_from_vector(rng.normal(size=3)) for _ in range(k)] for _ in range(count)]
        strengths = [WeakStrength(float(x)) for x in rng.uniform(0.0, 3.0, size=count)]
        ms = np.array([[d.unit_vector() for d in row] for row in ds])
        return states, ds, ms, strengths

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stack_equals_the_single_state_maps_bitwise(self, seed, k):
        # Each state's k directions take the same (k, 10) @ (10, 32) product
        # as the state alone; with one direction each, that is the product of
        # projective_post_state and weak_post_state, batches of one.
        states, ds, ms, strengths = self.draws(seed, k=k)
        t1 = np.array([w.t1 for w in strengths])
        t2 = np.array([w.t2 for w in strengths])
        projective = _post_states(states, ms, 0.0, 1.0)
        weak = _post_states(states, ms, t1, t2)
        assert projective.shape == weak.shape == (len(states), k, 4, 4)
        for rho, row, m, w, proj, omega in zip(states, ds, ms, strengths, projective, weak):
            assert proj.tobytes() == single_post_states(rho, m, 0.0, 1.0).tobytes()
            assert omega.tobytes() == single_post_states(rho, m, w.t1, w.t2).tobytes()
            if k == 1:
                assert proj[0].tobytes() == projective_post_state(rho, row[0]).tobytes()
                assert omega[0].tobytes() == weak_post_state(rho, row[0], w).tobytes()

    def test_coefficients_take_python_float_arithmetic(self):
        # On some floats x, numpy's square and Python's x ** 2 differ in the
        # last bit; with t1 = t2 = x / 2 the map is 0.5 x^2 rho, and the stack
        # must take the coefficient a single state gets.
        xs = np.random.default_rng(68).uniform(0.0, 2.0, 20_000)
        odd = [x for x, sq in zip(xs.tolist(), np.square(xs).tolist()) if x**2 != sq]
        if not odd:
            pytest.skip("numpy's square equals ** on every sampled float here")
        states, _, ms, _ = self.draws(5, count=2, k=1)
        t = np.full(2, odd[0] / 2.0)
        for rho, m, row in zip(states, ms, _post_states(states, ms, t, t)):
            assert row.tobytes() == single_post_states(rho, m, odd[0] / 2.0, odd[0] / 2.0).tobytes()

    def test_leading_axes_broadcast(self):
        # A (S, 1) stack of states against (S, 4) strengths: four maps per state in one call.
        states, _, ms, strengths = self.draws(3, count=5, k=1)
        t = np.array([[(0.0, 1.0), (w.t1, w.t2), (0.3, 0.6), (1.0, 0.0)] for w in strengths])
        maps = _post_states(states[:, None], ms[:, None], t[..., 0], t[..., 1])
        assert maps.shape == (5, 4, 1, 4, 4)
        for i, rho in enumerate(states):
            for j, (t1, t2) in enumerate(t[i].tolist()):
                assert maps[i, j].tobytes() == single_post_states(rho, ms[i], t1, t2).tobytes()

    def test_projectors_stack_matches_the_method(self):
        _, ds, _, _ = self.draws(4)
        flat = [d for row in ds for d in row]
        p1, p2 = oracle._projectors(np.array([d.unit_vector() for d in flat]))
        for d, a, b in zip(flat, p1, p2):
            q1, q2 = d.projectors()
            assert a.tobytes() == q1.tobytes() and b.tobytes() == q2.tobytes()


def degenerate_marginal_state(rng):
    """Locally rotated Bell-diagonal state, half of them blended with I/2 x tau_b:
    subsystem a's marginal stays maximally mixed."""
    lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
    rho = lift @ bell_diagonal_state(rng) @ lift.conj().T
    if rng.random() < 0.5:
        rho = 0.6 * rho + 0.4 * np.kron(ID2 / 2.0, partial_trace(ginibre_state(rng), "b"))
    return rho


class TestTraceNormBlock:
    """The oracle's trace values against the literal sum of |eigenvalues|,
    and the 2x2-block trace norm of the grid reference, 2 sqrt(|B|_F^2 + 2 |det B|)
    of the block B that the disturbance D holds between the eigenvectors of m.sigma."""

    STRENGTHS = [None, 0.0, 0.7, 3.0, 30.0]

    @staticmethod
    def directions():
        # A coarse theta/phi grid with both poles and the equator, plus the
        # points where the eigenvector construction switches branch (m_z = 0
        # and m_z = +-1e-12) and the exact poles and equator axes.
        grid = direction_batch(np.linspace(0.0, math.pi, 21), np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
        e = 1e-12
        q = math.sqrt(1.0 - e * e)
        special = [
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-0.6, 0.8, 0.0],
            [q, 0.0, e], [q, 0.0, -e], [0.0, q, e], [-0.6 * q, -0.8 * q, -e],
        ]
        return np.vstack([grid, special])

    @staticmethod
    def states():
        rng = np.random.default_rng(55)
        return [ginibre_state(rng) if k % 2 == 0 else degenerate_marginal_state(rng) for k in range(12)]

    @staticmethod
    def terms(rho, t1, t2):
        """The (10, 32) Kraus terms of rho - Omega(rho), in natural order."""
        return _kraus_terms(rho, 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2)

    @staticmethod
    def disturbances(rho, t1, t2, ms):
        """(k, 16) rows rho - Omega(rho), one per direction."""
        return (_kraus_columns(ms) @ TestTraceNormBlock.terms(rho, t1, t2)).view(complex)

    @pytest.mark.parametrize("x", STRENGTHS, ids=lambda x: "projective" if x is None else f"x={x}")
    def test_disturbance_anticommutes_with_the_measured_operator(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        ms = self.directions()
        lifted = np.kron(np.einsum("kp,pij->kij", ms, np.array([SX, SY, SZ])), ID2)
        for rho in self.states():
            d = self.disturbances(rho, t1, t2, ms).reshape(-1, 4, 4)
            assert np.max(np.abs(d + lifted @ d @ lifted)) <= 1e-15

    @pytest.mark.parametrize("x", STRENGTHS, ids=lambda x: "projective" if x is None else f"x={x}")
    def test_block_norm_matches_eigenvalue_norm(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        ms = self.directions()
        for rho in self.states():
            rows = self.disturbances(rho, t1, t2, ms)
            literal = np.abs(np.linalg.eigvalsh(rows.reshape(-1, 4, 4))).sum(axis=1)
            own = oracle._own_direction_values(self.terms(rho, t1, t2)[None], ms[None], "trace")[0]
            assert np.max(np.abs(own - literal)) <= 1e-14
            assert np.max(np.abs(natural_trace_norms(rows, trace_weights(ms))[:, 0] - literal)) <= 1e-14

    def test_degenerate_case_takes_no_matrix_solver(self, monkeypatch):
        # The eigenvectors of the quadratic form come from the oracle's own
        # Jacobi sweeps, not from a LAPACK eigensolve, which the closed forms
        # use. The trace norm takes singular values from ``qstate``.
        def refuse(*args, **kwargs):
            raise AssertionError("matrix solver on the oracle's path")

        rho = degenerate_marginal_state(np.random.default_rng(56))
        assert _marginal_direction(rho)[1].all()
        # Validation solves for the smallest eigenvalue by design; it is not
        # on the directions' path, so it is bypassed here for the valid state.
        monkeypatch.setattr(oracle, "validate_state", lambda r: r)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert brute_force_hs_min(rho) > 0.0
        assert brute_force_trace_min(rho) > 0.0
        assert brute_force_weak_min(rho, WeakStrength(0.7), "trace") > 0.0


def test_kraus_columns_match_the_literal_formula():
    rng = np.random.default_rng(58)
    random_sets = [rng.normal(size=(k, 3)) for k in (1, 2, 7, 4001)]
    for ms in random_sets:
        ms /= np.linalg.norm(ms, axis=1, keepdims=True)
    for ms in random_sets + [TestTraceNormBlock.directions()]:
        # The rows [1, m_k m_l] as the nine products of the transposed directions.
        literal = np.vstack([np.ones((1, len(ms))), (ms.T[:, None] * ms.T[None]).reshape(9, -1)]).T
        assert _kraus_columns(ms).tobytes() == np.ascontiguousarray(literal).tobytes()


def mixed_stack(rng, count):
    """(count, 4, 4) stack alternating Ginibre states (direct case) and
    degenerate-marginal states."""
    return np.array([ginibre_state(rng) if k % 2 else degenerate_marginal_state(rng) for k in range(count)])


ORACLES = {
    "hs": brute_force_hs_min,
    "trace": brute_force_trace_min,
    "weak-hs": lambda rho: brute_force_weak_min(rho, WeakStrength(0.7), "hs"),
    "weak-trace": lambda rho: brute_force_weak_min(rho, WeakStrength(0.7), "trace"),
}


@pytest.mark.parametrize("name", ORACLES)
@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=str)
def test_stacked_call_equals_single_calls(name, lead):
    # One Jacobi solve serves every degenerate state of a stack and one
    # product every direct one; each value must still be bitwise the float
    # the state gets alone, as a (4, 4) input of leading shape ().
    f = ORACLES[name]
    states = mixed_stack(np.random.default_rng(61), math.prod(lead)).reshape(lead + (4, 4))
    degenerate = _marginal_direction(states)[1]
    assert degenerate.any() and not degenerate.all()
    singles = [f(rho) for rho in states.reshape(-1, 4, 4)]
    assert all(type(v) is float for v in singles)
    stacked = f(states)
    assert stacked.shape == lead
    assert stacked.reshape(-1).tolist() == singles


def oracle_peak(f, states):
    """tracemalloc's peak over one call f(states), after a one-state call."""
    f(states[:1])
    tracemalloc.start()
    try:
        f(states)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_does_not_grow_with_the_stack():
    # The Kraus terms and disturbances are built per slice of _CHUNK = 500
    # degenerate states: 4.0 MB measured at 2,000 states, against 15.6 MB
    # with the whole stack in one slice.
    rng = np.random.default_rng(68)
    states = np.array([degenerate_marginal_state(rng) for _ in range(2000)])
    assert _marginal_direction(states)[1].all()
    assert oracle_peak(brute_force_trace_min, states) < 5.0e6


def trace_weights(ms) -> np.ndarray:
    """The (k, 1, 4) weights that ``natural_trace_norms`` applies to the 2x2
    blocks of disturbances measured along the unit directions ms (k, 3).

    D = rho - Omega(rho) anticommutes with S = (m.sigma) x I, so in the
    eigenbasis u+, u- of m.sigma it is [[0, B], [B^+, 0]] with the 2x2 block
    B = (<u+| x I) D (|u-> x I). With n = s m, s = -1 if m_z has its sign bit
    set and +1 otherwise, u+ = (c, w) and u- = (-conj w, c), c = 1 + n_z >= 1
    and w = n_x + i n_y, each of squared length 2c. B_bb' sums
    conj(u+_a) u-_a' D_(ab),(a'b') / 2c over a, a', with weights for
    aa' = 00, 01, 10, 11 of (-conj w, c, -conj w^2 / c, conj w) / 2.
    """
    s = np.where(np.signbit(ms[:, 2]), -1.0, 1.0)
    c = 1.0 + s * ms[:, 2]
    wbar = s * (ms[:, 0] - 1j * ms[:, 1])
    return 0.5 * np.stack([-wbar, c, -wbar * wbar / c, wbar], axis=1).reshape(len(ms), 1, 4)


def natural_trace_norms(rows, weights):
    """|D|_1, as (k, S), of S states' disturbances along k directions without
    an eigensolve, for the grid reference: the complex rows (k, [ab], state,
    [a'b']) are the disturbances' matrix rows, regrouped into 2x2 blocks by a
    6-axis transpose and weighted by the directions' ``trace_weights``. The
    eigenvalues of D are +-s1, +-s2, the singular values of B, so
    |D|_1 = 2 (s1 + s2) = 2 sqrt(|B|_F^2 + 2 |det B|)."""
    k = len(weights)
    deltas = rows.reshape(k, 4, -1, 4).transpose(0, 2, 1, 3)
    blocks = deltas.reshape(k, -1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(k, 4, -1)
    b = (weights @ blocks).reshape(k, -1, 4)
    det = b[..., 0] * b[..., 3] - b[..., 1] * b[..., 2]
    fro = np.einsum("...j,...j->...", b.view(float), b.view(float))
    return 2.0 * np.sqrt(fro + 2.0 * np.abs(det))


# The theta/phi grid search that took the degenerate marginals before the
# eigenvector route, kept as a reference: a GRID_RESOLUTION x 2 GRID_RESOLUTION
# grid over the upper hemisphere (m and -m are the same measurement), passes of
# at most CHUNK (direction, state) pairs, and one refinement pass at
# REFINE_FACTOR times the resolution around each state's best cell.
GRID_RESOLUTION = 100
REFINE_FACTOR = 10
CHUNK = 1000


def direction_batch(thetas, phis):
    """Unit directions for every (theta, phi) pair, theta-major. Leading axes
    pair up: (S, kt) thetas and (S, kp) phis give S grids of kt kp directions,
    of shape (S, kt kp, 3)."""
    tt, pp = np.broadcast_arrays(thetas[..., :, None], phis[..., None, :])
    tt = tt.reshape(tt.shape[:-2] + (-1,))
    pp = pp.reshape(pp.shape[:-2] + (-1,))
    st = np.sin(tt)
    return np.stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)], axis=-1)


def grid_norms(product, ms, norm):
    """Disturbance norms, as (k, S), of S states along the k unit directions
    ms (k, 3), from the real (k, 32 S) product of the directions' Kraus columns
    with the states' natural-order terms laid out as (row [ab], state, [a'b'])."""
    if norm == "hs":
        floats = product.reshape(len(ms), 4, -1, 8)
        return np.einsum("kasj,kasj->ks", floats, floats)
    return natural_trace_norms(product.view(complex), trace_weights(ms))


def natural_direction_values(terms, ms, norm):
    """``oracle._own_direction_values`` by the grid reference's norms: the
    (S, k) norms of the S states with (S, 10, 32) natural-order terms, each
    along its own k directions ms (S, k, 3)."""
    flat = ms.reshape(-1, 3)
    cols = _kraus_columns(flat).reshape(ms.shape[:-1] + (10,))
    return grid_norms((cols @ terms).reshape(-1, 32), flat, norm).reshape(ms.shape[:-1])


@pytest.mark.parametrize("name", ["trace", "weak-trace"])
@pytest.mark.parametrize("seed", [63, 64, 65])
def test_trace_values_equal_the_natural_layout_regroup(monkeypatch, name, seed):
    # Stacks of 12 and 7 states, 6 and 4 of them degenerate, each of which
    # takes three directions in one product: the oracle's qstate trace norms
    # against the 2x2-block regroup of the same natural-order disturbances,
    # measured at most 3.3e-16 apart.
    f = ORACLES[name]
    stacks = [mixed_stack(np.random.default_rng(seed), count) for count in (12, 7)]
    own = [f(states) for states in stacks]
    monkeypatch.setattr(oracle, "_own_direction_values", natural_direction_values)
    for states, values in zip(stacks, own):
        assert np.max(np.abs(values - f(states))) <= 1e-14


def per_pass_grid_maximize(terms, norm):
    """Largest Kraus-route disturbance norm of each of the states with
    (S, 10, 32) natural-order terms over the grid and its refinement, each
    pass building the Kraus columns and trace-norm weights of its directions."""
    count = len(terms)
    g = GRID_RESOLUTION
    thetas = np.linspace(0.0, math.pi, g)[: g // 2]
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False)
    tt, pp = (a.reshape(-1) for a in np.broadcast_arrays(thetas[:, None], phis[None, :]))
    ms = direction_batch(thetas, phis)
    wide = terms.reshape(count, 10, 4, 8).transpose(1, 2, 0, 3).reshape(10, -1)
    best = np.full(count, -np.inf)
    cell = np.zeros(count, dtype=int)
    passes = -(-len(ms) // max(2, CHUNK // count))
    bounds = [len(ms) * j // passes for j in range(passes + 1)]
    for i, end in zip(bounds, bounds[1:]):
        part = ms[i:end]
        values = grid_norms(_kraus_columns(part) @ wide, part, norm)
        top = np.argmax(values, axis=0)
        top_values = values[top, np.arange(count)]
        better = top_values > best
        best[better] = top_values[better]
        cell[better] = i + top[better]
    dt = np.linspace(-math.pi / (g - 1), math.pi / (g - 1), 2 * REFINE_FACTOR + 1)
    dp = np.linspace(-math.pi / g, math.pi / g, 2 * REFINE_FACTOR + 1)
    per_pass = max(1, CHUNK // len(dt) ** 2)
    for i in range(0, count, per_pass):
        here = cell[i : i + per_pass, None]
        ms_fine = direction_batch(np.clip(tt[here] + dt, 0.0, math.pi), (pp[here] + dp) % (2.0 * math.pi))
        fine = natural_direction_values(terms[i : i + per_pass], ms_fine, norm)
        np.maximum(best[i : i + per_pass], fine.max(axis=1), out=best[i : i + per_pass])
    return best


def grid_search(states, name):
    """The reference grid search's values of the states for the ORACLES entry name."""
    w = WeakStrength(0.7)
    t1, t2 = (w.t1, w.t2) if name.startswith("weak") else (0.0, 1.0)
    norm = name.split("-")[-1]
    return per_pass_grid_maximize(_kraus_terms(states, 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2), norm)


def product_state(rng):
    """I/2 x tau: a degenerate marginal and no disturbance at all."""
    return np.kron(ID2 / 2.0, partial_trace(ginibre_state(rng), "b"))


def blend_stack(rng):
    """Degenerate states, each followed by a blend lam rho + (1 - lam) I/2 x tau
    for lam = 1e-3, 3e-4, 1e-4, 5e-5, 3e-5, 1e-5 and 3e-6."""
    states = []
    for lam in (1e-3, 3e-4, 1e-4, 5e-5, 3e-5, 1e-5, 3e-6):
        states.append(degenerate_marginal_state(rng))
        states.append(lam * degenerate_marginal_state(rng) + (1.0 - lam) * product_state(rng))
    return np.array(states)


def grid_stack(kind):
    """The stacks of ``test_never_below_the_grid_search``: a count of
    degenerate states, 620 of them with product states at a few positions,
    or ``blend_stack``."""
    if kind == "blends":
        return blend_stack(np.random.default_rng(79))
    if kind == "620-with-products":
        rng = np.random.default_rng(80)
        states = np.array([degenerate_marginal_state(rng) for _ in range(620)])
        # Positions in the first 500-state slice, at its end and in the second.
        for k in (0, 17, 499, 500, 619):
            states[k] = product_state(rng)
        return states
    rng = np.random.default_rng(69 + kind)
    return np.array([degenerate_marginal_state(rng) for _ in range(kind)])


@pytest.mark.parametrize("kind", [1, 7, 12, "620-with-products", "blends"])
def test_never_below_the_grid_search(kind):
    # Both routes return Kraus-route values at explicit directions; the grid
    # misses the optimum by up to 4.3e-6 on these states, and the eigenvector
    # route is measured at most 2.6e-17 below it.
    states = grid_stack(kind)
    assert _marginal_direction(states)[1].all()
    for name in ("hs", "trace", "weak-trace"):
        assert np.min(ORACLES[name](states) - grid_search(states, name)) >= -1e-15, name


def coincident_pair_state(rng, gap, top):
    """Locally rotated Bell-diagonal state whose top (or bottom) two
    correlation singular values lie gap apart: (0.45, 0.45 - gap, 0.1), or
    (0.6, 0.2, 0.2 - gap)."""
    c = (0.45, gap - 0.45, 0.1) if top else (0.6, -0.2, 0.2 - gap)
    rho = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, (SX, SY, SZ)))) / 4.0
    lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
    return lift @ rho @ lift.conj().T


BLEND_WEIGHTS = 10.0 ** -np.arange(1, 13)


def edge_stack(family):
    """Degenerate-marginal states where the optimum is hardest to find, five
    per parameter: near-coincident singular-value pairs (gaps 1e-2 to 1e-15),
    blends lam rho + (1 - lam) I/2 x tau (lam = 1e-1 to 1e-12), or product
    states."""
    rng = np.random.default_rng(81)
    gaps = 10.0 ** -np.arange(2, 16)
    if family == "products":
        return np.array([product_state(rng) for _ in range(5)])
    if family == "blends":
        lams = np.repeat(BLEND_WEIGHTS, 5)
        return np.array([lam * degenerate_marginal_state(rng) + (1.0 - lam) * product_state(rng) for lam in lams])
    return np.array([coincident_pair_state(rng, gap, family == "top-pairs") for gap in gaps for _ in range(5)])


class TestDegenerateEdges:
    """The eigenvector route against the closed forms where the optimum is
    hardest to find. Measured at most 4.4e-16 off on these families, at
    every strength, and 7.8e-16 on the random states; the tolerance is
    1e-12, as in ``validate``."""

    @pytest.mark.parametrize("x", [None, 0.0, 0.7, 3.0], ids=lambda x: "projective" if x is None else f"x={x}")
    @pytest.mark.parametrize("family", ["top-pairs", "bottom-pairs", "blends", "products"])
    def test_matches_the_closed_forms(self, family, x):
        states = edge_stack(family)
        assert _marginal_direction(states)[1].all()
        if x is None:
            hs, tr, scale = brute_force_hs_min(states), brute_force_trace_min(states), 1.0
        else:
            w = WeakStrength(x)
            hs, tr = brute_force_weak_min(states, w, "hs"), brute_force_weak_min(states, w, "trace")
            scale = 1.0 - 2.0 * w.t1 * w.t2
        assert np.max(np.abs(hs - scale**2 * hs_min(states))) <= 1e-12
        assert np.max(np.abs(tr - scale * trace_min(states))) <= 1e-12

    def test_random_degenerate_states_match_the_closed_forms(self):
        rng = np.random.default_rng(82)
        states = np.array([degenerate_marginal_state(rng) for _ in range(300)])
        assert np.max(np.abs(brute_force_hs_min(states) - hs_min(states))) <= 1e-12
        assert np.max(np.abs(brute_force_trace_min(states) - trace_min(states))) <= 1e-12

    def test_product_states_give_exactly_zero(self):
        states = edge_stack("products")
        assert not brute_force_hs_min(states).any()
        assert not brute_force_trace_min(states).any()


class TestQuadraticForms:
    """``_quadratic_forms``: the Kraus route's hs value along m is m^T A m."""

    @pytest.mark.parametrize("x", [None, 0.7], ids=lambda x: "projective" if x is None else f"x={x}")
    def test_form_equals_the_kraus_hs_value(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        c_rho, c_s = 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2
        rng = np.random.default_rng(83)
        # Direct-case and degenerate states, and blends toward a product state.
        states = np.vstack([mixed_stack(rng, 10), edge_stack("blends")])
        ms = rng.normal(size=(len(states), 20, 3))
        ms /= np.linalg.norm(ms, axis=-1, keepdims=True)
        a = oracle._quadratic_forms((c_rho - c_s) * states)
        assert a.tobytes() == a.swapaxes(-1, -2).tobytes()
        kraus = oracle._own_direction_values(_kraus_terms(states, c_rho, c_s), ms, "hs")
        assert np.max(np.abs(np.einsum("ski,sij,skj->sk", ms, a, ms) - kraus)) <= 1e-15

    def test_the_product_part_is_taken_out(self):
        # A blend lam rho + (1 - lam) I/2 x tau has the form lam^2 A(rho), up
        # to the rounding of the blend's own entries, about 1e-17 lam in A.
        # Formed with I/2 x tau left in, A's entries would be differences of
        # terms of size 1 and miss by about 1e-16.
        rng = np.random.default_rng(84)
        for lam in BLEND_WEIGHTS:
            rho = np.array([degenerate_marginal_state(rng) for _ in range(5)])
            blend = lam * rho + (1.0 - lam) * np.array([product_state(rng) for _ in range(5)])
            a, a_rho = oracle._quadratic_forms(blend), oracle._quadratic_forms(rho)
            assert np.max(np.abs(a - lam**2 * a_rho)) <= 1e-15 * lam
        assert not oracle._quadratic_forms(edge_stack("products")).any()


class TestJacobi:
    """``_jacobi_eigenvectors``: eight cyclic Jacobi sweeps in numpy."""

    @staticmethod
    def check(a, v, atol):
        """v orthogonal, and v^T a v diagonal to atol."""
        d = v.swapaxes(-1, -2) @ a @ v
        assert np.max(np.abs(v.swapaxes(-1, -2) @ v - np.eye(3))) <= 4e-15
        assert np.max(np.abs(d - d * np.eye(3))) <= atol

    def test_diagonalizes_symmetric_matrices(self):
        # Measured against numpy's eigvalsh: off-diagonals at most 1.9e-16 and
        # eigenvalues within 1.2e-15 of the largest entry.
        rng = np.random.default_rng(85)
        g = rng.normal(size=(300, 3, 3))
        a = g + g.swapaxes(-1, -2)
        # Near-coincident eigenvalues, 1e-6 to 1e-15 apart, in rotated frames.
        q = np.linalg.qr(rng.normal(size=(10, 3, 3)))[0]
        gaps = 10.0 ** -np.arange(6, 16)
        values = np.stack([np.ones(10), 1.0 + gaps, np.full(10, -0.5)], axis=1)
        close = (q * values[:, None]) @ q.swapaxes(-1, -2)
        close = 0.5 * (close + close.swapaxes(-1, -2))
        for m in (a, close):
            scale = np.abs(m).max()
            v = oracle._jacobi_eigenvectors(m)
            self.check(m, v, 1e-15 * scale)
            found = np.sort(np.diagonal(v.swapaxes(-1, -2) @ m @ v, axis1=-2, axis2=-1), axis=-1)
            assert np.max(np.abs(found - np.linalg.eigvalsh(m))) <= 4e-15 * scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a",
        [
            np.diag([0.3, -0.1, 0.2]),
            np.diag([0.3, 0.3, 0.2]),
            np.diag([0.3, -0.1, 0.2]) + 1e-300 * (1.0 - np.eye(3)),
            np.eye(3) + 1e-300 * (1.0 - np.eye(3)),
            np.zeros((3, 3)),
        ],
        ids=["diagonal", "equal-diagonal", "off-diagonals-1e-300", "equal-diagonal-1e-300", "zero"],
    )
    def test_raises_no_warning_on_tiny_or_vanishing_off_diagonals(self, a):
        v = oracle._jacobi_eigenvectors(a[None])
        self.check(a[None], v, 1e-299)
        assert np.max(np.abs(v - np.eye(3))) <= 1e-15


class TestAntipodes:
    """m and -m are the same measurement. The Jacobi eigenvectors come with
    either sign, so the oracle's value at each must not depend on it: the
    Kraus columns hold products m_k m_l, so the disturbance D is bitwise equal
    for m and -m, and so are both of its norms."""

    @pytest.mark.parametrize("x", [None, 0.7, 3.0], ids=lambda x: "projective" if x is None else f"x={x}")
    def test_values_at_antipodes_are_equal(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        c_rho, c_s = 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2
        rng = np.random.default_rng(59)
        states = np.array(TestTraceNormBlock.states()[:6])
        random_ms = rng.normal(size=(500, 3))
        random_ms /= np.linalg.norm(random_ms, axis=1, keepdims=True)
        shared = [np.broadcast_to(ms, (len(states),) + ms.shape) for ms in (TestTraceNormBlock.directions(), random_ms)]
        # The oracle's own evaluation points: the eigenvectors of each state's form.
        axes = oracle._jacobi_eigenvectors(oracle._quadratic_forms((c_rho - c_s) * states)).swapaxes(-1, -2)
        terms = _kraus_terms(states, c_rho, c_s)
        for ms in shared + [axes]:
            for norm in ("hs", "trace"):
                here = oracle._own_direction_values(terms, ms, norm)
                there = oracle._own_direction_values(terms, -ms, norm)
                assert here.tobytes() == there.tobytes()


def shifted_bell_state(rng, size):
    """Locally rotated Bell-diagonal state whose a-marginal Bloch vector has length size."""
    lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
    rho = lift @ bell_diagonal_state(rng) @ lift.conj().T
    n = rng.normal(size=3)
    n *= size / np.linalg.norm(n)
    return rho + np.kron(n[0] * SX + n[1] * SY + n[2] * SZ, ID2) / 4.0


class TestNearDegenerateMarginal:
    """Accuracy envelope of the direct case as the marginal approaches degeneracy.

    Both routes divide by |x| (the closed forms to project on x/|x|, the
    oracle to take its direction), so their deviation grows like eps/|x|.
    The worst measured deviation times |x| over these states is 1.98e-17;
    the envelope doubles it.
    """

    ENVELOPE_C = 4e-17
    SIZES = (1e-5, 1e-6, 1e-7, 1e-8)

    @staticmethod
    def worst_deviation(size):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(60):
            rho = shifted_bell_state(rng, size)
            worst = max(
                worst,
                abs(hs_min(rho) - brute_force_hs_min(rho)),
                abs(trace_min(rho) - brute_force_trace_min(rho)),
            )
        return worst

    @pytest.mark.parametrize("size", SIZES)
    def test_deviation_within_envelope(self, size):
        worst = self.worst_deviation(size)
        assert worst <= self.ENVELOPE_C / size
        if size >= 1e-7:
            assert worst <= 1e-9

    @pytest.mark.parametrize("size", [np.nextafter(MARGINAL_EPS, 0.0), MARGINAL_EPS], ids=["below", "at"])
    def test_both_routes_take_the_same_branch_at_the_threshold(self, size):
        # x = (size, 0, 0): both routes read |x| = size bit for bit from this
        # state, so only the threshold convention decides the branch. The
        # correlation matrix diag(0.6, -0.3, 0.2) makes the branches differ:
        # N2 = Tr(T T^t) - c_1^2/4 along x but Tr(T T^t) - c_3^2/4 over all
        # directions, N1 = 0.3 along x but 0.6 over all.
        ops = [np.eye(4), np.kron(SX, ID2), np.kron(SX, SX), np.kron(SY, SY), np.kron(SZ, SZ)]
        rho = sum(c * op for c, op in zip((1.0, size, 0.6, -0.3, 0.2), ops)) / 4.0
        degenerate = size < MARGINAL_EPS
        assert _marginal_direction(rho)[1][0] == degenerate
        trace_tt = 0.25 * (0.36 + 0.09 + 0.04)
        assert hs_min(rho) == pytest.approx(trace_tt - (0.01 if degenerate else 0.09), abs=1e-12)
        assert trace_min(rho) == pytest.approx(0.6 if degenerate else 0.3, abs=1e-12)
        assert brute_force_hs_min(rho) == pytest.approx(hs_min(rho), abs=1e-9)
        assert brute_force_trace_min(rho) == pytest.approx(trace_min(rho), abs=1e-9)


class TestBranchBand:
    """Where the degenerate-marginal branch is undefined.

    measures (one length for hs_min and trace_min alike) and the oracle each
    compute |x| with their own sums. On 15,552 seeded states with x in random
    directions, those two lengths agree to 5.5e-17 and lie within
    2.2e-16 of the length the state was built with, so a state built with
    |x| within BAND = 3e-16 of MARGINAL_EPS can take different branches in
    different routes: the band where the branch is undefined. Just outside
    it, every route takes the branch of the nominal length.
    """

    BAND = 3e-16

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_routes_share_the_branch_just_outside_the_band(self, side):
        rng = np.random.default_rng(57)
        base = np.empty((200, 4, 4), dtype=complex)
        shift = np.empty_like(base)
        for k in range(len(base)):
            lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
            base[k] = 0.9 * lift @ bell_diagonal_state(rng) @ lift.conj().T + 0.025 * np.eye(4)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            shift[k] = np.kron(n[0] * SX + n[1] * SY + n[2] * SZ, ID2) / 4.0
        rho = base + (MARGINAL_EPS + side * 2.0 * self.BAND) * shift
        degenerate = side < 0.0
        assert np.all(_marginal_direction(rho)[1] == degenerate)
        # The shift leaves the correlations alone, so the closed forms take
        # their degenerate-branch value at x = 0 and their direct-branch value
        # anywhere along the same x/|x|; the branches differ by 5e-6 or more
        # on these states and the values near the band drift by 5e-8 at most.
        for closed in (hs_min, trace_min):
            value = closed(rho)
            near_degenerate = np.abs(value - closed(base)) < np.abs(value - closed(base + 1e-4 * shift))
            assert np.all(near_degenerate == degenerate)
