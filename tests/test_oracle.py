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
    partial_trace,
    projective_post_state,
    trace_min,
    weak_post_state,
)
from thermomin import oracle
from thermomin.measures import MARGINAL_EPS
from thermomin.oracle import (
    _block_order,
    _coarse_grid,
    _direction_batch,
    _kraus_columns,
    _kraus_terms,
    _marginal_direction,
    _post_states,
    _search_grid,
    _trace_norms,
    _trace_weights,
)

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
        # degenerate marginal forces the grid search; poles include the optimum
        assert brute_force_hs_min(bell_phi_plus()) == pytest.approx(0.5, abs=1e-6)
        assert brute_force_trace_min(bell_phi_plus()) == pytest.approx(1.0, abs=1e-6)

    def test_product_state_vanishes(self):
        rho = np.kron(np.diag([0.75, 0.25]), np.diag([0.6, 0.4])).astype(complex)
        assert brute_force_hs_min(rho) <= 1e-9
        assert brute_force_trace_min(rho) <= 1e-9

    def test_grid_brackets_closed_form(self):
        rng = np.random.default_rng(48)
        for k in range(8):
            rho = bell_diagonal_state(rng)
            if k % 2:
                # rotating both sides keeps the marginal degenerate but moves
                # the optimal axis off the grid, exposing real search error
                lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
                rho = lift @ rho @ lift.conj().T
            for closed, brute in ((hs_min, brute_force_hs_min), (trace_min, brute_force_trace_min)):
                reference = closed(rho)
                value = brute(rho)
                # the exact value can only be undershot by a grid, and barely
                assert value <= reference + 1e-9
                assert value >= reference - 1e-3

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
    """The oracle's trace norm, 2 sqrt(|B|_F^2 + 2 |det B|) of the 2x2 block B
    that the disturbance D holds between the eigenvectors of m.sigma."""

    STRENGTHS = [None, 0.0, 0.7, 3.0, 30.0]

    @staticmethod
    def directions():
        # A coarse theta/phi grid with both poles and the equator, plus the
        # points where the eigenvector construction switches branch (m_z = 0
        # and m_z = +-1e-12) and the exact poles and equator axes.
        grid = _direction_batch(np.linspace(0.0, math.pi, 21), np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
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
    def disturbances(rho, t1, t2, ms, order=lambda terms: terms):
        """(k, 16) rows rho - Omega(rho) from the terms in the given order; the
        natural order by default, the grid search's trace-norm order with
        ``_block_order``."""
        terms = order(_kraus_terms(rho, 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2))
        return (_kraus_columns(ms) @ terms).view(complex)

    @staticmethod
    def blocks(rho, t1, t2, ms):
        """The (k, 4, 4) blocks that ``_trace_norms`` takes, rows aa' over bb'."""
        return TestTraceNormBlock.disturbances(rho, t1, t2, ms, _block_order).reshape(-1, 4, 4)

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
            literal = np.abs(np.linalg.eigvalsh(self.disturbances(rho, t1, t2, ms).reshape(-1, 4, 4))).sum(axis=1)
            norms = _trace_norms(self.blocks(rho, t1, t2, ms), _trace_weights(ms))
            assert np.max(np.abs(norms[:, 0] - literal)) <= 1e-14

    def test_grid_trace_norm_takes_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve on the oracle's trace-norm path")

        rho = degenerate_marginal_state(np.random.default_rng(56))
        assert _marginal_direction(rho)[1].all()
        # Validation solves for the smallest eigenvalue by design; it is not
        # on the trace-norm path, so it is bypassed here for the valid state.
        monkeypatch.setattr(oracle, "validate_state", lambda r: r)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert brute_force_trace_min(rho) > 0.0
        assert brute_force_weak_min(rho, WeakStrength(0.7), "trace") > 0.0


def grid_angles(rows):
    """The first rows thetas of the GRID_RESOLUTION-point theta grid, and its 2 GRID_RESOLUTION phis."""
    g = oracle.GRID_RESOLUTION
    return np.linspace(0.0, math.pi, g)[:rows], np.linspace(0.0, 2.0 * math.pi, 2 * g, endpoint=False)


def full_sphere_grid():
    """The directions of the whole GRID_RESOLUTION x 2 GRID_RESOLUTION theta/phi grid, both hemispheres."""
    return _direction_batch(*grid_angles(oracle.GRID_RESOLUTION))


def hemisphere_grid():
    """The directions of the coarse grid: the upper-hemisphere half of the full one."""
    return _direction_batch(*grid_angles(oracle.GRID_RESOLUTION // 2))


def test_coarse_grid_is_built_once_and_read_only():
    thetas, phis = grid_angles(oracle.GRID_RESOLUTION // 2)
    ms = hemisphere_grid()
    fresh = (thetas, phis, _kraus_columns(ms), _trace_weights(ms))
    cached = _coarse_grid()
    assert _coarse_grid() is cached
    for a, b in zip(cached, fresh, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


def test_coarse_grid_cache_holds_its_columns_and_weights_only():
    # The (10000, 10) columns take 800 KB and the (10000, 1, 4) complex
    # weights 640 KB: 1.44 MB with the 250 angles. Per-cell angles or
    # directions kept beside them would add up to 0.40 MB.
    oracle._coarse_grid.cache_clear()
    tracemalloc.start()
    try:
        grid = _coarse_grid()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in grid) <= held < 1.5e6


def test_kraus_columns_match_the_literal_formula():
    rng = np.random.default_rng(58)
    random_sets = [rng.normal(size=(k, 3)) for k in (1, 2, 7, 4001)]
    for ms in random_sets:
        ms /= np.linalg.norm(ms, axis=1, keepdims=True)
    for ms in random_sets + [hemisphere_grid(), full_sphere_grid()]:
        # The rows [1, m_k m_l] as the nine products of the transposed directions.
        literal = np.vstack([np.ones((1, len(ms))), (ms.T[:, None] * ms.T[None]).reshape(9, -1)]).T
        assert _kraus_columns(ms).tobytes() == np.ascontiguousarray(literal).tobytes()


class TestHemisphereGrid:
    """The coarse grid searches the upper hemisphere only: m and -m are the
    same measurement and give the same search value, bit for bit."""

    def test_full_grid_is_closed_under_antipodes(self):
        g = oracle.GRID_RESOLUTION
        ms = full_sphere_grid().reshape(g, 2 * g, 3)
        i, j = np.meshgrid(np.arange(g), np.arange(2 * g), indexing="ij")
        antipodes = ms[g - 1 - i, (j + g) % (2 * g)]
        assert np.max(np.abs(ms + antipodes)) <= 1e-15

    @pytest.mark.parametrize("x", [None, 0.7, 3.0], ids=lambda x: "projective" if x is None else f"x={x}")
    def test_values_at_antipodes_are_equal(self, x):
        t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
        rng = np.random.default_rng(59)
        random_ms = rng.normal(size=(500, 3))
        random_ms /= np.linalg.norm(random_ms, axis=1, keepdims=True)
        for ms in (full_sphere_grid(), random_ms):
            for rho in TestTraceNormBlock.states()[:6]:
                here = TestTraceNormBlock.disturbances(rho, t1, t2, ms)
                there = TestTraceNormBlock.disturbances(rho, t1, t2, -ms)
                hs = [np.einsum("ij,ij->i", d.view(float), d.view(float)) for d in (here, there)]
                assert hs[0].tobytes() == hs[1].tobytes()
                here, there = (TestTraceNormBlock.blocks(rho, t1, t2, m) for m in (ms, -ms))
                norms = [_trace_norms(blocks, _trace_weights(m)) for blocks, m in ((here, ms), (there, -ms))]
                assert norms[0].tobytes() == norms[1].tobytes()

    def test_hemisphere_search_matches_the_full_sphere(self, monkeypatch):
        # The full grid's antipodes are -m only to within 7.8e-16, so the two
        # searches can refine around antipodal cells whose directions differ
        # in the last bits. On 240 seeded states (seeds 60-62, 80 each) the
        # values differ by at most 2.8e-16 (5 ulps) and 600 of 720 are equal
        # bit for bit; the bound is twice the double-precision epsilon.
        rng = np.random.default_rng(60)
        states = [degenerate_marginal_state(rng) for _ in range(16)]
        assert _marginal_direction(np.array(states))[1].all()
        w = WeakStrength(0.7)

        def values():
            return np.array(
                [(brute_force_hs_min(r), brute_force_trace_min(r), brute_force_weak_min(r, w, "trace")) for r in states]
            )

        hemisphere = values()
        full = _search_grid(*grid_angles(oracle.GRID_RESOLUTION))
        monkeypatch.setattr(oracle, "_coarse_grid", lambda: full)
        assert np.max(np.abs(hemisphere - values())) <= 4.4e-16


def mixed_stack(rng, count):
    """(count, 4, 4) stack alternating Ginibre states (direct case) and
    degenerate-marginal states (grid case)."""
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
    # One coarse pass serves every degenerate state of a stack and one
    # product every direct one; each value must still be bitwise the float
    # the state gets alone, as a (4, 4) input of leading shape ().
    f = ORACLES[name]
    states = mixed_stack(np.random.default_rng(61), math.prod(lead)).reshape(lead + (4, 4))
    grid = _marginal_direction(states)[1]
    assert grid.any() and not grid.all()
    singles = [f(rho) for rho in states.reshape(-1, 4, 4)]
    assert all(type(v) is float for v in singles)
    stacked = f(states)
    assert stacked.shape == lead
    assert stacked.reshape(-1).tolist() == singles


@pytest.mark.parametrize("chunk", [1, 7, 12, 16, 30_000])
def test_grid_values_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # _CHUNK counts (direction, state) pairs. The stack's 8 states are more
    # than _CHUNK // 2 at chunk 1, 7 and 12, so it is searched in slices of
    # 1, 3 and 6 states (the last slice shorter); at 16 one pass takes two
    # directions of all 8 states.
    rng = np.random.default_rng(57)
    states = np.array([degenerate_marginal_state(rng) for _ in range(8)])
    assert _marginal_direction(states)[1].all()
    assert (len(states) > chunk // 2) == (chunk <= 12)

    def values():
        w = WeakStrength(0.7)
        oracles = (brute_force_hs_min, brute_force_trace_min, lambda r: brute_force_weak_min(r, w, "trace"))
        return [[f(r) for r in states[:3]] + f(states).tolist() for f in oracles]

    default = values()
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    assert values() == default


def grid_search_peak(f, states):
    """tracemalloc's peak over one call f(states), after a one-state call has
    built the cached coarse grid."""
    f(states[:1])
    tracemalloc.start()
    try:
        f(states)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_search_memory_does_not_grow_with_the_refinement_grid():
    # Each refinement pass builds its own directions, and a stack of more
    # than _CHUNK // 2 states is searched in slices, so a call holds bounded
    # passes: 1.5 MB (hs) and 1.6 MB (trace) measured at 200 states. All
    # refinement directions at once would add about 30 KB per state, 8.1 MB
    # in all at 200.
    rng = np.random.default_rng(67)
    states = np.array([degenerate_marginal_state(rng) for _ in range(200)])
    assert _marginal_direction(states)[1].all()
    for f in (brute_force_hs_min, brute_force_trace_min):
        assert grid_search_peak(f, states) < 3.0e6


def test_grid_search_memory_does_not_grow_with_the_stack(monkeypatch):
    # The Kraus terms, about 10 KB a state in their natural and block
    # orders, are built per slice of _CHUNK // 2 degenerate states: 3.9 MB
    # measured at 2,000 states, against 14.9 MB with the whole stack's terms
    # built before the slicing. The trace norm holds both orders. A 4 x 8
    # coarse grid stands in for the full one: a pass holds at most _CHUNK
    # pairs either way, and the call takes 2 s instead of 12 s under
    # tracemalloc.
    grid = _search_grid(np.linspace(0.0, math.pi, 8)[:4], np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False))
    monkeypatch.setattr(oracle, "_coarse_grid", lambda: grid)
    rng = np.random.default_rng(68)
    states = np.array([degenerate_marginal_state(rng) for _ in range(2000)])
    assert _marginal_direction(states)[1].all()
    assert grid_search_peak(brute_force_trace_min, states) < 5.0e6


def test_block_order_permutes_each_terms_entries():
    terms = _kraus_terms(mixed_stack(np.random.default_rng(62), 6), 0.3, -0.7)
    # Entry (a b, a' b') sits at 8a + 4b + 2a' + b' and moves to (a a', b b').
    source = [8 * a + 4 * b + 2 * a_ + b_ for a in (0, 1) for a_ in (0, 1) for b in (0, 1) for b_ in (0, 1)]
    expected = np.ascontiguousarray(terms.view(complex)[..., source])
    assert _block_order(terms).tobytes() == expected.tobytes()


def natural_trace_norms(rows, weights):
    """Reference for ``_trace_norms`` on terms left in natural order: the rows
    (k, [ab], state, [a'b']) are the disturbances' matrix rows, regrouped into
    2x2 blocks by a 6-axis transpose and weighted as in ``_trace_norms``."""
    k = len(weights)
    deltas = rows.reshape(k, 4, -1, 4).transpose(0, 2, 1, 3)
    blocks = deltas.reshape(k, -1, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(k, 4, -1)
    b = (weights @ blocks).reshape(k, -1, 4)
    det = b[..., 0] * b[..., 3] - b[..., 1] * b[..., 2]
    fro = np.einsum("...j,...j->...", b.view(float), b.view(float))
    return 2.0 * np.sqrt(fro + 2.0 * np.abs(det))


@pytest.mark.parametrize("name", ["trace", "weak-trace"])
@pytest.mark.parametrize("seed", [63, 64, 65])
def test_trace_values_equal_the_natural_layout_regroup(monkeypatch, name, seed):
    # Stacks of 12 and 7 states, 6 and 4 of them degenerate, so that the
    # coarse passes take 166 and 250 directions each.
    f = ORACLES[name]
    stacks = [mixed_stack(np.random.default_rng(seed), count) for count in (12, 7)]
    block = [f(states) for states in stacks]
    monkeypatch.setattr(oracle, "_block_order", lambda terms: terms)
    monkeypatch.setattr(oracle, "_trace_norms", natural_trace_norms)
    for states, values in zip(stacks, block):
        assert values.tobytes() == f(states).tobytes()



def per_pass_grid_maximize(terms, norm, *_):
    """Reference for ``_grid_maximize``: the same search with each coarse pass
    building the Kraus columns and trace-norm weights of its slice of the
    hemisphere's directions, and the refinement reading per-cell angles."""
    count = len(terms)
    g = oracle.GRID_RESOLUTION
    thetas, phis = grid_angles(g // 2)
    tt, pp = (a.reshape(-1) for a in np.broadcast_arrays(thetas[:, None], phis[None, :]))
    ms = hemisphere_grid()
    rows = 4 if norm == "trace" else 1
    wide = terms.reshape(count, 10, rows, -1).transpose(1, 2, 0, 3).reshape(10, -1)
    best = np.full(count, -np.inf)
    cell = np.zeros(count, dtype=int)
    passes = -(-len(ms) // max(2, oracle._CHUNK // count))
    bounds = [len(ms) * j // passes for j in range(passes + 1)]
    for i, end in zip(bounds, bounds[1:]):
        part = ms[i:end]
        values = oracle._norms(_kraus_columns(part) @ wide, norm, _trace_weights(part))
        top = np.argmax(values, axis=0)
        top_values = values[top, np.arange(count)]
        better = top_values > best
        best[better] = top_values[better]
        cell[better] = i + top[better]
    dt = np.linspace(-math.pi / (g - 1), math.pi / (g - 1), 2 * oracle.REFINE_FACTOR + 1)
    dp = np.linspace(-math.pi / g, math.pi / g, 2 * oracle.REFINE_FACTOR + 1)
    per_pass = max(1, oracle._CHUNK // len(dt) ** 2)
    for i in range(0, count, per_pass):
        here = cell[i : i + per_pass, None]
        ms_fine = _direction_batch(np.clip(tt[here] + dt, 0.0, math.pi), (pp[here] + dp) % (2.0 * math.pi))
        fine = oracle._own_direction_values(terms[i : i + per_pass], ms_fine, norm)
        np.maximum(best[i : i + per_pass], fine.max(axis=1), out=best[i : i + per_pass])
    return best


@pytest.mark.parametrize("count", [1, 7, 12, 620])
def test_cached_grid_equals_the_per_pass_search(monkeypatch, count):
    # 1, 7 and 12 states take 1000, 142 and 83 directions per coarse pass;
    # 620 go past the 500-state slice, whose passes take 2 directions each.
    rng = np.random.default_rng(69 + count)
    states = np.array([degenerate_marginal_state(rng) for _ in range(count)])
    assert _marginal_direction(states)[1].all()
    names = ["hs", "trace", "weak-trace"]
    cached = [ORACLES[name](states) for name in names]
    monkeypatch.setattr(oracle, "_grid_maximize", per_pass_grid_maximize)
    for name, values in zip(names, cached):
        assert values.tobytes() == ORACLES[name](states).tobytes(), name


def near_pole_state(theta, phi):
    """Bell-diagonal state with correlations (0.5, -0.4, 0.1), its a side
    rotated so that N2's optimal direction, the a-side image of z, lies at
    (theta, phi); subsystem a's marginal stays maximally mixed."""
    bell = (np.eye(4) + sum(c * np.kron(p, p) for c, p in zip((0.5, -0.4, 0.1), (SX, SY, SZ)))) / 4.0
    axis = -math.sin(phi) * SX + math.cos(phi) * SY
    ua = np.kron(math.cos(theta / 2.0) * ID2 - 1j * math.sin(theta / 2.0) * axis, ID2)
    return ua @ bell @ ua.conj().T


def test_grid_keeps_the_first_pole_cell_on_ties():
    # The theta = 0 row of the coarse grid holds 2 g copies of the pole, all
    # with the same value. This state's best coarse cell is the pole, and its
    # optimum lies near it on the refinement grid around phi = 0. In a stack
    # of 6 degenerate states the pole row spans two coarse passes; refining
    # around the copy that starts the second pass, at phi = 1.63 pi, gives a
    # smaller value (by 7.3e-6), so keeping the last cell on ties fails here.
    g = oracle.GRID_RESOLUTION
    rho = near_pole_state(0.4 * math.pi / (g - 1), 0.3 * math.pi / g)
    rng = np.random.default_rng(66)
    stack = np.array([rho] + [degenerate_marginal_state(rng) for _ in range(5)])
    assert _marginal_direction(stack)[1].all()
    assert oracle._CHUNK // len(stack) < 2 * g
    value = brute_force_hs_min(stack)[0]
    assert value == brute_force_hs_min(rho)
    assert abs(value - hs_min(rho)) <= 1e-15


def coarse_screen_and_kraus(states, x, norm):
    """The screen values and the Kraus-route values, (S, cells) each, of the
    states along every coarse cell, measured projectively (x None) or weakly
    at strength x, both from one pass over the whole grid."""
    t1, t2 = (0.0, 1.0) if x is None else (WeakStrength(x).t1, WeakStrength(x).t2)
    c_rho, c_s = 1.0 - 0.5 * (t1 + t2) ** 2, -0.5 * (t1 - t2) ** 2
    terms = _kraus_terms(states, c_rho, c_s)
    terms = _block_order(terms) if norm == "trace" else terms
    rows = 4 if norm == "trace" else 1
    wide = terms.reshape(len(states), 10, rows, -1).transpose(1, 2, 0, 3).reshape(10, -1)
    _, _, cols, weights = _coarse_grid()
    screen = oracle._screen(cols, weights[:, 0], oracle._screen_coefficients((c_rho - c_s) * states), norm)
    return screen, oracle._norms(cols @ wide, norm, weights).T


class TestScreen:
    """The grid search screens every coarse cell with the block B that the
    disturbance holds, taken from the state, and sends only the cells near
    each state's top screen value through the Kraus route."""

    # Worst measured |screen - Kraus value| over every coarse cell of these
    # stacks: 2.8e-15 (trace), 3.3e-16 (hs), 1.0e-15 (weak trace, x = 0.7).
    ENVELOPE = 4e-15

    @staticmethod
    def stack(seed):
        rng = np.random.default_rng(seed)
        g = oracle.GRID_RESOLUTION
        poles = [near_pole_state(0.4 * math.pi / (g - 1), 0.3 * math.pi / g), near_pole_state(0.0, 0.0)]
        return np.array(poles + [degenerate_marginal_state(rng) for _ in range(10)])

    @pytest.mark.parametrize("norm, x", [("hs", None), ("trace", None), ("trace", 0.7)], ids=["hs", "trace", "weak-trace"])
    @pytest.mark.parametrize("seed", [70, 71])
    def test_screen_stays_within_its_envelope_of_the_kraus_values(self, norm, x, seed):
        screen, kraus = coarse_screen_and_kraus(self.stack(seed), x, norm)
        assert np.max(np.abs(screen - kraus)) <= self.ENVELOPE
        # The margin dwarfs the envelope, so the screen never drops the best cell.
        assert oracle._SCREEN_MARGIN >= 1e5 * self.ENVELOPE

    def test_pole_and_zero_strength_stacks_equal_the_per_pass_search(self, monkeypatch):
        # The first state's best coarse cell is the theta = 0 pole, whose 2 g
        # copies tie; at x = 0 the weak map leaves no disturbance to screen,
        # so every coarse cell passes the screen and takes the Kraus route.
        states = self.stack(72)
        assert _marginal_direction(states)[1].all()
        assert np.argmax(coarse_screen_and_kraus(states[:1], None, "hs")[0][0]) == 0
        w0 = WeakStrength(0.0)
        calls = {
            "hs": brute_force_hs_min,
            "trace": brute_force_trace_min,
            "weak-trace": lambda r: brute_force_weak_min(r, WeakStrength(0.7), "trace"),
            "x=0 hs": lambda r: brute_force_weak_min(r, w0, "hs"),
            "x=0 trace": lambda r: brute_force_weak_min(r, w0, "trace"),
        }
        rows = []
        norms = oracle._norms

        def counted(product, norm, weights=None):
            # Coarse products are 32 S floats wide, refinement products 32.
            rows.append(len(product) if product.shape[1] == 32 * len(states) else 0)
            return norms(product, norm, weights)

        monkeypatch.setattr(oracle, "_norms", counted)
        screened = {}
        for name, f in calls.items():
            rows.clear()
            screened[name] = f(states)
            kraus_rows = sum(rows)
            if name.startswith("x=0"):
                # Every cell but the pole's 2 g - 1 repeats of cell 0.
                _, phis, cols, _ = _coarse_grid()
                assert kraus_rows == len(cols) - (len(phis) - 1)
            else:
                assert kraus_rows < len(_coarse_grid()[2]) // 10
        monkeypatch.setattr(oracle, "_grid_maximize", per_pass_grid_maximize)
        for name, f in calls.items():
            assert screened[name].tobytes() == f(states).tobytes(), name

    @pytest.mark.parametrize("name", ["hs", "trace", "weak-trace"])
    def test_a_wrong_screen_falls_back_to_the_full_search(self, monkeypatch, name):
        # Without the det term the trace screen undershoots; the hs screen is
        # scaled by 1 + 1e-6. Either strays from the Kraus values near the top
        # by more than half the margin, so the search runs again unscreened.
        states = self.stack(73)
        f = ORACLES[name]
        right = f(states)
        screen, search = oracle._screen, oracle._screened_search
        outcomes = []

        def wrong(cols, weights, coefs, norm):
            fro = screen(cols, weights, coefs, "hs")
            return (1.0 + 1e-6) * fro if norm == "hs" else np.sqrt(np.maximum(2.0 * fro, 0.0))

        def spied(*args):
            outcomes.append(search(*args))
            return outcomes[-1]

        monkeypatch.setattr(oracle, "_screen", wrong)
        monkeypatch.setattr(oracle, "_screened_search", spied)
        assert f(states).tobytes() == right.tobytes()
        assert outcomes[0] is None and outcomes[1] is not None

    def test_flat_states_take_their_own_full_search(self, monkeypatch):
        # A product state I/2 x tau has no disturbance to screen: every cell
        # of its slice would lie within the margin of its top near 0. It takes
        # its own search over every cell; the other states keep the screen.
        states = self.stack(75)
        tau = partial_trace(ginibre_state(np.random.default_rng(76)), "b")
        states[3] = np.kron(ID2 / 2.0, tau)
        assert _marginal_direction(states)[1].all()
        searches, rows = [], []
        search, own, norms = oracle._screened_search, oracle._own_direction_values, oracle._norms

        def spied_search(terms, norm, coefs, margin):
            searches.append((len(terms), margin))
            rows.append(0)
            return search(terms, norm, coefs, margin)

        def spied_own(*args):
            # The refinement's products are not coarse cells.
            rows.append(None)
            try:
                return own(*args)
            finally:
                rows.pop()

        def counted(product, norm, weights=None):
            if rows[-1] is not None:
                rows[-1] += len(product)
            return norms(product, norm, weights)

        monkeypatch.setattr(oracle, "_screened_search", spied_search)
        monkeypatch.setattr(oracle, "_own_direction_values", spied_own)
        monkeypatch.setattr(oracle, "_norms", counted)
        screened = {}
        _, phis, cols, _ = _coarse_grid()
        for name, f in ORACLES.items():
            searches.clear()
            rows.clear()
            screened[name] = f(states)
            assert searches == [(len(states) - 1, oracle._SCREEN_MARGIN), (1, math.inf)], name
            # The other states' products skip most cells; the flat state's
            # take every cell but the pole's 2 g - 1 repeats of cell 0.
            assert rows[0] < len(cols) // 10, name
            assert rows[1] == len(cols) - (len(phis) - 1), name
        monkeypatch.setattr(oracle, "_screened_search", search)
        monkeypatch.setattr(oracle, "_grid_maximize", per_pass_grid_maximize)
        for name, f in ORACLES.items():
            assert screened[name].tobytes() == f(states).tobytes(), name

    def test_a_ten_state_search_stays_below_1_mb(self):
        # Measured 0.40 MB (hs) and 0.55 MB (trace): the screen slices and
        # the Kraus products are bounded by pairs, as the passes were.
        rng = np.random.default_rng(74)
        states = np.array([degenerate_marginal_state(rng) for _ in range(10)])
        for f in (brute_force_hs_min, brute_force_trace_min):
            assert grid_search_peak(f, states) < 1.0e6


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

    hs_min, trace_min (after its rotation) and the oracle each compute |x|
    with their own sums. On 15,552 seeded states with x in random
    directions, those three lengths agree to 5.5e-17 and lie within
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
