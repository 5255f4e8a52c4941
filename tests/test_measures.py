import math

import numpy as np
import pytest

from thermomin import (
    BlochRep,
    MeasureReport,
    ModelParams,
    NegativeStrength,
    NotXState,
    WeakStrength,
    analytic_state_at,
    analytic_states,
    bloch_compose,
    bloch_decompose,
    brute_force_hs_min,
    brute_force_trace_min,
    canonicalize_correlations,
    concurrence,
    concurrence_xstate,
    evaluate_measures,
    hs_min,
    initial_state,
    trace_min,
    weak_factor,
    weak_hs_min,
    weak_trace_min,
)

from _helpers import bell_diagonal_state, bell_phi_plus, ginibre_state, random_qubit_unitary
from test_batched import _canonical_state, _local_rotation

WEAK_FACTOR_AT_ONE = 0.6759728631680573  # 1 - sech(1)/2


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4.0) == 0.0

    def test_initial_state_half(self):
        # r = 0.5: coherence r/2 and rho11*rho44 = 0 give concurrence r
        assert concurrence(initial_state(ModelParams(n=1.0, r=0.5))) == pytest.approx(0.5, abs=1e-12)

    def test_initial_state_exact_to_roundoff(self):
        # At gamma_t = 0 the state has rank 2 and C = r exactly; square roots
        # of the zero eigenvalues' roundoff once cost half the digits here
        # (C = 0.646799994732 at n = 0.7756, r = 0.6468).
        rng = np.random.default_rng(22)
        pairs = [(0.7756, 0.6468)] + [tuple(rng.uniform(0.0, 1.0, size=2)) for _ in range(200)]
        worst = max(abs(concurrence(analytic_state_at(ModelParams(n, r), 0.0)) - r) for n, r in pairs)
        assert worst <= 1e-14

    def test_near_pure_states_match_xstate_shortcut(self):
        # r = 1 - 10^-u and gamma_t = 10^-v, u, v in [1, 8]: nearly pure states,
        # where square roots of the eigenvalues of the Gram matrix lose half
        # the digits of the small l_i (errors up to ~5e-8 against the shortcut).
        rng = np.random.default_rng(41)
        cases = [(0.205, 1.0 - 1.1e-8, 3.9e-8)]
        for _ in range(300):
            u, v = rng.uniform(1.0, 8.0, size=2)
            cases.append((float(rng.uniform(0.0, 1.0)), 1.0 - 10.0**-u, 10.0**-v))
        worst = 0.0
        for n, r, t in cases:
            rho = analytic_state_at(ModelParams(n, r), t)
            worst = max(worst, abs(concurrence(rho) - concurrence_xstate(rho)))
        assert worst <= 1e-10

    def test_range_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            c = concurrence(ginibre_state(rng))
            assert 0.0 <= c <= 1.0 + 1e-12


class TestConcurrenceXState:
    def test_bell_coherence_only(self):
        assert concurrence_xstate(bell_phi_plus()) == pytest.approx(1.0, abs=1e-14)

    def test_dominated_geometric_mean(self):
        rho = np.diag([0.2, 0.3, 0.3, 0.2]).astype(complex)
        rho[1, 2] = rho[2, 1] = 0.1
        assert concurrence_xstate(rho) == 0.0

    def test_rejects_non_x_structure(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 3] = rho[3, 0] = 0.1
        with pytest.raises(NotXState):
            concurrence_xstate(rho)

    def test_matches_general_route_on_trajectories(self):
        worst = 0.0
        p = ModelParams(n=1.0, r=1.0)
        for t in np.linspace(0.0, 5.0, 40):
            rho = analytic_state_at(p, t)
            worst = max(worst, abs(concurrence_xstate(rho) - concurrence(rho)))
        assert worst <= 1e-10


class TestHsMin:
    def test_product_state_vanishes(self):
        rho_a = np.diag([0.8, 0.2]).astype(complex)
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        assert hs_min(np.kron(rho_a, rho_b)) <= 1e-12

    def test_bell_state_half(self):
        assert hs_min(bell_phi_plus()) == pytest.approx(0.5, abs=1e-12)

    def test_trajectory_closed_form(self):
        for n, r in ((0.1, 0.4), (0.5, 1.0), (1.0, 0.7)):
            p = ModelParams(n=n, r=r)
            for t in np.linspace(0.0, 4.0, 15):
                rho = analytic_state_at(p, t)
                assert hs_min(rho) == pytest.approx(2.0 * rho[1, 2].real ** 2, abs=1e-12)


class TestTraceMin:
    def test_bell_state_one(self):
        assert trace_min(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_vanishes(self):
        rho_a = np.diag([0.8, 0.2]).astype(complex)
        rho_b = np.array([[0.5, 0.1j], [-0.1j, 0.5]], dtype=complex)
        assert trace_min(np.kron(rho_a, rho_b)) <= 1e-12

    def test_trajectory_value(self):
        rho = analytic_state_at(ModelParams(n=0.5, r=1.0), 0.5)
        assert trace_min(rho) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_trajectory_closed_form(self):
        for n, r in ((0.1, 0.4), (0.5, 1.0), (1.0, 0.7)):
            p = ModelParams(n=n, r=r)
            for t in np.linspace(0.0, 4.0, 15):
                rho = analytic_state_at(p, t)
                assert trace_min(rho) == pytest.approx(2.0 * abs(rho[1, 2]), abs=1e-12)


class TestNearAxisAndPlane:
    """trace_min and hs_min near a canonical axis or plane of the Bloch vector.

    On seeded rotated states whose a-side Bloch vector, in the frame of the
    correlation matrix's singular vectors, lies on an axis or in a plane but
    for a component of relative size eps, from 0 to 1e-3, trace_min stays
    within 1.4e-16 of the oracle's direct route and hs_min within 2.1e-17:
    neither has a cut or a cancellation there.
    """

    SIZES = [0.0, *(10.0**-e for e in range(3, 13)), 1e-7 * (1.0 - 1e-3), 1e-7 * (1.0 + 1e-3)]

    @staticmethod
    def states(case, eps):
        """30 locally rotated states with diagonal correlations whose a-side
        Bloch vector, of length 0.2 in the canonical frame, lies on an axis or
        in a plane but for a component of relative size eps."""
        rng = np.random.default_rng(90)
        states = []
        for n in range(30):
            i = n % 3
            j, k = [a for a in range(3) if a != i][:: 1 if n % 2 else -1]
            x = np.zeros(3)
            if case == "axis":
                x[i], x[j] = 1.0, eps
            else:
                angle = rng.uniform(0.3, 1.2)
                x[i], x[j], x[k] = math.cos(angle), math.sin(angle), eps
            states.append(_canonical_state(rng, 0.2 * np.sign(rng.normal(size=3)) * x / np.linalg.norm(x)))
        return np.array(states)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["axis", "plane"])
    @pytest.mark.parametrize("eps", SIZES, ids=lambda eps: f"{eps:.4g}")
    def test_agreement_with_the_oracle(self, case, eps):
        states = self.states(case, eps)
        assert np.max(np.abs(trace_min(states) - brute_force_trace_min(states))) <= 1e-15
        assert np.max(np.abs(hs_min(states) - brute_force_hs_min(states))) <= 3e-17


class TestExactTrajectories:
    """On the exact X-state trajectories N2 = 2 |rho23|^2 and N1 = 2 |rho23|
    to relative roundoff, also late in the decay, where |rho23|^2 is tiny
    against Tr(T T^t) (4.4e-27 at n = 1, r = 1, gamma_t = 10): subtracting
    the projection on x from Tr(T T^t) would cancel it to 0. Over n in
    {0, 0.1, 0.5, 1}, r in {0.3, 0.6, 1} and gamma_t in {5, 10, 18, 30, 50}
    both agree exactly; the bound is 1e-13 relative."""

    def test_relative_to_the_coherence(self):
        times = np.array([5.0, 10.0, 18.0, 30.0, 50.0])
        for n in (0.0, 0.1, 0.5, 1.0):
            for r in (0.3, 0.6, 1.0):
                states = analytic_states(ModelParams(n=n, r=r), times)
                coherence = np.abs(states[:, 1, 2])
                np.testing.assert_allclose(hs_min(states), 2.0 * coherence**2, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(trace_min(states), 2.0 * coherence, rtol=1e-13, atol=0.0)


class TestCanonicalize:
    def test_diagonal_correlation_matrix(self):
        b = bloch_decompose(np.eye(4) / 4.0)
        canon = canonicalize_correlations(
            type(b)(x=np.array([0.1, 0.2, 0.3]), y=b.y, C=np.diag([0.3, -0.7, 0.5]))
        )
        np.testing.assert_allclose(canon.c, [0.7, 0.5, 0.3], atol=1e-14)
        # the rotated Bloch vector is the original up to the same permutation and signs
        np.testing.assert_allclose(sorted(np.abs(canon.xr)), [0.1, 0.2, 0.3], atol=1e-14)
        assert np.linalg.norm(canon.xr) == pytest.approx(np.linalg.norm([0.1, 0.2, 0.3]), abs=1e-14)

    def test_zero_correlations(self):
        rho = np.kron(np.diag([0.6, 0.4]), np.eye(2) / 2.0).astype(complex)
        b = bloch_decompose(rho)
        canon = canonicalize_correlations(b)
        np.testing.assert_allclose(canon.c, 0.0, atol=1e-14)
        assert canon.chi_plus == canon.chi_minus == 0.0

    def test_derived_quantities_consistent(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            b = bloch_decompose(ginibre_state(rng))
            canon = canonicalize_correlations(b)
            assert np.all(canon.c >= 0.0)
            assert canon.chi_plus >= canon.chi_minus >= 0.0
            nx = np.linalg.norm(canon.xr)
            alpha = (canon.c @ canon.c) * nx**2 - np.sum(canon.c**2 * canon.xr**2)
            assert canon.alpha == pytest.approx(alpha, abs=1e-12)
            # singular value decomposition preserves the Bloch vector length
            assert nx == pytest.approx(np.linalg.norm(b.x), abs=1e-12)

    def test_chi_formula_matches_trace_min(self):
        # The closed formula (sqrt(chi+) + sqrt(chi-)) / (2 |x|) of Hu & Fan,
        # and sigma_max for a degenerate marginal, against the projected route.
        rng = np.random.default_rng(23)
        states = np.array([ginibre_state(rng) for _ in range(200)])
        canon = canonicalize_correlations(bloch_decompose(states))
        formula = (np.sqrt(canon.chi_plus) + np.sqrt(canon.chi_minus)) / (2.0 * np.linalg.norm(canon.xr, axis=-1))
        np.testing.assert_allclose(trace_min(states), formula, rtol=1e-12, atol=0.0)
        degenerate = np.array([_local_rotation(rng, bell_diagonal_state(rng)) for _ in range(50)])
        canon = canonicalize_correlations(bloch_decompose(degenerate))
        np.testing.assert_allclose(trace_min(degenerate), canon.c[:, 0], rtol=1e-12, atol=0.0)


class TestWeakStrength:
    def test_amplitude_identities(self):
        for x in (0.0, 0.3, 1.0, 5.0, 30.0, 100.0):
            w = WeakStrength(x)
            assert w.t1**2 + w.t2**2 == pytest.approx(1.0, abs=1e-14)
            sech_half = 1.0 / (math.exp(x) + math.exp(-x))
            assert w.t1 * w.t2 == pytest.approx(sech_half, abs=1e-14)

    def test_negative_strength_rejected(self):
        with pytest.raises(NegativeStrength):
            WeakStrength(-0.1)


class TestWeakFactor:
    def test_at_zero(self):
        assert abs(weak_factor(WeakStrength(0.0)) - 0.5) <= 1e-14

    def test_at_one(self):
        assert weak_factor(WeakStrength(1.0)) == pytest.approx(WEAK_FACTOR_AT_ONE, abs=1e-13)

    def test_saturates(self):
        assert abs(weak_factor(WeakStrength(30.0)) - 1.0) <= 1e-12

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 6.0, 40)
        factors = [weak_factor(WeakStrength(float(x))) for x in xs]
        assert all(b > a for a, b in zip(factors, factors[1:]))


class TestWeakMins:
    def test_bell_at_zero_strength(self):
        w = WeakStrength(0.0)
        rho = bell_phi_plus()
        assert weak_hs_min(rho, w) == pytest.approx(0.25, abs=1e-12)
        assert weak_trace_min(rho, w) == pytest.approx(0.5, abs=1e-12)

    def test_zero_stays_zero(self):
        rho = np.kron(np.diag([0.8, 0.2]), np.diag([0.6, 0.4])).astype(complex)
        for x in (0.0, 1.0, 10.0):
            assert weak_hs_min(rho, WeakStrength(x)) <= 1e-12

    def test_saturation_matches_projective(self):
        w = WeakStrength(30.0)
        p = ModelParams(n=0.5, r=0.5)
        for t in np.linspace(0.0, 3.0, 7):
            rho = analytic_state_at(p, t)
            assert abs(weak_hs_min(rho, w) - hs_min(rho)) <= 1e-10
            assert abs(weak_trace_min(rho, w) - trace_min(rho)) <= 1e-10

    def test_never_exceeds_projective(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rho = ginibre_state(rng)
            x = float(rng.uniform(0.0, 5.0))
            w = WeakStrength(x)
            assert weak_hs_min(rho, w) <= hs_min(rho) + 1e-15
            assert weak_trace_min(rho, w) <= trace_min(rho) + 1e-15


class TestInvariances:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(50):
            rho = ginibre_state(rng)
            lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
            rotated = lift @ rho @ lift.conj().T
            worst = max(worst, abs(hs_min(rotated) - hs_min(rho)))
            worst = max(worst, abs(trace_min(rotated) - trace_min(rho)))
        assert worst <= 1e-8

    def test_relative_local_unitary_invariance_near_classical_states(self):
        # x = 0.3 z and C = 2 z y^t + delta R with R's z row zero: the part of
        # C along x is 1e6 times the part that carries N2 and N1, so rounding
        # in the projection off a rotated x must stay relative to delta.
        # Worst measured: 6.6e-11 (N2) and 4.3e-11 (N1).
        rng = np.random.default_rng(26)
        delta = 1e-6
        for _ in range(20):
            y = rng.normal(size=3)
            y *= 0.3 / np.linalg.norm(y)
            R = rng.normal(size=(3, 3))
            R[2] = 0.0
            C = 2.0 * np.outer([0.0, 0.0, 1.0], y) + delta * R
            rho = bloch_compose(BlochRep(x=np.array([0.0, 0.0, 0.3]), y=y, C=C))
            lift = np.kron(random_qubit_unitary(rng), random_qubit_unitary(rng))
            rotated = lift @ rho @ lift.conj().T
            for f in (hs_min, trace_min):
                assert f(rotated) == pytest.approx(f(rho), rel=1e-8, abs=0.0)

    def test_trace_min_dominates_hs_min_on_trajectory(self):
        p = ModelParams(n=0.3, r=0.8)
        for t in np.linspace(0.0, 5.0, 20):
            rho = analytic_state_at(p, t)
            # with |rho23| <= 1/2 the trace variant dominates the squared one
            assert trace_min(rho) >= hs_min(rho) - 1e-14


class TestMeasureReport:
    def test_consistent_with_individual_measures(self):
        rho = analytic_state_at(ModelParams(n=0.5, r=0.5), 0.8)
        w = WeakStrength(1.0)
        rep = evaluate_measures(rho, w)
        assert isinstance(rep, MeasureReport)
        assert rep.C == pytest.approx(concurrence(rho), abs=1e-14)
        assert rep.N2 == pytest.approx(hs_min(rho), abs=1e-14)
        assert rep.N1 == pytest.approx(trace_min(rho), abs=1e-14)
        assert rep.N2W == pytest.approx(weak_factor(w) * rep.N2, abs=1e-14)
        assert rep.N1W == pytest.approx(weak_factor(w) * rep.N1, abs=1e-14)

    def test_invariant_bounds(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            rep = evaluate_measures(ginibre_state(rng), WeakStrength(float(rng.uniform(0, 3))))
            assert rep.C >= 0.0 and rep.C <= 1.0 + 1e-12
            assert rep.N2 >= 0.0 and rep.N1 >= 0.0
            assert rep.N2W <= rep.N2 + 1e-15
            assert rep.N1W <= rep.N1 + 1e-15
