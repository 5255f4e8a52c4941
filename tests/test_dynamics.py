import numpy as np
import pytest

from thermomin import (
    ModelParams,
    NoBracket,
    StepTooLarge,
    analytic_state_at,
    analytic_states,
    concurrence,
    hs_min,
    initial_state,
    integrate,
    lindblad_rhs,
    sudden_death_time,
    trace_min,
    validate_state,
)

from _helpers import ginibre_state


def thermal_product(n):
    """Steady state of one atom, doubled up; excited population n/(2n+1)."""
    single = np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)]).astype(complex)
    return np.kron(single, single)


class TestModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelParams(n=-0.1, r=0.5)
        with pytest.raises(ValueError):
            ModelParams(n=0.5, r=1.5)
        with pytest.raises(ValueError):
            ModelParams(n=0.5, r=0.5, gamma=0.0)


class TestInitialState:
    def test_separable_limit(self):
        np.testing.assert_allclose(
            initial_state(ModelParams(n=1.0, r=0.0)), np.diag([1.0, 0, 0, 0]), atol=1e-15
        )

    def test_entangled_limit(self):
        rho = initial_state(ModelParams(n=1.0, r=1.0))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_half_mixture(self):
        rho = initial_state(ModelParams(n=1.0, r=0.5))
        assert rho[0, 0].real == pytest.approx(0.5)
        assert rho[1, 1].real == pytest.approx(0.25)
        assert rho[2, 2].real == pytest.approx(0.25)
        assert rho[1, 2].real == pytest.approx(0.25)
        assert rho[3, 3].real == pytest.approx(0.0)


class TestAnalyticState:
    def test_propagator_identity_at_zero(self):
        for n, r in ((0.1, 0.3), (1.0, 1.0), (2.0, 0.7)):
            p = ModelParams(n=n, r=r)
            np.testing.assert_allclose(analytic_state_at(p, 0.0), initial_state(p), atol=1e-14)

    def test_thermal_limit(self):
        for n in (0.1, 0.5, 1.0, 2.0):
            for r in (0.0, 0.5, 1.0):
                rho = analytic_state_at(ModelParams(n=n, r=r), 50.0)
                np.testing.assert_allclose(rho, thermal_product(n), atol=1e-12)

    def test_coherence_value(self):
        rho = analytic_state_at(ModelParams(n=1.0, r=1.0), 1.0)
        assert rho[1, 2].real == pytest.approx(0.5 * np.exp(-3.0), abs=1e-15)

    def test_structure_along_trajectory(self):
        p = ModelParams(n=0.5, r=0.8)
        for t in np.linspace(0.0, 4.0, 17):
            rho = analytic_state_at(p, t)
            assert rho[1, 1] == rho[2, 2]
            assert rho[1, 2].imag == 0.0
            assert rho[1, 2] == rho[2, 1]
            expected = 0.4 * np.exp(-2.0 * t)
            assert rho[1, 2].real == pytest.approx(expected, abs=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            analytic_state_at(ModelParams(n=1.0, r=1.0), -0.5)
        with pytest.raises(ValueError):
            analytic_states(ModelParams(n=1.0, r=1.0), [0.0, 1.0, np.nan])

    def test_stack_of_times(self):
        p = ModelParams(n=0.3, r=0.7)
        times = np.linspace(0.0, 3.0, 13)
        stack = analytic_states(p, times)
        assert stack.shape == (13, 4, 4)
        validate_state(stack)
        for t, rho in zip(times, stack):
            assert np.array_equal(rho, analytic_state_at(p, t))


class TestLindbladRhs:
    def test_thermal_product_is_fixed_point(self):
        for n in (0.1, 0.5, 1.0):
            p = ModelParams(n=n, r=1.0)
            rhs = lindblad_rhs(p, thermal_product(n))
            assert np.max(np.abs(rhs)) <= 1e-12

    def test_double_excited_decay_rate(self):
        for gamma in (1.0, 2.5):
            p = ModelParams(n=0.0, r=0.0, gamma=gamma)
            rhs = lindblad_rhs(p, np.diag([1.0, 0, 0, 0]).astype(complex))
            # two independent decay channels empty the doubly excited level
            assert rhs[0, 0].real == pytest.approx(-2.0 * gamma, abs=1e-13)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(31)
        p = ModelParams(n=0.7, r=0.5)
        for _ in range(100):
            rhs = lindblad_rhs(p, ginibre_state(rng))
            assert abs(np.trace(rhs)) <= 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-12


class TestIntegrate:
    def test_matches_analytic_solution(self):
        p = ModelParams(n=1.0, r=1.0)
        traj = integrate(p, 5.0, steps=500)
        worst = 0.0
        for t, rho in zip(traj.times, traj.states):
            worst = max(worst, np.max(np.abs(rho - analytic_state_at(p, t))))
        assert worst <= 1e-8

    def test_fourth_order_convergence(self):
        """Pins the integrator's design order, which is five.

        Halving the step must cut the error by about 2^5 = 32. The band's
        lower bound of 24 is above what any fourth-order method gives
        (about 16), so a return to RK4 fails here.
        """
        p = ModelParams(n=1.0, r=0.3)

        def deviation(steps):
            traj = integrate(p, 5.0, steps=steps)
            return max(
                np.max(np.abs(rho - analytic_state_at(p, t)))
                for t, rho in zip(traj.times, traj.states)
            )

        ratio = deviation(250) / deviation(500)
        assert 24.0 < ratio < 48.0

    def test_diagonal_initial_state_stays_diagonal(self):
        traj = integrate(ModelParams(n=0.5, r=0.0), 3.0, steps=120)
        offdiag = np.ones((4, 4), dtype=bool)
        offdiag[range(4), range(4)] = False
        for rho in traj.states:
            assert np.max(np.abs(rho[offdiag])) <= 1e-15

    def test_default_step_density(self):
        traj = integrate(ModelParams(n=0.5, r=0.5), 2.0)
        assert len(traj) == 201
        assert np.all(np.diff(traj.times) > 0)

    def test_states_remain_valid(self):
        traj = integrate(ModelParams(n=1.0, r=1.0), 5.0, steps=300)
        for rho in traj.states[::30]:
            validate_state(rho)

    def test_rejects_bad_arguments(self):
        p = ModelParams(n=1.0, r=1.0)
        with pytest.raises(ValueError):
            integrate(p, 0.0, steps=10)
        with pytest.raises(ValueError):
            integrate(p, 1.0, steps=0)

    def test_giant_step_fails_loudly(self):
        with pytest.raises(StepTooLarge):
            integrate(ModelParams(n=1.0, r=1.0), 5.0, steps=1)

    def test_first_failing_step_is_named(self):
        # Steps 1-6 pass the positivity check; the states computed after
        # step 7 in the same checked block must not hide it.
        with pytest.raises(StepTooLarge, match=r"gamma\*t = 2\.310000 has eigenvalue -1\.417e-02"):
            integrate(ModelParams(n=2.0, r=0.5), 660.0, steps=2000)


class TestSuddenDeath:
    def test_unentangled_start_returns_none(self):
        assert sudden_death_time(ModelParams(n=1.0, r=0.0)) is None

    def test_finite_death_time(self):
        p = ModelParams(n=1.0, r=1.0)
        t_sd = sudden_death_time(p)
        assert t_sd == pytest.approx(0.3104540452, abs=1e-7)
        assert concurrence(analytic_state_at(p, t_sd - 0.01)) > 0.0
        for t in np.linspace(t_sd + 0.01, 5.0, 25):
            assert concurrence(analytic_state_at(p, t)) == 0.0

    def test_death_time_decreases_with_photon_number(self):
        times = [sudden_death_time(ModelParams(n=n, r=1.0)) for n in (0.1, 0.3, 0.5)]
        assert times[0] > times[1] > times[2]

    def test_vacuum_reservoir_never_brackets(self):
        with pytest.raises(NoBracket):
            sudden_death_time(ModelParams(n=0.0, r=1.0))


class TestTrajectoryMeasures:
    def test_monotone_decay_of_all_measures(self):
        for n, r in ((0.1, 1.0), (0.5, 0.5), (1.0, 0.3)):
            p = ModelParams(n=n, r=r)
            previous = None
            for t in np.linspace(0.0, 5.0, 26):
                rho = analytic_state_at(p, t)
                values = (concurrence(rho), hs_min(rho), trace_min(rho))
                if previous is not None:
                    assert values[0] <= previous[0] + 1e-12
                    assert values[1] <= previous[1] + 1e-12
                    assert values[2] <= previous[2] + 1e-12
                previous = values
