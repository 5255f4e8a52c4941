import math
import re
import sys
import tracemalloc
import warnings

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
from thermomin import dynamics
from thermomin.cli import _states_on_grid
from thermomin.dynamics import (
    MAX_STEPS,
    SUDDEN_DEATH_HORIZON,
    SUDDEN_DEATH_XTOL,
    _integrate_rows,
    _taylor_step,
)

from _helpers import ginibre_state


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
UPPER = np.triu_indices(4, 1)


def looped_rhs(p, rho):
    """The thermal generator as a loop over both atoms' decay and excitation
    channels, each term formed and added to a zero start in turn."""
    out = np.zeros_like(rho)
    down = 0.5 * p.gamma * (p.n + 1.0)
    up = 0.5 * p.gamma * p.n
    for raise_op in (np.kron(SIGMA_PLUS, ID2), np.kron(ID2, SIGMA_PLUS)):
        lower_op = raise_op.T.copy()
        num = raise_op @ lower_op
        nlo = lower_op @ raise_op
        out += down * (2.0 * lower_op @ rho @ raise_op - num @ rho - rho @ num)
        out += up * (2.0 * raise_op @ rho @ lower_op - nlo @ rho - rho @ nlo)
    return out


def coordinates(h):
    """The 16 Hermitian coordinates of each Hermitian 4x4 matrix of h: its
    diagonal, then the real and the imaginary parts of its upper triangle."""
    upper = h[..., UPPER[0], UPPER[1]]
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real, upper.real, upper.imag], axis=-1)


def hermitian_matrices(x):
    """The Hermitian 4x4 matrices of the coordinates x, entry by entry."""
    h = np.zeros(x.shape[:-1] + (4, 4), dtype=complex)
    for k in range(4):
        h[..., k, k] = x[..., k]
    for k, (i, j) in enumerate(zip(*UPPER)):
        h.real[..., i, j] = h.real[..., j, i] = x[..., 4 + k]
        h.imag[..., i, j], h.imag[..., j, i] = x[..., 10 + k], -x[..., 10 + k]
    return h


def coordinate_generator(p):
    """looped_rhs as a real 16x16 matrix on Hermitian coordinates: column k
    holds the coordinates of looped_rhs of the matrix with coordinates e_k."""
    return np.ascontiguousarray(coordinates(looped_rhs(p, hermitian_matrices(np.eye(16)))).T)


def batched_blocks(p, t_max, steps):
    """integrate's trajectory, without its check, from blocks of up to 50
    states formed as batched (m, 16, 16) @ (16,) products of the step powers
    on Hermitian coordinates, renormalized out of place by their diagonal.
    The step and its powers are the real parts of complex products, as
    integrate forms them."""
    step = _taylor_step(t_max / steps * coordinate_generator(p) / p.gamma)
    x = np.empty((steps + 1, 16))
    x[0] = coordinates(initial_state(p))
    power = step
    powers = [step.real]
    for _ in range(1, min(50, steps)):
        power = step @ power
        powers.append(power.real)
    powers = np.array(powers)
    for k in range(0, steps, len(powers)):
        m = min(len(powers), steps - k)
        block = powers[:m] @ x[k]
        x[k + 1 : k + 1 + m] = block / block[:, :4].sum(axis=1, keepdims=True)
    return hermitian_matrices(x)


def scalar_elements(p, t):
    """rho11, rho22, rho44, rho23 at one time, the exact solution written out with Python floats."""
    n, r = p.n, p.r
    k = 2.0 * n + 1.0
    g = k * k
    b = r * k - 2.0 * (n + 1.0)
    a = r * (n + 1.0) * (4.0 * n + 2.0) - 2.0 * (n + 1.0) ** 2
    e1, u = math.exp(-k * t), -math.expm1(-k * t)
    rho11 = (n + (n + 1.0) * e1) * (n * u + (1.0 - r) * k * e1) / g
    rho22 = (2.0 * n * (n + 1.0) - b * e1 + a * e1 * e1) / (2.0 * g)
    rho44 = (n + 1.0) * u * ((n + 1.0) * u + r * k * e1) / g
    rho23 = 0.5 * r * e1
    return rho11, rho22, rho44, rho23


def scalar_sudden_death_time(p, scan_step):
    """The sudden-death scan and bisection one time at a time, on scalar_elements."""

    def gap(t):
        rho11, _, rho44, rho23 = scalar_elements(p, t)
        return abs(rho23) - math.sqrt(max(rho11 * rho44, 0.0))

    lo, t = 0.0, scan_step
    while gap(t) > 0.0:
        lo = t
        t += scan_step
        assert t <= SUDDEN_DEATH_HORIZON
    hi = t
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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
        above = np.nextafter(math.sqrt(sys.float_info.max) / 4.0, math.inf)
        for n in (math.inf, 1e308, above):
            with pytest.raises(ValueError, match="^n must"):
                ModelParams(n=n, r=0.5)

    def test_largest_photon_number_evolves_to_valid_states(self):
        n = math.sqrt(sys.float_info.max) / 4.0
        times = np.array([0.0, 1e-155, 1e-154, 1e-153, 1e-3, 1.0, 5.0])
        for r in (0.0, 0.3, 0.7, 1.0):
            validate_state(analytic_states(ModelParams(n=n, r=r), times))


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

    def test_stack_equals_the_scalar_formula_bitwise(self):
        rng = np.random.default_rng(29)
        for i in range(40):
            n = 0.0 if i % 8 == 0 else float(rng.uniform(0.0, 3.0))
            r = (0.0, 1.0, float(rng.uniform()))[i % 3]
            p = ModelParams(n=n, r=r)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 60.0, size=49))])
            expected = np.zeros((len(times), 4, 4), dtype=complex)
            for rho, t in zip(expected, times.tolist()):
                rho11, rho22, rho44, rho23 = scalar_elements(p, t)
                rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = rho11, rho22, rho22, rho44
                rho[1, 2] = rho[2, 1] = rho23
            assert analytic_states(p, times).tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize("gamma", [1.0, 1.3])
    @pytest.mark.parametrize("n", [0.0, 0.3, 1.0, 1e3])
    def test_superoperator_is_the_generator_of_the_basis_bitwise(self, n, gamma):
        p = ModelParams(n=n, r=0.5, gamma=gamma)
        basis = hermitian_matrices(np.eye(16))
        generator = dynamics._rated_sum(p, dynamics._channel_generators())
        assert generator.dtype == float
        for rhs in (lindblad_rhs(p, basis), looped_rhs(p, basis)):
            assert generator.tobytes() == coordinates(rhs).T.tobytes()
        # Row-major, as the reference steps it: the layout sets the BLAS calls of the Taylor step.
        assert generator.flags.c_contiguous
        parts = dynamics._channel_generators()
        assert dynamics._channel_generators() is parts and not parts.flags.writeable

    def test_generator_equals_the_channel_loop_bitwise(self):
        rng = np.random.default_rng(33)
        stack = np.array([ginibre_state(rng) for _ in range(8)])
        for p in (ModelParams(n=0.0, r=0.5), ModelParams(n=0.7, r=0.5, gamma=1.3)):
            assert lindblad_rhs(p, stack).tobytes() == looped_rhs(p, stack).tobytes()

    def test_superoperator_and_stack_match_single_states(self):
        rng = np.random.default_rng(32)
        p = ModelParams(n=0.7, r=0.5, gamma=1.3)
        stack = np.array([ginibre_state(rng) for _ in range(20)])
        rhs = lindblad_rhs(p, stack)
        generator = dynamics._rated_sum(p, dynamics._channel_generators())
        for rho, row in zip(stack, rhs):
            assert np.array_equal(row, lindblad_rhs(p, rho))
            assert np.max(np.abs(generator @ coordinates(rho) - coordinates(row))) <= 1e-14
            assert np.max(np.abs(generator @ coordinates(rho) - coordinates(looped_rhs(p, rho)))) <= 1e-14


class TestIntegrate:
    def test_matches_analytic_solution(self):
        p = ModelParams(n=1.0, r=1.0)
        traj = integrate(p, 5.0, steps=500)
        worst = 0.0
        for t, rho in zip(traj.times, traj.states):
            worst = max(worst, np.max(np.abs(rho - analytic_state_at(p, t))))
        assert worst <= 1e-8

    def test_fifth_order_convergence(self):
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
        # Refused before the trajectory is allocated; the default step count
        # for a long enough time counts against the same bound.
        with pytest.raises(ValueError, match=f"got {MAX_STEPS + 1}$"):
            integrate(p, 1.0, steps=MAX_STEPS + 1)
        with pytest.raises(ValueError, match="got 100000000$"):
            integrate(p, 1e6)

    @pytest.mark.parametrize("steps", [10.0, 10.5, True, False, np.float64(10.0), np.bool_(True), "10"])
    def test_rejects_a_step_count_that_is_not_an_integer(self, steps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^steps must be an integer, got {re.escape(repr(steps))}$"):
                integrate(ModelParams(n=1.0, r=1.0), 1.0, steps)

    def test_integer_step_counts_of_any_integer_type_agree(self):
        p = ModelParams(n=0.5, r=0.5)
        reference = integrate(p, 1.0, 10)
        for steps in (np.int64(10), np.int32(10), np.uint16(10)):
            traj = integrate(p, 1.0, steps)
            assert traj.times.tobytes() == reference.times.tobytes()
            assert traj.states.tobytes() == reference.states.tobytes()

    @pytest.mark.parametrize("steps", [None, 10])
    @pytest.mark.parametrize("t_max", [math.inf, math.nan, -1.0])
    def test_rejects_a_time_that_is_not_finite_and_positive(self, t_max, steps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^t_max must be finite and > 0, got {t_max}$"):
                integrate(ModelParams(n=1.0, r=1.0), t_max, steps=steps)

    def test_paper_family_takes_no_eigen_solve(self, monkeypatch):
        # Gershgorin's discs certify every step of the paper's X family, so
        # neither the steps nor the initial state need eigvalsh; a
        # trajectory they cannot certify still takes it.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
        rng = np.random.default_rng(91)
        for n, r in zip(rng.uniform(0.0, 3.0, 5), rng.uniform(0.0, 1.0, 5)):
            assert len(integrate(ModelParams(n=n, r=r), 50.0, 5000)) == 5001
        assert calls == []
        with pytest.raises(StepTooLarge):
            integrate(ModelParams(n=1.0, r=1.0), 5.0, steps=1)
        assert calls == [1]

    @pytest.mark.parametrize("steps", [1, 49, 50, 51, 120, 5000])
    def test_blocks_match_step_by_step_stepping(self, steps):
        """Each stored state is one Taylor step from the one before it.

        The step counts cover one step, a block boundary at 50 stored
        states from either side and a short last block.
        """
        p = ModelParams(n=0.7, r=0.6)
        t_max = steps / 100.0
        generator = looped_rhs(p, np.eye(16, dtype=complex).reshape(16, 4, 4)).reshape(16, 16).T
        step = _taylor_step(t_max / steps * generator / p.gamma)
        rho = initial_state(p)
        expected = [rho]
        for _ in range(steps):
            rho = (step @ rho.reshape(-1)).reshape(4, 4)
            rho = 0.5 * (rho + rho.conj().T)
            rho = rho / np.trace(rho).real
            expected.append(rho)
        traj = integrate(p, t_max, steps=steps)
        assert np.max(np.abs(traj.states - np.array(expected))) <= 1e-14

    @pytest.mark.parametrize("steps", [7, 49, 50, 51, 123, 500, 4999])
    @pytest.mark.parametrize("n, r, h", [(0.7, 0.6, 0.01), (0.0, 1.0, 0.02), (3.0, 0.3, 0.005)])
    def test_in_place_blocks_equal_the_batched_reference_bitwise(self, n, r, h, steps):
        p = ModelParams(n=n, r=r)
        t_max = steps * h
        assert integrate(p, t_max, steps=steps).states.tobytes() == batched_blocks(p, t_max, steps).tobytes()

    def test_giant_step_fails_loudly(self):
        message = "state at gamma*t = 5.000000 has eigenvalue -4.101e+04 below slack -1e-08; reduce the step size"
        with pytest.raises(StepTooLarge, match=f"^{re.escape(message)}$"):
            integrate(ModelParams(n=1.0, r=1.0), 5.0, steps=1)

    @pytest.mark.parametrize(
        "n, t_max, steps",
        [(1.0, 1e6, 2), (1.0, 1e6, 50), (1.0, 1e6, 51), (1.0, 1e6, 120), (1e100, 1.0, 100)],
        ids=["2", "50", "51", "120", "n=1e100"],
    )
    def test_overflowing_step_powers_fail_without_warning(self, n, t_max, steps):
        # n = 1e100 overflows already in the Taylor terms of the step.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepTooLarge):
                integrate(ModelParams(n=n, r=1.0), t_max, steps=steps)

    def test_first_failing_step_is_named(self):
        # Steps 1-6 pass the positivity check; the states stored after
        # step 7 in the same batched check must not hide it.
        with pytest.raises(StepTooLarge, match=r"gamma\*t = 2\.310000 has eigenvalue -1\.417e-02"):
            integrate(ModelParams(n=2.0, r=0.5), 660.0, steps=2000)

    def test_first_failing_step_past_the_first_block_is_named(self):
        # Step 273 lies in the sixth block of 50 stored states.
        with pytest.raises(StepTooLarge, match=r"gamma\*t = 62\.790000 has eigenvalue -5\.758e-04"):
            integrate(ModelParams(n=3.0, r=0.5), 92.0, steps=400)


@pytest.mark.filterwarnings("error")
class TestIntegrateRows:
    """The sweeps keep every every-th state as they step, in a window of
    dynamics._WINDOW new states, instead of the whole trajectory."""

    # 7 and 3 do not divide the window; 300 and 5000 exceed it.
    @pytest.mark.parametrize("steps", [1, 49, 50, 51, 249, 250, 251, 5000])
    @pytest.mark.parametrize("every", [1, 3, 7, 250, 300, 5000])
    def test_rows_are_the_trajectory_rows_bitwise(self, steps, every):
        p = ModelParams(n=0.7, r=0.6)
        t_max = steps / 100.0
        rows = _integrate_rows(p, t_max, steps, every)
        assert len(rows) == steps // every + 1
        assert rows.tobytes() == integrate(p, t_max, steps).states[::every].tobytes()

    @pytest.mark.parametrize("every", [1, 3, 7, 250, 300])
    def test_rows_are_hermitian_bitwise(self, every):
        for n, r in ((0.7, 0.6), (0.0, 1.0), (3.0, 0.3), (0.5, 0.0)):
            rows = _integrate_rows(ModelParams(n=n, r=r), 12.0, 1200, every)
            assert len(rows) == 1200 // every + 1
            upper, lower = rows[:, UPPER[0], UPPER[1]], rows[:, UPPER[1], UPPER[0]]
            assert upper.conj().tobytes() == lower.tobytes()
            diagonal = np.diagonal(rows, axis1=1, axis2=2).imag
            assert not diagonal.any() and not np.signbit(diagonal).any()

    def test_seeded_rows_are_the_trajectory_rows_bitwise(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            p = ModelParams(n=float(rng.uniform(0.0, 3.0)), r=float(rng.uniform(0.0, 1.0)))
            steps, every = int(rng.integers(1, 3000)), int(rng.integers(1, 600))
            t_max = float(rng.uniform(0.5, 2.0)) * steps / 100.0
            expected = integrate(p, t_max, steps).states[::every]
            assert _integrate_rows(p, t_max, steps, every).tobytes() == expected.tobytes(), (p, steps, every)

    @pytest.mark.parametrize(
        "n, r, t_max, steps",
        [(1.0, 1.0, 5.0, 1), (2.0, 0.5, 660.0, 2000), (3.0, 0.5, 92.0, 400), (3e153, 1.0, 5.0, 597)],
        ids=["giant-step", "step-7-of-2000", "step-273-of-400", "not-finite"],
    )
    @pytest.mark.parametrize("every", [1, 3, 7, 300])
    def test_step_too_large_messages_equal_integrates(self, n, r, t_max, steps, every):
        # Step 273 lies past the first window; n = 3e153 is the CLI's
        # sweep-time --n 3e153, whose states are not finite.
        p = ModelParams(n=n, r=r)
        with pytest.raises(StepTooLarge) as expected:
            integrate(p, t_max, steps)
        with pytest.raises(StepTooLarge) as got:
            _integrate_rows(p, t_max, steps, every)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "t_max, steps, message",
        [
            (math.inf, 10, "t_max must be finite and > 0, got inf"),
            (1.0, 10.0, "steps must be an integer, got 10.0"),
            (1.0, True, "steps must be an integer, got True"),
            (1e6, 10**8, f"steps must lie in [1, {MAX_STEPS}], got 100000000"),
        ],
    )
    def test_arguments_are_checked_before_any_allocation(self, monkeypatch, t_max, steps, message):
        def no_empty(*args, **kwargs):
            raise AssertionError("allocated before the argument checks")

        monkeypatch.setattr(np, "empty", no_empty)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _integrate_rows(ModelParams(n=1.0, r=1.0), t_max, steps, 10)

    @pytest.mark.parametrize("t_max", [50.0, 1000.0], ids=["5000-steps", "100000-steps"])
    def test_sweep_memory_does_not_grow_with_the_steps(self, t_max):
        # Measured 0.23 MB at both: 11 rows, one 32 KB window of coordinates, the 50
        # real step powers (102 KB) and the certificate's copies; the whole trajectory
        # took 1.28 and 25.6 MB.
        p = ModelParams(n=0.6021, r=0.4363)
        tracemalloc.start()
        try:
            _, states = _states_on_grid(p, t_max, 11, "rk4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == 11
        assert peak < 0.5e6


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

    @pytest.mark.parametrize("scan_step", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_a_scan_step_that_is_not_finite_and_positive(self, scan_step):
        with pytest.raises(ValueError, match="scan_step must be finite and > 0"):
            sudden_death_time(ModelParams(n=1.0, r=1.0), scan_step=scan_step)

    def test_agrees_with_the_scalar_scan(self):
        # The scalar scan and bisection is the second route; at n = 0.001 its
        # scan takes about 1,070 default steps to reach the root.
        cases = [(1.0, 1.0, 0.005), (0.001, 1.0, 0.005), (0.02, 0.9, 0.005), (0.4, 0.6, 0.013), (2.5, 0.35, 1e-4)]
        cases += [(1.0, 1.0, 0.00121)]
        for n, r, scan_step in cases:
            p = ModelParams(n=n, r=r)
            assert abs(sudden_death_time(p, scan_step) - scalar_sudden_death_time(p, scan_step)) <= SUDDEN_DEATH_XTOL

    def test_gap_calls_per_verdict(self, monkeypatch):
        gap = dynamics._entanglement_gap
        calls = []
        monkeypatch.setattr(dynamics, "_entanglement_gap", lambda p, t: calls.append(len(t)) or gap(p, t))
        for n, r in ((1.0, 1.0), (0.001, 1.0), (0.4, 0.6), (2.5, 0.35), (0.3, 0.8), (1e3, 1e-8)):
            calls.clear()
            assert sudden_death_time(ModelParams(n=n, r=r)) > 0.0
            assert len(calls) <= 7
            assert calls == [2] + [63] * (len(calls) - 1)
        calls.clear()
        assert sudden_death_time(ModelParams(n=1.0, r=0.0)) is None
        with pytest.raises(NoBracket):
            sudden_death_time(ModelParams(n=0.0, r=1.0))
        assert calls == [2, 2]

    def test_gap_never_revives(self):
        # The search's premise: once the exact state's concurrence is zero it
        # stays zero, as for any local channel acting on both atoms.
        rng = np.random.default_rng(16)
        pairs = list(zip(rng.uniform(0.0, 3.0, 80), rng.uniform(0.0, 1.0, 80)))
        pairs += [(n, r) for n in (0.0, 1e-3, 10.0, 1e3) for r in (1e-300, 1e-8, 0.5, 0.83, 1.0)]
        pairs += [(n, (n + 1.0) / (2.0 * n + 1.0) * (1.0 - d)) for n in (0.5, 1.0, 3.0) for d in (0.0, 1e-8, 1e-4)]
        times = np.linspace(0.0, SUDDEN_DEATH_HORIZON, 20_001)
        for n, r in pairs:
            dead = dynamics._entanglement_gap(ModelParams(n=float(n), r=float(r)), times) <= 0.0
            assert not (dead[:-1] & ~dead[1:]).any(), (n, r)

    def test_general_concurrence_changes_sign_at_the_root(self):
        rng = np.random.default_rng(17)
        for n, r in zip(rng.uniform(0.02, 3.0, 600), rng.uniform(0.05, 1.0, 600)):
            p = ModelParams(n=float(n), r=float(r))
            t_sd = sudden_death_time(p)
            assert concurrence(analytic_state_at(p, t_sd * (1.0 - 1e-3))) > 0.0, (n, r)
            assert concurrence(analytic_state_at(p, t_sd * (1.0 + 1e-3))) == 0.0, (n, r)

    # Verdicts of the earlier scan-and-bisect search (0.005 scan step). For
    # tiny r the root lies within SUDDEN_DEATH_XTOL of 0; at r = 5e-324 the
    # coherence r/2 rounds to 0, so the start is unentangled.
    @pytest.mark.parametrize(
        "n, r, expected",
        [(0.0, 1e-8, 2.086162567138672e-09), (0.5, 1e-8, 1.4901161193847657e-09), (3.0, 1e-8, 2.9802322387695313e-10)]
        + [(n, r, 2.9802322387695313e-10) for n in (0.0, 0.5, 3.0) for r in (1e-10, 1e-100, 1e-300)]
        + [(n, 5e-324, None) for n in (0.0, 0.5, 3.0)],
    )
    def test_tiny_r_verdicts(self, n, r, expected):
        t_sd = sudden_death_time(ModelParams(n=n, r=r))
        assert t_sd is None if expected is None else abs(t_sd - expected) <= SUDDEN_DEATH_XTOL

    # The same at r = (n + 1)/(2n + 1) (1 + d), where the leading coefficient
    # of the death condition, a quartic in exp(-(2n + 1) t), vanishes; at
    # n = 0 that r is 1 and there is no root.
    @pytest.mark.parametrize(
        "n, roots",
        [
            (0.0, {-1e-4: NoBracket, -1e-8: NoBracket, 0.0: NoBracket}),
            (0.5, {-1e-4: 0.30166822940111165, -1e-8: 0.3017280450463296, 0.0: 0.3017280510067941,
                   1e-8: 0.30172805756330506, 1e-4: 0.3017878767848016}),
            (1.0, {-1e-4: 0.16105175107717518, -1e-8: 0.16108027845621115, 0.0: 0.16108028143644337,
                   1e-8: 0.1610802844166756, 1e-4: 0.16110881358385093}),
            (3.0, {-1e-4: 0.056310456097126003, -1e-8: 0.0563192930817604, 0.0: 0.05631929367780685,
                   1e-8: 0.05631929486989975, 1e-4: 0.0563281324505806}),
        ],
    )
    def test_verdicts_where_the_quartic_degenerates(self, n, roots):
        for d, expected in roots.items():
            p = ModelParams(n=n, r=(n + 1) / (2 * n + 1) * (1 + d))
            if expected is NoBracket:
                with pytest.raises(NoBracket):
                    sudden_death_time(p)
            else:
                assert abs(sudden_death_time(p) - expected) <= SUDDEN_DEATH_XTOL


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
