"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured number next to its tolerance."""

import math
import time

import numpy as np
import pytest

from thermomin import (
    ModelParams,
    WeakStrength,
    analytic_state_at,
    brute_force_hs_min,
    brute_force_trace_min,
    brute_force_weak_min,
    concurrence,
    concurrence_xstate,
    hs_min,
    integrate,
    partial_trace,
    sudden_death_time,
    trace_min,
    validate_state,
    weak_factor,
    weak_hs_min,
    weak_trace_min,
)
from thermomin.cli import run_validation

from _helpers import bell_diagonal_state, ginibre_state, random_qubit_unitary

GRID_COMBOS = [(n, r) for n in (0.1, 0.5, 1.0) for r in (0.3, 0.5, 1.0)]

# Sudden-death times for r = 1, found by bisection at first build and
# pinned as regression constants.
PINNED_SUDDEN_DEATH = {
    0.1: 1.2512507191300348,
    0.3: 0.6927213296294218,
    0.5: 0.5038960042595866,
    1.0: 0.3104540452361108,
}


def report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_1_analytic_numeric_equivalence():
    """The order-5 integrator at 500 steps reproduces the exact propagator to 1e-8 in <= 2 s."""
    start = time.perf_counter()
    worst = 0.0
    worst_at = None
    for n, r in GRID_COMBOS:
        p = ModelParams(n=n, r=r)
        traj = integrate(p, 5.0, steps=500)
        for t, rho in zip(traj.times, traj.states):
            dev = float(np.max(np.abs(rho - analytic_state_at(p, t))))
            if dev > worst:
                worst, worst_at = dev, (n, r, float(t))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-8 and elapsed <= 2.0
    report(1, passed, f"max element dev = {worst:.4e} at (n,r,gt)={worst_at}, tol 1e-8; {elapsed:.2f}s of 2s")
    assert worst <= 1e-8, (
        f"Integrator(500 steps) deviates from the exact solution by {worst:.4e} > 1e-8 at {worst_at}"
    )
    assert elapsed <= 2.0


def _degenerate_random_state(rng):
    # local rotations on either side keep the a marginal maximally mixed;
    # the a-side one moves the optimal measurement axis off the coordinate axes
    rho = bell_diagonal_state(rng)
    ua = random_qubit_unitary(rng) if rng.random() < 0.5 else np.eye(2, dtype=complex)
    lift = np.kron(ua, random_qubit_unitary(rng))
    rho = lift @ rho @ lift.conj().T
    if rng.random() < 0.5:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        tau = g @ g.conj().T
        tau /= np.trace(tau).real
        lam = float(rng.uniform(0.2, 0.8))
        rho = lam * rho + (1.0 - lam) * np.kron(np.eye(2, dtype=complex) / 2.0, tau)
    return rho


def test_criterion_2_closed_forms_match_oracle():
    """Closed forms vs brute force: 1e-9 on direct-case states, 1e-12 on degenerate-marginal ones."""
    start = time.perf_counter()
    combos = GRID_COMBOS + [(0.3, 0.9)]
    times = (0.25, 0.8, 1.5, 2.5, 4.0)
    dev_traj = 0.0
    count = 0
    for n, r in combos:
        p = ModelParams(n=n, r=r)
        for t in times:
            rho = analytic_state_at(p, t)
            marg = np.linalg.eigvalsh(partial_trace(rho, "a"))
            assert marg[-1] - marg[0] > 1e-6, "sample unexpectedly near marginal degeneracy"
            dev_traj = max(dev_traj, abs(hs_min(rho) - brute_force_hs_min(rho)))
            dev_traj = max(dev_traj, abs(trace_min(rho) - brute_force_trace_min(rho)))
            count += 1
    assert count == 50

    rng = np.random.default_rng(2024)
    dev_direct = 0.0
    dev_degenerate = 0.0
    n_degenerate = 0
    for i in range(100):
        rho = ginibre_state(rng) if i % 2 == 0 else _degenerate_random_state(rng)
        marg = np.linalg.eigvalsh(partial_trace(rho, "a"))
        direct = marg[-1] - marg[0] > 1e-9
        d = max(
            abs(hs_min(rho) - brute_force_hs_min(rho)),
            abs(trace_min(rho) - brute_force_trace_min(rho)),
        )
        if direct:
            dev_direct = max(dev_direct, d)
        else:
            n_degenerate += 1
            dev_degenerate = max(dev_degenerate, d)
    elapsed = time.perf_counter() - start
    passed = dev_traj <= 1e-9 and dev_direct <= 1e-9 and dev_degenerate <= 1e-12 and elapsed <= 30.0
    report(
        2,
        passed,
        f"trajectory dev = {dev_traj:.2e} (tol 1e-9), random direct dev = {dev_direct:.2e} "
        f"(tol 1e-9), random degenerate dev = {dev_degenerate:.2e} over {n_degenerate} states (tol 1e-12); "
        f"{elapsed:.1f}s of 30s",
    )
    assert dev_traj <= 1e-9
    assert dev_direct <= 1e-9
    assert n_degenerate >= 40
    assert dev_degenerate <= 1e-12
    assert elapsed <= 30.0


def test_criterion_3_xstate_shortcuts():
    """Shortcut formulas agree with the general routes to 1e-10 on 200 samples."""
    worst = 0.0
    count = 0
    for n in (0.1, 0.3, 0.5, 0.75, 1.0):
        for r in (0.2, 0.4, 0.6, 0.8, 1.0):
            p = ModelParams(n=n, r=r)
            for t in np.linspace(0.0, 5.0, 8):
                rho = analytic_state_at(p, float(t))
                r23 = abs(rho[1, 2])
                worst = max(worst, abs(concurrence_xstate(rho) - concurrence(rho)))
                worst = max(worst, abs(hs_min(rho) - 2.0 * r23**2))
                worst = max(worst, abs(trace_min(rho) - 2.0 * r23))
                count += 1
    passed = worst <= 1e-10 and count == 200
    report(3, passed, f"max dev = {worst:.2e} over {count} samples, tol 1e-10")
    assert count == 200
    assert worst <= 1e-10


def test_criterion_4_sudden_death_and_min_robustness():
    """Finite sudden death, decreasing with n, with nonlocality surviving it."""
    observed = {}
    for n in (0.1, 0.3, 0.5, 1.0):
        p = ModelParams(n=n, r=1.0)
        t_sd = sudden_death_time(p)
        assert t_sd is not None and math.isfinite(t_sd)
        observed[n] = t_sd
        for t in np.linspace(t_sd * 1.001 + 1e-6, 10.0, 20):
            assert concurrence(analytic_state_at(p, float(t))) == 0.0
        rho_sd = analytic_state_at(p, t_sd)
        assert hs_min(rho_sd) > 1e-6
        assert trace_min(rho_sd) > 1e-6
    ordered = [observed[n] for n in (0.1, 0.3, 0.5, 1.0)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    pin_dev = max(abs(observed[n] - PINNED_SUDDEN_DEATH[n]) for n in observed)
    passed = pin_dev <= 1e-7
    report(
        4,
        passed,
        "t_sd = " + ", ".join(f"{n}:{observed[n]:.6f}" for n in sorted(observed))
        + f"; pinned-value dev = {pin_dev:.2e} (tol 1e-7)",
    )
    assert pin_dev <= 1e-7


def test_criterion_5_weak_measurement_behavior():
    """Weak values increase with strength, never exceed projective, and saturate."""
    p = ModelParams(n=0.5, r=0.5)
    strengths = [WeakStrength(x) for x in (0.1, 1.0, 3.0, 30.0)]
    worst_sat = 0.0
    for t in np.linspace(0.0, 5.0, 11):
        rho = analytic_state_at(p, float(t))
        n2 = hs_min(rho)
        n1 = trace_min(rho)
        weak2 = [weak_hs_min(rho, w) for w in strengths]
        weak1 = [weak_trace_min(rho, w) for w in strengths]
        assert all(b > a for a, b in zip(weak2, weak2[1:]))
        assert all(b > a for a, b in zip(weak1, weak1[1:]))
        assert all(v <= n2 + 1e-15 for v in weak2)
        assert all(v <= n1 + 1e-15 for v in weak1)
        worst_sat = max(worst_sat, abs(weak2[-1] - n2), abs(weak1[-1] - n1))
    factor_dev = abs(weak_factor(WeakStrength(0.0)) - 0.5)
    passed = worst_sat <= 1e-10 and factor_dev <= 1e-14
    report(
        5,
        passed,
        f"saturation dev at x=30: {worst_sat:.2e} (tol 1e-10); "
        f"factor(0) dev = {factor_dev:.1e} (tol 1e-14)",
    )
    assert worst_sat <= 1e-10
    assert factor_dev <= 1e-14


def test_criterion_6_state_validity_along_trajectories():
    """Every sampled state is Hermitian, unit trace and positive within slack."""
    checked = 0
    for n, r in GRID_COMBOS:
        p = ModelParams(n=n, r=r)
        for t in np.linspace(0.0, 5.0, 26):
            validate_state(analytic_state_at(p, float(t)))
            checked += 1
        for t in (10.0, 25.0, 50.0):
            validate_state(analytic_state_at(p, t))
            checked += 1
    for n, r in ((0.1, 1.0), (1.0, 0.5)):
        traj = integrate(ModelParams(n=n, r=r), 5.0, steps=500)
        for rho in traj.states:
            validate_state(rho)
            checked += 1
    report(6, True, f"{checked} states validated (trace/hermiticity 1e-12, eigenvalue slack -1e-10)")


def test_criterion_7_weak_scaling_discrepancy_documented():
    """Direct weak maximization scales as (1-2 t1 t2)^2, not the reported (1-t1 t2)."""
    rho = analytic_state_at(ModelParams(n=0.5, r=0.5), 1.0)
    n2 = brute_force_hs_min(rho)
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        w = WeakStrength(x)
        measured = brute_force_weak_min(rho, w, "hs") / n2
        expected = (1.0 - 2.0 * w.t1 * w.t2) ** 2
        worst = max(worst, abs(measured - expected))
    w1 = WeakStrength(1.0)
    gap_between_conventions = abs((1.0 - 2.0 * w1.t1 * w1.t2) ** 2 - weak_factor(w1))
    report_text, _ = run_validation(sample_count=2, seed=11)
    marker = "direct maximization ratio |rho-Omega|_2^2 / N2 equals (1-2 t1 t2)^2"
    ratio_line = next(line for line in report_text.splitlines() if marker in line)
    passed = worst <= 1e-6 and ratio_line.endswith("PASS")
    report(
        7,
        passed,
        f"ratio dev = {worst:.2e} (tol 1e-6); conventions differ by "
        f"{gap_between_conventions:.3f} at x=1 (informational)",
    )
    assert worst <= 1e-6
    assert ratio_line.endswith("PASS")
    assert gap_between_conventions > 0.1  # the two scalings are genuinely different
