"""Command line front end: sweep data generation and self-validation.

Commands
--------
sweep-time      CSV of concurrence and nonlocality values along the exact
                (or numerically integrated) trajectory for each (n, r) pair.
sweep-strength  CSV of projective and weak nonlocality values for each
                measurement strength x at fixed (n, r).
validate        Cross-checks the closed forms against the brute-force
                route and the exact propagator against the fixed-step
                order-5 integrator; exit status 0 only if every
                required check passes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, measures, oracle, qstate


class InvalidConfig(ValueError):
    """Sweep configuration violates its contract."""


class IoFailure(RuntimeError):
    """Output file could not be written."""


@dataclass
class SweepConfig:
    """Parameter axes and output location for the sweep commands."""

    n_values: list = field(default_factory=lambda: [1.0])
    r_values: list = field(default_factory=lambda: [1.0])
    x_values: list = field(default_factory=lambda: [0.1, 1.0, 3.0, 30.0])
    t_max: float = 5.0
    t_steps: int = 200
    output_path: str = ""

    def validate(self):
        if not self.n_values or not self.r_values or not self.x_values:
            raise InvalidConfig("n, r and x value lists must be non-empty")
        if self.t_steps < 2:
            raise InvalidConfig(f"steps must be >= 2, got {self.t_steps}")
        if not (self.t_max > 0.0):
            raise InvalidConfig(f"t-max must be > 0, got {self.t_max}")
        if any(n < 0.0 for n in self.n_values):
            raise InvalidConfig("all n values must be >= 0")
        if any(not (0.0 <= r <= 1.0) for r in self.r_values):
            raise InvalidConfig("all r values must lie in [0, 1]")
        if any(x < 0.0 for x in self.x_values):
            raise InvalidConfig("all x values must be >= 0")
        if not self.output_path:
            raise InvalidConfig("an output path is required (--out)")


def _fmt(value: float) -> str:
    # +0.0 normalizes negative zero so output bytes are stable.
    return f"{float(value) + 0.0:.12g}"


def _write_rows(path: str, header: str, rows):
    text = header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _states_on_grid(p: dynamics.ModelParams, t_max: float, t_steps: int, integrator: str):
    """States at the t_steps uniform output times, exact or integrated.

    integrator "rk4" selects the fixed-step order-5 integrator
    (dynamics.integrate); the name is kept for existing callers.
    """
    times = np.linspace(0.0, t_max, t_steps)
    if integrator == "analytic":
        return times, dynamics.analytic_states(p, times)
    if integrator == "rk4":
        per_unit = dynamics.DEFAULT_STEPS_PER_UNIT_TIME
        sub = max(1, math.ceil(per_unit * t_max / (t_steps - 1)))
        traj = dynamics.integrate(p, t_max, steps=sub * (t_steps - 1))
        return times, traj.states[::sub]
    raise InvalidConfig(f"unknown integrator {integrator!r} (use 'analytic' or 'rk4')")


def run_time_sweep(cfg: SweepConfig, integrator: str = "analytic") -> int:
    """Write n,r,gamma_t,C,N2,N1 rows ordered by (n, r, gamma_t); returns row count."""
    cfg.validate()
    rows = []
    for n in sorted(cfg.n_values):
        for r in sorted(cfg.r_values):
            p = dynamics.ModelParams(n=n, r=r)
            times, states = _states_on_grid(p, cfg.t_max, cfg.t_steps, integrator)
            # One validated pass over the trajectory; the weak columns are not written.
            rep = measures.evaluate_measures(states, measures.WeakStrength(0.0))
            columns = (times.tolist(), rep.C.tolist(), rep.N2.tolist(), rep.N1.tolist())
            rows.extend((n, r, *values) for values in zip(*columns))
    _write_rows(cfg.output_path, "n,r,gamma_t,C,N2,N1", rows)
    return len(rows)


def run_strength_sweep(cfg: SweepConfig, integrator: str = "analytic") -> int:
    """Write x,gamma_t,N2,N1,N2W,N1W rows ordered by (x, gamma_t); returns row count.

    Requires exactly one n and one r value; the weak values scale the
    projective ones by (1 - t1*t2) at each strength.
    """
    cfg.validate()
    if len(cfg.n_values) != 1 or len(cfg.r_values) != 1:
        raise InvalidConfig("sweep-strength needs exactly one n and one r value")
    p = dynamics.ModelParams(n=cfg.n_values[0], r=cfg.r_values[0])
    times, states = _states_on_grid(p, cfg.t_max, cfg.t_steps, integrator)
    # Two calls validate the trajectory twice, which costs less than the
    # concurrence that evaluate_measures would compute and this sweep drops.
    n2s, n1s = measures.hs_min(states), measures.trace_min(states)
    projective = list(zip(times.tolist(), n2s.tolist(), n1s.tolist()))
    rows = []
    for x in sorted(cfg.x_values):
        f = measures.weak_factor(measures.WeakStrength(x))
        for t, n2, n1 in projective:
            rows.append((x, t, n2, n1, f * n2, f * n1))
    _write_rows(cfg.output_path, "x,gamma_t,N2,N1,N2W,N1W", rows)
    return len(rows)


# ----------------------------------------------------------------------
# validate command


def _random_state(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_degenerate_state(rng) -> np.ndarray:
    """Random state whose subsystem-a marginal is exactly maximally mixed."""
    # Mixture of the four Bell projectors, rotated locally and optionally
    # blended with I/2 x tau_b; every ingredient has zero a-side Bloch
    # vector, and the a-side rotation moves the optimum off the grid axes.
    s = 1.0 / math.sqrt(2.0)
    bell = np.array(
        [
            [0.0, s, s, 0.0],
            [0.0, s, -s, 0.0],
            [s, 0.0, 0.0, s],
            [s, 0.0, 0.0, -s],
        ],
        dtype=complex,
    )
    probs = rng.dirichlet(np.ones(4))
    rho = sum(pk * np.outer(v, v.conj()) for pk, v in zip(probs, bell))
    ua = _random_qubit_unitary(rng) if rng.random() < 0.5 else qstate.ID2
    lift = np.kron(ua, _random_qubit_unitary(rng))
    rho = lift @ rho @ lift.conj().T
    if rng.random() < 0.5:
        tau = _random_qubit_state(rng)
        lam = rng.uniform(0.2, 0.8)
        rho = lam * rho + (1.0 - lam) * np.kron(qstate.ID2 / 2.0, tau)
    return rho


def _random_qubit_state(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    tau = g @ g.conj().T
    return tau / np.trace(tau).real


def _random_qubit_unitary(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return np.array(
        [
            [q[0] + 1j * q[1], q[2] + 1j * q[3]],
            [-q[2] + 1j * q[3], q[0] - 1j * q[1]],
        ],
        dtype=complex,
    )


_GRID_COMBOS = [(n, r) for n in (0.1, 0.5, 1.0) for r in (0.3, 0.5, 1.0)]


def _check_rk4_agreement(lines):
    worst = 0.0
    for n, r in _GRID_COMBOS:
        p = dynamics.ModelParams(n=n, r=r)
        traj = dynamics.integrate(p, 5.0, steps=500)
        dev = float(np.max(np.abs(traj.states - dynamics.analytic_states(p, traj.times))))
        lines.append(f"    n={n:<4g} r={r:<4g} max element dev = {dev:.6e}")
        worst = max(worst, dev)
    return worst


def _trajectory_direct_samples():
    combos = _GRID_COMBOS + [(0.3, 0.9)]
    times = (0.25, 0.8, 1.5, 2.5, 4.0)
    samples = []
    for n, r in combos:
        p = dynamics.ModelParams(n=n, r=r)
        for t in times:
            samples.append(dynamics.analytic_state_at(p, t))
    return samples


def run_validation(sample_count: int = 20, seed: int = 7):
    """Cross-check report and exit status (0 only if all required checks pass).

    Sections: (a) exact propagator vs the fixed-step order-5 integrator,
    (b) closed forms vs brute-force maximization on trajectory and seeded
    random states, (c) invariant
    suites, (d) weak-measurement scaling, where the required part confirms
    the direct maximization ratio (1 - 2 t1 t2)^2 and the difference from
    the reported (1 - t1 t2) convention is informational.
    """
    if sample_count < 1:
        raise InvalidConfig(f"sample count must be >= 1, got {sample_count}")
    rng = np.random.default_rng(seed)
    lines = []
    results = []  # (required, name, passed)

    def record(required, name, passed, detail):
        results.append((required, name, passed))
        flag = "PASS" if passed else "FAIL"
        lines.append(f"    {detail} -> {flag}")

    lines.append("thermomin validation report")
    lines.append(f"seed = {seed}, random samples = {sample_count}")
    lines.append("")

    # (a) exact propagator vs integrator
    lines.append("[a] exact propagator vs fixed-step order-5 integrator (gamma*t in [0, 5], 500 steps)")
    worst = _check_rk4_agreement(lines)
    record(True, "rk4-agreement", worst <= 1e-8, f"worst dev = {worst:.6e} (tolerance 1.0e-08)")
    lines.append("")

    # (b) closed forms vs brute force
    lines.append("[b] closed-form measures vs brute-force maximization")
    samples = _trajectory_direct_samples()
    dev_hs = max(abs(measures.hs_min(s) - oracle.brute_force_hs_min(s)) for s in samples)
    dev_tr = max(abs(measures.trace_min(s) - oracle.brute_force_trace_min(s)) for s in samples)
    record(
        True,
        "oracle-trajectory",
        dev_hs <= 1e-9 and dev_tr <= 1e-9,
        f"trajectory samples ({len(samples)}, direct case): hs dev = {dev_hs:.6e}, "
        f"trace dev = {dev_tr:.6e} (tolerance 1.0e-09)",
    )
    dev_direct = 0.0
    dev_grid = 0.0
    n_grid = 0
    for i in range(sample_count):
        if i % 2 == 0:
            rho = _random_state(rng)
        else:
            rho = _random_degenerate_state(rng)
        d_hs = abs(measures.hs_min(rho) - oracle.brute_force_hs_min(rho))
        d_tr = abs(measures.trace_min(rho) - oracle.brute_force_trace_min(rho))
        if oracle._marginal_direction(rho) is not None:
            dev_direct = max(dev_direct, d_hs, d_tr)
        else:
            n_grid += 1
            dev_grid = max(dev_grid, d_hs, d_tr)
    record(
        True,
        "oracle-random",
        dev_direct <= 1e-9 and dev_grid <= 1e-3,
        f"random states ({sample_count}, {n_grid} via grid search): direct dev = "
        f"{dev_direct:.6e} (tol 1.0e-09), grid dev = {dev_grid:.6e} (tol 1.0e-03)",
    )
    lines.append("")

    # (c) invariant suites
    lines.append("[c] invariant suites")
    dev = 0.0
    for _ in range(100):
        rho = _random_state(rng)
        back = qstate.bloch_compose(qstate.bloch_decompose(rho))
        dev = max(dev, float(np.max(np.abs(back - rho))))
    record(True, "bloch-round-trip", dev <= 1e-12, f"bloch round trip (100 states): max dev = {dev:.6e} (tol 1.0e-12)")

    dev = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (g + g.conj().T)
        evals, vecs = qstate.hermitian_eigensystem(h)
        dev = max(dev, float(np.max(np.abs((vecs * evals) @ vecs.conj().T - h))))
        dev = max(dev, float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim)))))
    record(True, "eigensystem", dev <= 1e-10, f"eigensystem reconstruction (100 matrices): max dev = {dev:.6e} (tol 1.0e-10)")

    ok = True
    for _ in range(50):
        rho = _random_state(rng)
        a = rho - np.trace(rho) / 4.0 * np.eye(4)
        ok = ok and qstate.trace_norm(a) >= math.sqrt(qstate.hs_norm_sq(a)) - 1e-12
        red = qstate.partial_trace(rho, "b")
        ok = ok and abs(np.trace(red).real - 1.0) <= 1e-12
    record(True, "norms-and-marginals", ok, "trace_norm >= hs norm and trace-preserving reductions (50 states)")

    dev = 0.0
    w1 = measures.WeakStrength(1.0)
    mono_ok = True
    order_ok = True
    for n, r in ((0.1, 0.3), (0.1, 1.0), (0.5, 0.5), (1.0, 0.3), (1.0, 1.0)):
        p = dynamics.ModelParams(n=n, r=r)
        previous = None
        for t in np.linspace(0.0, 5.0, 12):
            rho = dynamics.analytic_state_at(p, t)
            r23 = abs(rho[1, 2])
            c_gen = measures.concurrence(rho)
            n2 = measures.hs_min(rho)
            n1 = measures.trace_min(rho)
            dev = max(dev, abs(measures.concurrence_xstate(rho) - c_gen))
            dev = max(dev, abs(n2 - 2.0 * r23**2), abs(n1 - 2.0 * r23))
            rep = measures.evaluate_measures(rho, w1)
            order_ok = order_ok and 0.0 <= rep.C <= 1.0 and rep.N2W <= rep.N2 + 1e-15
            order_ok = order_ok and rep.N1W <= rep.N1 + 1e-15 and n1 >= n2 - 1e-12
            if previous is not None:
                mono_ok = mono_ok and c_gen <= previous[0] + 1e-12
                mono_ok = mono_ok and n2 <= previous[1] + 1e-12 and n1 <= previous[2] + 1e-12
            previous = (c_gen, n2, n1)
    record(True, "xstate-identities", dev <= 1e-10, f"x-state shortcuts vs general routes (60 samples): max dev = {dev:.6e} (tol 1.0e-10)")
    record(True, "measure-ordering", order_ok and mono_ok, "measure bounds, weak <= projective, monotone decay along trajectories")

    dev = 0.0
    for _ in range(15):
        rho = _random_state(rng)
        lift = np.kron(_random_qubit_unitary(rng), _random_qubit_unitary(rng))
        rotated = lift @ rho @ lift.conj().T
        dev = max(dev, abs(measures.hs_min(rotated) - measures.hs_min(rho)))
        dev = max(dev, abs(measures.trace_min(rotated) - measures.trace_min(rho)))
    record(True, "local-unitary", dev <= 1e-8, f"local-unitary invariance (15 states): max dev = {dev:.6e} (tol 1.0e-08)")

    xs = np.linspace(0.0, 5.0, 21)
    factors = [measures.weak_factor(measures.WeakStrength(float(x))) for x in xs]
    ok = all(b > a for a, b in zip(factors, factors[1:]))
    ok = ok and abs(factors[0] - 0.5) <= 1e-14
    ok = ok and abs(measures.weak_factor(measures.WeakStrength(30.0)) - 1.0) <= 1e-12
    record(True, "weak-factor", ok, "weak factor strictly increasing, f(0) = 1/2, f(30) = 1")

    dev_idem = dev_norm = dev_ident = dev_limit = 0.0
    for _ in range(15):
        rho = _random_state(rng)
        d = oracle.direction_from_vector(rng.normal(size=3))
        w = measures.WeakStrength(float(rng.uniform(0.0, 3.0)))
        post = oracle.projective_post_state(rho, d)
        dev_idem = max(dev_idem, float(np.max(np.abs(oracle.projective_post_state(post, d) - post))))
        p1, p2 = d.projectors()
        plus = w.t1 * p1 + w.t2 * p2
        minus = w.t2 * p1 + w.t1 * p2
        dev_norm = max(
            dev_norm,
            float(np.max(np.abs(plus.conj().T @ plus + minus.conj().T @ minus - qstate.ID2))),
        )
        omega = oracle.weak_post_state(rho, d, w)
        factor = 1.0 - 2.0 * w.t1 * w.t2
        dev_ident = max(dev_ident, float(np.max(np.abs((rho - omega) - factor * (rho - post)))))
        dev_limit = max(dev_limit, float(np.max(np.abs(oracle.weak_post_state(rho, d, measures.WeakStrength(0.0)) - rho))))
        dev_limit = max(dev_limit, float(np.max(np.abs(oracle.weak_post_state(rho, d, measures.WeakStrength(30.0)) - post))))
    record(
        True,
        "post-states",
        dev_idem <= 1e-12 and dev_norm <= 1e-14 and dev_ident <= 1e-13 and dev_limit <= 1e-12,
        f"post-state contracts: idempotence {dev_idem:.2e}, operator normalization {dev_norm:.2e}, "
        f"weak identity {dev_ident:.2e}, strength limits {dev_limit:.2e}",
    )

    ok = True
    try:
        for n, r in ((0.1, 1.0), (1.0, 0.5)):
            p = dynamics.ModelParams(n=n, r=r)
            traj = dynamics.integrate(p, 5.0, steps=200)
            qstate.validate_state(traj.states[::20])
            qstate.validate_state(dynamics.analytic_states(p, np.linspace(0.0, 50.0, 26)))
    except (qstate.NotHermitian, qstate.TraceNotOne, qstate.NotPositive):
        ok = False
    record(True, "state-validity", ok, "every sampled trajectory state passes validation")
    lines.append("")

    # (d) weak-measurement scaling
    lines.append("[d] weak-measurement scaling conventions")
    rho = dynamics.analytic_state_at(dynamics.ModelParams(n=0.5, r=0.5), 1.0)
    n2 = oracle.brute_force_hs_min(rho)
    n1 = oracle.brute_force_trace_min(rho)
    worst_ratio_dev = 0.0
    for x in (0.5, 1.0, 2.0):
        w = measures.WeakStrength(x)
        expected = (1.0 - 2.0 * w.t1 * w.t2) ** 2
        ratio = oracle.brute_force_weak_min(rho, w, "hs") / n2
        worst_ratio_dev = max(worst_ratio_dev, abs(ratio - expected))
    record(
        True,
        "weak-ratio",
        worst_ratio_dev <= 1e-6,
        f"direct maximization ratio |rho-Omega|_2^2 / N2 equals (1-2 t1 t2)^2: "
        f"max dev = {worst_ratio_dev:.6e} (tolerance 1.0e-06)",
    )
    w = measures.WeakStrength(1.0)
    ratio_tr = oracle.brute_force_weak_min(rho, w, "trace") / n1
    lines.append(
        f"    info: trace ratio at x=1 measured = {ratio_tr:.12g}, "
        f"(1-2 t1 t2) = {1.0 - 2.0 * w.t1 * w.t2:.12g}"
    )
    lines.append(
        f"    info: the reported weak columns N2W/N1W scale by (1 - t1 t2) = "
        f"{measures.weak_factor(w):.12g} at x=1, which differs from the direct "
        "maximization factors above by construction"
    )
    lines.append("")

    required_fail = sum(1 for req, _, passed in results if req and not passed)
    total_required = sum(1 for req, _, _ in results if req)
    status = 0 if required_fail == 0 else 1
    lines.append(f"summary: {total_required} required checks, {required_fail} failed")
    lines.append(f"exit status: {status}")
    return "\n".join(lines) + "\n", status


# ----------------------------------------------------------------------
# argument handling


def _parse_floats(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidConfig(f"cannot parse numeric list {text!r}") from exc


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidConfig(f"config line {raw.strip()!r} is not key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("_", "-")] = val.strip()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return values


def _option_values(args) -> dict:
    """Command line flags over the --config file's values, keyed by flag name."""
    values = _load_config_file(args.config) if args.config else {}
    values.update((key.replace("_", "-"), v) for key, v in vars(args).items() if v is not None)
    return values


def _sweep_config(values: dict, default_n: str, default_r: str) -> SweepConfig:
    return SweepConfig(
        n_values=_parse_floats(values.get("n", default_n)),
        r_values=_parse_floats(values.get("r", default_r)),
        x_values=_parse_floats(values.get("x", "0.1,1,3,30")),
        t_max=float(values.get("t-max", "5")),
        t_steps=int(values.get("steps", "200")),
        output_path=values.get("out", ""),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermomin",
        description="Entanglement and measurement-induced nonlocality sweeps "
        "for two atoms in thermal reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value file; command line flags override it")

    sweep_common = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep_common.add_argument("--n", help="comma-separated mean photon numbers")
    sweep_common.add_argument("--r", help="comma-separated initial purity weights")
    sweep_common.add_argument("--t-max", help="largest scaled time gamma*t")
    sweep_common.add_argument("--steps", help="number of uniform time points")
    sweep_common.add_argument("--out", help="output CSV path")
    sweep_common.add_argument(
        "--integrator",
        choices=("analytic", "rk4"),
        help="state source for the sweep: the exact propagator (default) or, "
        "under the name rk4, the fixed-step order-5 integrator",
    )

    p_time = sub.add_parser("sweep-time", parents=[sweep_common], help="C, N2, N1 along the trajectory")
    p_time.set_defaults(default_n="1", default_r="1")

    p_strength = sub.add_parser(
        "sweep-strength", parents=[sweep_common], help="projective and weak nonlocality per strength x"
    )
    p_strength.add_argument("--x", help="comma-separated weak measurement strengths")
    p_strength.set_defaults(default_n="0.5", default_r="0.5")

    p_val = sub.add_parser("validate", parents=[common], help="run the cross-check report")
    p_val.add_argument("--samples", help="number of seeded random states")
    p_val.add_argument("--seed", help="random seed for the report")

    args = parser.parse_args(argv)
    try:
        values = _option_values(args)
        if args.command in ("sweep-time", "sweep-strength"):
            run = run_time_sweep if args.command == "sweep-time" else run_strength_sweep
            cfg = _sweep_config(values, args.default_n, args.default_r)
            count = run(cfg, integrator=values.get("integrator", "analytic"))
            print(f"wrote {count} rows to {cfg.output_path}")
            return 0
        report, status = run_validation(
            sample_count=int(values.get("samples", "20")),
            seed=int(values.get("seed", "7")),
        )
        print(report, end="")
        return status
    except (InvalidConfig, IoFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
