import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from thermomin import (
    ModelParams,
    WeakStrength,
    analytic_states,
    bloch_decompose,
    dynamics,
    evaluate_measures,
    hs_min,
    oracle,
    trace_min,
    weak_factor,
)
from thermomin.cli import (
    InvalidConfig,
    IoFailure,
    SweepConfig,
    _cells,
    _measures_on_grid,
    _post_state_contracts,
    _random_states,
    _states_on_grid,
    main,
    run_strength_sweep,
    run_time_sweep,
    run_validation,
)
from thermomin.measures import MARGINAL_EPS

# The package's source directory; pytest's pythonpath setting does not reach a subprocess.
SRC = str(Path(__file__).resolve().parent.parent / "src")


def reference_line(values):
    """One CSV line formatted value by value, the format the sweeps promise."""
    return ",".join(f"{v + 0.0:.12g}" for v in values) + "\n"


def traced_peak(call):
    """tracemalloc's peak over one call of call(), made after a first, untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


class TestTimeSweep:
    def test_small_sweep_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = SweepConfig(n_values=[1.0], r_values=[1.0], t_max=5.0, t_steps=3, output_path=str(out))
        assert run_time_sweep(cfg) == 3
        header, rows = read_csv(out)
        assert header == ["n", "r", "gamma_t", "C", "N2", "N1"]
        assert len(rows) == 3
        first = rows[0]
        assert first[2] == 0.0
        assert first[3] == pytest.approx(1.0, abs=1e-10)
        assert first[4] == pytest.approx(0.5, abs=1e-10)
        assert first[5] == pytest.approx(1.0, abs=1e-10)
        assert rows[-1][2] == pytest.approx(5.0)

    def test_separable_trajectory_is_all_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        cfg = SweepConfig(n_values=[0.5], r_values=[0.0], t_max=3.0, t_steps=5, output_path=str(out))
        run_time_sweep(cfg)
        _, rows = read_csv(out)
        for row in rows:
            assert row[3] == 0.0 and row[4] == 0.0 and row[5] == 0.0

    def test_sudden_death_ordering_across_photon_numbers(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = SweepConfig(
            n_values=[0.1, 0.3, 0.5], r_values=[1.0], t_max=2.0, t_steps=81, output_path=str(out)
        )
        run_time_sweep(cfg)
        _, rows = read_csv(out)
        first_zero = {}
        for row in rows:
            n, t, c = row[0], row[2], row[3]
            if c == 0.0 and n not in first_zero:
                first_zero[n] = t
        # entanglement survives longer in colder reservoirs
        assert first_zero[0.1] > first_zero[0.3] > first_zero[0.5]

    def test_rows_sorted_by_n_r_t(self, tmp_path):
        out = tmp_path / "order.csv"
        cfg = SweepConfig(
            n_values=[0.5, 0.1], r_values=[1.0, 0.3], t_max=1.0, t_steps=3, output_path=str(out)
        )
        run_time_sweep(cfg)
        _, rows = read_csv(out)
        keys = [(row[0], row[1], row[2]) for row in rows]
        assert keys == sorted(keys)

    def test_byte_identical_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = SweepConfig(
                n_values=[0.1, 1.0], r_values=[0.5], t_max=4.0, t_steps=50, output_path=str(out)
            )
            run_time_sweep(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    def test_rk4_integrator_matches_analytic(self, tmp_path):
        out_a = tmp_path / "analytic.csv"
        out_r = tmp_path / "rk4.csv"
        for out, integrator in ((out_a, "analytic"), (out_r, "rk4")):
            cfg = SweepConfig(
                n_values=[0.5], r_values=[1.0], t_max=2.0, t_steps=11, output_path=str(out)
            )
            run_time_sweep(cfg, integrator=integrator)
        _, rows_a = read_csv(out_a)
        _, rows_r = read_csv(out_r)
        for ra, rr in zip(rows_a, rows_r):
            np.testing.assert_allclose(rr, ra, atol=1e-7)

    @pytest.mark.parametrize("measure_slice", [1, 7, 10**6])
    @pytest.mark.parametrize(
        "ns, rs", [([0.4], [0.9]), ([0.0, 1.3], [1.0]), ([0.2], [0.0, 0.5, 1.0])], ids=["1pair", "2pairs", "3pairs"]
    )
    @pytest.mark.parametrize("integrator", ["analytic", "rk4"])
    def test_stacked_grid_matches_per_trajectory_reference(
        self, tmp_path, monkeypatch, integrator, ns, rs, measure_slice
    ):
        # One evaluate_measures call per trajectory, as the rows were first written.
        monkeypatch.setattr("thermomin.cli._MEASURE_SLICE", measure_slice)
        t_max, steps = 3.0, 13
        times = np.linspace(0.0, t_max, steps)
        sub = math.ceil(dynamics.DEFAULT_STEPS_PER_UNIT_TIME * t_max / (steps - 1))
        expected = ["n,r,gamma_t,C,N2,N1\n"]
        for n in ns:
            for r in rs:
                p = ModelParams(n=n, r=r)
                if integrator == "analytic":
                    states = analytic_states(p, times)
                else:
                    states = dynamics.integrate(p, t_max, steps=sub * (steps - 1)).states[::sub]
                rep = evaluate_measures(states, WeakStrength(0.0))
                expected += [reference_line((n, r, *row)) for row in zip(times, rep.C, rep.N2, rep.N1)]
        out = tmp_path / "grid.csv"
        cfg = SweepConfig(n_values=ns, r_values=rs, t_max=t_max, t_steps=steps, output_path=str(out))
        assert run_time_sweep(cfg, integrator=integrator) == len(expected) - 1
        assert out.read_text(encoding="ascii") == "".join(expected)

    @pytest.mark.parametrize("t_max, t_steps, sub", [(2.0, 5, 50), (50.0, 11, 500), (0.3, 11, 3)])
    def test_rk4_rows_equal_the_trajectory_rows_and_own_their_memory(self, t_max, t_steps, sub):
        # The rows are stepped in a window, not cut from a whole trajectory;
        # they must still be its every sub-th state, in an array of their own.
        p = ModelParams(n=0.5, r=0.8)
        times, states = _states_on_grid(p, t_max, t_steps, "rk4")
        full = dynamics.integrate(p, t_max, steps=sub * (t_steps - 1))
        assert len(full) == sub * (t_steps - 1) + 1
        assert states.tobytes() == full.states[::sub].tobytes()
        assert states.flags.owndata and states.flags.c_contiguous

    def test_invalid_configs_rejected(self, tmp_path):
        out = str(tmp_path / "x.csv")
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(n_values=[], output_path=out))
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(t_steps=1, output_path=out))
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(r_values=[1.2], output_path=out))
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(n_values=[-0.5], output_path=out))
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(output_path=""))
        with pytest.raises(InvalidConfig, match="t-max"):
            run_time_sweep(SweepConfig(t_max=math.inf, output_path=out))
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(output_path=out), integrator="verlet")

    @pytest.mark.parametrize("steps", [10.0, np.float64(10), "10", True, None], ids=repr)
    def test_a_steps_count_that_is_not_an_integer_is_refused(self, tmp_path, steps):
        # Each would reach np.linspace, or the range check itself, and fail
        # there with a bare TypeError.
        out = str(tmp_path / "x.csv")
        for run in (run_time_sweep, run_strength_sweep):
            with pytest.raises(InvalidConfig, match="steps must be an integer"):
                run(SweepConfig(n_values=[0.5], r_values=[0.5], t_steps=steps, output_path=out))
        assert not (tmp_path / "x.csv").exists()

    def test_numpy_integer_steps_are_accepted(self, tmp_path):
        out = tmp_path / "x.csv"
        run_time_sweep(SweepConfig(t_steps=np.int64(3), output_path=str(out)))
        expected = tmp_path / "y.csv"
        run_time_sweep(SweepConfig(t_steps=3, output_path=str(expected)))
        assert out.read_bytes() == expected.read_bytes()

    def test_unwritable_path_raises(self, tmp_path):
        cfg = SweepConfig(output_path=str(tmp_path / "missing" / "x.csv"), t_steps=2)
        with pytest.raises(IoFailure):
            run_time_sweep(cfg)


class TestStrengthSweep:
    def test_columns_and_weak_behavior(self, tmp_path):
        out = tmp_path / "strength.csv"
        cfg = SweepConfig(
            n_values=[0.5],
            r_values=[0.5],
            x_values=[0.1, 1.0, 3.0, 30.0],
            t_max=3.0,
            t_steps=16,
            output_path=str(out),
        )
        assert run_strength_sweep(cfg) == 64
        header, rows = read_csv(out)
        assert header == ["x", "gamma_t", "N2", "N1", "N2W", "N1W"]
        by_x = {}
        for x, t, n2, n1, n2w, n1w in rows:
            assert n2w <= n2 + 1e-15 and n1w <= n1 + 1e-15
            by_x.setdefault(t, {})[x] = (n2, n1, n2w, n1w)
        for t, per_x in by_x.items():
            xs = sorted(per_x)
            # weak values increase with strength at every fixed time
            for a, b in zip(xs, xs[1:]):
                assert per_x[b][2] > per_x[a][2]
                assert per_x[b][3] > per_x[a][3]
            n2, n1, n2w, n1w = per_x[30.0]
            assert abs(n2w - n2) <= 1e-10
            assert abs(n1w - n1) <= 1e-10

    def test_a_failing_strength_keeps_an_existing_csv(self, tmp_path, monkeypatch):
        # Every strength's weak factor is made before the file is opened.
        out = tmp_path / "kept.csv"
        out.write_bytes(b"old\n")
        real = weak_factor

        def failing(w):
            if w.x == 3.0:
                raise ValueError("refused")
            return real(w)

        monkeypatch.setattr("thermomin.measures.weak_factor", failing)
        with pytest.raises(ValueError, match="refused"):
            run_strength_sweep(SweepConfig(x_values=[0.1, 1.0, 3.0, 30.0], t_steps=3, output_path=str(out)))
        assert out.read_bytes() == b"old\n"

    def test_requires_single_parameter_point(self, tmp_path):
        cfg = SweepConfig(n_values=[0.1, 0.5], output_path=str(tmp_path / "s.csv"))
        with pytest.raises(InvalidConfig):
            run_strength_sweep(cfg)


class TestCsvFormat:
    def test_cells_match_per_value_format(self):
        rng = np.random.default_rng(11)
        edges = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300]
        edges += [3.0, -7.0, 1e12, 123456789012345.0]
        # One ulp either side of decimal ties at the 12th significant digit.
        for tie in (1.000000000005, 0.1234567890125, 98765.43210985):
            edges += [np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)]
        values = np.concatenate([edges, rng.normal(scale=1e3, size=61), rng.uniform(0.0, 1.0, size=61)])
        table = rng.permutation(values).reshape(-1, 3)
        assert _cells(*table.T) == [reference_line(row)[:-1] + "," for row in table]
        assert _cells(values) == [f"{v + 0.0:.12g}," for v in values]

    def test_time_sweep_file_matches_reference(self, tmp_path):
        out = tmp_path / "time.csv"
        ns, rs, times = [0.0, 0.3], [0.0, 0.7, 1.0], np.linspace(0.0, 4.0, 17)
        cfg = SweepConfig(n_values=ns, r_values=rs, t_max=4.0, t_steps=17, output_path=str(out))
        run_time_sweep(cfg)
        expected = ["n,r,gamma_t,C,N2,N1\n"]
        for n in ns:
            for r in rs:
                rep = evaluate_measures(analytic_states(ModelParams(n=n, r=r), times), WeakStrength(0.0))
                expected += [reference_line((n, r, *row)) for row in zip(times, rep.C, rep.N2, rep.N1)]
        assert out.read_text(encoding="ascii") == "".join(expected)

    def test_strength_sweep_file_matches_reference(self, tmp_path):
        out = tmp_path / "strength.csv"
        xs, times = [0.0, 0.25, 2.0, 30.0], np.linspace(0.0, 3.0, 13)
        cfg = SweepConfig(
            n_values=[0.4], r_values=[0.9], x_values=xs[::-1], t_max=3.0, t_steps=13, output_path=str(out)
        )
        run_strength_sweep(cfg)
        states = analytic_states(ModelParams(n=0.4, r=0.9), times)
        n2s, n1s = hs_min(states).tolist(), trace_min(states).tolist()
        expected = ["x,gamma_t,N2,N1,N2W,N1W\n"]
        for x in xs:
            f = weak_factor(WeakStrength(x))
            expected += [reference_line((x, t, n2, n1, f * n2, f * n1)) for t, n2, n1 in zip(times, n2s, n1s)]
        assert out.read_text(encoding="ascii") == "".join(expected)

    @pytest.mark.parametrize(
        "ns, rs, t_max, steps, integrator",
        [([0.0, 1.0], [0.0, 1.0], 60.0, 31, "analytic"), ([0.2, 1.5], [0.5, 1.0], 3.0, 7, "rk4")],
        ids=["t-max-60-zero-cells", "rk4"],
    )
    def test_more_time_sweep_files_match_reference(self, tmp_path, ns, rs, t_max, steps, integrator):
        out = tmp_path / "time.csv"
        cfg = SweepConfig(n_values=ns, r_values=rs, t_max=t_max, t_steps=steps, output_path=str(out))
        run_time_sweep(cfg, integrator)
        expected = ["n,r,gamma_t,C,N2,N1\n"]
        for n in ns:
            for r in rs:
                times, states = _states_on_grid(ModelParams(n=n, r=r), t_max, steps, integrator)
                rep = evaluate_measures(states, WeakStrength(0.0))
                expected += [reference_line((n, r, *row)) for row in zip(times, rep.C, rep.N2, rep.N1)]
        text = out.read_text(encoding="ascii")
        assert text == "".join(expected)
        if t_max == 60.0:
            cells = {cell for line in text.splitlines()[1:] for cell in line.split(",")}
            assert "0" in cells and any("e-" in cell for cell in cells)

    @pytest.mark.parametrize(
        "xs, n, r, t_max, integrator",
        [([math.inf, 0.0, 30.0], 0.4, 0.9, 60.0, "analytic"), ([0.0, 1.0], 0.0, 0.0, 2.0, "analytic"),
         ([3.0, 0.5], 0.3, 1.0, 4.0, "rk4")],
        ids=["x-0-30-inf-t-max-60", "zero-cells", "rk4"],
    )
    def test_more_strength_sweep_files_match_reference(self, tmp_path, xs, n, r, t_max, integrator):
        out = tmp_path / "strength.csv"
        cfg = SweepConfig(n_values=[n], r_values=[r], x_values=xs, t_max=t_max, t_steps=25, output_path=str(out))
        run_strength_sweep(cfg, integrator)
        times, states = _states_on_grid(ModelParams(n=n, r=r), t_max, 25, integrator)
        n2s, n1s = hs_min(states).tolist(), trace_min(states).tolist()
        expected = ["x,gamma_t,N2,N1,N2W,N1W\n"]
        for x in sorted(xs):
            f = weak_factor(WeakStrength(x))
            expected += [reference_line((x, t, n2, n1, f * n2, f * n1)) for t, n2, n1 in zip(times, n2s, n1s)]
        assert out.read_text(encoding="ascii") == "".join(expected)

    def test_negative_zero_written_as_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert main(["sweep-strength", "--x=-0.0,1", "--steps", "3", "--out", str(out)]) == 0
        cells = [line.split(",") for line in out.read_text(encoding="ascii").splitlines()[1:]]
        assert [row[0] for row in cells] == ["0"] * 3 + ["1"] * 3
        assert main(["sweep-time", "--n=-0.0", "--r=-0.0,0", "--steps", "3", "--out", str(out)]) == 0
        cells = [line.split(",") for line in out.read_text(encoding="ascii").splitlines()[1:]]
        assert [row[:2] for row in cells] == [["0", "0"]] * 6
        assert "-0" not in {cell for row in cells for cell in row}


class TestWriterMemory:
    def test_strength_sweep_peak_is_below_half_the_csv(self, tmp_path):
        # 200 times x 50 strengths: one block of 200 rows is held at a time,
        # never the 10,000-row file.
        out = tmp_path / "wide.csv"
        xs = np.random.default_rng(3).exponential(2.0, 50).tolist()
        cfg = SweepConfig(n_values=[0.7], r_values=[0.8], x_values=xs, t_steps=200, output_path=str(out))
        peak = traced_peak(lambda: run_strength_sweep(cfg))
        assert peak < out.stat().st_size / 2

    def test_time_sweep_writer_peak_is_below_the_csv(self, tmp_path, monkeypatch):
        # The measures' own peak, about 1.2 MB here, does not depend on the
        # writer, so they are computed once outside the trace. With 9 blocks
        # the shared cells, the template and one block's text and values are
        # about three quarters of the file; a writer that holds the whole
        # text needs several times the file.
        out = tmp_path / "grid.csv"
        cfg = SweepConfig(n_values=[0.1, 0.5, 1.0], r_values=[0.3, 0.5, 1.0], t_steps=200, output_path=str(out))
        pairs = [(n, r) for n in cfg.n_values for r in cfg.r_values]
        measured = _measures_on_grid(pairs, cfg, "analytic")
        monkeypatch.setattr("thermomin.cli._measures_on_grid", lambda *args: measured)
        peak = traced_peak(lambda: run_time_sweep(cfg))
        assert out.stat().st_size > 100_000
        assert peak < out.stat().st_size


class TestValidateCommand:
    def test_report_is_deterministic_and_status_matches(self):
        report1, status1 = run_validation(sample_count=6, seed=123)
        report2, status2 = run_validation(sample_count=6, seed=123)
        assert report1 == report2
        assert status1 == status2
        assert f"exit status: {status1}" in report1
        has_fail = " -> FAIL" in report1
        assert status1 == (1 if has_fail else 0)
        assert status1 == 0
        assert not any(line.endswith("-> FAIL") for line in report1.splitlines())

    def test_different_seed_changes_report_not_contract(self):
        report, status = run_validation(sample_count=4, seed=99)
        assert "thermomin validation report" in report
        assert "seed = 99" in report
        assert status in (0, 1)

    def test_weak_scaling_section_present_and_passing(self):
        report, _ = run_validation(sample_count=2, seed=5)
        marker = "direct maximization ratio |rho-Omega|_2^2 / N2 equals (1-2 t1 t2)^2"
        line = next(l for l in report.splitlines() if marker in l)
        assert line.endswith("PASS")
        assert "(1 - t1 t2)" in report

    def test_oracle_states_lie_outside_the_branch_band(self, monkeypatch):
        # The degenerate-marginal branch is undefined for |x| within 3e-16 of
        # MARGINAL_EPS (tests/test_oracle.py::TestBranchBand), so no state that
        # validate hands the oracle may lie there.
        lengths = []
        marginal_direction = oracle._marginal_direction

        def record(rho):
            # The oracle classifies a whole (N, 4, 4) stack per call.
            lengths.extend(np.linalg.norm(bloch_decompose(rho).x, axis=-1))
            return marginal_direction(rho)

        monkeypatch.setattr(oracle, "_marginal_direction", record)
        _, status = run_validation(sample_count=20, seed=7)
        assert status == 0
        assert len(lengths) > 100
        assert np.min(np.abs(np.array(lengths) - MARGINAL_EPS)) > 3e-16

    def test_failing_check_sets_summary_and_exit_status(self, monkeypatch, capsys):
        # An integrator with a fifth of the steps misses section [a]'s 1e-8
        # tolerance; every other check must still pass.
        integrate = dynamics.integrate
        monkeypatch.setattr(dynamics, "integrate", lambda p, t_max, steps: integrate(p, t_max, steps=steps // 5))
        report, status = run_validation(sample_count=2, seed=5)
        lines = report.splitlines()
        failed = [i for i, line in enumerate(lines) if line.endswith("-> FAIL")]
        assert len(failed) == 1
        section = [line for line in lines[: failed[0]] if line.startswith("[")][-1]
        assert section.startswith("[a]")
        assert "worst dev = 4.025178e-07" in lines[failed[0]]
        assert "summary: 14 required checks, 1 failed" in lines
        assert lines[-1] == "exit status: 1"
        assert status == 1
        assert main(["validate", "--samples", "1"]) == 1
        assert capsys.readouterr().out.endswith("exit status: 1\n")

    def test_single_sample_has_no_grid_state(self):
        report, status = run_validation(sample_count=1, seed=1)
        assert "random states (1, 0 via grid search)" in report
        assert "grid dev = 0.000000e+00" in report
        assert status == 0

    def test_rejects_bad_sample_count(self):
        with pytest.raises(InvalidConfig):
            run_validation(sample_count=0, seed=1)


def looped_contracts(draws):
    """The post-state contracts of validate, one (state, direction, strength)
    at a time, each map one 2-d (1, 10) @ (10, 32) product."""

    def post(rho, d, t1, t2):
        terms = oracle._kraus_terms(oracle.validate_state(rho), 0.5 * (t1 + t2) ** 2, 0.5 * (t1 - t2) ** 2)
        return (oracle._kraus_columns(d.unit_vector()[None]) @ terms).view(complex).reshape(4, 4)

    dev_idem = dev_norm = dev_ident = dev_limit = 0.0
    for rho, d, x in draws:
        w = WeakStrength(x)
        proj = post(rho, d, 0.0, 1.0)
        dev_idem = max(dev_idem, float(np.max(np.abs(post(proj, d, 0.0, 1.0) - proj))))
        p1, p2 = d.projectors()
        plus = w.t1 * p1 + w.t2 * p2
        minus = w.t2 * p1 + w.t1 * p2
        dev_norm = max(dev_norm, float(np.max(np.abs(plus.conj().T @ plus + minus.conj().T @ minus - np.eye(2)))))
        omega = post(rho, d, w.t1, w.t2)
        factor = 1.0 - 2.0 * w.t1 * w.t2
        dev_ident = max(dev_ident, float(np.max(np.abs((rho - omega) - factor * (rho - proj)))))
        for x_limit, target in ((0.0, rho), (30.0, proj)):
            limit = WeakStrength(x_limit)
            dev_limit = max(dev_limit, float(np.max(np.abs(post(rho, d, limit.t1, limit.t2) - target))))
    return dev_idem, dev_norm, dev_ident, dev_limit


@pytest.mark.parametrize("seed", range(13))
def test_stacked_post_state_contracts_equal_the_loop(seed):
    rng = np.random.default_rng(seed)
    draws = [
        (_random_states(rng, 1)[0], oracle.direction_from_vector(rng.normal(size=3)), float(rng.uniform(0.0, 3.0)))
        for _ in range(15)
    ]
    devs = _post_state_contracts(*zip(*draws))
    assert all(type(v) is float for v in devs)
    assert devs == looped_contracts(draws)
    assert all(v <= tol for v, tol in zip(devs, (1e-12, 1e-14, 1e-13, 1e-12)))


class TestMainEntry:
    def test_sweep_time_via_argv(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            ["sweep-time", "--n", "1", "--r", "1", "--t-max", "5", "--steps", "3", "--out", str(out)]
        )
        assert code == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        assert out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        out_file = tmp_path / "from_config.csv"
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# sweep configuration\nn = 0.5\nr = 1\nt-max = 2\nsteps = 4\n"
            f"out = {out_file}\n",
            encoding="utf-8",
        )
        code = main(["sweep-time", "--config", str(config), "--steps", "6"])
        assert code == 0
        _, rows = read_csv(out_file)
        assert len(rows) == 6  # flag wins over the file's 4
        assert rows[0][0] == 0.5  # file value used where no flag given

    def test_underscore_keys_accepted(self, tmp_path):
        out_file = tmp_path / "u.csv"
        config = tmp_path / "u.cfg"
        config.write_text(f"t_max = 1\nsteps = 2\nout = {out_file}\n", encoding="utf-8")
        assert main(["sweep-time", "--config", str(config)]) == 0
        _, rows = read_csv(out_file)
        assert rows[-1][2] == 1.0

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("sweep-time", "stepz = 5\n", "stepz"),
            ("sweep-time", "x = 1,2\n", "x"),
            ("sweep-strength", "n = 0.5\nsamples = 3\n", "samples"),
            ("sweep-time", "default_n = 3\n", "default-n"),
            ("validate", "samples = 2\nsteps = 3\n", "steps"),
        ],
    )
    def test_unknown_config_key_exits_2_and_keeps_an_existing_csv(self, tmp_path, capsys, command, text, key):
        config = tmp_path / "typo.cfg"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / "kept.csv"
        out.write_bytes(b"n,r\n1,2\n")
        argv = [command, "--config", str(config)] + (["--out", str(out)] if command != "validate" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config {config}: {key} is not a {command} option\n"
        assert captured.out == ""
        assert out.read_bytes() == b"n,r\n1,2\n"

    def test_bad_flag_values_exit_2(self, tmp_path, capsys):
        assert main(["sweep-time", "--n", "abc", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-time", "--steps", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-strength", "--n", "0.1,0.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-time", "--out", str(tmp_path / "no" / "dir.csv")]) == 2
        assert main(["sweep-time", "--t-max", "inf", "--out", str(tmp_path / "x.csv")]) == 2
        capsys.readouterr()
        # A step too large for the integrator, and values of n outside the float range.
        rk4 = ["sweep-time", "--integrator", "rk4", "--n", "200", "--steps", "3"]
        assert main(rk4 + ["--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: state at gamma*t = 0.010000 has eigenvalue")
        for n in ("1e308", "inf"):
            assert main(["sweep-time", "--n", n, "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err.startswith("error: n")

    @pytest.mark.parametrize(
        "argv", [["sweep-strength", "--x", "1,nan"], ["sweep-time", "--n", "nan"], ["sweep-strength", "--n", "nan"]]
    )
    def test_nan_values_exit_2_and_keep_an_existing_csv(self, tmp_path, capsys, argv):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"x,gamma_t\n1,2\n")
        assert main(argv + ["--steps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: every {argv[1]} value must be >= 0")
        assert out.read_bytes() == b"x,gamma_t\n1,2\n"

    def test_non_finite_integrator_state_exits_2(self, tmp_path, capsys):
        # Near the largest accepted n no step count keeps the Taylor step
        # finite, so the error names the state as not finite instead of
        # quoting a NaN eigenvalue.
        argv = ["sweep-time", "--integrator", "rk4", "--n", "3e153", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state at gamma*t = ")
        assert "not finite" in err
        assert "h*(2n+1) = " in err
        assert "eigenvalue" not in err

    def test_step_count_over_the_bound_exits_2_before_allocating(self, tmp_path, monkeypatch, capsys):
        # --t-max 1e6 asks the integrator for 10^8 steps, 23.8 GiB of stored
        # states; the bound must refuse it before any array of that size.
        empty = np.empty

        def small_empty(shape, *args, **kwargs):
            assert np.prod(shape) <= 16 * (dynamics.MAX_STEPS + 1), f"np.empty{shape}"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", small_empty)
        out = tmp_path / "x.csv"
        argv = ["sweep-time", "--integrator", "rk4", "--n", "1", "--t-max", "1e6", "--steps", "2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: steps must lie in [1, 1000000], got 100000000")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-time", "sweep-strength"])
    def test_sweep_step_count_over_the_bound_exits_2_before_allocating(self, tmp_path, monkeypatch, capsys, command):
        # --steps 100000000 asks for 10^8 output times and as many exact
        # states; the bound must refuse it before any array of that size.
        linspace, empty = np.linspace, np.empty

        def small_linspace(start, stop, num=50, *args, **kwargs):
            assert num <= dynamics.MAX_STEPS + 1, f"np.linspace(num={num})"
            return linspace(start, stop, num, *args, **kwargs)

        def small_empty(shape, *args, **kwargs):
            assert np.prod(shape) <= 16 * (dynamics.MAX_STEPS + 1), f"np.empty{shape}"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", small_linspace)
        monkeypatch.setattr(np, "empty", small_empty)
        out = tmp_path / "x.csv"
        assert main([command, "--steps", "100000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: steps must lie in [2, 1000000], got 100000000")
        assert not out.exists()

    def test_module_invocation_smoke(self, tmp_path):
        out = tmp_path / "subprocess.csv"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "thermomin.cli",
                "sweep-strength",
                "--x",
                "0.5,2",
                "--t-max",
                "1",
                "--steps",
                "3",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
        )
        assert result.returncode == 0, result.stderr
        header, rows = read_csv(out)
        assert header[0] == "x"
        assert len(rows) == 6
