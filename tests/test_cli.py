import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermomin.cli import (
    InvalidConfig,
    IoFailure,
    SweepConfig,
    main,
    run_strength_sweep,
    run_time_sweep,
    run_validation,
)

# The package's source directory; pytest's pythonpath setting does not reach a subprocess.
SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        with pytest.raises(InvalidConfig):
            run_time_sweep(SweepConfig(output_path=out), integrator="verlet")

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

    def test_requires_single_parameter_point(self, tmp_path):
        cfg = SweepConfig(n_values=[0.1, 0.5], output_path=str(tmp_path / "s.csv"))
        with pytest.raises(InvalidConfig):
            run_strength_sweep(cfg)


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

    def test_rejects_bad_sample_count(self):
        with pytest.raises(InvalidConfig):
            run_validation(sample_count=0, seed=1)


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

    def test_bad_flag_values_exit_2(self, tmp_path):
        assert main(["sweep-time", "--n", "abc", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-time", "--steps", "1", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-strength", "--n", "0.1,0.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep-time", "--out", str(tmp_path / "no" / "dir.csv")]) == 2

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
