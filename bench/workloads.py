"""Benchmark workloads: command lines made from a seed, and output checks.

Each workload is one ``thermomin`` command line, built from the seed
alone, that the worker passes to ``thermomin.cli.main`` again and again.

- sweep-analytic: ``sweep-time`` on a 3x3 (n, r) grid x 10 points. Nearly
  all time is in ``measures`` and ``qstate`` (validation and eigensolves);
  it is the workload for changes to those layers.
- sweep-rk4: ``sweep-time --integrator rk4`` at one (n, r) to t-max 50 with
  11 output points, 5,000 RK4 steps for 11 points. Nearly all time is in
  ``dynamics.integrate``; a change to ``measures`` alone should not show.
- strength-wide: ``sweep-strength`` at one (n, r), 200 points x 50
  strengths. ``measures`` runs only 200 times and CSV formatting and
  writing in ``cli`` is a large share, unlike everywhere else.
- validate: ``validate --samples 20``. The only workload that runs the
  ``oracle`` grid search; it also runs the RK4-vs-exact check.

The checks read back what each command wrote. Sweep values are compared
with the X-state shortcuts C = 2 max(0, |rho23| - sqrt(rho11 rho44)),
N2 = 2 |rho23|^2 and N1 = 2 |rho23| taken from the elements of
``analytic_state_at``; the validate report must keep every required check
but the known ``rk4-agreement`` defect passing.

The sweeps are sized so that one call takes about 0.05 to 0.5 s. On a
shared host the CPU swings between a fast and a slow speed within a second;
a long call times the mean over that mix, which moves with the host's load,
while the median of hundreds of short calls stays with the speed that
dominates the run.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Tolerances of the repository's own tests (tests/test_cli.py) and of the
# direct-case oracle checks in the validate report.
ANALYTIC_TOL = 1e-10
RK4_TOL = 1e-7
ORACLE_TOL = 1e-9
# Absolute roundoff bound of the O(1) elements of analytic_state_at.
ELEMENT_ROUNDOFF = 1e-15

TIME_HEADER = "n,r,gamma_t,C,N2,N1"
STRENGTH_HEADER = "x,gamma_t,N2,N1,N2W,N1W"

# Input sizes: the benchmark's own, and a tiny one for the smoke test.
# "profile_steps" sizes the tracer self-check's grid (profile_grid).
SIZES = {
    "full": {"steps": 10, "rk4_t_max": 50, "rk4_steps": 11, "strength_steps": 200, "strengths": 50,
             "samples": 20, "profile_steps": 200},
    "tiny": {"steps": 4, "rk4_t_max": 2, "rk4_steps": 3, "strength_steps": 4, "strengths": 3,
             "samples": 2, "profile_steps": 4},
}

NAMES = ("sweep-analytic", "sweep-rk4", "strength-wide", "validate")


class Verdict(NamedTuple):
    max_dev: float
    failed_checks: int
    problems: list
    ill_conditioned: int = 0  # rows within tolerance only by the reference's own uncertainty


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list  # one call; sweeps append --out <path>
    warmup: list  # tiny call of the same command, run before any timing
    points: int  # (state, time) points per call; for validate, seeded sample states
    writes_csv: bool
    tolerance: float  # on max_dev
    check: Callable[[int, str, bytes], Verdict]


def _values(rng, count, low, high):
    """``count`` distinct seeded values in [low, high], rounded to 4 decimals."""
    values = set()
    while len(values) < count:
        values.add(round(rng.uniform(low, high), 4))
    return sorted(values)


def _join(values):
    return ",".join(repr(v) for v in values)


def _shortcuts(n, r, t):
    """(C, N2, N1) X-state shortcuts, and the uncertainty of that C.

    The elements carry roundoff up to ELEMENT_ROUNDOFF, and sqrt(rho11 rho44)
    amplifies it where rho11 rho44 ~ 0 (at gamma_t = 0 rho44 is a
    cancellation to zero), so there the shortcut C is only good to about
    2 sqrt(rho11 ELEMENT_ROUNDOFF), not to the comparison tolerance.
    """
    from thermomin import dynamics

    rho = dynamics.analytic_state_at(dynamics.ModelParams(n=n, r=r), t)
    r23 = abs(rho[1, 2])
    a, b = max(rho[0, 0].real, 0.0), max(rho[3, 3].real, 0.0)
    geo = math.sqrt(a * b)
    d = ELEMENT_ROUNDOFF
    c_err = 2.0 * (math.sqrt(a) * (math.sqrt(b + d) - math.sqrt(b)) + math.sqrt(b + d) * (math.sqrt(a + d) - math.sqrt(a)))
    return (2.0 * max(0.0, r23 - geo), 2.0 * r23 * r23, 2.0 * r23), c_err


def _close(a, b):
    # CSV values carry 12 significant digits.
    return abs(a - b) <= 1e-11 * max(1.0, abs(b))


def _read_csv(status, stdout, data, header, keys):
    """Rows of a sweep CSV as floats, or the problems that prevent reading it."""
    if status != 0:
        return None, [f"exit status {status}"]
    lines = data.decode("ascii", errors="replace").splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"header {lines[:1]} is not {header!r}")
    if len(lines) - 1 != len(keys) or f"wrote {len(keys)} rows" not in stdout:
        problems.append(f"{len(lines) - 1} rows written, {len(keys)} expected")
    if problems:
        return None, problems
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    for row, key in zip(rows, keys):
        if not all(_close(a, b) for a, b in zip(row, key)):
            return None, [f"row {row[:len(key)]} where {list(key)} expected"]
    return rows, []


def _time_sweep_check(ns, rs, t_max, steps, tol):
    times = np.linspace(0.0, t_max, steps)
    keys = [(n, r, float(t)) for n in ns for r in rs for t in times]

    def check(status, stdout, data):
        rows, problems = _read_csv(status, stdout, data, TIME_HEADER, keys)
        if problems:
            return Verdict(math.inf, 0, problems)
        dev, ill = 0.0, 0
        for (n, r, t), row in zip(keys, rows):
            ref, c_err = _shortcuts(n, r, t)
            devs = [abs(a - b) for a, b in zip(row[3:], ref)]
            dev = max(dev, *devs)
            if max(devs[1:]) > tol or devs[0] > tol + c_err:
                problems.append(f"row {row} deviates by {max(devs):.3e}, above {tol:.0e}")
            ill += int(devs[0] > tol)
        return Verdict(dev, 0, problems[:3], ill)

    return check


def _strength_check(n, r, xs, t_max, steps):
    times = np.linspace(0.0, t_max, steps)
    keys = [(x, float(t)) for x in xs for t in times]

    def check(status, stdout, data):
        rows, problems = _read_csv(status, stdout, data, STRENGTH_HEADER, keys)
        if problems:
            return Verdict(math.inf, 0, problems)
        dev = 0.0
        for (x, t), row in zip(keys, rows):
            (_, n2, n1), _ = _shortcuts(n, r, t)
            f = 1.0 - 0.5 / math.cosh(x)
            dev = max(dev, *(abs(a - b) for a, b in zip(row[2:], (n2, n1, f * n2, f * n1))))
        return Verdict(dev, 0, [f"max_dev {dev:.3e} above {ANALYTIC_TOL:.0e}"] if dev > ANALYTIC_TOL else [])

    return check


_DIRECT_DEV = re.compile(r"\b(?:hs|trace|direct) dev = (\S+?),? ")
_SUMMARY = re.compile(r"^summary: (\d+) required checks, (\d+) failed$", re.M)


def _validate_check(status, stdout, data):
    """Verdicts of the report: only section [a] (rk4-agreement) may fail.

    max_dev is the worst closed-form vs brute-force deviation the report
    gives for the direct case, whose tolerance is 1e-9.
    """
    section = None
    verdicts = []
    for line in stdout.splitlines():
        if line.startswith("["):
            section = line[1]
        elif line.endswith(("-> PASS", "-> FAIL")):
            verdicts.append((section, line.endswith("FAIL")))
    failed = [s for s, fail in verdicts if fail]
    problems = []
    summary = _SUMMARY.search(stdout)
    if not summary or (int(summary[1]), int(summary[2])) != (len(verdicts), len(failed)):
        problems.append("summary line does not match the check verdicts")
    if status != (1 if failed else 0):
        problems.append(f"exit status {status} with {len(failed)} failed checks")
    if any(s != "a" for s in failed):
        problems.append("a required check other than rk4-agreement failed")
    devs = [float(v) for v in _DIRECT_DEV.findall(stdout)]
    if len(devs) != 3:
        return Verdict(math.inf, len(failed), problems + ["direct-case deviations missing from report"])
    dev = max(devs)
    if dev > ORACLE_TOL:
        problems.append(f"direct-case deviation {dev:.3e} above {ORACLE_TOL:.0e}")
    return Verdict(dev, len(failed), problems)


def make(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` with every input drawn from ``seed``."""
    z = SIZES[size]
    rng = random.Random(seed)
    if name in ("sweep-analytic", "sweep-rk4"):
        count = 3 if name == "sweep-analytic" else 1  # values of n and of r
        ns = _values(rng, count, 0.05, 1.0)
        rs = _values(rng, count, 0.3, 0.9999)
        if name == "sweep-analytic":
            t_max, steps, extra, tol = 5, z["steps"], [], ANALYTIC_TOL
        else:
            t_max, steps, extra, tol = z["rk4_t_max"], z["rk4_steps"], ["--integrator", "rk4"], RK4_TOL
        grid = ["--t-max", str(t_max), *extra]
        return Workload(
            name=name,
            argv=["sweep-time", "--n", _join(ns), "--r", _join(rs), *grid, "--steps", str(steps)],
            warmup=["sweep-time", "--n", repr(ns[0]), "--r", repr(rs[0]), "--t-max", "0.05", *extra, "--steps", "2"],
            points=len(ns) * len(rs) * steps,
            writes_csv=True,
            tolerance=tol,
            check=_time_sweep_check(ns, rs, t_max, steps, tol),
        )
    if name == "strength-wide":
        n, r = _values(rng, 1, 0.05, 1.0)[0], _values(rng, 1, 0.3, 0.9999)[0]
        xs = _values(rng, z["strengths"] - 1, 0.0, 5.0) + [30.0]
        point = ["--n", repr(n), "--r", repr(r), "--t-max", "5"]
        return Workload(
            name=name,
            argv=["sweep-strength", *point, "--x", _join(xs), "--steps", str(z["strength_steps"])],
            warmup=["sweep-strength", *point, "--x", "1.0", "--steps", "2"],
            points=z["strength_steps"],
            writes_csv=True,
            tolerance=ANALYTIC_TOL,
            check=_strength_check(n, r, xs, 5.0, z["strength_steps"]),
        )
    if name == "validate":
        return Workload(
            name=name,
            argv=["validate", "--samples", str(z["samples"]), "--seed", str(seed)],
            warmup=["validate", "--samples", "1", "--seed", str(seed)],
            points=z["samples"],
            writes_csv=False,
            tolerance=ORACLE_TOL,
            check=_validate_check,
        )
    raise ValueError(f"unknown workload {name!r}")


def profile_grid(size: str = "full") -> Workload:
    """The 3x3 grid (n in {0.1, 0.5, 1}, r in {0.3, 0.5, 1}) x 200 points
    whose profile first counted 9,000 validate_state and 12,603
    hermitian_eigensystem calls; the tracer self-check runs on it."""
    ns, rs, steps = [0.1, 0.5, 1.0], [0.3, 0.5, 1.0], SIZES[size]["profile_steps"]
    return Workload(
        name="profile-grid",
        argv=["sweep-time", "--n", _join(ns), "--r", _join(rs), "--t-max", "5", "--steps", str(steps)],
        warmup=[],
        points=len(ns) * len(rs) * steps,
        writes_csv=True,
        tolerance=ANALYTIC_TOL,
        check=_time_sweep_check(ns, rs, 5.0, steps, ANALYTIC_TOL),
    )
