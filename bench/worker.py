"""One workload of the benchmark in one fresh interpreter.

``run.py`` starts this script with a JSON spec as its only argument and
reads the JSON object it prints as its last line. The worker imports
thermomin from the checkout's ``src``, makes one tiny warm-up call, and
then, in mode ``setup``, reports how long all that took since it was
spawned. In mode ``run`` it drives ``thermomin.cli.main`` in a closed
loop, one call at a time, for the spec's seconds, and checks every
output. With tracing on it alternates untraced and traced calls, and runs
the tracer self-check.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from thermomin import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


class Call(NamedTuple):
    seconds: float
    status: object  # exit status, or the exception the call raised
    stdout: str
    data: bytes  # the CSV the call wrote


def run_call(w, argv, out: Path) -> Call:
    if w.writes_csv:
        out.unlink(missing_ok=True)
        argv = [*argv, "--out", str(out)]
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a raising call is a failed call, not a crashed benchmark
        status = repr(exc)
    seconds = time.perf_counter() - start
    data = out.read_bytes() if w.writes_csv and out.exists() else b""
    return Call(seconds, status, buf.getvalue(), data)


class Checker:
    """Full check of the first output; later outputs must repeat it byte for byte."""

    def __init__(self, w):
        self.w = w
        self.first = None
        self.verdict = None

    def __call__(self, call: Call) -> list:
        if not isinstance(call.status, int):
            return [f"call raised or exited with {call.status!r}"]
        key = (call.status, call.stdout, call.data)
        if self.first is None:
            self.first = key
            self.verdict = self.w.check(*key)
            return self.verdict.problems
        if key != self.first:
            return self.w.check(*key).problems + ["output differs from the first call"]
        return self.verdict.problems


def self_check(size: str, out: Path) -> dict:
    """Traced call counts must equal cProfile's on the profile grid, and the
    traced CSV must be byte-identical to the untraced one."""
    w = workloads.profile_grid(size)
    profile = cProfile.Profile()
    profile.enable()
    plain = run_call(w, w.argv, out)
    profile.disable()
    tr = tracer.Tracer()
    with tr:
        traced = run_call(w, w.argv, out)
    stats = pstats.Stats(profile).stats
    traced_calls = tr.summarize(tr.blocks[0])["calls"]
    mismatched = []
    for name, count in zip(tr.names, traced_calls):
        code = tr.functions[name].__code__
        profiled = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        if profiled != count:
            mismatched.append(f"{name}: traced {count}, profiled {profiled}")
    counts = dict(zip(tr.names, traced_calls.tolist()))
    problems = w.check(plain.status, plain.stdout, plain.data).problems + mismatched
    if plain.data != traced.data:
        problems.append("traced CSV differs from the untraced one")
    return {
        "passed": not problems,
        "problems": problems,
        "points": w.points,
        "validate_state": counts["qstate.validate_state"],
        "hermitian_eigensystem": counts["qstate.hermitian_eigensystem"],
    }


def layer_metrics(tr, w, traced_call) -> dict:
    """Per-layer metrics per command call: medians over the traced calls."""
    sums = [tr.summarize(b) for b in tr.blocks]
    index = {name: i for i, name in enumerate(tr.names)}

    def med(key, name):
        return statistics.median(float(s[key][index[name]]) for s in sums)

    metrics = {}
    for name in tr.names:
        metrics[f"{name}.calls"] = med("calls", name)
        metrics[f"{name}.self_s"] = med("self_s", name)
    metrics["qstate.validations_per_point"] = med("calls", "qstate.validate_state") / w.points
    metrics["qstate.eigensolves_per_point"] = med("calls", "qstate.hermitian_eigensystem") / w.points
    steps = med("work", "dynamics.integrate")
    metrics["dynamics.integrate.steps"] = steps
    metrics["dynamics.integrate.us_per_step"] = med("total_s", "dynamics.integrate") / steps * 1e6 if steps else 0.0
    data = traced_call.data
    metrics["cli.rows_written"] = max(len(data.splitlines()) - 1, 0)
    metrics["cli.csv_bytes"] = len(data)
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    w = workloads.make(spec["workload"], spec["seed"], spec["size"])
    out = Path(spec["workdir"]) / "out.csv"
    warmup = run_call(w, w.warmup, out)
    warmup_ok = warmup.status in (0, 1) if w.name == "validate" else warmup.status == 0
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": time.monotonic() - spec["spawned"], "warmup_ok": warmup_ok}))
        return 0

    trace = bool(spec["trace"])
    tr = tracer.Tracer() if trace else None
    checker = Checker(w)
    plain, traced, problems = [], [], []  # seconds per call
    failed = 0
    first_traced = None
    start = time.perf_counter()
    while True:
        batch = [(plain, run_call(w, w.argv, out))]
        if tr is not None:
            with tr:
                batch.append((traced, run_call(w, w.argv, out)))
            first_traced = first_traced or batch[-1][1]
        for seconds, call in batch:
            seconds.append(call.seconds)
            found = checker(call)
            failed += bool(found)
            problems += [p for p in found if p not in problems]
        pair = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + pair > spec["seconds"]:
            break

    verdict = checker.verdict or workloads.Verdict(math.inf, 0, [])
    first = checker.first or (None, "", b"")
    result = {
        "warmup_ok": warmup_ok,
        "calls_s": plain,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "problems": problems[:10],
        "points": w.points,
        "max_dev": verdict.max_dev,
        "failed_checks": verdict.failed_checks,
        "ill_conditioned": verdict.ill_conditioned,
        "output_sha256": hashlib.sha256(first[2] if w.writes_csv else first[1].encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if tr is not None:
        layers = layer_metrics(tr, w, first_traced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = layers
        result["self_check"] = self_check(spec["size"], out)
        tr.save(spec["spans"])
    print(json.dumps(result))
    return 0


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
