"""Benchmark of thermomin's commands, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs made from --seed, see workloads.py): sweep-analytic,
sweep-rk4, strength-wide, validate. Each drives ``thermomin.cli.main`` in
process as a closed loop: one client, one call at a time, in one
single-threaded interpreter with BLAS pinned to one thread.

Set-up is timed apart from the loop, in SETUPS fresh interpreters, each
spawned and then importing thermomin and making one tiny warm-up call;
another fresh interpreter runs the timed loop for --seconds. With
--trace 1 that loop alternates untraced calls and calls traced by
tracer.py, and the tracer self-check runs after it.

The report lines name every metric with its unit; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). The full
record, with the host, output hashes and, when traced, the spans, goes to
.bench_out/ in the checkout. ``--tiny`` shrinks every input for the smoke
test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUPS = {"full": 5, "tiny": 1}
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The result line's end-to-end metrics. points_per_s is points / call_s, so
# it is printed on the report lines but not gated a second time.
END_TO_END_UNITS = {"setup_s": "s", "call_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_s", "s"), ("_per_point", "1/point"), (".steps", "count"),
                         (".us_per_step", "us"), (".rows_written", "count"), (".csv_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def spawn(spec: dict, deadline: float) -> dict:
    """Run worker.py on ``spec`` in a fresh interpreter; return its JSON result."""
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker ({spec['mode']}) did not finish in time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker ({spec['mode']}) exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(calls: list) -> str:
    """The highest of p99, p95 and p90 with at least ten calls beyond it, as a note."""
    for p in (99, 95, 90):
        if len(calls) * (100 - p) >= 1000:
            return f"p{p} {statistics.quantiles(calls, n=100)[p - 1]:.4g}, "
    return ""


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"host": platform.node(), "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermomin" / "__init__.py").is_file():
        print(f"error: no thermomin package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    size = "tiny" if args.tiny else "full"
    w = workloads.make(args.workload, args.seed, size)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT)
    spec = {"workload": args.workload, "seed": args.seed, "size": size, "workdir": workdir,
            "seconds": args.seconds, "trace": args.trace, "spans": str(OUT / f"{stem}.spans.npz")}
    try:
        setups = [spawn(dict(spec, mode="setup"), deadline) for _ in range(SETUPS[size])]
        res = spawn(dict(spec, mode="run"), deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    call_s = statistics.median(res["calls_s"])
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "call_s": call_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    self_check = res.get("self_check", {"passed": True})
    correct = res["failed"] == 0 and res["warmup_ok"] and all(s["warmup_ok"] for s in setups) and self_check["passed"]

    calls = res["calls_s"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{' '.join(w.argv)}")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters (import + warm-up call)",
        "call_s": f"median of {len(calls)} untraced calls, {tail(calls)}min {min(calls):.4g}, max {max(calls):.4g}",
        "peak_rss_mb": "peak resident memory of the timed process",
    }
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:<12.6g} {END_TO_END_UNITS[name]:<6} {notes[name]}")
    print(f"  {'points_per_s':<14} {w.points / call_s:<12.6g} {'1/s':<6} {w.points} points per call / call_s")
    ill = res["ill_conditioned"]
    print(f"  {'max_dev':<14} {res['max_dev']:<12.6g} {'abs':<6} worst deviation from the reference "
          f"(tolerance {w.tolerance:.0e}" + (f"; {ill} rows past it where sqrt(rho11 rho44) ~ 0 leaves the "
                                             "reference C itself uncertain)" if ill else ")"))
    print(f"  {'failed_checks':<14} {res['failed_checks']:<12} {'count':<6} failed required checks in the output")
    print(f"  {'error_rate':<14} {res['failed'] / res['attempted']:<12.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} calls failed")
    print(f"  output sha256 {res['output_sha256']}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    info = dict(host(), numpy=res["numpy"], blas=res["blas"], blas_threads=res["blas_threads"])
    print("  host: " + ", ".join(f"{k}={v}" for k, v in info.items()))

    if args.trace:
        layers = res["layers"]
        for name, value in layers.items():
            print(f"  {name:<42} {value:<12.6g} {layer_unit(name)}")
        print(f"  self-check: {'pass' if self_check['passed'] else 'FAIL'}: traced {self_check['validate_state']} "
              f"validate_state and {self_check['hermitian_eigensystem']} hermitian_eigensystem calls for "
              f"{self_check['points']} points; every traced count checked against cProfile's and the traced "
              "CSV against the untraced one")
        for problem in self_check["problems"]:
            print(f"  self-check problem: {problem}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    record = {"args": vars(args), "argv": w.argv, "host": info, "end_to_end": end_to_end,
              "setups": setups, "worker": res, "correct": correct}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
