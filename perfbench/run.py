#!/usr/bin/env python3
"""valleyforge benchmark: times the CLI workloads users run, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0

Each run of a workload happens in a fresh child process (perfbench/worker.py)
with the checkout's ``src`` on PYTHONPATH, one run after another: a closed
loop with one client and ``verify --jobs 1``.  Runs repeat until
``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``wall_s`` (time for the workload's steps), ``setup_s`` (interpreter start
plus ``import valleyforge``), ``peak_rss_mib`` (the child's ru_maxrss).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of perfbench/tracer.py plus ``trace.overhead_s``.

Every run is checked (stdout digests, exit codes, MISMATCH lines, second-route
checks); ``attempted`` and ``failed`` count those checks.  The last line of
stdout is the result; the line before it holds the run metadata.
``--smoke`` runs the same steps at tiny sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKLOADS = ("verify-grid", "listing", "algebra-deep")
PROBES_PER_RUN = 4  # import-only children before each run, for the set-up median
DEADLINE_S = 170  # the whole benchmark must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _git_revision(root: str) -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def _source_digest(package: str) -> str:
    """sha256 over the package's Python sources, for checkouts without git."""
    sha = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            sha.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


class Runner:
    """Spawns worker children for one workload and collects their reports."""

    def __init__(self, root: str, workload: str, seed: int, smoke: bool) -> None:
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.env.pop("VALLEYFORGE_CACHE", None)  # verify must not read or write a cache

    def spawn(self, *, probe: bool = False, trace: bool = False) -> dict:
        argv = [sys.executable, WORKER]
        if probe:
            argv.append("--probe")
        else:
            argv += [self.workload, "--seed", str(self.seed)]
            argv += ["--smoke"] * self.smoke + ["--trace"] * trace
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before the run could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker still running after {left:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        sys.stderr.write(proc.stderr)
        report = json.loads(proc.stdout.splitlines()[-1])
        if not report["module"].startswith(self.src + os.sep):
            raise BenchError(f"imported valleyforge from {report['module']}, not {self.src}")
        report["setup_s"] = report["ready"] - spawned
        return report


def _checks(reports: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for report in reports:
        for c in report["checks"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                print(f"FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    return attempted, failed


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    runner.spawn(probe=True)  # untimed: lets the first import write bytecode
    start = time.monotonic()
    setups, runs = [], []
    while not runs or time.monotonic() - start < seconds:
        setups += [runner.spawn(probe=True)["setup_s"] for _ in range(PROBES_PER_RUN)]
        runs.append(runner.spawn())
        print(f"{runner.workload} run {len(runs)}: wall {runs[-1]['wall_s']:.3f} s",
              file=sys.stderr)
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in runs), "MiB"),
    }
    return runs, metrics


def per_layer(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    plain, traced = [], []
    while not traced or time.monotonic() - start < seconds:
        plain.append(runner.spawn())
        traced.append(runner.spawn(trace=True))
        print(f"{runner.workload} pair {len(traced)}: wall {plain[-1]['wall_s']:.3f} s, "
              f"traced {traced[-1]['wall_s']:.3f} s", file=sys.stderr)
    for report in traced[1:]:
        for name, (unit, _fn) in PER_LAYER.items():
            if unit != "s" and report["layers"][name] != traced[0]["layers"][name]:
                raise BenchError(f"{name} differs between traced runs")
    metrics = {name: (statistics.median(r["layers"][name] for r in traced) if unit == "s"
                      else traced[0]["layers"][name], unit)
               for name, (unit, _fn) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain), "s")
    return plain + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args()

    root = os.getcwd()
    package = os.path.join(root, "src", "valleyforge")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        print(f"perfbench: no valleyforge sources at {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(package),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
    }
    runner = Runner(root, args.workload, args.seed, args.smoke)
    try:
        measure = per_layer if args.trace else end_to_end
        runs, metrics = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta["kernel"] = runs[0]["kernel"]
    meta["runs"] = len(runs)
    attempted, failed = _checks(runs)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
