#!/usr/bin/env python3
"""One run of one benchmark workload, in a process of its own.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py WORKLOAD --seed N [--smoke] [--trace]
    python3 perfbench/worker.py --probe

The worker imports valleyforge, runs the workload's steps one after
another (CLI commands through ``valleyforge.cli.main``, plus a library
certificate), then checks the outputs outside the timed window.  It
prints one JSON object on stdout.  ``--probe`` only imports the package
and reports when it was ready, for the set-up time samples.
"""

import time

from valleyforge import cli, eco, identity, oracle, paths, series

READY = time.monotonic()  # set-up ends here: interpreter start plus import

import argparse  # noqa: E402 - imported after READY so set-up excludes them
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Workload sizes.  "full" is what BENCHMARK.json measures; "smoke" runs the
# same steps at tiny sizes for the benchmark's own tests.
SIZES = {
    "full": {
        "verify-grid": {"h": "4..7", "k": "3..5", "n_max": 12},
        "listing": {"h": 7, "k": 5, "n": 12},
        "algebra-deep": {"h": 64, "k": 5, "order": 1000, "h_max": 160},
    },
    "smoke": {
        "verify-grid": {"h": "4..5", "k": "3..4", "n_max": 6},
        "listing": {"h": 5, "k": 4, "n": 6},
        "algebra-deep": {"h": 8, "k": 5, "order": 40, "h_max": 12},
    },
}

# The sampled series coefficients are checked against eco.rule_counts,
# whose cost grows with n; sampling below this keeps the check under 1 s.
SAMPLE_N_LIMIT = 80
SAMPLES = 3


def steps(workload: str, s: dict) -> list[tuple[str, list[str] | None]]:
    """(step name, CLI argv or None for the library certificate)."""
    if workload == "verify-grid":
        return [("verify", ["verify", "--h", s["h"], "--k", s["k"],
                            "--n-max", str(s["n_max"]), "--jobs", "1"])]
    if workload == "listing":
        return [("generate", ["generate", "--h", str(s["h"]), "--k", str(s["k"]),
                              "--n", str(s["n"]), "--format", "json"]),
                ("certificate", None)]
    if workload == "algebra-deep":
        return [("series", ["series", "--h", str(s["h"]), "--k", str(s["k"]),
                            "--order", str(s["order"]), "--show-components",
                            "--format", "json"]),
                ("identity", ["identity", "--h-min", "4", "--h-max", str(s["h_max"])])]
    raise ValueError(f"unknown workload {workload!r}")


class _Sink:
    """Stands in for stdout: hashes and counts what the CLI prints."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _run_cli(argv: list[str]) -> tuple[int, _Sink, str]:
    out, err = _Sink(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed step, as it would be for a user
            traceback.print_exc()
            code = 1
    return code, out, err.getvalue()


def _certificate(s: dict) -> list:
    """Exhaustive certificate: every Dyck path of size n that is in the class."""
    params = paths.ClassParams(s["h"], s["k"])
    return [p for p in oracle.enumerate_dyck(s["n"]) if paths.is_in_class(p, params)]


def run_steps(workload: str, s: dict, tracer: Tracer | None) -> dict:
    """Run the workload's steps; time each, keep what the checks need."""
    results = {}
    guard = (tracer.installed(cli, eco, identity, oracle, paths, series)
             if tracer else contextlib.nullcontext())
    with guard:
        for name, argv in steps(workload, s):
            t0 = time.perf_counter()
            if argv is None:
                step = {"paths": _certificate(s)}
            else:
                code, out, err = _run_cli(argv)
                step = {"exit": code, "out": out, "stderr": err}
            step["seconds"] = time.perf_counter() - t0
            results[name] = step
    return results


def check(workload: str, mode: str, s: dict, results: dict, seed: int,
          expected: dict) -> list[dict]:
    """Correctness checks of one run; each is {"name", "ok", "detail"}."""
    checks = []

    def record(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": "" if ok else detail})

    for name, step in results.items():
        if "out" not in step:
            continue
        want = expected[mode][workload][name]
        got = {"sha256": step["out"].sha.hexdigest(), "bytes": step["out"].bytes}
        record(f"{name}.exit", step["exit"] == 0, f"exit code {step['exit']}")
        record(f"{name}.no_mismatch", "MISMATCH" not in step["stderr"],
               step["stderr"][-500:])
        record(f"{name}.digest", got == want, f"got {got}, want {want}")
        if step["stderr"] and step["exit"] != 0:
            print(f"{workload}/{name} stderr:\n{step['stderr'][-2000:]}", file=sys.stderr)

    if workload == "listing":
        params = paths.ClassParams(s["h"], s["k"])
        try:
            words = [p["word"] for p in json.loads("".join(results["generate"]["out"].chunks))]
        except (ValueError, KeyError, TypeError) as exc:
            words = []
            print(f"listing: unreadable generate output: {exc}", file=sys.stderr)
        certified = {p.word for p in results["certificate"]["paths"]}
        record("listing.words_equal_certificate",
               len(words) == len(set(words)) and set(words) == certified,
               f"{len(words)} words, {len(certified)} certified")
        want = series.f_series(params, s["n"]).coefficient(s["n"])
        record("listing.count_equals_series", len(words) == want,
               f"{len(words)} words, series coefficient {want}")
    elif workload == "algebra-deep":
        try:
            coeffs = json.loads("".join(results["series"]["out"].chunks))["coefficients"]
        except (ValueError, KeyError, TypeError) as exc:
            coeffs = []
            print(f"algebra-deep: unreadable series output: {exc}", file=sys.stderr)
        params = paths.ClassParams(s["h"], s["k"])
        limit = min(s["order"], SAMPLE_N_LIMIT) + 1
        for n in sorted(random.Random(seed).sample(range(limit), SAMPLES)):
            want = eco.rule_counts(params, n).total()
            got = int(coeffs[n]) if n < len(coeffs) else None
            record(f"algebra-deep.coefficient_{n}_equals_rule_counts", got == want,
                   f"series {got}, rule_counts {want}")
    return checks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    report = {"ready": READY, "module": os.path.abspath(cli.__file__)}
    if not args.probe:
        mode = "smoke" if args.smoke else "full"
        s = SIZES[mode][args.workload]
        tracer = Tracer() if args.trace else None
        results = run_steps(args.workload, s, tracer)
        maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(EXPECTED_FILE, encoding="utf-8") as fh:
            expected = json.load(fh)
        try:
            from valleyforge import _kernels
            kernel = _kernels.KERNEL
        except (ImportError, AttributeError):
            kernel = "none"
        stdout_bytes = sum(r["out"].bytes for r in results.values() if "out" in r)
        report.update(
            wall_s=sum(r["seconds"] for r in results.values()),
            peak_rss_mib=maxrss_kib / 1024,
            kernel=kernel,
            checks=check(args.workload, mode, s, results, args.seed, expected),
            layers=layer_metrics(tracer.stats, stdout_bytes) if tracer else None,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
