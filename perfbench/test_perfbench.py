"""Tests of the benchmark itself, on the tiny smoke sizes.

Run from the repository root:  python3 -m pytest perfbench

Each test runs perfbench/run.py in a copy of the checkout (``src`` plus
``perfbench``), so a test can corrupt the recorded digests or the program
and show that the benchmark counts the failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-grid", "listing", "algebra-deep")


def _checkout(tmp_path, with_src=True):
    """A copy of the files a benchmark checkout holds."""
    ignore = shutil.ignore_patterns("__pycache__", "*.c", "*.so")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(cwd, workload, trace=0, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def _replace(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_declared_metrics(checkout, declared, workload):
    meta, result = _result(_run(checkout, workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["kernel"] and meta["nproc"] >= 1 and meta["python"]

    _, traced = _result(_run(checkout, workload, trace=1))
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in declared["per_layer"])


def test_trace_counts_repeat_and_match_the_work(checkout):
    _, first = _result(_run(checkout, "listing", trace=1, seed=1))
    _, second = _result(_run(checkout, "listing", trace=1, seed=2))
    counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] != "s"}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    # (h, k, n) = (5, 4, 6): 131 class paths out of C_6 = 132 Dyck paths.
    assert counts["eco.generate.paths"] == counts["eco.label_of.calls"] == 131
    assert counts["oracle.enumerate_dyck.paths"] == counts["paths.parse_path.calls"] == 132
    assert counts["eco.rule_counts.calls"] == 0


def test_corrupted_digest_counts_as_failure(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["smoke"]["verify-grid"]["verify"]["sha256"] = "0" * 64
    path.write_text(json.dumps(expected))
    _, result = _result(_run(root, "verify-grid"))
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 3


def test_dropped_path_counts_as_failure(tmp_path):
    root = _checkout(tmp_path)
    _replace(root / "src" / "valleyforge" / "eco.py",
             "return sorted(level, key=lambda p: p.word)",
             "return sorted(level, key=lambda p: p.word)[1:]")
    _, result = _result(_run(root, "listing"))
    # digest, words against the certificate, count against the series
    assert not result["correct"] and result["failed"] == 3


def test_wrong_series_coefficient_counts_as_failure(tmp_path):
    root = _checkout(tmp_path)
    _replace(root / "src" / "valleyforge" / "series.py",
             "return [str(c) for c in self.coeffs]\n\n    @staticmethod\n"
             "    def from_json(data: list[str]) -> \"TruncatedSeries\":",
             "return [str(c + 1) for c in self.coeffs]\n\n    @staticmethod\n"
             "    def from_json(data: list[str]) -> \"TruncatedSeries\":")
    _, result = _result(_run(root, "algebra-deep"))
    # series digest plus the three sampled coefficients against rule_counts
    assert not result["correct"] and result["failed"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "verify-grid")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_kernels(checkout, tmp_path):
    meta, result = _result(_run(checkout, "verify-grid"))
    saved = []
    for kernel in ("pure", "compiled"):
        meta["kernel"] = kernel
        path = tmp_path / f"{kernel}.txt"
        path.write_text(json.dumps({"meta": meta}) + "\n" + json.dumps(result) + "\n")
        saved.append(str(path))
    compare = os.path.join(HERE, "compare.py")
    same = subprocess.run([sys.executable, compare, "--base", saved[0], "--new", saved[0]],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and "wall_s" in same.stdout
    differ = subprocess.run([sys.executable, compare, "--base", saved[0], "--new", saved[1]],
                            capture_output=True, text=True, timeout=60)
    assert differ.returncode == 2 and "kernel" in differ.stderr
