"""Command-line interface: counting, generation, series, identity, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
All output is deterministic: fixed orderings, plain decimal integers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__, eco, identity, oracle, series
from .errors import ValleyforgeError
from .paths import EMPTY_PATH, ClassParams, height


# ---------------------------------------------------------------------------
# counting routes


def _check_cap(n: int, cap: int) -> None:
    """Refuse a semilength above --cap before any route lists paths."""
    if n > cap:
        raise ValleyforgeError(f"n={n} exceeds the cap {cap}")


def _count_by_method(method: str, params: ClassParams, n: int, cap: int) -> int:
    if method == "brute":
        return oracle.brute_count(params, n, cap=cap)
    if method == "eco":
        return len(eco.generate(params, n))
    if method == "rule":
        return eco.rule_counts(params, n).total()
    if method == "series":
        return series.f_series(params, n).coefficient(n)
    raise ValueError(f"unknown method {method!r}")


def _parse_range(text: str) -> tuple[int, int]:
    """Parse '4..7' or a single '4' into an inclusive (lo, hi) pair."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _verify_cell(job: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    """All four route counts for one (h, k) cell, for n = 0..nmax."""
    h, k, nmax, cap = job
    params = ClassParams(h, k)
    brute = oracle.brute_counts_upto(params, nmax, cap=cap)
    fs = series.f_series(params, nmax)
    rows = []
    level = [EMPTY_PATH]
    for n in range(nmax + 1):
        eco_count = len(level)
        rule_total = eco.rule_counts(params, n).total()
        rows.append((eco_count, rule_total, fs.coefficient(n), brute[n]))
        if n < nmax:
            level = [c for p in level for c in eco.children(p, params)]
    return rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> int:
    params = ClassParams(args.h, args.k)
    if args.method == "eco" or args.cross_check:
        _check_cap(args.n, args.cap)
    value = _count_by_method(args.method, params, args.n, args.cap)
    if args.cross_check:
        others = {
            m: _count_by_method(m, params, args.n, args.cap)
            for m in ("brute", "eco", "rule", "series")
        }
        if len(set(others.values())) != 1:
            print(f"disagreement at h={args.h} k={args.k} n={args.n}: {others}", file=sys.stderr)
            return 1
    if args.format == "json":
        print(json.dumps({"h": args.h, "k": args.k, "n": args.n, "method": args.method, "count": str(value)}))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["h", "k", "n", "method", "count"])
        w.writerow([args.h, args.k, args.n, args.method, value])
    else:
        print(value)
    return 0


def _cmd_generate(args) -> int:
    params = ClassParams(args.h, args.k)
    _check_cap(args.n, args.cap)
    paths = eco.generate(params, args.n)
    if args.format == "json":
        out = [
            {"word": p.word, "height": height(p), "label": str(eco.label_of(p, params))}
            for p in paths
        ]
        print(json.dumps(out))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["word", "height", "label"])
        for p in paths:
            w.writerow([p.word, height(p), str(eco.label_of(p, params))])
    else:
        for p in paths:
            print(p.word)
    return 0


def _cmd_series(args) -> int:
    params = ClassParams(args.h, args.k)
    fs = series.f_series(params, args.order)
    if args.format == "json":
        out: dict[str, object] = {"h": args.h, "k": args.k, "coefficients": fs.to_json()}
        if args.show_components:
            F = series.solve_series(params, args.order)
            out["components"] = [s.to_json() for s in F]
            out["denominator"] = series.build_S(args.h, args.k).to_json()
        print(json.dumps(out))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["n", "coefficient"])
        for n, c in enumerate(fs.coeffs):
            w.writerow([n, c])
    else:
        print(" ".join(str(c) for c in fs.coeffs))
        if args.show_components:
            print(f"S({args.h},{args.k}) = {series.build_S(args.h, args.k).to_json()}")
            for i, s in enumerate(series.solve_series(params, args.order), start=1):
                print(f"F_{i} = {s.to_json()}")
    return 0


def _cmd_identity(args) -> int:
    if not 4 <= args.h_min <= args.h_max:
        raise ValleyforgeError("need 4 <= h-min <= h-max")
    records = []
    all_pass = True
    for h in range(args.h_min, args.h_max + 1):
        lo = (h + 2) // 2
        for n in range(lo, h):
            expected, value = identity.catalan_recurrence_check(h, n)
            ok = expected == value
            all_pass &= ok
            records.append((h, n, expected, value, ok))
    if args.format == "json":
        print(json.dumps([
            {"h": h, "n": n, "expected": str(e), "recurrence": str(v), "passed": ok}
            for h, n, e, v, ok in records
        ]))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["h", "n", "expected", "recurrence", "passed"])
        for h, n, e, v, ok in records:
            w.writerow([h, n, e, v, ok])
    else:
        for h, n, e, v, ok in records:
            print(f"h={h} n={n} expected={e} recurrence={v} {'ok' if ok else 'FAIL'}")
    return 0 if all_pass else 1


def _cmd_verify(args) -> int:
    h_lo, h_hi = _parse_range(args.h)
    k_lo, k_hi = _parse_range(args.k)
    cells = []
    for h in range(h_lo, h_hi + 1):
        for k in range(k_lo, k_hi + 1):
            params = ClassParams(h, k)
            if not params.eco_supported:
                raise ValleyforgeError(f"(h={h}, k={k}) not supported by the ECO routes")
            cells.append((h, k))
    if args.n_max > args.cap:
        raise ValleyforgeError(f"n-max={args.n_max} exceeds the cap {args.cap}")

    jobs = [(h, k, args.n_max, args.cap) for h, k in cells]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_verify_cell, jobs))
    else:
        results = [_verify_cell(job) for job in jobs]

    rows = []
    ok_all = True
    for (h, k), cell_rows in zip(cells, results):
        for n, (ec, rc, sc, bc) in enumerate(cell_rows):
            ok = ec == rc == sc == bc
            if not ok:
                ok_all = False
                print(f"MISMATCH h={h} k={k} n={n}: eco={ec} rule={rc} series={sc} brute={bc}", file=sys.stderr)
            rows.append((h, k, n, ec, rc, sc, bc, ok))

    if args.format == "json":
        print(json.dumps([
            {"h": h, "k": k, "n": n, "eco": str(a), "rule": str(b), "series": str(c), "brute": str(d), "agree": ok}
            for h, k, n, a, b, c, d, ok in rows
        ]))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["h", "k", "n", "eco", "rule", "series", "brute", "agree"])
        for row in rows:
            w.writerow(list(row))
    else:
        for h, k, n, a, b, c, d, ok in rows:
            print(f"h={h} k={k} n={n} eco={a} rule={b} series={c} brute={d} {'ok' if ok else 'FAIL'}")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    common.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                        help="semilength cap for the brute and eco routes")

    parser = argparse.ArgumentParser(prog="valleyforge",
                                     description="Counting and cross-verification of "
                                                 "height-bounded, valley-run-restricted Dyck paths")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count paths by one route")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["eco", "brute", "rule", "series"], required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("generate", parents=[common], help="list all paths of one size")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("series", parents=[common], help="expand the counting series")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--show-components", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("identity", parents=[common], help="check the Catalan recurrence")
    p.add_argument("--h-min", type=int, required=True)
    p.add_argument("--h-max", type=int, required=True)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("verify", parents=[common], help="four-route agreement grid")
    p.add_argument("--h", required=True, help="height bound or range, e.g. 4..7")
    p.add_argument("--k", required=True, help="run bound or range, e.g. 3..5")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValleyforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
