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
from collections import Counter
from itertools import islice

from . import __version__, eco, identity, oracle, series
from .errors import ValleyforgeError
from .paths import ClassParams, catalan_upto, height


# ---------------------------------------------------------------------------
# counting routes


# Route name -> (params, nmax) -> class counts for n = 0..nmax, each in one
# sweep; the order is verify's column order.  Every route answers every
# (h, k) and raises ValueError for a negative nmax.  The entries are lambdas
# that look their function up in its module at call time, so perfbench's
# tracer and the tests' monkeypatches, which replace module attributes, see
# the calls.  Only eco lists paths: it walks the ECO tree in blocks, building
# every path up to depth nmax-1 and counting depth nmax from their labels, so
# its memory stays bounded but its time grows with the paths it builds, and
# the commands that run it check the listing cap first.
ROUTES = {
    "eco": lambda params, nmax: eco.tree_totals_upto(params, nmax),
    "rule": lambda params, nmax: eco.rule_totals_upto(params, nmax),
    "series": lambda params, nmax: series.f_series(params, nmax).coeffs,
    "brute": lambda params, nmax: oracle.brute_counts_upto(params, nmax),
}


def _parse_range(text: str) -> tuple[int, int]:
    """Parse '4..7' or a single '4' into an inclusive (lo, hi) pair.

    An argparse type, so a range is read under the interpreter's limit on
    integer digits, like every other integer on the command line.
    """
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _verify_cell(job: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """The counts of every route, in ROUTES order, for one (h, k) cell and n = 0..nmax."""
    h, k, nmax = job
    params = ClassParams(h, k)
    return list(zip(*(route(params, nmax) for route in ROUTES.values())))


# Records per write of a JSON array: bounds what _emit holds, and keeps the
# writes few when stdout is a slow or hashing sink.
JSON_BLOCK = 4096


def _emit(fmt: str, items, record, line) -> None:
    """Write items in the requested form as they come, computing only that form.

    ``items`` is any iterable; it is read once and never held whole.
    plain: ``line(item)`` per item; json: one array of ``record(item)``
    dicts, written in blocks of up to JSON_BLOCK records and byte-identical
    to ``json.dumps`` of the whole list; csv: a header row of the record
    keys, then one row per item.
    """
    if fmt == "json":
        records = map(record, items)
        sep = "["
        while block := list(islice(records, JSON_BLOCK)):
            sys.stdout.write(sep + json.dumps(block)[1:-1])
            sep = ", "
        sys.stdout.write("[]\n" if sep == "[" else "]\n")
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        for i, item in enumerate(items):
            row = record(item)
            if i == 0:
                w.writerow(row)
            w.writerow(row.values())
    else:
        for item in items:
            print(line(item))


def _route_columns(counts: dict[str, int]) -> str:
    return " ".join(f"{name}={c}" for name, c in counts.items())


def _odd_routes(counts: dict[str, int]) -> str:
    """Name each route that differs from the value a strict majority of routes hold."""
    value, held = Counter(counts.values()).most_common(1)[0]
    if 2 * held <= len(counts):
        return "no majority"
    odd = [f"{name} differs by {c - value:+d}" for name, c in counts.items() if c != value]
    return "; ".join([f"majority {value}", *odd])


def _disagreement(counts: dict[str, int]) -> str:
    """Every route's count, then the routes that differ from the majority."""
    return f"{_route_columns(counts)}; {_odd_routes(counts)}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_count(args) -> int:
    params = ClassParams(args.h, args.k)
    methods = ROUTES if args.cross_check else [args.method]
    if "eco" in methods:
        oracle.check_cap(args.n, args.cap)
    counts = {m: ROUTES[m](params, args.n)[args.n] for m in methods}
    if len(set(counts.values())) != 1:
        print(f"disagreement at h={args.h} k={args.k} n={args.n}: {_disagreement(counts)}",
              file=sys.stderr)
        return 1
    value = counts[args.method]
    record = {"h": args.h, "k": args.k, "n": args.n, "method": args.method, "count": str(value)}
    if args.format == "json":
        print(json.dumps(record))
    else:
        _emit(args.format, [value], lambda _: record, str)
    return 0


def _cmd_generate(args) -> int:
    params = ClassParams(args.h, args.k)
    oracle.check_cap(args.n, args.cap)
    _emit(args.format, eco.generate(params, args.n),
          lambda p: {"word": p.word, "height": height(p), "label": str(eco.label_of(p, params))},
          lambda p: p.word)
    return 0


def _cmd_series(args) -> int:
    if args.show_components and args.format == "csv":
        raise ValleyforgeError("--show-components has no csv form; use --format plain or json")
    params = ClassParams(args.h, args.k)
    F = series.solve_series(params, args.order)
    fs = series.counting_series(params, F)
    denominator = [str(c) for c in series.build_S(args.h, args.k)]
    if args.format == "json":
        head = json.dumps({"h": args.h, "k": args.k, "coefficients": fs.to_json()})
        if args.show_components:
            # json.dumps of the object with "components" and "denominator"
            # added, written one component at a time.
            sys.stdout.write(head[:-1] + ', "components": [')
            for i, s in enumerate(F):
                sys.stdout.write((", " if i else "") + json.dumps(s.to_json()))
            print(f'], "denominator": {json.dumps(denominator)}}}')
        else:
            print(head)
    elif args.format == "plain":
        print(" ".join(str(c) for c in fs.coeffs))
        if args.show_components:
            print(f"S({args.h},{args.k}) = {denominator}")
            for i, s in enumerate(F, start=1):
                print(f"F_{i} = {s.to_json()}")
    else:
        _emit(args.format, enumerate(fs.coeffs), lambda nc: {"n": nc[0], "coefficient": nc[1]}, None)
    return 0


def _cmd_identity(args) -> int:
    if not 4 <= args.h_min <= args.h_max:
        raise ValleyforgeError("need 4 <= h-min <= h-max")
    C = catalan_upto(args.h_max)
    failed = []

    def rows():
        for h in range(args.h_min, args.h_max + 1):
            for n, expected, value in identity.catalan_recurrence_sweep(h, C):
                ok = expected == value
                if not ok:
                    failed.append((h, n))
                yield h, n, expected, value, ok

    _emit(args.format, rows(),
          lambda r: {"h": r[0], "n": r[1], "expected": str(r[2]), "recurrence": str(r[3]), "passed": r[4]},
          lambda r: f"h={r[0]} n={r[1]} expected={r[2]} recurrence={r[3]} {'ok' if r[4] else 'FAIL'}")
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValleyforgeError("need --jobs >= 1")
    (h_lo, h_hi), (k_lo, k_hi) = args.h, args.k
    ClassParams(h_lo, k_lo)  # the lowest bounds: refuses a bad grid before any worker starts
    cells = [(h, k) for h in range(h_lo, h_hi + 1) for k in range(k_lo, k_hi + 1)]
    oracle.check_cap(args.n_max, args.cap)

    jobs = [(h, k, args.n_max) for h, k in cells]
    # Each worker is a process of its own, all started at once: never more
    # than there are cells or CPUs.
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it loads multiprocessing, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_cell, jobs))
    else:
        results = [_verify_cell(job) for job in jobs]

    failed = []

    def rows():
        for (h, k), cell_rows in zip(cells, results):
            for n, row in enumerate(cell_rows):
                counts = dict(zip(ROUTES, row))
                ok = len(set(row)) == 1
                if not ok:
                    failed.append((h, k, n))
                    print(f"MISMATCH h={h} k={k} n={n}: {_disagreement(counts)}", file=sys.stderr)
                yield h, k, n, counts, ok

    _emit(args.format, rows(),
          lambda r: {"h": r[0], "k": r[1], "n": r[2],
                     **{name: str(c) for name, c in r[3].items()}, "agree": r[4]},
          lambda r: f"h={r[0]} k={r[1]} n={r[2]} {_route_columns(r[3])} {'ok' if r[4] else 'FAIL'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    listing = argparse.ArgumentParser(add_help=False)
    listing.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP,
                         help="semilength cap for listing paths (the eco route and generate)")

    parser = argparse.ArgumentParser(prog="valleyforge",
                                     description="Counting and cross-verification of "
                                                 "height-bounded, valley-run-restricted Dyck paths")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common, listing], help="count paths by one route")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["eco", "brute", "rule", "series"], required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("generate", parents=[common, listing], help="list all paths of one size")
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

    p = sub.add_parser("verify", parents=[common, listing], help="four-route agreement grid")
    p.add_argument("--h", type=_parse_range, required=True, help="height bound or range, e.g. 4..7")
    p.add_argument("--k", type=_parse_range, required=True, help="run bound or range, e.g. 3..5")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Counts may run to any length.  The limit is lifted only after argv is
    # parsed, so a huge integer on the command line is still refused.
    max_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValleyforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(max_digits)


if __name__ == "__main__":
    sys.exit(main())
