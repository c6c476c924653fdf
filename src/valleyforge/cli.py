"""Command-line interface: counting, generation, series, identity, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
out of memory, or stdout closed before the output was written.
All output is deterministic: fixed orderings, plain decimal integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import islice

from . import __version__, eco, identity, oracle, series
from .errors import ValleyforgeError
from .paths import ClassParams, clamped_grid, height


# ---------------------------------------------------------------------------
# counting routes


# Route name -> (params, nmax) -> class counts for n = 0..nmax, each in one
# sweep; the order is verify's column order.  Every route answers every
# (h, k) and raises ValueError for a negative nmax.  The entries are lambdas
# that look their function up in its module at call time, so perfbench's
# tracer and the tests' monkeypatches, which replace module attributes, see
# the calls.  verify builds one grid per entry, in this order: eco's from one
# tree, eco.grid_totals_upto, the others' by one call per clamped cell through
# paths.clamped_grid.  The cap is the ECO count's only bound, though it builds
# only part of the tree, so the commands that run eco check the cap first.
ROUTES = {
    "eco": lambda params, nmax: eco.tree_totals_upto(params, nmax),
    "rule": lambda params, nmax: eco.rule_totals_upto(params, nmax),
    "series": lambda params, nmax: series.f_series(params, nmax).coeffs,
    "brute": lambda params, nmax: oracle.brute_counts_upto(params, nmax),
}


def _quoted(text: str) -> str:
    """An argument as an error quotes it: whole up to 20 characters, else its first 20."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _parse_int(text: str, whole: str = "") -> int:
    """Parse an integer argument: the argparse type of every integer option.

    As an argparse type it reads the argument under the interpreter's limit
    on integer digits, and an error says when the limit is why ``int``
    refused it.  ``whole`` is the range a bound is read from, for
    :func:`_parse_range`; an error quotes it, or else the argument.
    """
    try:
        return int(text)
    except ValueError:
        what = f"range {_quoted(whole)}" if whole else f"int value {_quoted(text)}"
        if text.isdecimal():  # int() refuses such a text only for its length
            bound = "a bound of " if whole else ""
            raise argparse.ArgumentTypeError(
                f"{what} has {bound}more than {sys.get_int_max_str_digits()} digits") from None
        hint = ": expected N or LO..HI" if whole else ""
        raise argparse.ArgumentTypeError(f"invalid {what}{hint}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """Parse '4..7' or a single '4' into an inclusive (lo, hi) pair; an argparse type.

    Each bound is read by :func:`_parse_int`, so a range is refused as an
    integer option is, and an error quotes the whole argument.
    """
    lo_s, sep, hi_s = text.partition("..")
    lo, hi = _parse_int(lo_s, text), _parse_int(hi_s if sep else lo_s, text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {_quoted(text)}")
    return lo, hi


# Rows of plain output, or records of a JSON array, per write: it bounds
# what _emit holds and keeps the writes few when stdout is a slow or hashing
# sink.  Blocks stay short because a row can be long: `identity --h-max
# 1000`, whose rows reach 1.2 kB, ran 25% slower in blocks of 4,096 rows
# than at one write a row, and 20% faster in blocks of 64 to 128; in JSON
# form it took 1.35 s in blocks of 4,096 records and 0.87 s in blocks of
# 128 (2-core Xeon, Python 3.11, stdout to /dev/null).
BLOCK = 128


def _emit(fmt: str, items, record, line, json_text=None) -> None:
    """Write items in the requested form as they come, computing only that form.

    ``items`` is any iterable; it is read once and never held whole.
    plain: the text ``line(item)`` per item, one row a line; json: one array
    of ``record(item)`` dicts, byte-identical to ``json.dumps`` of the whole
    list; both are written in blocks of up to BLOCK items.  csv: a header
    row of the record keys, then one row per item.  ``json_text(item)``, if
    given, is the JSON text of ``record(item)``, written in its place.
    """
    if fmt == "json":
        if json_text is None:
            rows, join = map(record, items), lambda block: json.dumps(block)[1:-1]
        else:
            rows, join = map(json_text, items), ", ".join
        sep = "["
        while block := list(islice(rows, BLOCK)):
            sys.stdout.write(sep + join(block))
            sep = ", "
        sys.stdout.write("[]\n" if sep == "[" else "]\n")
    elif fmt == "csv":
        import csv  # its one user, so the other forms never load it

        w = csv.writer(sys.stdout)
        for i, item in enumerate(items):
            row = record(item)
            if i == 0:
                w.writerow(row)
            w.writerow(row.values())
    else:
        lines = map(line, items)
        while block := list(islice(lines, BLOCK)):
            sys.stdout.write("\n".join(block) + "\n")


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
    if not (args.method or args.cross_check):
        raise ValueError("count needs --method or --cross-check")
    params = ClassParams(args.h, args.k)
    if args.n < 0:  # before any route, so each names the count's own option
        raise ValueError("n must be >= 0")
    methods = ROUTES if args.cross_check else [args.method]
    if "eco" in methods:
        oracle.check_cap(args.n, args.cap)
    counts = {m: ROUTES[m](params, args.n)[args.n] for m in methods}
    values = set(counts.values())
    if len(values) != 1:
        print(f"disagreement at h={args.h} k={args.k} n={args.n}: {_disagreement(counts)}",
              file=sys.stderr)
        return 1
    (value,) = values
    record = {"h": args.h, "k": args.k, "n": args.n, "method": args.method or "cross-check",
              "count": str(value)}
    if args.format == "json":
        print(json.dumps(record))
    else:
        _emit(args.format, [value], lambda _: record, str)
    return 0


def _cmd_generate(args) -> int:
    params = ClassParams(args.h, args.k)
    oracle.check_cap(args.n, args.cap)
    _emit(args.format, eco.generate(params, args.n),
          lambda p: {"word": p.word, "height": height(p), "label": eco.label_of(p, params)},
          lambda p: p.word,
          # The record's JSON text, with no dict: a U/D word, an int and a
          # label such as "(h_0)" need no escaping.
          lambda p: f'{{"word": "{p.word}", "height": {height(p)}, '
                    f'"label": "{eco.label_of(p, params)}"}}')
    return 0


def _cmd_series(args) -> int:
    if args.show_components and args.format == "csv":
        raise ValleyforgeError("--show-components has no csv form; use --format plain or json")
    params = ClassParams(args.h, args.k)
    if args.show_components:
        fs, F = series.components(params, args.order)
        denominator = [str(c) for c in series.build_S(args.h, args.k)]
    else:
        fs = series.f_series(params, args.order)
    if args.format == "json":
        head = json.dumps({"h": args.h, "k": args.k, "coefficients": fs.to_json()})
        if args.show_components:
            # json.dumps of the object with "components" and "denominator"
            # added, written one component at a time.  Every entry is a
            # decimal integer, which needs no escaping, so the array is
            # joined directly.
            sys.stdout.write(head[:-1] + ', "components": [')
            for i, s in enumerate(F):
                sys.stdout.write((", " if i else "") + '["' + '", "'.join(s.to_json()) + '"]')
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
    failed = []
    decimal: dict[int, str] = {}  # n -> C_n in decimal; every h that covers n repeats it

    def rows():
        for h, n, expected, value in identity.catalan_recurrence_rows(args.h_min, args.h_max):
            text = decimal.get(n)
            if text is None:
                text = decimal[n] = str(expected)
            ok = expected == value
            if not ok:
                failed.append((h, n))
            yield h, n, text, text if ok else str(value), ok

    _emit(args.format, rows(),
          lambda r: {"h": r[0], "n": r[1], "expected": r[2], "recurrence": r[3], "passed": r[4]},
          lambda r: f"h={r[0]} n={r[1]} expected={r[2]} recurrence={r[3]} {'ok' if r[4] else 'FAIL'}")
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValleyforgeError("need --jobs >= 1")
    (h_lo, h_hi), (k_lo, k_hi) = args.h, args.k
    ClassParams(h_lo, k_lo)  # the lowest bounds: refuses a bad grid before the cap is checked
    oracle.check_cap(args.n_max, args.cap)
    grid = (h_lo, h_hi, k_lo, k_hi, args.n_max)
    grids = [eco.grid_totals_upto(*grid) if name == "eco" else
             clamped_grid(*grid, lambda cell: route(cell, args.n_max)) for name, route in ROUTES.items()]
    failed = []

    def rows():
        for h, grid_h in zip(range(h_lo, h_hi + 1), zip(*grids)):
            for k, columns in zip(range(k_lo, k_hi + 1), zip(*grid_h)):
                for n, row in enumerate(zip(*columns)):
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
    listing.add_argument("--cap", type=_parse_int, default=oracle.DEFAULT_CAP,
                         help="semilength cap for listing paths (the eco route and generate)")
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--h", type=_parse_int, required=True)
    cell.add_argument("--k", type=_parse_int, required=True)

    parser = argparse.ArgumentParser(prog="valleyforge",
                                     description="Counting and cross-verification of "
                                                 "height-bounded, valley-run-restricted Dyck paths")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common, listing, cell], help="count paths by one route")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--method", choices=ROUTES,
                   help="the route to count by; optional with --cross-check")
    p.add_argument("--cross-check", action="store_true", help="count by all four routes and compare")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("generate", parents=[common, listing, cell], help="list all paths of one size")
    p.add_argument("--n", type=_parse_int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("series", parents=[common, cell], help="expand the counting series")
    p.add_argument("--order", type=_parse_int, required=True)
    p.add_argument("--show-components", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("identity", parents=[common], help="check the Catalan recurrence")
    p.add_argument("--h-min", type=_parse_int, required=True)
    p.add_argument("--h-max", type=_parse_int, required=True)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("verify", parents=[common, listing], help="four-route agreement grid")
    p.add_argument("--h", type=_parse_range, required=True, help="height bound or range, e.g. 4..7")
    p.add_argument("--k", type=_parse_range, required=True, help="run bound or range, e.g. 3..5")
    p.add_argument("--n-max", type=_parse_int, required=True)
    p.add_argument("--jobs", type=_parse_int, default=1,
                   help="accepted for compatibility, no effect: verify always runs in one process")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, in the handler below, not at exit
        return code
    except (ValleyforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}; try smaller sizes", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader stopped early, as `| head` does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # what is left in the buffer goes nowhere at exit
        try:
            print(f"error: stdout closed before {args.command} finished writing",
                  file=sys.stderr, flush=True)
        except BrokenPipeError:  # stderr shares the closed pipe, as after `2>&1 | head`
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 2
    finally:
        sys.set_int_max_str_digits(max_digits)


if __name__ == "__main__":
    sys.exit(main())
