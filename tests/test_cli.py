import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import valleyforge
from valleyforge import cli, eco, identity, series
from valleyforge.cli import main
from valleyforge.paths import ClassParams, height


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_brute(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5", "--method", "brute")
        assert code == 0
        assert out.strip() == "41"

    def test_rule_catalan_boundary(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "3", "--method", "rule")
        assert code == 0
        assert out.strip() == "5"

    @pytest.mark.parametrize("h,n,expected", [(2, 5, "13"), (1, 2, "1"), (1, 3, "0")])
    def test_h1_h2_cross_check(self, capsys, h, n, expected):
        # h = 2, k = 3: 1/(1 - x - x^2 - x^3); h = 1, k = 3: 1 + x + x^2
        code, out, err = run(capsys, "count", "--h", str(h), "--k", "3", "--n", str(n),
                             "--method", "eco", "--cross-check")
        assert (code, out, err) == (0, expected + "\n", "")

    def test_brute_runs_past_the_listing_cap(self, capsys):
        argv = ("count", "--h", "7", "--k", "5", "--n", "2000", "--method")
        code, out, err = run(capsys, *argv, "brute")
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv, "rule")[1]

    @pytest.mark.parametrize("argv", [
        ("count", "--method", "eco"),
        ("count", "--method", "rule", "--cross-check"),
        ("generate",),
    ])
    def test_listing_routes_respect_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--h", "7", "--k", "5", "--n", "15", "--cap", "14")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_cross_check(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "6",
                           "--method", "series", "--cross-check")
        assert code == 0
        assert out.strip() == "121"

    def test_count_longer_than_the_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "count", "--h", "7", "--k", "5", "--n", "8000",
                             "--method", "rule")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        expected = eco.rule_totals_upto(ClassParams(7, 5), 8000)[-1]
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{expected}\n"
            assert len(str(expected)) == 4383
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5",
                           "--method", "brute", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"h": 4, "k": 3, "n": 5, "method": "brute", "count": "41"}

    def test_cross_check_needs_no_method(self, capsys):
        argv = ("count", "--h", "4", "--k", "3", "--n", "6")
        assert run(capsys, *argv, "--cross-check") == (0, "121\n", "")
        assert run(capsys, *argv, "--cross-check") == run(capsys, *argv, "--method", "series",
                                                          "--cross-check")

    @pytest.mark.parametrize("fmt,expected", [
        ("json", '{"h": 4, "k": 3, "n": 6, "method": "cross-check", "count": "121"}\n'),
        ("csv", "h,k,n,method,count\r\n4,3,6,cross-check,121\r\n"),
    ], ids=["json", "csv"])
    def test_cross_check_record_without_method(self, capsys, fmt, expected):
        code, out, err = run(capsys, "count", "--h", "4", "--k", "3", "--n", "6", "--cross-check",
                             "--format", fmt)
        assert (code, out, err) == (0, expected, "")

    def test_needs_method_or_cross_check(self, capsys):
        code, out, err = run(capsys, "count", "--h", "4", "--k", "3", "--n", "6")
        assert (code, out, err) == (2, "", "error: count needs --method or --cross-check\n")


class TestGenerate:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "generate", "--h", "4", "--k", "3", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["UDUD", "UUDD"]

    def test_n0_empty_word_line(self, capsys):
        code, out, _ = run(capsys, "generate", "--h", "4", "--k", "3", "--n", "0")
        assert code == 0
        assert out == "\n"

    def test_n6_line_count(self, capsys):
        code, out, _ = run(capsys, "generate", "--h", "4", "--k", "3", "--n", "6")
        assert code == 0
        assert len(out.splitlines()) == 121

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "generate", "--h", "4", "--k", "3", "--n", "2",
                           "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert records[0] == {"word": "UDUD", "height": 1, "label": "(2)"}
        assert Counter(r["label"] for r in records) == eco.rule_counts(ClassParams(4, 3), 2)

    @pytest.mark.parametrize("block", [cli.JSON_BLOCK, 3])
    @pytest.mark.parametrize("h, k", [(h, k) for h in range(1, 7) for k in range(2, 6)])
    def test_json_rows_are_dumps_of_the_records(self, capsys, monkeypatch, h, k, block):
        """Each row, written from a template, is json.dumps of its dict record,
        byte for byte; at a block of 3 the listings cross block ends.  At
        h = 1, k = 2 the listings past n = 1 are empty: ``[]``."""
        monkeypatch.setattr(cli, "JSON_BLOCK", block)
        params = ClassParams(h, k)
        for n in range(8):
            records = [{"word": p.word, "height": height(p), "label": eco.label_of(p, params)}
                       for p in eco.generate(params, n)]
            code, out, _ = run(capsys, "generate", "--h", str(h), "--k", str(k), "--n", str(n),
                               "--format", "json")
            assert (code, out) == (0, json.dumps(records) + "\n")


class TestSeries:
    def test_order7(self, capsys):
        code, out, _ = run(capsys, "series", "--h", "4", "--k", "3", "--order", "7")
        assert code == 0
        assert out.strip() == "1 1 2 5 14 41 121 358"

    def test_show_components(self, capsys):
        code, out, _ = run(capsys, "series", "--h", "4", "--k", "3", "--order", "7",
                           "--show-components")
        assert code == 0
        assert "S(4,3) = ['1', '-4', '3', '0', '1', '-1']" in out

    def test_k2_branch(self, capsys):
        code, out, _ = run(capsys, "series", "--h", "5", "--k", "2", "--order", "5")
        assert code == 0
        assert out.strip() == "1 1 2 5 14 42"

    def test_streamed_components_json_is_the_whole_object(self, capsys):
        params = ClassParams(64, 5)
        F = series.solve_series(params, 60)
        whole = {"h": 64, "k": 5, "coefficients": series.counting_series(params, F).to_json(),
                 "components": [s.to_json() for s in F],
                 "denominator": [str(c) for c in series.build_S(64, 5)]}
        code, out, _ = run(capsys, "series", "--h", "64", "--k", "5", "--order", "60",
                           "--show-components", "--format", "json")
        assert (code, out) == (0, json.dumps(whole) + "\n")

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_denominator_built_only_for_components(self, capsys, monkeypatch, fmt):
        """Without --show-components, S(h, k) is never built: at large h it costs more than the counts."""
        argv = ["series", "--h", "9", "--k", "4", "--order", "12", "--format", fmt]
        expected = run(capsys, *argv)

        def refuse(h, k):
            raise AssertionError("build_S called")

        monkeypatch.setattr(series, "build_S", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0

    def test_components_have_no_csv_form(self, capsys):
        code, out, err = run(capsys, "series", "--h", "4", "--k", "3", "--order", "7",
                             "--show-components", "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--format" in err


class TestIdentity:
    def test_full_range_passes(self, capsys):
        code, out, _ = run(capsys, "identity", "--h-min", "4", "--h-max", "64")
        assert code == 0
        assert "FAIL" not in out

    def test_json_window_h5(self, capsys):
        code, out, _ = run(capsys, "identity", "--h-min", "5", "--h-max", "5",
                           "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["n"] for r in records] == [3, 4]
        assert all(r["passed"] for r in records)

    def test_below_range_exit_2(self, capsys):
        for bounds in (("--h-min", "0", "--h-max", "4"), ("--h-min", "5", "--h-max", "4")):
            for fmt in ("plain", "json", "csv"):
                code, out, err = run(capsys, "identity", *bounds, "--format", fmt)
                assert (code, out, err) == (2, "", "error: need 1 <= h-min <= h-max\n"), (bounds, fmt)

    def test_h_from_1(self, capsys):
        code, out, err = run(capsys, "identity", "--h-min", "1", "--h-max", "3")
        assert (code, out, err) == (0, "h=3 n=2 expected=2 recurrence=2 ok\n", "")

    @pytest.mark.parametrize("fmt,expected", [("plain", ""), ("csv", ""), ("json", "[]\n")])
    def test_no_rows(self, capsys, fmt, expected):
        code, out, err = run(capsys, "identity", "--h-min", "1", "--h-max", "2", "--format", fmt)
        assert (code, out, err) == (0, expected, "")

    @pytest.fixture
    def last_row_wrong(self, monkeypatch):
        """The recurrence value of the last row of h = 9, (h, n) = (9, 8), is off by one."""
        rows = identity.catalan_recurrence_rows

        def broken(h_min, h_max):
            for h, n, expected, value in rows(h_min, h_max):
                yield h, n, expected, value + ((h, n) == (9, 8))

        monkeypatch.setattr(identity, "catalan_recurrence_rows", broken)

    def test_failure_plain(self, capsys, last_row_wrong):
        code, out, _ = run(capsys, "identity", "--h-min", "4", "--h-max", "9")
        lines = out.splitlines()
        assert code == 1
        assert [line for line in lines if line.endswith(" FAIL")] == [lines[-1]]
        assert lines[-1] == "h=9 n=8 expected=1430 recurrence=1431 FAIL"

    def test_failure_json(self, capsys, last_row_wrong):
        code, out, _ = run(capsys, "identity", "--h-min", "4", "--h-max", "9",
                           "--format", "json")
        records = json.loads(out)
        assert code == 1
        assert [r for r in records if not r["passed"]] == [records[-1]]
        assert records[-1] == {"h": 9, "n": 8, "expected": "1430", "recurrence": "1431",
                               "passed": False}

    def test_h_up_to_400(self, capsys):
        code, out, _ = run(capsys, "identity", "--h-min", "4", "--h-max", "400")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == sum(h - (h + 2) // 2 for h in range(4, 401)) == 39_799
        assert all(line.endswith(" ok") for line in lines)


class TestVerify:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "4..5", "--k", "3..4",
                           "--n-max", "6", "--jobs", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_k2_cell(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "3..3", "--k", "2..2",
                           "--n-max", "8", "--jobs", "1")
        assert code == 0

    def test_h2_cell(self, capsys):
        code, out, err = run(capsys, "verify", "--h", "2..3", "--k", "3..3",
                             "--n-max", "4", "--jobs", "1")
        assert (code, err) == (0, "")
        assert out.startswith("h=2 k=3 n=0 eco=1 rule=1 series=1 brute=1 ok\n")
        assert len(out.splitlines()) == 10 and "FAIL" not in out

    def test_h0_exit_2_before_any_worker(self, capsys):
        code, out, err = run(capsys, "verify", "--h", "0..2", "--k", "3", "--n-max", "4",
                             "--jobs", "2")
        assert (code, out, err) == (2, "", "error: h must be >= 1, got 0\n")

    def test_catalan_on_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "4..4", "--k", "3..3",
                           "--n-max", "4", "--jobs", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        expected = ["1", "1", "2", "5", "14"]
        for row, want in zip(rows, expected):
            assert row["eco"] == row["rule"] == row["series"] == row["brute"] == want

    def test_acceptance_grid_agrees_far_past_the_default_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--h", "4..7", "--k", "3..5", "--n-max", "60",
                             "--cap", "60")
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert len(lines) == 4 * 3 * 61 == 732
        assert all(line.endswith(" ok") for line in lines)

    def test_each_route_counts_each_clamped_cell_once(self, capsys, monkeypatch):
        calls = {name: [] for name in cli.ROUTES}
        for name, route in list(cli.ROUTES.items()):
            monkeypatch.setitem(cli.ROUTES, name, lambda params, nmax, name=name, route=route:
                                calls[name].append((params.h, params.k, nmax)) or route(params, nmax))
        code, out, err = run(capsys, "verify", "--h", "4..40", "--k", "3..9", "--n-max", "3")
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert len(lines) == 37 * 7 * 4 and all(line.endswith(" ok") for line in lines)
        assert lines[-4:] == [f"h=40 k=9 n={n} eco={c} rule={c} series={c} brute={c} ok"
                              for n, c in enumerate([1, 1, 2, 5])]
        # clamped at n = 3: h 4, k 3 .. 5; the eco column comes from one grid count
        assert calls == {"eco": [], **{name: [(4, 3, 3), (4, 4, 3), (4, 5, 3)]
                                       for name in ("rule", "series", "brute")}}


class TestRoutes:
    @pytest.mark.parametrize("name", list(cli.ROUTES))
    def test_negative_nmax_raises(self, name):
        with pytest.raises(ValueError, match="must be >= 0"):
            cli.ROUTES[name](ClassParams(4, 3), -1)

    @pytest.mark.parametrize("name", list(cli.ROUTES))
    def test_answers_h1_and_h2(self, name):
        for params in (ClassParams(h, k) for h in (1, 2) for k in range(2, 6)):
            assert list(cli.ROUTES[name](params, 10)) == cli.ROUTES["brute"](params, 10), params

    @pytest.mark.parametrize("name", list(cli.ROUTES))
    def test_huge_bounds_cost_nothing(self, name):
        """Every route counts to n at the bounds clamped at (n+1, n+2)."""
        tracemalloc.start()
        try:
            counts = cli.ROUTES[name](ClassParams(10**6, 10**6), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(counts) == [1, 1, 2, 5, 14, 42]
        assert peak < 1 << 20


def _rule_off_by_one_at_nmax(params, nmax):
    counts = cli.ROUTES["brute"](params, nmax)
    counts[nmax] += 1
    return counts


class TestOddRouteOut:
    def test_verify_names_the_route(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.ROUTES, "rule", _rule_off_by_one_at_nmax)
        code, out, err = run(capsys, "verify", "--h", "4", "--k", "3", "--n-max", "5", "--jobs", "1")
        assert code == 1
        assert out.splitlines()[-1] == "h=4 k=3 n=5 eco=41 rule=42 series=41 brute=41 FAIL"
        assert out.count("FAIL") == 1
        assert err == ("MISMATCH h=4 k=3 n=5: eco=41 rule=42 series=41 brute=41; "
                       "majority 41; rule differs by +1\n")

    def test_verify_labels_columns_in_routes_order(self, capsys, monkeypatch):
        """verify's columns follow ROUTES whatever its order, so eco may come last."""
        routes = {name: cli.ROUTES[name] for name in ("brute", "series", "rule", "eco")}
        monkeypatch.setattr(cli, "ROUTES", {**routes, "rule": _rule_off_by_one_at_nmax})
        code, out, err = run(capsys, "verify", "--h", "4", "--k", "3", "--n-max", "5")
        assert code == 1
        assert out.splitlines()[-1] == "h=4 k=3 n=5 brute=41 series=41 rule=42 eco=41 FAIL"
        assert out.count("FAIL") == 1
        assert err == ("MISMATCH h=4 k=3 n=5: brute=41 series=41 rule=42 eco=41; "
                       "majority 41; rule differs by +1\n")

    def test_cross_check_names_the_route(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.ROUTES, "rule", _rule_off_by_one_at_nmax)
        code, out, err = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5",
                             "--method", "series", "--cross-check")
        assert (code, out) == (1, "")
        assert err.startswith("disagreement at h=4 k=3 n=5:")
        assert err.endswith("; majority 41; rule differs by +1\n")
        assert err == ("disagreement at h=4 k=3 n=5: eco=41 rule=42 series=41 brute=41; "
                       "majority 41; rule differs by +1\n")

    def test_no_majority(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.ROUTES, "rule", _rule_off_by_one_at_nmax)
        monkeypatch.setitem(cli.ROUTES, "series", lambda params, nmax: [0] * (nmax + 1))
        code, _, err = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5",
                           "--method", "brute", "--cross-check")
        assert code == 1
        assert err.endswith("; no majority\n")


class TestVerifyJobs:
    # verify always runs in one process; --jobs is accepted and checked, nothing more.
    @pytest.mark.parametrize("jobs", ["1", "2", "100000"])
    @pytest.mark.parametrize("h_range,k_range", [("4", "3"), ("4", "3..6"), ("4..7", "3"),
                                                 ("4..5", "3..4")])
    def test_any_jobs_is_one_process(self, capsys, monkeypatch, h_range, k_range, jobs):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        argv = ("verify", "--h", h_range, "--k", k_range, "--n-max", "6")
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv, "--jobs", "1")[1]

    def test_default_is_one_process(self, capsys, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        argv = ("verify", "--h", "4..5", "--k", "3..4", "--n-max", "6")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == run(capsys, *argv, "--jobs", "1")[1]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--h", "4", "--k", "3", "--n-max", "5",
                             "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--jobs" in err


class TestEmitJson:
    B = cli.JSON_BLOCK

    @pytest.mark.parametrize("n", [0, 1, B, B + 1, 2 * B + 1])
    def test_bytes_of_one_dumps(self, capsys, n):
        items = [{"i": i, "word": "UD" * (i % 3)} for i in range(n)]
        cli._emit("json", items, lambda r: r, None)
        assert capsys.readouterr().out == json.dumps(items) + "\n"

    def _emit_noting_writes(self, monkeypatch, fmt, record, line, block):
        """Emit 3 blocks of items; return how many were produced at each write, and the text."""
        produced = 0

        def items():
            nonlocal produced
            for i in range(3 * block):
                produced += 1
                yield i

        class Out(io.StringIO):
            """Notes how many items were produced at each write."""

            def __init__(self):
                super().__init__()
                self.produced_at = []

            def write(self, text):
                self.produced_at.append(produced)
                return super().write(text)

        out = Out()
        monkeypatch.setattr(sys, "stdout", out)
        cli._emit(fmt, items(), record, line)
        return out.produced_at, out.getvalue()

    def test_writes_before_the_items_run_out(self, monkeypatch):
        produced_at, text = self._emit_noting_writes(monkeypatch, "json", lambda i: {"i": i}, None,
                                                     self.B)
        # one write per block, then the closing bracket
        assert produced_at == [self.B, 2 * self.B, 3 * self.B, 3 * self.B]
        assert text == json.dumps([{"i": i} for i in range(3 * self.B)]) + "\n"

    def test_plain_writes_before_the_items_run_out(self, monkeypatch):
        B = cli.PLAIN_BLOCK
        produced_at, text = self._emit_noting_writes(monkeypatch, "plain", None, lambda i: f"i={i}", B)
        # one write per block of lines
        assert produced_at == [B, 2 * B, 3 * B]
        assert text == "".join(f"i={i}\n" for i in range(3 * B))


class TestOutOfMemory:
    def _exhausted(self, *args):
        raise MemoryError

    def test_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(eco, "grid_totals_upto", self._exhausted)
        code, out, err = run(capsys, "verify", "--h", "4..5", "--k", "3", "--n-max", "3")
        assert (code, out, err) == (2, "", "error: out of memory running verify; try smaller sizes\n")

    def test_verify_counts_every_route_before_its_first_row(self, capsys, monkeypatch):
        def series_route(params, nmax, route=cli.ROUTES["series"]):
            if (params.h, params.k) == (7, 5):
                raise MemoryError
            return route(params, nmax)

        monkeypatch.setitem(cli.ROUTES, "series", series_route)
        code, out, err = run(capsys, "verify", "--h", "4..7", "--k", "3..5", "--n-max", "6")
        assert (code, out, err) == (2, "", "error: out of memory running verify; try smaller sizes\n")

    def test_count_route(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "f_series", self._exhausted)
        code, out, err = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5", "--method", "series")
        assert (code, out, err) == (2, "", "error: out of memory running count; try smaller sizes\n")


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "series", "--h", "5", "--k", "4", "--order", "10")
            outs.add(out)
        assert len(outs) == 1


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_method(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--h", "4", "--k", "3", "--n", "2", "--method", "magic"])
        assert exc.value.code == 2

    def test_empty_verify_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--h", "7..4", "--k", "3", "--n-max", "3"])
        assert exc.value.code == 2
        assert "argument --h: empty range '7..4'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["4..", "x", "4..7..9"])
    def test_malformed_range_names_the_accepted_forms(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--h", text, "--k", "3", "--n-max", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --h: invalid range '{text}': expected N or LO..HI" in err
        assert "_parse_range" not in err

    @pytest.mark.parametrize("text,cause", [
        ("4" * 5000, f"has a bound of more than {sys.get_int_max_str_digits()} digits"),
        ("4.." + "4" * 5000, f"has a bound of more than {sys.get_int_max_str_digits()} digits"),
        ("4..x" + "4" * 5000, ": expected N or LO..HI"),
        ("9" * 4000 + "..1", "empty range"),
    ], ids=["too-long", "too-long-hi", "malformed", "empty"])
    def test_long_range_quoted_by_a_prefix(self, capsys, text, cause):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--h", text, "--k", "3", "--n-max", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 400
        assert "argument --h: " in err and cause in err
        assert f"'{text[:20]}'... ({len(text)} characters)" in err

    @pytest.mark.parametrize("argv,option", [
        (("count", "--h", "4", "--k", "3", "--method", "rule", "--n"), "--n"),
        (("series", "--h", "4", "--k", "3", "--order"), "--order"),
        (("generate", "--h", "4", "--k", "3", "--n", "3", "--cap"), "--cap"),
        (("identity", "--h-min", "4", "--h-max"), "--h-max"),
    ], ids=["n", "order", "cap", "h-max"])
    @pytest.mark.parametrize("text,cause", [
        ("4" * 5000, f"has more than {sys.get_int_max_str_digits()} digits"),
        ("x" + "4" * 5000, "invalid int value"),
    ], ids=["too-long", "malformed"])
    def test_long_int_quoted_by_a_prefix(self, capsys, argv, option, text, cause):
        with pytest.raises(SystemExit) as exc:
            main([*argv, text])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.encode()) < 400
        assert f"argument {option}: " in err and cause in err
        assert f"'{text[:20]}'... ({len(text)} characters)" in err

    def test_short_int_quoted_whole(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--h", "4", "--k", "3", "--method", "rule", "--n", "4x"])
        assert exc.value.code == 2
        assert "argument --n: invalid int value '4x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("series", "--h", "4", "--k", "3", "--order", "7", "--cap", "5"),
        ("identity", "--h-min", "4", "--h-max", "9", "--cap", "5"),
    ], ids=["series", "identity"])
    def test_cap_only_where_paths_are_listed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("count", "--h", "4", "--k", "3", "--n", "4" * 5000, "--method", "rule"),
        ("verify", "--h", "4" * 5000, "--k", "3", "--n-max", "3"),
        ("verify", "--h", "4", "--k", "3.." + "4" * 5000, "--n-max", "3"),
    ], ids=["count-n", "verify-h", "verify-k-range"])
    def test_huge_integer_argument_refused(self, capsys, argv):
        """The digit limit is lifted for output only, after argv is parsed."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert sys.get_int_max_str_digits() == limit


def _child_env():
    """The environment for a child interpreter that imports this valleyforge."""
    env = dict(os.environ)
    src = str(Path(valleyforge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    env = _child_env()
    base = [sys.executable, "-m", "valleyforge", "count", "--h", "4", "--k", "3", "--method", "brute"]
    ok = subprocess.run([*base, "--n", "5"], capture_output=True, text=True, env=env)
    assert (ok.returncode, ok.stdout.strip()) == (0, "41")
    bad = subprocess.run([*base, "--n", "-1"], capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")


def test_import_loads_no_process_pool():
    """Importing the CLI and running verify with --jobs 2 load no module no command needs:
    no multiprocessing, no dataclasses or the inspect it imports, and no csv before a csv row.
    Under ``-S`` no typing either: ``site`` may load it, so only there is its absence seen."""
    argv = ["verify", "--h", "4..5", "--k", "3", "--n-max", "4", "--jobs", "2"]
    unused = {"multiprocessing", "concurrent.futures.process", "dataclasses", "inspect", "csv"}
    for flags, unloaded in (([], unused), (["-S"], unused | {"typing"})):
        child = ("import contextlib, io, sys\n"
                 "from valleyforge.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0\n"
                 f"print(sorted({unloaded!r} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, *flags, "-c", child], capture_output=True,
                              text=True, env=_child_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), flags


@pytest.mark.parametrize("argv,read", [
    (["generate", "--h", "5", "--k", "4", "--n", "11"], 10),
    (["identity", "--h-min", "1", "--h-max", "300"], 10),
    (["verify", "--h", "1..40", "--k", "2..9", "--n-max", "12"], 10),
    (["count", "--h", "4", "--k", "3", "--n", "5", "--method", "brute"], 0),
])
def test_closed_stdout_exits_2(argv, read):
    """A reader that stops early, as ``| head`` does, ends the command with exit 2 and one
    error line, not a traceback.  Stdout is buffered, as it is by default: the first three
    outputs are far longer than a pipe holds, and count's one line is still in the buffer
    when the pipe closes.  With stderr on stdout's pipe, as after ``2>&1 | head``, the error
    line is lost with it and the exit is still 2."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    line = f"error: stdout closed before {argv[0]} finished writing\n".encode()
    for stderr, expected in ((subprocess.PIPE, line), (subprocess.STDOUT, None)):
        proc = subprocess.Popen([sys.executable, "-m", "valleyforge", *argv],
                                stdout=subprocess.PIPE, stderr=stderr, env=env)
        proc.stdout.read(read)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, expected), stderr


@pytest.mark.parametrize("route", ["oracle", "eco", "series"])
def test_oracle_imports_no_other_route(route):
    """The oracle, ECO and the series are checked against each other, so
    importing one loads neither of the other two."""
    others = {f"valleyforge.{r}" for r in ("oracle", "eco", "series") if r != route}
    child = (f"import sys, valleyforge.{route}\n"
             f"print(sorted({others!r} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def _child_peak_rss_mib(argv: list[str]) -> float:
    """Peak RSS in MiB of ``main(argv)`` run in a fresh interpreter with stdout discarded.

    Asserts that the command exits 0.  The peak is the child's ``VmHWM``
    (Linux only), not its ``ru_maxrss``: after exec, Linux carries the
    spawning process's high-water mark into ``ru_maxrss``, so a large test
    process would be counted as the child's.
    """
    child = ("import sys\n"
             "from valleyforge.cli import main\n"
             f"code = main({argv!r})\n"
             "with open('/proc/self/status') as f:\n"
             "    hwm_kib = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
             "print(code, hwm_kib, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", child], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=_child_env(), timeout=120)
    code, hwm_kib = map(int, proc.stderr.split())
    assert code == 0
    return hwm_kib / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc, on Linux only")
def test_listing_json_peak_rss():
    """The 13.5 MB JSON listing of 201,145 paths is written, never held whole: about 50 MiB,
    and 72 MiB when the whole text is joined before it is written."""
    assert _child_peak_rss_mib(["generate", "--h", "7", "--k", "5", "--n", "12", "--format", "json"]) < 64


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc, on Linux only")
def test_eco_count_peak_rss():
    """The eco route counts the 704,317 paths at n = 13 from the blocks at n = 12, in bounded memory."""
    assert _child_peak_rss_mib(["count", "--h", "7", "--k", "5", "--n", "13", "--method", "eco"]) < 32


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from /proc, on Linux only")
def test_series_count_peak_rss():
    """The series route keeps the last k-1 columns of its 1000 x 1001 coefficients, never all."""
    assert _child_peak_rss_mib(["count", "--h", "1000", "--k", "3", "--n", "1000", "--method", "series"]) < 40


# Small-size commands whose stdout is pinned byte for byte in every format.
GOLDEN_COMMANDS = {
    "count": ["count", "--h", "4", "--k", "3", "--n", "6", "--method", "series", "--cross-check"],
    "generate_n5": ["generate", "--h", "4", "--k", "3", "--n", "5"],
    "generate_n0": ["generate", "--h", "4", "--k", "3", "--n", "0"],
    "series_components": ["series", "--h", "4", "--k", "3", "--order", "7", "--show-components"],
    "series_k2": ["series", "--h", "5", "--k", "2", "--order", "8"],
    "identity": ["identity", "--h-min", "4", "--h-max", "9"],
    "verify": ["verify", "--h", "4..5", "--k", "2..3", "--n-max", "6", "--jobs", "1"],
    "verify_grid": ["verify", "--h", "4..7", "--k", "3..5", "--n-max", "12", "--jobs", "1"],
    "verify_h3": ["verify", "--h", "3", "--k", "2..6", "--n-max", "12", "--jobs", "1"],
    "verify_h1_3": ["verify", "--h", "1..3", "--k", "2..6", "--n-max", "12", "--jobs", "1"],
    "verify_wide": ["verify", "--h", "4..6", "--k", "2..7", "--n-max", "13", "--jobs", "1"],
    "verify_tall": ["verify", "--h", "1..9", "--k", "2..4", "--n-max", "12", "--jobs", "1"],
    "generate_none": ["generate", "--h", "1", "--k", "2", "--n", "3"],
    "generate_listing": ["generate", "--h", "7", "--k", "5", "--n", "12"],
    "identity_deep": ["identity", "--h-min", "4", "--h-max", "160"],
    "series_deep": ["series", "--h", "64", "--k", "5", "--order", "1000", "--show-components"],
}

# (command, format, exit code, stdout sha256, stdout bytes)
GOLDEN = [
    ("count", "plain", 0, "0b05feae0bc8448241c8a68d18d0a0e0a97bf00c6126b04c61f23529ab862426", 4),
    ("count", "json", 0, "7e814dea09c2e8450d2b14a157b7a8385dd41e87d92131954f4742385dbe42ed", 61),
    ("count", "csv", 0, "020988feba088b36f8d23654ab7a4414ce70c1201cf23238f48fbcf88d49372c", 38),
    ("generate_n5", "plain", 0, "93f6d77ab0cf8e8405e541e844361c3dbd56feee9aab267a58d97eed695f4224", 451),
    ("generate_n5", "json", 0, "972ed309f148e3fab24638eb903c4d4082a7b4625a68c7ca3311ca672d2d0dfd", 2180),
    ("generate_n5", "csv", 0, "0c911d7845ab4137c431176df56631100081ec3b915ffaa90072295f7765a87d", 763),
    ("generate_n0", "plain", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", 1),
    ("generate_n0", "json", 0, "02073a1cc7e794fe6daea7916128c67d4f0efc9d55df5ba7d27debd5cbaf1c24", 44),
    ("generate_n0", "csv", 0, "715ddc8c1100fbc572c2063f7b945b6aaad56cbd05e6e0f54c93d6ee75935458", 27),
    ("series_components", "plain", 0, "d77aed0aeaf7ac6bfc92cafe65752147767564cdba4a9a9987f9c71cf8872412", 262),
    ("series_components", "json", 0, "bcf824e3d4af031220974bb747bed9b5ec2402ecd322d5dbd63488011b1f45aa", 324),
    # the components have no CSV form: exit 2, nothing on stdout
    ("series_components", "csv", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("series_k2", "plain", 0, "a1e5f44b7e44b3987a5d0adae4ca57e59e4eb95e263fc38919978386741cb635", 27),
    ("series_k2", "json", 0, "1b6090d3cfa67e6097c1641d0f2020c204ebf09211c47ae2a1b5f06790f134b8", 89),
    ("series_k2", "csv", 0, "dac8cdbbe22935cd3df9a4453ef1be66057242224b39eae9af10d13bd4117fd5", 69),
    ("identity", "plain", 0, "975194fa373f61eceb25bc2e66d449c54135919a883e10a4e0cb640603714ef2", 565),
    ("identity", "json", 0, "32a05ea946a447945eebb50e353464a10daad60ac2a57d228657325f46bdeb5a", 1091),
    ("identity", "csv", 0, "dd1b4808d6c87000da1757d52e5be6fa02c0927e3d7c37fe61c94acac64b8354", 282),
    ("verify", "plain", 0, "b8e2729b916b7d67b26b6cb1c91745647165673d7466084f857b731f7ed000c9", 1324),
    ("verify", "json", 0, "c381ec823846d1a3b976abaa8b2382db8c69d9faa282da849f02c3b2bae578a4", 2725),
    ("verify", "csv", 0, "d41826b88654efaa3f4a1886e53a82bb463cce30c3a77204e759fd6d16b20fc9", 659),
    # the acceptance grid, n <= 12
    ("verify_grid", "plain", 0, "2fe359307be292bb00095042a494ed2f62a34dc08ee1cc2be9b4736e076a5da0", 8232),
    # h = 3 for every k, n <= 12
    ("verify_h3", "plain", 0, "fc599c20faf46135a9ccc1ddef50776b06a30ef3723c61a44c07e58ca3f95202", 3348),
    # every h >= 1: h = 1..3 for every k, n <= 12, 195 rows
    ("verify_h1_3", "plain", 0, "e35810c38e5852fcd4747256bccb83659a1581e37fec434359e2b4d7d860580e", 9480),
    # wide columns, k = 2..7 at h = 4..6, n <= 13: k = 2 saturates every full run
    ("verify_wide", "plain", 0, "69bac76d50ff6f83a3b213641e7e36056199a4d9f8c3f7dc8c30b6f3bcbbe15a", 13520),
    # a tall grid, h = 1..9 at k = 2..4, n <= 12: one walk crosses h = 1 and 2 and raises h many times
    ("verify_tall", "plain", 0, "2ea23c9192881f691d6eb8dc33035de660e52e9452529f05a00b2bcfeca40e7d", 18028),
    # h = 1, k = 2 has no path of semilength 3: no line, no csv header, an empty JSON array
    ("generate_none", "plain", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("generate_none", "json", 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", 3),
    ("generate_none", "csv", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    # 201,145 paths, each with its height and label
    ("generate_listing", "json", 0, "6451e7c558cc95567da01f1d29c4c5c40dfce347fcc651d21e3b3d08b4373328",
     13480864),
    # 6,319 recurrence checks, h <= 160
    ("identity_deep", "plain", 0, "ba19f9315d7b473c39e1615cfda991131a2e58664d421d9f7b9d35d2909ec58e",
     807464),
    # 64 components and the counting series to order 1000
    ("series_deep", "json", 0, "0da69ff1c253bb20d6da4421b693ccb6435640e32d0abe17da48809318d6c000",
     18741772),
]


@pytest.mark.parametrize("name,fmt,code,sha256,nbytes", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_golden_output(capsys, name, fmt, code, sha256, nbytes):
    got_code, out, _ = run(capsys, *GOLDEN_COMMANDS[name], "--format", fmt)
    data = out.encode()
    assert (got_code, hashlib.sha256(data).hexdigest(), len(data)) == (code, sha256, nbytes)


@pytest.mark.parametrize("argv", [
    *[("count", "--h", "4", "--k", "3", "--n", "-1", "--method", m)
      for m in ("eco", "rule", "series", "brute")],
    ("count", "--h", "4", "--k", "3", "--n", "-1", "--method", "rule", "--cross-check"),
    ("generate", "--h", "4", "--k", "3", "--n", "-1"),
    ("series", "--h", "4", "--k", "3", "--order", "-1"),
    ("verify", "--h", "4", "--k", "3", "--n-max", "-1", "--jobs", "1"),
], ids=lambda argv: " ".join(argv))
def test_negative_size_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


COUNT_NEGATIVE_N = ("count", "--h", "4", "--k", "3", "--n", "-2", "--method")


@pytest.mark.parametrize("argv,option", [
    *[((*COUNT_NEGATIVE_N, m), "n") for m in ("eco", "rule", "series", "brute")],
    ((*COUNT_NEGATIVE_N, "series", "--cross-check"), "n"),
    (("series", "--h", "4", "--k", "3", "--order", "-1"), "order"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_negative_size_names_its_option(capsys, argv, option):
    """count refuses n < 0 before any route runs, so the series route cannot
    name --order, an option count does not have."""
    assert run(capsys, *argv) == (2, "", f"error: {option} must be >= 0\n")
