import json

import pytest

from valleyforge.cli import main


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

    def test_unsupported_params_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--h", "2", "--k", "3", "--n", "5", "--method", "eco")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "20", "--method", "brute")
        assert code == 2

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

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--k", "3", "--n", "5",
                           "--method", "brute", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"h": 4, "k": 3, "n": 5, "method": "brute", "count": "41"}


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
        code, _, _ = run(capsys, "identity", "--h-min", "3", "--h-max", "3")
        assert code == 2


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

    def test_unsupported_cell_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--h", "2..3", "--k", "3..3",
                         "--n-max", "4", "--jobs", "1")
        assert code == 2

    def test_catalan_on_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--h", "4..4", "--k", "3..3",
                           "--n-max", "4", "--jobs", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        expected = ["1", "1", "2", "5", "14"]
        for row, want in zip(rows, expected):
            assert row["eco"] == row["rule"] == row["series"] == row["brute"] == want


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
