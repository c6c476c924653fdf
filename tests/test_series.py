import pytest

from valleyforge import series
from valleyforge.eco import _rule_steps, rule_totals_upto
from valleyforge.oracle import brute_counts_upto
from valleyforge.paths import ClassParams, catalan
from valleyforge.series import (
    TruncatedSeries,
    _row_times,
    build_S,
    build_system,
    closed_form_numerator,
    closed_form_residuals,
    f_series,
    solve_series,
    system_residuals,
)

GRID = [(h, k) for h in range(1, 9) for k in range(2, 7)]


def _mod(poly, order):
    """The coefficients 0..order of a polynomial or series, zero-padded."""
    return (list(poly) + [0] * (order + 1))[: order + 1]


def _back_substitution(params, order):
    """Reference solve: every column kept, every stored coefficient walked.

    For each n and each row i, bottom up, the row's entries a_j give
    F_i[n] = +-(b_i[n] - sum_{j, m >= 1} a_j[m] F_j[n - m] - sum_{j > i} a_j[0] F_j[n]).
    """
    rows = build_system(params)
    h = params.h
    cols = []
    for n in range(order + 1):
        vec = [0] * h
        for i in range(h - 1, -1, -1):
            row = rows[i]
            s = 1 if i == n == 0 else 0
            for j, a in row.items():
                for m in range(1, min(n, len(a) - 1) + 1):
                    s -= a[m] * cols[n - m][j]
                if j > i:
                    s -= a[0] * vec[j]
            vec[i] = s if row[i][0] == 1 else -s
        cols.append(vec)
    return list(zip(*cols))


class TestTruncatedSeries:
    def test_keeps_exactly_the_given_coefficients(self):
        """No padding and no truncation: the order is the number given minus one."""
        assert TruncatedSeries.__slots__ == ("coeffs",)
        s = TruncatedSeries([1, 2])
        assert s.coeffs == (1, 2)
        assert TruncatedSeries(iter([1, 2, 0, 0])).coeffs == (1, 2, 0, 0)
        with pytest.raises(IndexError, match="coefficient 2 is past the order 1"):
            s.coefficient(2)

    def test_json_round_trip(self):
        s = TruncatedSeries([1, -2, 3])
        back = TruncatedSeries.from_json(s.to_json())
        assert back.coeffs == (1, -2, 3)

    def test_coefficient_past_the_order_is_refused(self):
        """Past the order a coefficient is unknown, not zero."""
        s = TruncatedSeries([1, -2, 3])
        assert [s.coefficient(n) for n in range(-2, 3)] == [0, 0, 1, -2, 3]
        for n in (3, 10):
            with pytest.raises(IndexError, match=f"coefficient {n} is past the order 2"):
                s.coefficient(n)


class TestRowTimes:
    def test_products_summed_and_trimmed(self):
        # (1 + x) (1 - x) + x^2 * 1 = 1, and the zero terms are dropped
        assert _row_times({0: [1, 1], 2: [0, 0, 1]}, [[1, -1], [5], [1]]) == [1]
        assert _row_times({1: [2]}, [[], [0, 3, 0, 4]]) == [0, 6, 0, 8]
        assert _row_times({0: [1]}, [[1, -1], [9]]) == [1, -1]
        assert _row_times({0: [1], 1: [-1]}, [[1, 2], [1, 2]]) == []


class TestBuildS:
    def test_h1(self):
        assert build_S(1, 3) == [-1, 1]

    def test_h2(self):
        # -(1 - 2x + x^{k+1}): f = (1 - x) / (1 - 2x + x^{k+1}) at h = 2
        assert build_S(2, 3) == [-1, 2, 0, 0, -1]

    def test_h3(self):
        # 1 - 3x + x^2 + x^{k+1}
        assert build_S(3, 4) == [1, -3, 1, 0, 0, 1]

    @pytest.mark.parametrize("k", range(2, 13))
    def test_h1_h3_every_k(self, k):
        assert build_S(1, k) == [-1, 1]
        assert build_S(2, k) == [-1, 2] + [0] * (k - 1) + [-1]
        assert build_S(3, k) == [1, -3, 1] + [0] * (k - 2) + [1]

    def test_h4(self):
        # 1 - 4x + 3x^2 + x^{k+1} - x^{k+2}
        assert build_S(4, 3) == [1, -4, 3, 0, 1, -1]

    @pytest.mark.parametrize("h,k", GRID)
    def test_unit_constant_term(self, h, k):
        assert build_S(h, k)[0] in (-1, 1)

    def test_constant_term_sign(self):
        for h in range(1, 12):
            from math import comb

            assert build_S(h, 5)[0] == (-1) ** comb(h + 1, 2)

    def test_lists_end_in_a_nonzero_coefficient(self):
        """Lists do not normalise themselves, and a trailing zero would change
        the printed S(h,k) and the JSON "denominator"."""
        for h in range(1, 61):
            for k in range(2, 13):
                S = build_S(h, k)
                assert S[0] in (-1, 1) and S[-1] != 0, (h, k)
                for row in build_system(ClassParams(h, k)):
                    assert all(a and a[-1] for a in row.values()), (h, k)


class TestBuildSystem:
    def test_last_row_h4k3(self):
        assert build_system(ClassParams(4, 3))[3][3] == [-1, 1, 1]

    def test_correction_row_h4k3(self):
        row = build_system(ClassParams(4, 3))[1]
        assert row == {0: [0, 1], 1: [-1], 2: [1], 3: [0, 0, -1]}

    @pytest.mark.parametrize("h,k", GRID)
    def test_constant_matrix_triangular(self, h, k):
        rows = build_system(ClassParams(h, k))
        for i in range(h):
            for j in range(h):
                a0 = rows[i].get(j, [0])[0]
                if j < i:
                    assert a0 == 0
                elif j == i:
                    assert a0 == (1 if i == 0 else -1)

    @pytest.mark.parametrize("h,k", GRID)
    def test_rows_store_only_nonzero_entries(self, h, k):
        rows = build_system(ClassParams(h, k))
        assert len(rows) == h
        for i, row in enumerate(rows):
            assert len(row) <= 4
            assert i in row
            assert all(any(entry) for entry in row.values())

    def test_h1_h2_systems(self):
        # At h = 2 the last label goes back to the root's label (1); at h = 1 to (0).
        assert build_system(ClassParams(1, 4)) == [{0: [1]}]
        assert build_system(ClassParams(2, 4)) == [{0: [1], 1: [0, 0, 0, -1]},
                                                   {0: [0, 1], 1: [-1, 1, 1, 1]}]


class TestSolveSeries:
    def test_f1_is_one(self):
        F = solve_series(ClassParams(4, 3), 10)
        assert F[0].coeffs == (1,) + (0,) * 10

    def test_f4_leading_term(self):
        # smallest path whose initial up-run has length 3 is UUUDDD, so the
        # fourth component starts at x^3
        F = solve_series(ClassParams(4, 3), 10)
        assert F[3].coeffs[:5] == (0, 0, 0, 1, 3)

    @pytest.mark.parametrize("h,k", GRID)
    def test_higher_components_vanish_at_zero(self, h, k):
        F = solve_series(ClassParams(h, k), 5)
        for s in F[1:]:
            assert s.coefficient(0) == 0

    @pytest.mark.parametrize("h", range(1, 30))
    def test_matches_back_substitution(self, h):
        for k in range(2, 12):
            params = ClassParams(h, k)
            got = [s.coeffs for s in solve_series(params, 60)]
            assert got == _back_substitution(params, 60), (h, k)

    def test_matches_back_substitution_deep(self):
        params = ClassParams(64, 5)
        got = [s.coeffs for s in solve_series(params, 1000)]
        assert got == _back_substitution(params, 1000)

    @pytest.mark.parametrize("h", range(1, 12))
    def test_components_are_the_rule_labels(self, h):
        """Label by label against the succession rule, whose entry i holds (i) for i <= h and
        entry h+1+j holds (h_j): F_i[n] counts (i), F_h[n-j-1] counts (h_j), and at h = 1,
        where the last label wraps to (0), F_1[n-k+1] counts (0), which is empty above h = 1."""
        for k in range(2, 9):
            params = ClassParams(h, k)
            F = solve_series(params, 40)
            for n, v in enumerate(_rule_steps(params, 40)):
                zero = F[0].coefficient(n - k + 1) if h == 1 else 0
                labels = [zero, *(s.coefficient(n) for s in F),
                          *(F[-1].coefficient(n - j - 1) for j in range(k - 2))]
                assert labels == v, (h, k, n)

    def test_negative_order_refused_before_any_column(self, monkeypatch):
        """The order is checked when the columns are asked for, not when the first is read."""
        params = ClassParams(4, 3)
        monkeypatch.setattr(series, "build_system", None)  # never reached
        for solve in (series._columns, series.components, solve_series, f_series):
            with pytest.raises(ValueError, match="order must be >= 0"):
                solve(params, -1)

    @pytest.mark.parametrize("h,k", GRID + [(64, 5), (500, 7)])
    def test_residuals_vanish(self, h, k):
        assert system_residuals(ClassParams(h, k), 30) == [[0] * 31] * h


class TestClosedForm:
    # At h = 2, F_1 = 1 + x^{k-1} F_2 (test_h2_component_one_holds_the_wrap).
    @pytest.mark.parametrize("h,k", [(h, k) for h, k in GRID if h != 2])
    def test_component_one_is_constant_one(self, h, k):
        assert closed_form_numerator(ClassParams(h, k), 1) == build_S(h, k)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_h2_component_one_holds_the_wrap(self, k):
        """The last label goes back to the root's label (1): N_1 - x^{k-1} N_2 = S."""
        params = ClassParams(2, k)
        N = [closed_form_numerator(params, i) for i in (1, 2)]
        assert _row_times({0: [1], 1: [0] * (k - 1) + [-1]}, N) == build_S(2, k)

    def test_negative_order(self):
        for solve in (solve_series, system_residuals):
            with pytest.raises(ValueError, match="order must be >= 0"):
                solve(ClassParams(4, 3), -1)

    @pytest.mark.parametrize("h,k", GRID)
    def test_agrees_with_solver(self, h, k):
        """S F_i = N_i mod x^31: the solver's series against the closed form."""
        params = ClassParams(h, k)
        S = build_S(h, k)
        for i, s in enumerate(solve_series(params, 30), start=1):
            got = _mod(_row_times({0: S}, [s.coeffs]), 30)
            assert got == _mod(closed_form_numerator(params, i), 30), (h, k, i)

    @pytest.mark.parametrize(
        "h,ks",
        [(h, range(2, 12)) for h in range(1, 41)] + [(500, [7])]
        + [(h, range(12, 16)) for h in range(1, 41)] + [(64, [5]), (128, [3])],
        ids=[f"h{h}-k2..11" for h in range(1, 41)] + ["h500-k7"]
        + [f"h{h}-k12..15" for h in range(1, 41)] + ["h64-k5", "h128-k3"])
    def test_solves_the_system_exactly(self, h, ks):
        """A N = b S as polynomials, for every k in ``ks``.  A(0) is
        invertible, so the power-series solution is unique and F_i = N_i / S
        holds at every order."""
        for params in (ClassParams(h, k) for k in ks):
            assert closed_form_residuals(params) == [[]] * h, (h, params.k)

    @pytest.mark.parametrize("h,k", [(h, k) for h, k in GRID if h > 1] + [(64, 5), (128, 3)])
    def test_wrong_numerators_leave_a_residual(self, h, k, monkeypatch):
        """One N_i with the wrong sign, or the i = h-1 factor taken as S(2, k)
        instead of -1 + 2x - x^k, must leave a nonempty row."""
        params = ClassParams(h, k)
        N = [closed_form_numerator(params, i) for i in range(1, h + 1)]
        sign = -N[h - 2][h - 2]  # N_{h-1} = sign x^{h-2} (-1 + 2x - x^k)
        wrong = [(i, [-c for c in N[i - 1]]) for i in sorted({1, h // 2, h - 1, h})]
        wrong.append((h - 1, [0] * (h - 2) + [sign * c for c in build_S(2, k)]))
        for bad, poly in wrong:
            monkeypatch.setattr(series, "closed_form_numerator",
                                lambda p, i: poly if i == bad else N[i - 1])
            assert any(closed_form_residuals(params)), (h, k, bad, poly)

    @pytest.mark.parametrize("h", range(1, 41))
    def test_counting_numerator(self, h):
        """The N_i taken through ``_counts`` as polynomials give the counting
        numerator (-1)^h S(h-1, k), or -(1 - x^k) at h = 1, so with the test
        above f = (-1)^h S(h-1, k) / S(h, k) at every order.  N_0 and N_{h+1}
        are refused."""
        for k in range(2, 16):
            params = ClassParams(h, k)
            N = [closed_form_numerator(params, i) for i in range(1, h + 1)]
            for i in (0, h + 1):
                with pytest.raises(ValueError, match=rf"i must be in 1\.\.{h}$"):
                    closed_form_numerator(params, i)
            top = k - 1 if h == 1 else k - 2
            width = max(map(len, N)) + top
            P = list(series._counts(params, zip(*(_mod(n, width - 1) for n in N))).coeffs)
            want = [-1] + [0] * (k - 1) + [1] if h == 1 else [
                (-1) ** h * c for c in build_S(h - 1, k)]
            assert P == _mod(want, width - 1) and len(want) <= width, (h, k)
            assert series.counting_numerator(h, k) == want, (h, k)

    def test_h4k3_component4_explicit(self):
        # F_4 = x^3 (1 - x) / (1 - 4x + 3x^2 + x^4 - x^5)
        params = ClassParams(4, 3)
        assert closed_form_numerator(params, 4) == [0, 0, 0, 1, -1]
        F4 = solve_series(params, 8)[3].coeffs
        assert _mod(_row_times({0: build_S(4, 3)}, [F4]), 8) == [0, 0, 0, 1, -1, 0, 0, 0, 0]


class TestFSeries:
    def test_h4k3_coefficients(self):
        fs = f_series(ClassParams(4, 3), 7)
        assert fs.coeffs == (1, 1, 2, 5, 14, 41, 121, 358)

    @pytest.mark.parametrize("h,k", GRID)
    def test_catalan_boundary(self, h, k):
        fs = f_series(ClassParams(h, k), h)
        for n in range(h + 1):
            assert fs.coefficient(n) == catalan(n)

    @pytest.mark.parametrize("h,k", GRID)
    def test_matches_brute_force(self, h, k):
        params = ClassParams(h, k)
        fs = f_series(params, 12)
        assert list(fs.coeffs) == brute_counts_upto(params, 12)

    def test_matches_the_rule_deep(self):
        """Both count routes clamp h to 301 here, so the h = 2000 sweeps are compared too."""
        params = ClassParams(2000, 3)
        unclamped = list(series._counts(params, series._columns(params, 300)).coeffs)
        assert unclamped == [sum(v) for v in _rule_steps(params, 300)]
        assert list(f_series(params, 300).coeffs) == rule_totals_upto(params, 300) == unclamped

    @pytest.mark.parametrize("order", [0, 1, 3, 8, 20])
    def test_clamped_class_gives_the_unclamped_counts(self, order):
        """f_series counts at (min(h, order+1), min(k, order+2)); the full solve does not."""
        for h in range(1, 61):
            for k in range(2, 30):
                p = ClassParams(h, k)
                unclamped = series._counts(p, series._columns(p, order)).coeffs
                assert f_series(p, order).coeffs == unclamped, (h, k)

    def test_k2_prefactor_vanishes(self):
        params = ClassParams(5, 2)
        F = solve_series(params, 10)
        assert f_series(params, 10).coeffs == tuple(map(sum, zip(*(s.coeffs for s in F))))

    @pytest.mark.parametrize("h,k", GRID)
    def test_t_series_relation(self, h, k):
        # defining T_j = x^{j+1} F_h, sum_j T_j + sum_i F_i must equal f; the
        # labels (h_j) are T_0 .. T_{k-3}, and at h = 1 the label (0) is T_{k-2}
        params = ClassParams(h, k)
        F = solve_series(params, 15)
        parts = [s.coeffs for s in F]
        for j in range(k - 2 if h > 1 else k - 1):
            parts.append(((0,) * (j + 1) + F[-1].coeffs)[:16])
        assert f_series(params, 15).coeffs == tuple(map(sum, zip(*parts)))
