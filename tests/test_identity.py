from itertools import zip_longest
from math import ceil, comb
from operator import mul

import pytest

from valleyforge.eco import rule_totals_upto
from valleyforge.identity import catalan_recurrence_rows, check_relation
from valleyforge.oracle import brute_counts_upto
from valleyforge.paths import ClassParams, catalan, catalan_upto, height_denominator
from valleyforge.series import build_S, counting_numerator, f_series


def _pascal_rhs(h, n):
    """The alternating partial Pascal-row sum the right side once was, for n < h < k."""
    base = (h + 1) // 2
    total = 0
    for t in range(min(n, h - n + 1) + 1):
        total += (-1) ** (base - t) * comb(h - n + 1, t)
    return total


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a, b):
    """a - b with trailing zeros dropped."""
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _series_div(num, den, order):
    """Coefficients 0..order of num/den, den having constant term 1."""
    assert den[0] == 1
    out = []
    for n in range(order + 1):
        c = num[n] if n < len(num) else 0
        out.append(c - sum(den[j] * out[n - j] for j in range(1, min(n, len(den) - 1) + 1)))
    return out


def _P(h, k, n):
    """Coefficient n of the counting numerator, 0 past its degree."""
    P = counting_numerator(h, k)
    return P[n] if n < len(P) else 0


class TestLhs:
    """The left side, coefficient n of S(h, k) D(x), read from the failures
    ``check_relation`` lists with the rhs beside it."""

    def test_single_term_n0(self):
        # n = 0 keeps only S[0] D_0 = -D_0, so D_0 = 2 gives lhs -2 against rhs -1
        counts = brute_counts_upto(ClassParams(5, 7), 11)
        assert check_relation(5, 7, lambda n: counts[n] + (n == 0))[0] == (0, -2, -1)

    def test_matches_rhs_small(self):
        # Catalan numbers are the class counts through n = h, so the sides agree there
        failures = check_relation(4, 6, catalan)
        assert failures and min(n for n, _, _ in failures) == 5

    def test_negative_indices_drop_out(self):
        # n = 0 keeps only the j = 0 term whatever the tail of D holds
        failures = check_relation(5, 7, lambda n: 1 if n == 0 else 999)
        assert failures and failures[0][0] == 1


class TestRhs:
    def test_n0_single_term(self):
        for h in range(2, 10):
            assert counting_numerator(h, h + 1)[0] == (-1) ** ((h + 1) // 2)

    def test_h5_n3_full_row_vanishes(self):
        assert _P(5, 7, 3) == 0

    def test_partial_row_sum_closed_form(self):
        # sum_{t<=m} (-1)^t binom(N, t) = (-1)^m binom(N-1, m), N = h-n+1, m = min(n, N)
        for h in range(1, 41):
            for n in range(h):
                sign = (-1) ** ((h + 1) // 2 + n)
                assert _P(h, h + 1, n) == sign * comb(h - n, n), (h, n)

    def test_vanishes_on_recurrence_window(self):
        for h in range(4, 20):
            for n in range((h + 2) // 2, h):
                assert _P(h, h + 1, n) == 0

    def test_pascal_row_reference(self):
        # on 0 <= n < h < k the right side is the old Pascal-row loop, whatever k is
        for h in range(1, 41):
            for k in range(h + 1, h + 4):
                for n in range(h):
                    assert _P(h, k, n) == _pascal_rhs(h, n), (h, k, n)

    def test_h1(self):
        # -(1 - x^k): -1 at n = 0, 1 at n = k, 0 elsewhere
        for k in range(2, 8):
            expected = [-1] + [0] * (k - 1) + [1] + [0] * 5
            assert [_P(1, k, n) for n in range(k + 6)] == expected, k

    def test_zero_past_degree(self):
        # (-1)^5 S(4, 3) = q_4 + x^4 q_1 has degree 5
        assert counting_numerator(5, 3) == [-1, 4, -3, 0, -1, 1]
        assert [_P(5, 3, n) for n in range(8)] == [-1, 4, -3, 0, -1, 1, 0, 0]

    def test_domain(self):
        # k <= h is in range: -S(4, 5) = q_4 + x^6 q_1 has no x^5 term
        assert _P(5, 5, 5) == 0

    @pytest.mark.parametrize("h,k", [(0, 3), (-5, 3), (1, 1), (1, 0), (3, 1), (-2, 1)])
    def test_refuses_what_the_lhs_refuses(self, h, k):
        """No S(h, k) exists below h = 1 or k = 2, so neither side has
        coefficients, and ``check_relation`` reads no count."""

        def provider(n):
            pytest.fail(f"count D_{n} read for (h, k) = ({h}, {k})")

        message = f"h must be >= 1, got {h}" if h < 1 else f"k must be >= 2, got {k}"
        for call in (lambda: build_S(h, k), lambda: counting_numerator(h, k),
                     lambda: check_relation(h, k, provider)):
            with pytest.raises(ValueError, match=message):
                call()


class TestCheckRelation:
    @pytest.mark.parametrize("h,k", [(4, 6), (5, 7)])
    def test_passes_with_oracle(self, h, k):
        params = ClassParams(h, k)
        assert check_relation(h, k, lambda n: brute_counts_upto(params, n)[n]) == []

    def test_passes_with_series(self):
        params = ClassParams(5, 7)
        fs = f_series(params, 5 + 7 - 1)
        assert check_relation(5, 7, fs.coefficient) == []

    def test_passes_past_h12(self):
        for h in range(13, 41):
            params = ClassParams(h, h + 1)
            for counts in (brute_counts_upto(params, 2 * h), f_series(params, 2 * h).coeffs):
                assert check_relation(h, h + 1, counts.__getitem__) == [], h

    def test_passes_at_k_at_most_h(self):
        # k <= h, and n >= h up to h+k-1, where the class counts leave Catalan
        for h, k in [(5, 5), (5, 3), (9, 2), (12, 4)]:
            params = ClassParams(h, k)
            assert check_relation(h, k, lambda n, p=params: brute_counts_upto(p, n)[n]) == [], (h, k)

    def test_h1(self):
        for k in range(2, 8):
            assert check_relation(1, k, f_series(ClassParams(1, k), k).coefficient) == [], k

    def test_every_route_on_grid(self):
        for h in range(1, 41):
            for k in range(2, 16):
                params = ClassParams(h, k)
                nmax = h + k - 1
                for counts in (f_series(params, nmax).coeffs, rule_totals_upto(params, nmax),
                               brute_counts_upto(params, nmax)):
                    assert check_relation(h, k, counts.__getitem__) == [], (h, k)

    @pytest.mark.parametrize("h,k", [(64, 5), (128, 3), (7, 40)])
    def test_deep_cells(self, h, k):
        nmax = h + k + 60
        D = rule_totals_upto(ClassParams(h, k), nmax)
        lhs = _poly_mul(build_S(h, k), D)[: nmax + 1]
        assert lhs == [_P(h, k, n) for n in range(nmax + 1)]

    def test_failures_are_listed(self):
        # D_1 off by one at (4, 6) moves lhs at n = 1 + j for every nonzero
        # S(4, 6)[j] = -(q_4 + x^7 q_1)[j], j = 0, 1, 2, 7, 8
        counts = brute_counts_upto(ClassParams(4, 6), 9)
        failures = check_relation(4, 6, lambda n: counts[n] + (n == 1))
        assert [n for n, _, _ in failures] == [1, 2, 3, 8, 9]
        for n, lhs, rhs in failures:
            assert rhs == _P(4, 6, n) != lhs
        # the last semilength checked, where the run bound first removes a path
        counts = brute_counts_upto(ClassParams(5, 3), 7)
        assert [n for n, _, _ in check_relation(5, 3, lambda n: counts[n] + (n == 7))] == [7]


def _row(h, n):
    """(C_n, recurrence value) from the row (h, n)."""
    return {(g, m): (c, value) for g, m, c, value in catalan_recurrence_rows(h, h)}[h, n]


def _windows(rows):
    """h -> the list of n its rows cover, in order."""
    by_h = {}
    for h, n, _, _ in rows:
        by_h.setdefault(h, []).append(n)
    return by_h


def _dot_product_rows(h_min, h_max):
    """The rows from one dot product per (h, n), the reference for the product rows.

    sum_{j>=1} (-1)^{j+1} binom(h+1-j, j) C_{n-j}, the recurrence as the
    paper writes it, for ceil((h+1)/2) <= n < h.
    """
    C = catalan_upto(h_max)
    for h in range(h_min, h_max + 1):
        weights = [(-1) ** (j + 1) * comb(h + 1 - j, j) for j in range(1, (h + 1) // 2 + 1)]
        for n in range((h + 2) // 2, h):
            yield h, n, C[n], sum(map(mul, weights, C[n - 1::-1]))


class TestCatalanRecurrence:
    def test_h5_n3(self):
        assert _row(5, 3) == (5, 5)

    def test_h5_n4(self):
        assert _row(5, 4) == (14, 14)

    def test_h7_n4(self):
        assert _row(7, 4) == (14, 14)

    def test_window_enforced(self):
        # n = floor(h/2) and n = h are left out, whatever h_max is
        assert _windows(catalan_recurrence_rows(5, 5)) == {5: [3, 4]}
        windows = _windows(catalan_recurrence_rows(1, 70))
        for h in range(1, 71):
            assert windows.get(h, []) == list(range(ceil((h + 1) / 2), h)), h


class TestCatalanSweep:
    def test_table_matches_binomial_formula(self):
        assert catalan_upto(500) == [catalan(m) for m in range(501)]

    def test_table_domain(self):
        assert catalan_upto(0) == [1]
        with pytest.raises(ValueError):
            catalan_upto(-1)

    def test_rows_match_per_n_check(self):
        # h = 1 and 2 have no rows; h = 3 has one, C_2 = 3 C_1 - C_0
        assert list(_windows(catalan_recurrence_rows(1, 64))) == list(range(3, 65))
        for h, n, expected, value in catalan_recurrence_rows(1, 64):
            assert expected == value == catalan(n), (h, n)

    def test_rows_match_dot_product(self):
        # same (h, n) set, same order, same values as the per-(h, n) dot product
        assert list(catalan_recurrence_rows(4, 160)) == list(_dot_product_rows(4, 160))

    @pytest.mark.parametrize("h_min,h_max", [(5, 2), (1, 0), (0, 3)])
    def test_bad_range_refused_before_the_first_row(self, h_min, h_max):
        with pytest.raises(ValueError, match="need 1 <= h-min <= h-max"):
            next(catalan_recurrence_rows(h_min, h_max))

    def test_h1000_alone(self):
        C = catalan_upto(999)
        rows = list(catalan_recurrence_rows(1000, 1000))
        assert [n for _, n, _, _ in rows] == list(range(501, 1000))
        assert all(h == 1000 and expected == value == C[n] for h, n, expected, value in rows)


def test_recurrence_window_edges():
    """The recurrence holds on ceil((h+1)/2) <= n <= h and fails just outside."""

    def gap(h, n):
        value = sum((-1) ** (j + 1) * comb(h + 1 - j, j) * catalan(n - j)
                    for j in range(1, (h + 1) // 2 + 1) if n - j >= 0)
        return catalan(n) - value

    for h in range(1, 65):
        assert all(gap(h, n) == 0 for n in range((h + 2) // 2, h + 1)), h
        assert gap(h, h // 2) != 0, h
        assert gap(h, h + 1) == 1, h  # the lone path U^{h+1} D^{h+1}


def test_height_denominator_pascal_rule():
    """q_h = q_{h-1} - x q_{h-2}, with q_{-1} = [1] and q_{-2} = []: the step the
    rows take, read off the binomials binom(h+1-j, j) themselves."""
    older, previous = [], [1]
    for h in range(0, 401):
        step = [a - b for a, b in zip_longest(previous, [0, *older], fillvalue=0)]
        assert height_denominator(h) == step, h
        older, previous = previous, step


def test_height_denominator_binomial_sum():
    """The term ratio builds the binomial sum sum_j (-1)^j binom(h+1-j, j) x^j,
    down to q_{-3} = q_{-2} = [] and q_{-1} = [1]."""
    for h in range(-3, 600):
        expected = [(-1) ** j * comb(h + 1 - j, j) for j in range((h + 1) // 2 + 1)]
        assert height_denominator(h) == expected, h


def test_catalan_times_q_h_is_q_h_minus_1():
    """C(x) q_h(x) = q_{h-1}(x) mod x^{h+1}: paths of height <= h have generating
    function q_{h-1}/q_h, which agrees with C(x) through x^h.  The recurrence
    window and the coefficient relation are both coefficients of this product.
    At h = 0 it reads q_{-1} = 1, the value of the three-term recurrence."""
    C = catalan_upto(400)
    for h in range(0, 401):
        q = height_denominator(h)
        product = [sum(map(mul, q, C[n::-1])) for n in range(h + 1)]
        expected = height_denominator(h - 1)
        assert product == expected + [0] * (h + 1 - len(expected)), h


def test_cassini_type_identity():
    """q_{h-1} q_{h-3} - q_h q_{h-4} = x^{h-2} (1 - x), with q_{-1} = 1."""
    q = {h: height_denominator(h) for h in range(-1, 201)}
    for h in range(3, 201):
        lhs = _poly_sub(_poly_mul(q[h - 1], q[h - 3]), _poly_mul(q[h], q[h - 4]))
        assert lhs == [0] * (h - 2) + [1, -1], h


def test_complement_closed_form():
    """Height-bounded paths that hold the forbidden run: the height-only count
    (k > n) minus the class count is the series of
    x^{h+k-1} (1 - x) / (q_h (q_h + x^{k+1} q_{h-3})), first term 1 at n = h+k-1."""
    nmax = 40
    for h in range(2, 12):
        q, tail = height_denominator(h), height_denominator(h - 3)
        height_only = brute_counts_upto(ClassParams(h, nmax + 1), nmax)
        for k in range(2, 8):
            # q_h (q_h + x^{k+1} q_{h-3})
            denominator = _poly_mul(q, _poly_sub(q, [0] * (k + 1) + [-c for c in tail]))
            numerator = [0] * (h + k - 1) + [1, -1]
            expected = _series_div(numerator, denominator, nmax)
            complement = _poly_sub(height_only, brute_counts_upto(ClassParams(h, k), nmax))
            assert complement + [0] * (nmax + 1 - len(complement)) == expected, (h, k)
            assert complement[:h + k] == [0] * (h + k - 1) + [1], (h, k)
