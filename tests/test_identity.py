from math import ceil, comb
from operator import mul

import pytest

from valleyforge.errors import DomainViolation
from valleyforge.identity import (
    _recurrence_value,
    _recurrence_weights,
    catalan_recurrence_sweep,
    check_relation,
    lhs_coefficient_relation,
    rhs_coefficient_relation,
)
from valleyforge.oracle import brute_count, brute_counts_upto
from valleyforge.paths import ClassParams, catalan, catalan_upto, height_denominator
from valleyforge.series import f_series


class TestLhs:
    def test_single_term_n0(self):
        assert lhs_coefficient_relation(5, 7, 0, [1]) == -1

    def test_matches_rhs_small(self):
        D = [catalan(n) for n in range(4)]
        assert lhs_coefficient_relation(4, 6, 2, D) == rhs_coefficient_relation(4, 2)

    def test_negative_indices_drop_out(self):
        # n = 0 keeps only the j = 0 term whatever the tail of D holds
        assert lhs_coefficient_relation(5, 7, 0, [1, 999, 999]) == -1

    def test_domain(self):
        with pytest.raises(DomainViolation):
            lhs_coefficient_relation(5, 5, 1, [1] * 5)
        with pytest.raises(DomainViolation):
            lhs_coefficient_relation(5, 7, 5, [1] * 6)

    def test_short_counts_refused(self):
        # D[n::-1] would start from D's last entry and pair the wrong terms
        assert lhs_coefficient_relation(4, 6, 3, [1, 1, 2, 5]) == 0
        with pytest.raises(DomainViolation, match="D_0..D_3, got 3"):
            lhs_coefficient_relation(4, 6, 3, [1, 1, 2])


class TestRhs:
    def test_n0_single_term(self):
        for h in range(2, 10):
            assert rhs_coefficient_relation(h, 0) == (-1) ** ((h + 1) // 2)

    def test_h5_n3_full_row_vanishes(self):
        assert rhs_coefficient_relation(5, 3) == 0

    def test_partial_row_sum_closed_form(self):
        # sum_{t<=m} (-1)^t binom(N, t) = (-1)^m binom(N-1, m), N = h-n+1, m = min(n, N)
        for h in range(1, 41):
            for n in range(h):
                sign = (-1) ** ((h + 1) // 2 + n)
                assert rhs_coefficient_relation(h, n) == sign * comb(h - n, n), (h, n)

    def test_vanishes_on_recurrence_window(self):
        for h in range(4, 20):
            for n in range((h + 2) // 2, h):
                assert rhs_coefficient_relation(h, n) == 0

    def test_domain(self):
        with pytest.raises(DomainViolation):
            rhs_coefficient_relation(5, 5)


class TestCheckRelation:
    @pytest.mark.parametrize("h,k", [(4, 6), (5, 7)])
    def test_passes_with_oracle(self, h, k):
        params = ClassParams(h, k)
        assert check_relation(h, k, lambda n: brute_count(params, n)) == []

    def test_passes_with_series(self):
        params = ClassParams(5, 7)
        fs = f_series(params, 5)
        assert check_relation(5, 7, fs.coefficient) == []

    def test_passes_past_h12(self):
        for h in range(13, 41):
            params = ClassParams(h, h + 1)
            for counts in (brute_counts_upto(params, h - 1), f_series(params, h - 1).coeffs):
                assert check_relation(h, h + 1, counts.__getitem__) == [], h

    def test_requires_h_below_k(self):
        with pytest.raises(DomainViolation):
            check_relation(5, 5, lambda n: 1)

    def test_failures_are_listed(self):
        # D_1 off by one at h = 4 moves lhs at n = 1, 2, 3 (weights 1, -4, 3 of q_4)
        failures = check_relation(4, 6, lambda n: catalan(n) + (n == 1))
        assert [n for n, _, _ in failures] == [1, 2, 3]
        for n, lhs, rhs in failures:
            assert rhs == rhs_coefficient_relation(4, n) != lhs


def _sweep_row(h, n):
    """(C_n, recurrence value) from the sweep's row n for height h."""
    return {m: (c, value) for m, c, value in catalan_recurrence_sweep(h, catalan_upto(h))}[n]


class TestCatalanRecurrence:
    def test_h5_n3(self):
        assert _sweep_row(5, 3) == (5, 5)

    def test_h5_n4(self):
        assert _sweep_row(5, 4) == (14, 14)

    def test_h7_n4(self):
        assert _sweep_row(7, 4) == (14, 14)

    def test_window_enforced(self):
        # n = floor(h/2) and n = h are left out, whatever the table holds
        C = catalan_upto(70)
        assert [n for n, _, _ in catalan_recurrence_sweep(5, C)] == [3, 4]
        for h in range(4, 65):
            rows = catalan_recurrence_sweep(h, C)
            assert [n for n, _, _ in rows] == list(range(ceil((h + 1) / 2), h)), h


class TestCatalanSweep:
    def test_table_matches_binomial_formula(self):
        assert catalan_upto(500) == [catalan(m) for m in range(501)]

    def test_table_domain(self):
        assert catalan_upto(0) == [1]
        with pytest.raises(ValueError):
            catalan_upto(-1)

    def test_rows_match_per_n_check(self):
        C = catalan_upto(64)
        for h in range(4, 65):
            rows = catalan_recurrence_sweep(h, C)
            assert [n for n, _, _ in rows] == list(range((h + 2) // 2, h)), h
            for n, expected, value in rows:
                assert expected == value == catalan(n), (h, n)


def test_recurrence_window_edges():
    """The recurrence holds on ceil((h+1)/2) <= n <= h and fails just outside."""

    def gap(h, n):
        value = sum((-1) ** (j + 1) * comb(h + 1 - j, j) * catalan(n - j)
                    for j in range(1, (h + 1) // 2 + 1) if n - j >= 0)
        return catalan(n) - value

    for h in range(4, 65):
        assert all(gap(h, n) == 0 for n in range((h + 2) // 2, h + 1)), h
        assert gap(h, h // 2) != 0, h
        assert gap(h, h + 1) == 1, h  # the lone path U^{h+1} D^{h+1}


def test_sweep_weights_at_the_window_end():
    """The sweep's weights give C_h at n = h and miss C_{h+1} by exactly 1.

    The weights of h - 1 also hold on the checked window n < h, but already
    miss C_h by 1, so this is what tells h from h - 1.
    """
    C = catalan_upto(65)
    for h in range(4, 65):
        weights = _recurrence_weights(h)
        assert _recurrence_value(weights, C, h) == C[h], h
        assert C[h + 1] - _recurrence_value(weights, C, h + 1) == 1, h



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
