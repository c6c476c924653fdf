import json
from math import comb

import pytest

from valleyforge.errors import DomainViolation
from valleyforge.identity import (
    IdentityReport,
    _recurrence_value,
    _recurrence_weights,
    catalan_recurrence_check,
    catalan_recurrence_sweep,
    check_relation,
    lhs_coefficient_relation,
    pascal_alternating_sum,
    rhs_coefficient_relation,
)
from valleyforge.oracle import brute_count
from valleyforge.paths import ClassParams, catalan, catalan_upto
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


class TestRhs:
    def test_n0_single_term(self):
        for h in range(2, 10):
            assert rhs_coefficient_relation(h, 0) == (-1) ** ((h + 1) // 2)

    def test_h5_n3_full_row_vanishes(self):
        assert rhs_coefficient_relation(5, 3) == 0

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
        report = check_relation(h, k, lambda n: brute_count(params, n))
        assert report.passed

    def test_passes_with_series(self):
        params = ClassParams(5, 7)
        fs = f_series(params, 5)
        assert check_relation(5, 7, fs.coefficient).passed

    def test_requires_h_below_k(self):
        with pytest.raises(DomainViolation):
            check_relation(5, 5, lambda n: 1)

    def test_report_json(self):
        report = IdentityReport(h=4, k=6, n_range=(0, 3), failures=[(1, 2, 3)])
        data = json.loads(report.to_json())
        assert data["passed"] is False
        assert data["failures"] == [{"n": 1, "lhs": "2", "rhs": "3"}]


class TestCatalanRecurrence:
    def test_h5_n3(self):
        assert catalan_recurrence_check(5, 3) == (5, 5)

    def test_h5_n4(self):
        assert catalan_recurrence_check(5, 4) == (14, 14)

    def test_h7_n4(self):
        assert catalan_recurrence_check(7, 4) == (14, 14)

    def test_window_enforced(self):
        with pytest.raises(DomainViolation):
            catalan_recurrence_check(5, 2)
        with pytest.raises(DomainViolation):
            catalan_recurrence_check(5, 5)


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
                assert (expected, value) == catalan_recurrence_check(h, n), (h, n)


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


class TestPascal:
    @pytest.mark.parametrize("m,expected", [(0, 1), (1, 0), (12, 0)])
    def test_examples(self, m, expected):
        assert pascal_alternating_sum(m) == expected

    def test_zero_for_positive_rows(self):
        for m in range(1, 41):
            assert pascal_alternating_sum(m) == 0
