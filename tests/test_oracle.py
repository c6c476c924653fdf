import pytest
from hypothesis import given, settings, strategies as st

from valleyforge.eco import rule_counts, rule_totals_upto
from valleyforge.errors import CapExceeded
from valleyforge.oracle import brute_count, brute_counts_upto, enumerate_dyck
from valleyforge.paths import ClassParams, catalan, is_in_class
from valleyforge.series import f_series


class TestEnumerate:
    def test_n0(self):
        paths = enumerate_dyck(0)
        assert len(paths) == 1
        assert paths[0].word == ""

    def test_n2(self):
        assert {p.word for p in enumerate_dyck(2)} == {"UUDD", "UDUD"}

    def test_counts_are_catalan(self):
        for n in range(11):
            assert len(enumerate_dyck(n)) == catalan(n)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_dyck(15)
        assert len(enumerate_dyck(15, cap=15)) == catalan(15)


class TestBruteCount:
    @pytest.mark.parametrize("n,expected", [(4, 14), (5, 41), (6, 121)])
    def test_h4k3_examples(self, n, expected):
        assert brute_count(ClassParams(4, 3), n) == expected

    def test_matches_filtered_enumeration(self):
        levels = [enumerate_dyck(n) for n in range(10)]
        for h in range(1, 7):
            for k in range(2, 6):
                params = ClassParams(h, k)
                expected = [sum(is_in_class(p, params) for p in level) for level in levels]
                assert brute_counts_upto(params, 9) == expected, (h, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.integers(2, 6), st.integers(0, 9))
    def test_dp_equals_filtered_enumeration_property(self, h, k, n):
        params = ClassParams(h, k)
        expected = sum(is_in_class(p, params) for p in enumerate_dyck(n))
        assert brute_counts_upto(params, n)[n] == expected

    def test_agrees_with_rule_and_series_to_order_500(self):
        order = 500
        for h in range(3, 8):
            for k in range(3, 6):
                params = ClassParams(h, k)
                counts = brute_counts_upto(params, order)
                assert counts == list(f_series(params, order).coeffs), (h, k)
                for n in (13, 100, order):
                    assert counts[n] == rule_counts(params, n).total(), (h, k, n)
                assert rule_totals_upto(params, order) == counts, (h, k)

    @pytest.mark.parametrize("h,k", [(64, 5), (128, 3)])
    def test_agrees_with_series_at_large_h(self, h, k):
        params = ClassParams(h, k)
        order = 300
        assert brute_counts_upto(params, order) == list(
            f_series(params, order).coeffs
        )
        assert rule_totals_upto(params, order) == brute_counts_upto(params, order)

    def test_agrees_with_rule_and_series_at_h3(self):
        order = 300
        for k in range(2, 41):
            params = ClassParams(3, k)
            counts = brute_counts_upto(params, order)
            assert list(f_series(params, order).coeffs) == counts, k
            assert rule_totals_upto(params, order) == counts, k

    def test_agrees_with_rule_and_series_at_h1_h2(self):
        """At h = 1 the class is (UD)^n for n <= k-1.  At h = 2 a path is a
        sequence of blocks U(UD)^jD, j <= k-1, so f = 1/(1 - x - ... - x^k)."""
        order = 200
        for k in range(2, 41):
            h1, h2 = ClassParams(1, k), ClassParams(2, k)
            ones = brute_counts_upto(h1, order)
            assert ones == [1] * k + [0] * (order + 1 - k), k
            blocks = brute_counts_upto(h2, order)
            assert blocks[0] == 1, k
            assert all(blocks[n] == sum(blocks[max(n - k, 0):n]) for n in range(1, order + 1)), k
            for params, counts in ((h1, ones), (h2, blocks)):
                assert list(f_series(params, order).coeffs) == counts, params
                assert rule_totals_upto(params, order) == counts, params

    def test_upto_consistent(self):
        params = ClassParams(5, 3)
        upto = brute_counts_upto(params, 10)
        assert upto == [brute_count(params, n) for n in range(11)]

    def test_catalan_below_h(self):
        for h, k in [(4, 3), (5, 2), (6, 4)]:
            params = ClassParams(h, k)
            for n in range(h + 1):
                assert brute_count(params, n) == catalan(n)

    def test_monotone_in_h_and_k(self):
        n = 8
        for h in range(1, 7):
            for k in range(2, 6):
                c = brute_count(ClassParams(h, k), n)
                assert brute_count(ClassParams(h + 1, k), n) >= c
                assert brute_count(ClassParams(h, k + 1), n) >= c

    def test_no_listing_cap(self):
        params = ClassParams(4, 3)
        assert brute_count(params, 15) == rule_totals_upto(params, 15)[15]
        with pytest.raises(ValueError):
            brute_counts_upto(params, -1)
