import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from valleyforge.eco import rule_counts, rule_totals_upto, tree_totals_upto
from valleyforge.errors import CapExceeded
from valleyforge.oracle import brute_counts_upto, enumerate_dyck
from valleyforge.paths import ClassParams, catalan, catalan_upto, is_in_class
from valleyforge.series import f_series


def _backtracking_words(n):
    """Every Dyck word of semilength n by recursive prefix backtracking, U tried before D."""
    out = []

    def extend(prefix, ups, downs):
        if downs == n:
            out.append(prefix)
            return
        if ups < n:
            extend(prefix + "U", ups + 1, downs)
        if downs < ups:
            extend(prefix + "D", ups, downs + 1)

    extend("", 0, 0)
    return out


def _prefix_dp_reference(params, nmax):
    """Class counts for every semilength 0..nmax, one step of the prefix at a time.

    A prefix state is (ordinate, last step was D, run), where run counts the
    adjacent DU factors at height h-1 ending at the current position and is
    carried through a D from height h.  The count at semilength n is the
    number of prefixes of length 2n back on the axis.  This unmerged dict DP
    is the reference for ``brute_counts_upto``'s merged states.
    """
    if nmax < 0:
        raise ValueError("n must be >= 0")
    h, k = params.h, params.k
    counts = [1] + [0] * nmax
    states = {(0, False, 0): 1}
    for step in range(1, 2 * nmax + 1):
        nxt: defaultdict[tuple[int, bool, int], int] = defaultdict(int)
        for (o, prev_d, run), c in states.items():
            if o < h:
                new_run = run + 1 if prev_d and o == h - 1 else 0
                if new_run <= k - 2:
                    nxt[o + 1, False, new_run] += c
            if o > 0:
                nxt[o - 1, True, run if o == h else 0] += c
        states = nxt
        if step % 2 == 0:
            counts[step // 2] = sum(c for (o, _, _), c in states.items() if o == 0)
    return counts


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

    @pytest.mark.parametrize("n", range(12))
    def test_order_matches_backtracking(self, n):
        words = [p.word for p in enumerate_dyck(n)]
        assert words == _backtracking_words(n)
        assert all(a > b for a, b in zip(words, words[1:]))  # strictly descending

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_dyck(15)
        assert len(enumerate_dyck(15, cap=15)) == catalan(15)


class TestBruteCount:
    @pytest.mark.parametrize("n,expected", [(4, 14), (5, 41), (6, 121)])
    def test_h4k3_examples(self, n, expected):
        assert brute_counts_upto(ClassParams(4, 3), n)[n] == expected

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
        assert upto == [brute_counts_upto(params, n)[n] for n in range(11)]

    def test_catalan_below_h(self):
        for h, k in [(4, 3), (5, 2), (6, 4)]:
            params = ClassParams(h, k)
            for n in range(h + 1):
                assert brute_counts_upto(params, n)[n] == catalan(n)

    def test_monotone_in_h_and_k(self):
        n = 8
        for h in range(1, 7):
            for k in range(2, 6):
                c = brute_counts_upto(ClassParams(h, k), n)[n]
                assert brute_counts_upto(ClassParams(h + 1, k), n)[n] >= c
                assert brute_counts_upto(ClassParams(h, k + 1), n)[n] >= c

    def test_no_listing_cap(self):
        params = ClassParams(4, 3)
        assert brute_counts_upto(params, 15)[15] == rule_totals_upto(params, 15)[15]
        with pytest.raises(ValueError):
            brute_counts_upto(params, -1)


def _continued_fraction(h: int, k: int, order: int) -> list[int]:
    """c_{h-2}/c_{h-1} to x^order, from c_{-1} = 1 - x^k, c_0 = 1 - x and
    c_j = c_{j-1} - x c_{j-2}, every c_j truncated after x^order; c_j(0) = 1."""
    size = order + 1
    c = [([1] + [0] * (k - 1) + [-1] + [0] * size)[:size], ([1, -1] + [0] * size)[:size]]
    for _ in range(h - 1):
        c.append([a - b for a, b in zip(c[-1], [0] + c[-2])])
    num, den, out = c[-2], c[-1], []
    for n in range(size):
        out.append(num[n] - sum(den[j] * out[n - j] for j in range(1, n + 1)))
    return out


class TestContinuedFraction:
    """Above level h-2 a path of height <= h holds only blocks (UD)^j at level h-1, each with
    j-1 adjacent valleys at h-1, so the class is Flajolet's continued fraction of depth h with
    the last level 1 + x + ... + x^{k-1}.  Its expansion counts the listed Dyck paths that
    ``is_in_class`` admits: the decomposition checked against the listing, not the DP."""

    def test_expands_to_the_filtered_listing(self):
        levels = [enumerate_dyck(n) for n in range(10)]
        for h in range(1, 7):
            for k in range(2, 6):
                params = ClassParams(h, k)
                expected = [sum(is_in_class(p, params) for p in level) for level in levels]
                assert _continued_fraction(h, k, 9) == expected, (h, k)


class TestMergedStates:
    """The merged states against the dict DP, deep cells, and where the clamp on h and k acts."""

    def test_equals_prefix_dp_reference(self):
        for h in range(1, 13):
            for k in range(2, 9):
                params = ClassParams(h, k)
                assert brute_counts_upto(params, 30) == _prefix_dp_reference(params, 30), (h, k)

    def test_clamp_region_equals_prefix_dp_reference(self):
        """h and k at and past nmax + 1 and nmax + 2, for every nmax <= 10, nmax = 0 included."""
        for h in range(1, 41):
            for k in range(2, 41):
                params = ClassParams(h, k)
                expected = _prefix_dp_reference(params, 10)
                for nmax in range(11):
                    assert brute_counts_upto(params, nmax) == expected[:nmax + 1], (h, k, nmax)

    @pytest.mark.parametrize("h,k,nmax", [(64, 5, 600), (128, 3, 600), (7, 40, 300), (1000, 3, 1000)])
    def test_agrees_with_rule_deep(self, h, k, nmax):
        params = ClassParams(h, k)
        assert brute_counts_upto(params, nmax) == rule_totals_upto(params, nmax)

    def test_huge_bounds_bounded_memory(self):
        tracemalloc.start()
        try:
            counts = brute_counts_upto(ClassParams(10**6, 10**6), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [1, 1, 2, 5, 14, 42]
        assert peak < 1 << 20


def _height_bounded_upto(h: int, nmax: int) -> list[int]:
    """Dyck paths of height <= h for n = 0..nmax: a walk over the ordinates 0..h."""
    row, counts = [1] + [0] * h, [1]
    for step in range(1, 2 * nmax + 1):
        row = [(row[o - 1] if o else 0) + (row[o + 1] if o < h else 0) for o in range(h + 1)]
        if step % 2 == 0:
            counts.append(row[0])
    return counts


class TestAffordableBox:
    """Random cells far outside the fixed grids, which the clamp on h and k keeps cheap."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 200), st.integers(2, 60), st.integers(0, 300))
    def test_routes_agree_and_laws_hold(self, h, k, nmax):
        """The DP, the rule and the series agree at every n, and ECO to n = 60 where its window
        h + 2k - 4 at the clamped cell is at most 12 steps: its time about doubles per step of
        window, so one cell at 20 would outlast all the others.  D_n = C_n for n <= h; D_n is
        the height-<= h count for n < h + k - 1 and one less at h + k - 1, which drops only
        U^h (DU)^(k-1) D^h; and D_n does not decrease when h or k grows."""
        params = ClassParams(h, k)
        counts = brute_counts_upto(params, nmax)
        assert rule_totals_upto(params, nmax) == counts
        assert list(f_series(params, nmax).coeffs) == counts
        m = min(nmax, 60)
        cell = params.clamped(m)
        if cell.h + 2 * cell.k - 4 <= 12:
            assert tree_totals_upto(params, m) == counts[:m + 1]
        assert counts[:h + 1] == catalan_upto(min(nmax, h))
        last = h + k - 1
        bounded = _height_bounded_upto(min(h, nmax), min(nmax, last))
        if nmax >= last:
            bounded[last] -= 1
        assert counts[:last + 1] == bounded
        for wider in (ClassParams(h + 1, k), ClassParams(h, k + 1)):
            assert all(c <= w for c, w in zip(counts, brute_counts_upto(wider, nmax)))
