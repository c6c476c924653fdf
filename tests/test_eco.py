import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings, strategies as st

from valleyforge import eco
from valleyforge.eco import (
    BLOCK,
    children,
    generate,
    grid_totals_upto,
    invert_first_peak,
    label_of,
    rule_counts,
    rule_totals_upto,
    tree_totals_upto,
    walk,
)
from valleyforge.errors import EmptyPath, NotInClass
from valleyforge.oracle import brute_counts_upto, enumerate_dyck
from valleyforge.paths import (
    EMPTY_PATH,
    ClassParams,
    DyckPath,
    height,
    is_in_class,
    max_valley_run_at_height,
    parse_path,
)

H4K3 = ClassParams(4, 3)
SUPPORTED = [(h, k) for k in range(2, 7) for h in range(1, 8)]


def walked_levels(params: ClassParams, n: int) -> list[list[int]]:
    """The walk's blocks concatenated per depth, in walk order; checks every block's size.

    Every path at depth m has exactly 2m bits, its first step being U: the
    invariant ``DyckPath.semilength`` is derived from.
    """
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for m, block in walk(params, n):
        assert len(block) <= BLOCK * params.h
        assert all(bits.bit_length() == 2 * m for bits in block)
        out[m].extend(block)
    return out


@st.composite
def supported_params(draw):
    """(h, k) pairs with h <= 7 and k <= 6."""
    return ClassParams(draw(st.integers(1, 7)), draw(st.integers(2, 6)))


class TestLabelOf:
    def test_axiom(self):
        assert label_of(EMPTY_PATH, H4K3) == "(1)"

    def test_single_peak(self):
        assert label_of(parse_path("UD"), H4K3) == "(2)"

    def test_saturated_run_gets_h_minus_one(self):
        # U^4 (DU) D^4: one valley at height 3 = k-2, so label (h-1) = (3)
        p = parse_path("UUUUDUDDDD")
        assert label_of(p, H4K3) == "(3)"
        assert len(children(p, H4K3)) == 3

    def test_full_run_no_valley(self):
        assert label_of(parse_path("UUUUDDDD"), H4K3) == "(h_0)"

    def test_indexed_label_k4(self):
        params = ClassParams(4, 4)
        assert label_of(parse_path("UUUUDUDDDD"), params) == "(h_1)"

    def test_k2_full_run(self):
        params = ClassParams(4, 2)
        assert label_of(parse_path("UUUUDDDD"), params) == "(3)"

    def test_rejects_out_of_class(self):
        with pytest.raises(NotInClass):
            label_of(parse_path("UUUUUDDDDD"), H4K3)

    def test_wrap_label_at_h1_and_h2(self):
        # h = 1, k = 3: (UD)^2 has the most valleys at height 0; its label is (0)
        p = parse_path("UDUD")
        assert label_of(p, ClassParams(1, 3)) == "(0)"
        assert children(p, ClassParams(1, 3)) == []
        # h = 2, k = 3: a valley at height 1 after the full run goes back to the root's label
        p = parse_path("UUDUDD")
        assert label_of(p, ClassParams(2, 3)) == "(1)"
        assert [q.word for q in children(p, ClassParams(2, 3))] == ["UDUUDUDD"]


class TestChildren:
    def test_axiom_child(self):
        assert [p.word for p in children(EMPTY_PATH, H4K3)] == ["UD"]

    def test_ud_children(self):
        assert [p.word for p in children(parse_path("UD"), H4K3)] == ["UDUD", "UUDD"]

    def test_saturated_children_avoid_top_site(self):
        p = parse_path("UUUUDUDDDD")
        kids = children(p, H4K3)
        assert len(kids) == 3
        for q in kids:
            assert is_in_class(q, H4K3)

    def test_child_count_matches_label(self):
        for h, k in SUPPORTED:
            params = ClassParams(h, k)
            for n in range(8):
                for p in generate(params, n):
                    label = label_of(p, params)
                    assert len(children(p, params)) == _paper_child_count(label, h), (h, k, label)

    @pytest.mark.parametrize("h,k", SUPPORTED)
    def test_children_insert_ud_into_the_word(self, h, k):
        # A word-level reference: child i is the parent's word with UD inserted before step i.
        params = ClassParams(h, k)
        for n in range(9):
            for p in generate(params, n):
                w, c = p.word, _paper_child_count(label_of(p, params), h)
                assert [q.word for q in children(p, params)] == [w[:i] + "UD" + w[i:] for i in range(c)], w


class TestGenerate:
    def test_n0(self):
        assert generate(H4K3, 0) == [EMPTY_PATH]

    def test_n3_is_all_dyck(self):
        got = {p.word for p in generate(H4K3, 3)}
        assert got == {p.word for p in enumerate_dyck(3)}
        assert len(got) == 5

    @settings(max_examples=40, deadline=None)
    @given(supported_params(), st.integers(0, 9))
    def test_equals_filtered_enumeration_property(self, params, n):
        brute = sorted(p.word for p in enumerate_dyck(n) if is_in_class(p, params))
        assert [p.word for p in generate(params, n)] == brute

    def test_n6_count(self):
        paths = generate(H4K3, 6)
        assert len(paths) == 121
        brute = [p for p in enumerate_dyck(6) if is_in_class(p, H4K3)]
        assert {p.word for p in paths} == {p.word for p in brute}

    def test_no_duplicates(self):
        for n in range(9):
            paths = generate(H4K3, n)
            assert len({p.word for p in paths}) == len(paths)

    def test_membership(self):
        for n in range(8):
            for p in generate(H4K3, n):
                assert is_in_class(p, H4K3)

    def test_sorted_canonically(self):
        words = [p.word for p in generate(H4K3, 5)]
        assert words == sorted(words)

    @pytest.mark.parametrize("n", range(10))
    def test_bits_order_is_word_order(self, n):
        """For one length, ascending bits is ascending word (D = 0 < U = 1):
        what lets generate sort its bit patterns as ints first."""
        paths = enumerate_dyck(n)
        assert sorted(paths, key=lambda p: p.bits) == sorted(paths, key=lambda p: p.word)

    @pytest.mark.parametrize("h, k, n", [(4, 3, 8), (7, 5, 9), (1, 2, 1), (3, 2, 7), (2, 6, 9)])
    def test_strictly_ascending_bits(self, h, k, n):
        bits = [p.bits for p in generate(ClassParams(h, k), n)]
        assert bits and all(a < b for a, b in zip(bits, bits[1:]))

    def test_disjoint_union_property(self):
        for n in range(7):
            parents = generate(H4K3, n)
            all_children = [c.word for p in parents for c in children(p, H4K3)]
            assert len(all_children) == len(set(all_children))
            assert sorted(all_children) == [p.word for p in generate(H4K3, n + 1)]


class TestInvertFirstPeak:
    @pytest.mark.parametrize("word,expected", [("UD", ""), ("UUDD", "UD"), ("UDUD", "UD")])
    def test_examples(self, word, expected):
        assert invert_first_peak(parse_path(word)).word == expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyPath):
            invert_first_peak(EMPTY_PATH)

    def test_removes_first_peak_of_every_dyck_path(self):
        for n in range(1, 9):
            for q in enumerate_dyck(n):
                assert invert_first_peak(q).word == q.word.replace("UD", "", 1)

    def test_reverse_map_property(self):
        for n in range(7):
            for q in generate(H4K3, n + 1):
                parent = invert_first_peak(q)
                assert is_in_class(parent, H4K3)
                assert q.word in {c.word for c in children(parent, H4K3)}

    @settings(max_examples=40, deadline=None)
    @given(supported_params(), st.integers(0, 8), st.data())
    def test_children_stay_in_class_and_invert(self, params, n, data):
        paths = generate(params, n)
        assume(paths)  # at h = 1 there is no path for n >= k
        path = data.draw(st.sampled_from(paths))
        for child in children(path, params):
            assert is_in_class(child, params)
            assert invert_first_peak(child) == path


class TestRuleCounts:
    def test_axiom(self):
        assert rule_counts(H4K3, 0) == {"(1)": 1}
        with pytest.raises(ValueError, match="n must be >= 0"):
            rule_counts(H4K3, -1)

    def test_first_step(self):
        assert rule_counts(H4K3, 1) == {"(2)": 1}

    def test_total_matches_generation(self):
        for n in range(9):
            assert rule_counts(H4K3, n).total() == len(generate(H4K3, n))

    # k = 2, the saturated case, h = 3 with (h_j) labels at (3, 5), and up to j = 3 at (4, 6);
    # h = 1, where the wrap label is (0), and h = 2, where it is the root's (1).
    @pytest.mark.parametrize("h,k", [(4, 3), (3, 2), (3, 5), (5, 2), (6, 5), (7, 5), (4, 6),
                                     (1, 2), (1, 5), (2, 2), (2, 5)])
    def test_label_histogram_matches_paths(self, h, k):
        params = ClassParams(h, k)
        for n in range(8):
            hist: dict[str, int] = {}
            for p in generate(params, n):
                label = label_of(p, params)
                hist[label] = hist.get(label, 0) + 1
            assert hist == rule_counts(params, n)

    def test_k2_totals_match_generation(self):
        params = ClassParams(3, 2)
        for n in range(9):
            assert rule_counts(params, n).total() == len(generate(params, n))

    def test_h1_wrap_label_has_no_children(self):
        params = ClassParams(1, 3)
        assert [rule_counts(params, n) for n in range(4)] == [
            {"(1)": 1}, {"(h_0)": 1}, {"(0)": 1}, {}]
        assert rule_totals_upto(params, 5) == [1, 1, 1, 0, 0, 0]

    @pytest.mark.parametrize("nmax", [0, 1, 3, 8, 20])
    def test_clamped_class_gives_the_unclamped_counts(self, nmax):
        """rule_totals_upto steps (min(h, nmax+1), min(k, nmax+2)); _rule_steps does not."""
        for h in range(1, 61):
            for k in range(2, 30):
                p = ClassParams(h, k)
                unclamped = [sum(v) for v in eco._rule_steps(p, nmax)]
                assert rule_totals_upto(p, nmax) == unclamped, (h, k)

    @pytest.mark.parametrize("params", [H4K3, ClassParams(3, 2), ClassParams(6, 5),
                                        ClassParams(1, 4), ClassParams(2, 3)])
    def test_sweeps_match_per_n_counts(self, params):
        assert rule_totals_upto(params, 8) == [rule_counts(params, n).total() for n in range(9)]
        # At a fixed semilength, bit order is word order.
        assert [sorted(level) for level in walked_levels(params, 8)] == [
            [p.bits for p in generate(params, n)] for n in range(9)]
        assert tree_totals_upto(params, 8) == rule_totals_upto(params, 8)


def _paper_successors(label: str, h: int, k: int) -> list[str]:
    """The paper's four productions, written out label by label."""
    indexed = label.startswith("(h_")
    index = int(label[3:-1] if indexed else label[1:-1])
    full = [f"({i})" for i in range(2, h + 1)]
    if not indexed and index < h:  # (l) -> (2) .. (l+1)
        return [f"({i})" for i in range(2, index + 2)]
    if label == f"({h})" and k >= 3:  # (h) -> (2) .. (h) (h_0)
        return full + ["(h_0)"]
    if indexed and index < k - 3:  # (h_j) -> (2) .. (h) (h_{j+1})
        return full + [f"(h_{index + 1})"]
    return full + [f"({h - 1})"]  # (h_{k-3}), or (h) when k = 2 -> (2) .. (h) (h-1)


def _paper_child_count(label: str, h: int) -> int:
    """The paper's rule read from the text: (l) has l children, (h_j) has h."""
    return h if label.startswith("(h_") else int(label[1:-1])


class TestRuleAgainstPaperProductions:
    @pytest.mark.parametrize("h,k", [(h, k) for k in range(2, 8) for h in range(1, 10)])
    def test_label_multiplicities(self, h, k):
        params = ClassParams(h, k)
        counts = Counter({"(1)": 1})
        for n in range(41):
            assert rule_counts(params, n) == counts, n
            nxt: Counter[str] = Counter()
            for label, mult in counts.items():
                for succ in _paper_successors(label, h, k):
                    nxt[succ] += mult
            counts = nxt



def _assert_each_level_is_children_of_the_previous(params: ClassParams, n: int) -> None:
    previous = None
    for m, level in enumerate(walked_levels(params, n)):
        if m:
            kids = [c for bits in previous for c in children(DyckPath(bits), params)]
            assert all(c.semilength == m for c in kids)
            assert level == [c.bits for c in kids]
        previous = level


class TestLevels:
    """The levels the walk's blocks make up, and the walk itself."""

    @pytest.mark.parametrize("h,k", SUPPORTED)
    def test_each_level_is_children_of_the_previous(self, h, k):
        _assert_each_level_is_children_of_the_previous(ClassParams(h, k), 9)

    def test_levels_above_block_are_children_of_the_previous(self):
        # (7, 5): levels 10, 11 and 12 hold 16,645, 57,685 and 201,145 paths.
        _assert_each_level_is_children_of_the_previous(ClassParams(7, 5), 12)

    @pytest.mark.parametrize("h,k", [(h, k) for h in range(4, 8) for k in range(3, 6)])
    def test_level_sizes_match_dp_on_acceptance_grid(self, h, k):
        params = ClassParams(h, k)
        assert tree_totals_upto(params, 12) == brute_counts_upto(params, 12)

    def test_blocks_come_depth_first(self):
        depths = [m for m, _ in walk(ClassParams(7, 5), 12)]
        assert depths.count(12) > 1
        # A block above depth 12 is followed at once by its first child block.
        assert all(b == a + 1 for a, b in zip(depths, depths[1:]) if a < 12)

    def test_h1_h2_match_dp_and_the_filtered_enumeration(self):
        cells = [ClassParams(h, k) for h in (1, 2) for k in range(2, 8)]
        for params in cells:
            assert tree_totals_upto(params, 12) == brute_counts_upto(params, 12), params
        for n in range(13):
            dyck = enumerate_dyck(n)
            for params in cells:
                brute = sorted(p.bits for p in dyck if is_in_class(p, params))
                assert [p.bits for p in generate(params, n)] == brute, (params, n)

    def test_n0_is_the_root(self):
        assert list(walk(H4K3, 0)) == [(0, [EMPTY_PATH.bits])]
        assert tree_totals_upto(H4K3, 0) == [1]

    def test_errors_are_raised_before_the_first_block(self):
        with pytest.raises(ValueError):
            walk(H4K3, -1)


def _grow_each(block: list[int], n2: int, h: int, k: int) -> tuple[list[int], list[int]]:
    """Children and child counts of a block, one parent at a time, read from each label."""
    kids, counts = [], []
    for bits in block:
        c = min(eco._label(bits, n2, h, k) + 1, h)
        counts.append(c)
        child = (0b10 << n2) | bits
        if c:
            kids.append(child)
        for s in range(n2 - 1, n2 - c, -1):
            child ^= 0b11 << s
            kids.append(child)
    return kids, counts


class TestBlockGrowth:
    """The batched growth of a block equals growing its parents one at a time.

    The walked blocks include the root (n2 = 0), childless (0) parents at
    h = 1, and blocks at 2m < h-1, where fewer than h site masks exist.
    """

    @pytest.mark.parametrize("h,k,n", [(h, k, 9) for h, k in SUPPORTED] + [(7, 5, 12)])
    def test_every_walked_block(self, h, k, n):
        for m, block in walk(ClassParams(h, k), n):
            kids, counts = _grow_each(block, 2 * m, h, k)
            assert eco._child_counts(block, 2 * m, h, k) == counts, (m, block[:3])
            assert eco._grow(block, 2 * m, h, k) == kids, (m, block[:3])


class TestCountsWithoutLabels:
    """The walk and the counts read child counts from the bits, never a label."""

    def test_no_label_is_read(self, monkeypatch):
        def no_label(*args):
            raise AssertionError("_label called")

        monkeypatch.setattr(eco, "_label", no_label)
        grid = grid_totals_upto(4, 7, 3, 5, 12)
        for h in range(4, 8):
            for k in range(3, 6):
                assert grid[h - 4][k - 3] == brute_counts_upto(ClassParams(h, k), 12), (h, k)
        params = ClassParams(7, 5)
        assert tree_totals_upto(params, 13) == brute_counts_upto(params, 13)
        assert len(generate(params, 10)) == brute_counts_upto(params, 10)[10]
        with pytest.raises(AssertionError, match="_label called"):
            label_of(parse_path("UD"), params)


def _raised_by_words(parents: list[int], hm: int, km: int, h_hi: int, k_lo: int,
                     k_hi: int) -> list[tuple[int, int, list[int]]]:
    """Reference for ``eco._raised``: every parent's word is read for both heads, saturated first,
    and a UD is inserted in the words that begin with one, before step ``site``."""
    words = [DyckPath(bits).word for bits in parents]
    heads = []
    if hm < h_hi or km < k_hi:
        heads.append(((hm, km + 1) if km < k_hi else (hm + 1, k_lo), "U" * hm + "DU" * (km - 2), hm - 1))
    if hm < h_hi:
        heads.append(((hm + 1, k_lo), "U" * hm + "D", hm))
    raised = []
    for cell, head, site in heads:
        if kids := [parse_path(word[:site] + "UD" + word[site:]).bits
                    for word in words if word.startswith(head)]:
            raised.append((*cell, kids))
    return raised


class TestRaised:
    """_raised seeks the saturated paths among the full-run ones; the reference scans every parent."""

    @pytest.mark.parametrize("h_lo", [1, 2, 4])
    def test_every_walked_block(self, h_lo):
        for h_hi in range(h_lo, h_lo + 3):
            for k_hi in range(2, 7):
                for m, hm, km, block in eco._walk(h_lo, h_hi, 2, k_hi, 10):
                    got = eco._raised(block, 2 * m, hm, km, h_hi, 2, k_hi)
                    assert got == _raised_by_words(block, hm, km, h_hi, 2, k_hi), (h_hi, k_hi, m, hm, km)


def _built_below(block: list[int], m: int, hm: int, km: int, nmax: int, h_hi: int, k_lo: int,
                 k_hi: int) -> Counter:
    """Reference for ``eco._count`` on one block at depth m in (hm, km), keyed (h, k, depth): the
    block, and every path below it built down to depth nmax with ``_grow`` and ``_raised``."""
    counted, level = Counter(), [(hm, km, block)]
    for depth in range(m, nmax + 1):
        below = []
        for h, k, paths in level:
            counted[h, k, depth] += len(paths)
            if depth < nmax:
                below += [(h, k, eco._grow(paths, 2 * depth, h, k)),
                          *eco._raised(paths, 2 * depth, h, k, h_hi, k_lo, k_hi)]
        level = below
    return counted


class TestCountBelowTheWalk:
    """_count from one walked block equals the block's subtree built down to depth nmax: the
    children it tallies and expands from _below, and the ones it builds, split into steps or,
    past their cell's window of h + 2k - 4 steps, cut to it and merged (on entry too)."""

    @pytest.mark.parametrize("h_lo", [1, 2, 4])
    def test_every_walked_block(self, h_lo):
        cut_on_entry = 0
        for h_hi in range(h_lo, h_lo + 3):
            for k_hi in range(2, 7):
                chain = [(h, k) for h in range(h_lo, h_hi + 1) for k in range(2, k_hi + 1)]
                for m, hm, km, block in eco._walk(h_lo, h_hi, 2, k_hi, 7):
                    cut_on_entry += 2 * m > hm + 2 * km - 4
                    nmax = m + 1 + m % 4  # 1 to 4 levels below the block
                    built = _built_below(block, m, hm, km, nmax, h_hi, 2, k_hi)
                    want = [list(accumulate(built[h, k, d] for h, k in chain)) for d in range(nmax + 1)]
                    got = eco._count({(hm, km): block}, m, nmax, h_lo, h_hi, 2, k_hi)
                    assert [got[h - h_lo][k - 2] for h, k in chain] == [list(sums) for sums in zip(*want)], \
                        (h_hi, k_hi, m, hm, km)
        assert cut_on_entry


class TestBelow:
    """below[u][d] against explicit growth: d levels of ``_grow`` under a path of up-run u, while
    every up-run above them stays below h.  No rule step is read, so the routes stay apart."""

    @pytest.mark.parametrize("h", range(1, 9))
    def test_matches_explicit_growth(self, h):
        below = eco._below(h, 10)
        assert [len(row) for row in below] == [min(10, h - u) + 1 for u in range(h + 1)]
        for u in range(h + 1):
            for word in {"U" * u + "D" * u, "U" * u + "DUD" + "D" * (u - 1) if u else ""}:
                block, n2 = [parse_path(word).bits], len(word)
                assert below[u][0] == 1
                for d in range(1, h - u + 1):
                    block, n2 = eco._grow(block, n2, h, 3), n2 + 2
                    assert len(block) == below[u][d], (word, d)

    def test_rows_stop_at_n(self):
        assert eco._below(8, 3) == [row[:4] for row in eco._below(8, 10)]


def _class_windows(params: ClassParams) -> dict[int, list[int]]:
    """The window paths of a cell, as bits keyed by their number of steps.

    W = h + 2k - 1.  Every class path shorter than W steps, and every word of
    W steps with heights in [0, h] closed by D's that lies in the class.  A
    D-completion adds no valley, so the words of W steps that begin a class
    path are exactly the first W steps of these closed words.
    """
    h, w = params.h, params.h + 2 * params.k - 1
    ends = [[0]] + [[] for _ in range(h)]  # ends[y]: the words of the current length ending at y
    paths = [0]
    for length in range(1, w + 1):
        ends = [([bits << 1 | 1 for bits in ends[y - 1]] if y else [])
                + ([bits << 1 for bits in ends[y + 1]] if y < h else []) for y in range(h + 1)]
        if length < w:
            paths += ends[0]
    paths += [bits << y for y, words in enumerate(ends) for bits in words]
    windows: dict[int, list[int]] = {}
    for bits in paths:
        if is_in_class(DyckPath(bits), params):
            windows.setdefault(bits.bit_length(), []).append(bits)
    return windows


def _admitted(bits: int, params: ClassParams) -> list[int]:
    """The paths with a UD inserted at a site s <= t of the up-run t of ``bits``, by s, that
    ``is_in_class`` admits: the class paths whose leftmost UD removed leaves ``bits``."""
    n2 = bits.bit_length()
    t = next((s for s in range(n2) if not bits >> n2 - 1 - s & 1), n2)
    inserted = ((bits >> n2 - s << 2 | 0b10) << n2 - s | bits & (1 << n2 - s) - 1 for s in range(t + 1))
    return [q for q in inserted if is_in_class(DyckPath(q), params)]


class TestWindowCertificate:
    """ECO's children equal the class's at every n, decided on the first W = h + 2k - 1 steps.

    The child count reads the up-run t <= h and the saturated head U^h (DU)^(k-2),
    h + 2k - 4 steps.  A UD inserted in the up-run changes the path only there
    and can join only the valleys right after a full run, so the same head
    decides whether the result lies in the class.  W is three steps more, a
    margin against a count that reads past the head.  A class path and its
    window thus have the same children, and the windows of a cell cover every
    n.  ``is_in_class`` alone is the judge.
    """

    @pytest.mark.parametrize("h,k", [(h, k) for k in range(2, 10) for h in range(1, 20 - 2 * k)])
    def test_every_cell_with_w_at_most_18(self, h, k):
        params = ClassParams(h, k)
        windows = _class_windows(params)
        for n2, block in windows.items():
            assert eco._grow(block, n2, h, k) == [q for bits in block for q in _admitted(bits, params)], n2
        # The judge refuses a child for its valleys: U^h (DU)^(k-2) D^h has h-1 of its h+1 sites.
        saturated = int("1" * h + "01" * (k - 2), 2) << h
        assert saturated in windows[2 * (h + k - 2)]
        assert len(_admitted(saturated, params)) == h - 1

    @pytest.mark.parametrize("h_lo,h_hi,k_lo,k_hi", [(1, 3, 2, 4), (2, 5, 2, 3), (4, 7, 3, 5)])
    def test_raised_children_start_at_the_cell_named(self, h_lo, h_hi, k_lo, k_hi):
        """Each raised child lies in its cell and not in the chain cell before it; with the
        children kept in the block's cell, they are the (h_hi, k_hi) tree's."""
        chain = [ClassParams(h, k) for h in range(h_lo, h_hi + 1) for k in range(k_lo, k_hi + 1)]
        raised_to = Counter()
        for n2, block in _class_windows(chain[-1]).items():
            for bits in block:
                least = next(p for p in chain if is_in_class(DyckPath(bits), p))
                raised = eco._raised([bits], n2, least.h, least.k, h_hi, k_lo, k_hi)
                for h, k, kids in raised:
                    i = chain.index(ClassParams(h, k))
                    assert i > chain.index(least), (bits, h, k)
                    for q in kids:
                        assert is_in_class(DyckPath(q), chain[i]), (bits, q, h, k)
                        assert not is_in_class(DyckPath(q), chain[i - 1]), (bits, q, h, k)
                    raised_to[h, k] += len(kids)
                grown = eco._grow([bits], n2, least.h, least.k) + [q for *_, kids in raised for q in kids]
                assert sorted(grown) == sorted(_admitted(bits, chain[-1])), bits
        assert len(raised_to) == len(chain) - 1  # every later cell is reached


class TestTreeTotals:
    """tree_totals_upto builds raised paths and those whose subtree can reach a full up-run; the
    rest are counted."""

    @pytest.mark.parametrize("h,k,nmax", [(h, k, 9) for h, k in SUPPORTED] + [(7, 5, 12)])
    def test_leaf_count_equals_the_built_level(self, h, k, nmax):
        params = ClassParams(h, k)
        for n in range(nmax + 1):
            assert tree_totals_upto(params, n) == [len(level) for level in walked_levels(params, n)]

    @pytest.mark.parametrize("h,k", [(h, k) for h in range(8, 13) for k in range(2, 7)])
    def test_matches_dp_above_the_supported_grid(self, h, k):
        params = ClassParams(h, k)
        assert tree_totals_upto(params, 12) == brute_counts_upto(params, 12)

    @pytest.mark.parametrize("h,k", [(4, 3), (7, 5)])
    def test_matches_dp_at_the_cap(self, h, k):
        params = ClassParams(h, k)
        assert tree_totals_upto(params, 14) == brute_counts_upto(params, 14)

    def test_small_nmax(self):
        assert tree_totals_upto(H4K3, 0) == [1]
        assert tree_totals_upto(H4K3, 1) == [1, 1]
        assert tree_totals_upto(H4K3, 2) == [1, 1, 2]
        assert tree_totals_upto(H4K3, 3) == [1, 1, 2, 5]

    @pytest.mark.parametrize("nmax", [-1])
    def test_errors_are_raised_before_any_work(self, monkeypatch, nmax):
        def no_work(*args):
            raise AssertionError("a child count was read")

        monkeypatch.setattr(eco, "_child_counts", no_work)
        with pytest.raises(ValueError):
            tree_totals_upto(H4K3, nmax)


K_RANGES = [(k_lo, k_hi) for k_lo in range(2, 7) for k_hi in range(k_lo, 7)]


def _least_cell(bits: int, h_lo: int, k_lo: int, k_hi: int) -> tuple[int, int]:
    """The least cell (h, k) of the chain whose class holds the path, read from its valleys.

    A path of height H whose longest run of valleys at H-1 is r lies in the
    cells (H, k) with k >= r+2 and in every cell with h > H.
    """
    path = DyckPath(bits)
    top = height(path)
    if top < h_lo:
        return h_lo, k_lo
    k = max(k_lo, max_valley_run_at_height(path, top - 1) + 2)
    return (top, k) if k <= k_hi else (top + 1, k_lo)


def _assert_blocks_hold_their_cells(h_lo, h_hi, k_lo, k_hi, n):
    """Every block's (hm, km) is its paths' least cell, and the blocks make up the whole tree."""
    levels: list[list[int]] = [[] for _ in range(n + 1)]
    for m, hm, km, block in eco._walk(h_lo, h_hi, k_lo, k_hi, n):
        assert h_lo <= hm <= h_hi and k_lo <= km <= k_hi
        for bits in block:
            assert _least_cell(bits, h_lo, k_lo, k_hi) == (hm, km), (h_lo, h_hi, k_lo, k_hi, m, bits)
        levels[m].extend(block)
    whole = walked_levels(ClassParams(h_hi, k_hi), n)
    assert [sorted(level) for level in levels] == [sorted(level) for level in whole]


def _assert_grids_match_dp(h_lo, h_hi, nmaxes):
    brute = {(h, k): brute_counts_upto(ClassParams(h, k), max(nmaxes))
             for h in range(h_lo, h_hi + 1) for k in range(2, 7)}
    for k_lo, k_hi in K_RANGES:
        for nmax in nmaxes:
            want = [[brute[h, k][:nmax + 1] for k in range(k_lo, k_hi + 1)]
                    for h in range(h_lo, h_hi + 1)]
            assert grid_totals_upto(h_lo, h_hi, k_lo, k_hi, nmax) == want, (k_lo, k_hi, nmax)


def _built_by_the_count(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax) -> tuple[list, list]:
    """((depth, h, k, first h + 2k - 4 steps), paths), sorted, of every state whose child counts
    ``grid_totals_upto`` reads, and the depths of the children ``_grow`` builds for them.  A
    merged state comes as a dict of its paths; a whole path counts one."""
    child_counts, grow, read, grown = eco._child_counts, eco._grow, [], []

    def reading(block, n2, h, k):
        read.extend(((n2 // 2, h, k, bits >> max(n2 - (h + 2 * k - 4), 0)),
                     block[bits] if isinstance(block, dict) else 1) for bits in block)
        return child_counts(block, n2, h, k)

    def growing(block, n2, *args):
        kids = grow(block, n2, *args)
        grown.extend(n2 // 2 + 1 for _ in kids)
        return kids

    with monkeypatch.context() as patch:
        patch.setattr(eco, "_child_counts", reading)
        patch.setattr(eco, "_grow", growing)
        grid_totals_upto(h_lo, h_hi, k_lo, k_hi, nmax)
    return sorted(read), grown


def _to_build(walked: list, nmax: int) -> list:
    """The paths the count must build to depth nmax, from the walk's ``(m, h, k, bits)``: the
    root, and each path at a depth m in 1 .. nmax-1 whose up-run u and least cell (h, k) give
    u + nmax - m > h."""
    return [(m, h, k, bits) for m, h, k, bits in walked if m < nmax and (
        m == 0 or eco._up_run(bits, 2 * m) + nmax - m > h)]


def _merged(paths: list) -> list:
    """``paths`` as the count must read them: one state per depth, cell (h, k) and first
    h + 2k - 4 steps, the cell's window, with the number of paths it stands for, sorted."""
    return sorted(Counter((m, h, k, bits >> max(2 * m - (h + 2 * k - 4), 0))
                          for m, h, k, bits in paths).items())


def _walked(h_lo, h_hi, k_lo, k_hi, n) -> list:
    return [(m, h, k, bits) for m, h, k, block in eco._walk(h_lo, h_hi, k_lo, k_hi, n) for bits in block]


def _assert_no_work(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax):
    def no_work(*args):
        raise AssertionError("a child count was read")

    monkeypatch.setattr(eco, "_child_counts", no_work)
    with pytest.raises(ValueError):
        grid_totals_upto(h_lo, h_hi, k_lo, k_hi, nmax)


class TestColumns:
    """A grid of one h: one walk of the (h, k_hi) tree counts every k = k_lo..k_hi."""

    @pytest.mark.parametrize("h", range(1, 8))
    def test_every_block_holds_its_kmin(self, h):
        for k_lo, k_hi in K_RANGES:
            _assert_blocks_hold_their_cells(h, h, k_lo, k_hi, 9)

    @pytest.mark.parametrize("h", range(1, 9))
    def test_columns_match_dp(self, h):
        _assert_grids_match_dp(h, h, range(11))

    @pytest.mark.parametrize("h,k_lo,k_hi,nmax", [(0, 3, 4, 5), (4, 1, 4, 5), (4, 4, 3, 5),
                                                  (4, 3, 4, -1)])
    def test_errors_are_raised_before_any_work(self, monkeypatch, h, k_lo, k_hi, nmax):
        _assert_no_work(monkeypatch, h, h, k_lo, k_hi, nmax)


class TestGrid:
    """Grids of several h: one walk of the (h_hi, k_hi) tree counts every cell."""

    @pytest.mark.parametrize("h_lo", range(1, 7))
    def test_every_block_holds_its_least_cell(self, h_lo):
        for h_hi in range(h_lo + 1, 8):
            for k_lo, k_hi in [(2, 2), (2, 4), (3, 5), (5, 6), (6, 6)]:
                _assert_blocks_hold_their_cells(h_lo, h_hi, k_lo, k_hi, 7)

    @pytest.mark.parametrize("h_lo", range(1, 8))
    def test_grids_match_dp(self, h_lo):
        for h_hi in range(h_lo + 1, 9):
            _assert_grids_match_dp(h_lo, h_hi, [0, 1, 2, 3, 9])

    def test_deep_grid_from_h1_k2_matches_dp(self):
        # h = 1 and k = 2, and at small depths saturated heads longer than the paths
        grid = grid_totals_upto(1, 7, 2, 6, 13)
        for h in range(1, 8):
            for k in range(2, 7):
                assert grid[h - 1][k - 2] == brute_counts_upto(ClassParams(h, k), 13), (h, k)

    def test_acceptance_grid_builds_the_largest_tree_once(self, monkeypatch):
        # the paths of the (7, 5) tree up to depth 11, where a walk per h built 268,257
        walked = _walked(4, 7, 3, 5, 11)
        assert len(walked) == 81_231
        assert sum(brute_counts_upto(ClassParams(7, 5), 11)) == 81_231
        # the count to n = 12 reads the paths that can reach a full run, each merged on its
        # cell's first h + 2k - 4 steps: 435 states for 17,721 paths
        read, _ = _built_by_the_count(monkeypatch, 4, 7, 3, 5, 12)
        assert read == _merged(_to_build(walked, 12))
        assert len(read) == 435
        assert sum(paths for _, paths in read) == 17_721

    @pytest.mark.parametrize("h_lo,h_hi,k_lo,k_hi", [(4, 4, 3, 3), (1, 3, 2, 4), (4, 7, 3, 5)])
    def test_count_builds_the_paths_that_can_reach_a_full_run(self, monkeypatch, h_lo, h_hi, k_lo, k_hi):
        """Exactly the paths of the tree clamped at nmax that can reach a full run before nmax are
        read, once per depth, cell and its window of first steps: no path at depth nmax is grown
        or read, and no child at a site below s0 is built."""
        for nmax in range(12):
            lo, hi = ClassParams(h_lo, k_lo).clamped(nmax), ClassParams(h_hi, k_hi).clamped(nmax)
            walked = _walked(lo.h, hi.h, lo.k, hi.k, 10)
            read, grown = _built_by_the_count(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax)
            assert read == _merged(_to_build(walked, nmax)), nmax
            assert all(depth < nmax for depth in grown), nmax

    def test_every_window_is_tight(self, monkeypatch):
        """One step shorter, any one cell's window, or all of them, miscounts the acceptance grid."""
        cells = [(h, k) for h in range(4, 8) for k in range(3, 6)]
        want = [[brute_counts_upto(ClassParams(h, k), 12) for k in range(3, 6)] for h in range(4, 8)]
        for short in [[cell] for cell in cells] + [cells]:
            monkeypatch.setattr(eco, "_window", lambda h, k: h + 2 * k - 4 - ((h, k) in short))
            assert grid_totals_upto(4, 7, 3, 5, 12) != want, short

    def test_far_past_the_cap_the_count_matches_dp(self):
        grid = grid_totals_upto(4, 7, 3, 5, 30)
        for h in range(4, 8):
            for k in range(3, 6):
                assert grid[h - 4][k - 3] == brute_counts_upto(ClassParams(h, k), 30), (h, k)
        assert tree_totals_upto(ClassParams(7, 5), 60) == brute_counts_upto(ClassParams(7, 5), 60)

    def test_states_grow_linearly_past_saturation(self, monkeypatch):
        # at (7, 5), L = 13: past depth 7 each depth adds the same 1,560 states
        read = [len(_built_by_the_count(monkeypatch, 7, 7, 5, 5, nmax)[0]) for nmax in (20, 40, 60)]
        assert read == [11_708, 42_908, 74_108]
        assert read[2] - read[1] == read[1] - read[0] == 20 * 1_560

    def test_merging_does_not_depend_on_block(self, monkeypatch):
        read, _ = _built_by_the_count(monkeypatch, 4, 7, 3, 5, 12)
        monkeypatch.setattr(eco, "BLOCK", 3)
        assert _built_by_the_count(monkeypatch, 4, 7, 3, 5, 12)[0] == read
        grid = grid_totals_upto(4, 7, 3, 5, 12)
        for h in range(4, 8):
            for k in range(3, 6):
                assert grid[h - 4][k - 3] == brute_counts_upto(ClassParams(h, k), 12), (h, k)

    @pytest.mark.parametrize("h_lo", range(1, 8))
    def test_grids_match_the_walk(self, h_lo):
        """Per depth and per cell, the running sums over the chain of the walk's blocks."""
        for h_hi in range(h_lo, h_lo + 3):
            for k_lo in range(2, 6):
                for k_hi in range(k_lo, k_lo + 3):
                    chain = [(h, k) for h in range(h_lo, h_hi + 1) for k in range(k_lo, k_hi + 1)]
                    walked = Counter()
                    for m, hm, km, block in eco._walk(h_lo, h_hi, k_lo, k_hi, 10):
                        walked[hm, km, m] += len(block)
                    sums = [list(accumulate(walked[h, k, m] for h, k in chain)) for m in range(11)]
                    for nmax in [0, 1, 2, 3, 4, 5, 7, 10]:
                        grid = grid_totals_upto(h_lo, h_hi, k_lo, k_hi, nmax)
                        assert [grid[h - h_lo][k - k_lo] for h, k in chain] == \
                            [[sums[m][i] for m in range(nmax + 1)] for i in range(len(chain))], \
                            (h_hi, k_lo, k_hi, nmax)

    def test_huge_grid_shares_the_clamped_rows(self):
        tracemalloc.start()
        try:
            grid = grid_totals_upto(4, 200_000, 3, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert len(grid) == 199_997 and grid[0] == [[1, 1, 2, 5]]
        assert all(rows is grid[0] for rows in grid)  # h_lo = 4 is already the clamp, n + 1
        grid = grid_totals_upto(1, 10, 2, 10, 3)  # clamped at (4, 5)
        assert all(grid[h - 1] is grid[3] for h in range(5, 11))
        assert all(grid[h - 1][k - 2] is grid[h - 1][3] for h in range(1, 11) for k in range(6, 11))
        assert grid[3][3] == brute_counts_upto(ClassParams(4, 5), 3)

    def test_blocks_of_three_split_a_cells_list(self, monkeypatch):
        monkeypatch.setattr(eco, "BLOCK", 3)
        grid = grid_totals_upto(1, 5, 2, 4, 10)
        for h in range(1, 6):
            for k in range(2, 5):
                assert grid[h - 1][k - 2] == brute_counts_upto(ClassParams(h, k), 10), (h, k)

    @pytest.mark.parametrize("h_lo,h_hi,k_lo,k_hi,nmax", [
        (0, 3, 3, 4, 5), (5, 4, 3, 4, 5), (4, 5, 1, 4, 5), (4, 5, 4, 3, 5), (4, 5, 3, 4, -1)])
    def test_errors_are_raised_before_any_work(self, monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax):
        _assert_no_work(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax)


class TestClampWitness:
    """The real tree of every cell, walked at its unclamped bounds, against the clamped walk and
    count: to depth n no h past n+1 or k past n+2 changes a block or a count."""

    def test_grid_counts_the_real_tree_of_every_cell(self):
        grids = [grid_totals_upto(1, 9, 2, 9, nmax) for nmax in range(8)]
        for h in range(1, 10):
            for k in range(2, 10):
                real = Counter(m for m, _, _, block in eco._walk(h, h, k, k, 7) for _ in block)
                for nmax, grid in enumerate(grids):
                    assert grid[h - 1][k - 2] == [real[m] for m in range(nmax + 1)], (h, k, nmax)

    def test_walk_lists_the_real_tree_in_its_order(self):
        for h in range(1, 10):
            for k in range(2, 10):
                params = ClassParams(h, k)
                for n in range(8):
                    real = [(m, block) for m, _, _, block in eco._walk(h, h, k, k, n)]
                    assert list(walk(params, n)) == real, (h, k, n)


class _GrowthTree:
    """Depth n of the ECO tree, ranked and unranked without listing it.

    ``T[d][p]`` counts the paths d levels below a node at chain position p,
    summed over the paper's productions of its label (Nijenhuis–Wilf's
    recursive method).  Unranking descends with ``eco._grow`` on a block of
    one node and checks, at every node, that the children's labels read from
    their bits are the productions of the node's label; ranking climbs with
    ``invert_first_peak``.
    """

    def __init__(self, params: ClassParams, n: int):
        h, k = params.h, params.k
        chain = range(-1, h + k - 2)
        position = {eco._label_text(p, h): p for p in chain}
        assert len(position) == len(chain)
        self.productions = {p: [position[q] for q in _paper_successors(eco._label_text(p, h), h, k)]
                            for p in chain}
        self.T = [dict.fromkeys(chain, 1)]
        for _ in range(n):
            below = self.T[-1]
            self.T.append({p: sum(map(below.__getitem__, succ))
                           for p, succ in self.productions.items()})
        self.params, self.n = params, n

    def unrank(self, r: int) -> DyckPath:
        """The r-th path of depth n in walk order."""
        h, k, n = self.params.h, self.params.k, self.n
        bits, p = EMPTY_PATH.bits, 0
        for m in range(n):
            kids = eco._grow([bits], 2 * m, h, k)
            labels = [eco._label(c, 2 * m + 2, h, k) for c in kids]
            assert labels == self.productions[p], (m, bits)
            ends = list(accumulate(map(self.T[n - m - 1].__getitem__, labels)))
            i = bisect_right(ends, r)
            r -= ends[i - 1] if i else 0
            bits, p = kids[i], labels[i]
        path = DyckPath(bits)
        assert is_in_class(path, self.params)
        assert label_of(path, self.params) == eco._label_text(p, h)
        return path

    def rank(self, path: DyckPath) -> int:
        h, k = self.params.h, self.params.k
        r = 0
        for d in range(self.n):
            parent = invert_first_peak(path)
            i = eco._up_run(path.bits, 2 * path.semilength) - 1  # child i has up-run i+1
            siblings = self.productions[eco._label(parent.bits, 2 * parent.semilength, h, k)][:i]
            r += sum(map(self.T[d].__getitem__, siblings))
            path = parent
        return r


def _tail_changed(bits: int, params: ClassParams) -> int:
    """``bits`` with steps past the first W = h + 2k - 1 changed: one right-to-left sweep of
    UD <-> DU swaps, each kept when the path stays a class path, so a U can move back to step W."""
    n2, w = bits.bit_length(), params.h + 2 * params.k - 1
    for p in range(n2 - 2, w - 1, -1):
        pair = bits >> n2 - 2 - p & 0b11
        above_axis = 2 * (bits >> n2 - p).bit_count() > p  # the ordinate before step p is > 0
        if pair == 0b01 or pair == 0b10 and above_axis:  # DU -> UD, or UD -> DU above the axis
            swapped = bits ^ 0b11 << n2 - 2 - p
            if is_in_class(DyckPath(swapped), params):
                bits = swapped
    return bits


def _read_by_growth(bits: int, n2: int, h: int, k: int) -> list:
    """What growth reads of a path in every cell (hm, km) up to (h, k): the child count, and the
    cells and flips of the raised children (a child XOR its parent is UU and its site's flip)."""
    return [(eco._child_counts([bits], n2, hm, km),
             [(g_h, g_k, [kid ^ bits for kid in kids])
              for g_h, g_k, kids in eco._raised([bits], n2, hm, km, h, 2, k)])
            for hm in range(1, h + 1) for km in range(2, k + 1)]


class TestRankPastTheCap:
    """ECO evidence at depths no listing reaches."""

    @pytest.mark.parametrize("h,k,n", [(7, 5, 300), (64, 5, 300), (3, 9, 500)])
    def test_seeded_ranks_round_trip(self, h, k, n):
        params = ClassParams(h, k)
        tree = _GrowthTree(params, n)
        total = tree.T[n][0]
        assert total == brute_counts_upto(params, n)[n]
        rng = random.Random(1000 * h + k)
        for r in (rng.randrange(total) for _ in range(200)):
            assert tree.rank(tree.unrank(r)) == r

    def test_unrank_lists_the_walk_order(self):
        params = ClassParams(5, 4)
        tree = _GrowthTree(params, 10)
        level = [bits for m, block in walk(params, 10) if m == 10 for bits in block]
        assert len(level) == tree.T[10][0] == 13988
        assert [tree.unrank(r).bits for r in range(len(level))] == level

    @pytest.mark.parametrize("h,k", [(7, 5), (64, 5)])
    def test_steps_past_the_window_change_no_count(self, h, k):
        """The window is pinned: growth reads nothing past the first W = h + 2k - 1 steps."""
        params, n = ClassParams(h, k), 300
        tree = _GrowthTree(params, n)
        total = tree.T[n][0]
        # a saturated head and a full run that is not saturated, then seeded ranks
        heads = ["U" * h + "DU" * (k - 2) + "D" * h + "UD" * (n - h - k + 2),
                 "U" * h + "D" * h + "UD" * (n - h)]
        rng = random.Random(1000 * h + k)
        ranks = [*(tree.rank(parse_path(word)) for word in heads), 0, total - 1,
                 *(rng.randrange(total) for _ in range(20))]
        for r in ranks:
            bits = tree.unrank(r).bits
            changed = _tail_changed(bits, params)
            assert changed != bits and (changed ^ bits) >> 2 * n - (h + 2 * k - 1) == 0, r
            assert is_in_class(DyckPath(changed), params)
            assert _read_by_growth(changed, 2 * n, h, k) == _read_by_growth(bits, 2 * n, h, k), r
