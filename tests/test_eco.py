from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from valleyforge import eco
from valleyforge.eco import (
    BLOCK,
    EcoLabel,
    children,
    generate,
    invert_first_peak,
    label_of,
    rule_counts,
    rule_totals_upto,
    tree_totals_upto,
    walk,
)
from valleyforge.errors import EmptyPath, NotInClass
from valleyforge.oracle import brute_counts_upto, enumerate_dyck
from valleyforge.paths import EMPTY_PATH, ClassParams, DyckPath, is_in_class, parse_path

H4K3 = ClassParams(4, 3)


def walked_levels(params: ClassParams, n: int) -> list[list[int]]:
    """The walk's blocks concatenated per depth, in walk order; checks every block's size."""
    out: list[list[int]] = [[] for _ in range(n + 1)]
    for m, block in walk(params, n):
        assert len(block) <= BLOCK * params.h
        out[m].extend(block)
    return out


@st.composite
def supported_params(draw):
    """(h, k) pairs with h <= 7 and k <= 6."""
    return ClassParams(draw(st.integers(1, 7)), draw(st.integers(2, 6)))


class TestLabelOf:
    def test_axiom(self):
        assert label_of(EMPTY_PATH, H4K3) == EcoLabel.num(1)

    def test_single_peak(self):
        assert label_of(parse_path("UD"), H4K3) == EcoLabel.num(2)

    def test_saturated_run_gets_h_minus_one(self):
        # U^4 (DU) D^4: one valley at height 3 = k-2, so label (h-1) = (3)
        p = parse_path("UUUUDUDDDD")
        assert label_of(p, H4K3) == EcoLabel.num(3)
        assert len(children(p, H4K3)) == 3

    def test_full_run_no_valley(self):
        assert label_of(parse_path("UUUUDDDD"), H4K3) == EcoLabel.hdx(0)

    def test_indexed_label_k4(self):
        params = ClassParams(4, 4)
        assert label_of(parse_path("UUUUDUDDDD"), params) == EcoLabel.hdx(1)

    def test_k2_full_run(self):
        params = ClassParams(4, 2)
        assert label_of(parse_path("UUUUDDDD"), params) == EcoLabel.num(3)

    def test_rejects_out_of_class(self):
        with pytest.raises(NotInClass):
            label_of(parse_path("UUUUUDDDDD"), H4K3)

    def test_wrap_label_at_h1_and_h2(self):
        # h = 1, k = 3: (UD)^2 has the most valleys at height 0; its label is (0)
        p = parse_path("UDUD")
        assert str(label_of(p, ClassParams(1, 3))) == "(0)"
        assert children(p, ClassParams(1, 3)) == []
        # h = 2, k = 3: a valley at height 1 after the full run goes back to the root's label
        p = parse_path("UUDUDD")
        assert label_of(p, ClassParams(2, 3)) == EcoLabel.num(1)
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
        for n in range(9):
            for p in generate(H4K3, n):
                label = label_of(p, H4K3)
                assert len(children(p, H4K3)) == label.child_count(H4K3.h)


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
        assert rule_counts(H4K3, 0) == {EcoLabel.num(1): 1}

    def test_first_step(self):
        assert rule_counts(H4K3, 1) == {EcoLabel.num(2): 1}

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
            hist: dict[EcoLabel, int] = {}
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
            {EcoLabel.num(1): 1}, {EcoLabel.hdx(0): 1}, {EcoLabel.num(0): 1}, {}]
        assert rule_totals_upto(params, 5) == [1, 1, 1, 0, 0, 0]

    @pytest.mark.parametrize("params", [H4K3, ClassParams(3, 2), ClassParams(6, 5),
                                        ClassParams(1, 4), ClassParams(2, 3)])
    def test_sweeps_match_per_n_counts(self, params):
        assert rule_totals_upto(params, 8) == [rule_counts(params, n).total() for n in range(9)]
        # At a fixed semilength, bit order is word order.
        assert [sorted(level) for level in walked_levels(params, 8)] == [
            [p.bits for p in generate(params, n)] for n in range(9)]
        assert tree_totals_upto(params, 8) == rule_totals_upto(params, 8)


def _paper_successors(label: EcoLabel, h: int, k: int) -> list[EcoLabel]:
    """The paper's four productions, written out label by label."""
    num, hdx = EcoLabel.num, EcoLabel.hdx
    full = [num(i) for i in range(2, h + 1)]
    if label.kind == "num" and label.index < h:  # (l) -> (2) .. (l+1)
        return [num(i) for i in range(2, label.index + 2)]
    if label == num(h) and k >= 3:  # (h) -> (2) .. (h) (h_0)
        return full + [hdx(0)]
    if label.kind == "hdx" and label.index < k - 3:  # (h_j) -> (2) .. (h) (h_{j+1})
        return full + [hdx(label.index + 1)]
    return full + [num(h - 1)]  # (h_{k-3}), or (h) when k = 2 -> (2) .. (h) (h-1)


class TestRuleAgainstPaperProductions:
    @pytest.mark.parametrize("h,k", [(h, k) for k in range(2, 8) for h in range(1, 10)])
    def test_label_multiplicities(self, h, k):
        params = ClassParams(h, k)
        counts = Counter({EcoLabel.num(1): 1})
        for n in range(41):
            assert rule_counts(params, n) == counts, n
            nxt: Counter[EcoLabel] = Counter()
            for label, mult in counts.items():
                for succ in _paper_successors(label, h, k):
                    nxt[succ] += mult
            counts = nxt


SUPPORTED = [(h, k) for k in range(2, 7) for h in range(1, 8)]


def _assert_each_level_is_children_of_the_previous(params: ClassParams, n: int) -> None:
    previous = None
    for m, level in enumerate(walked_levels(params, n)):
        if m:
            kids = [c for bits in previous for c in children(DyckPath(bits, m - 1), params)]
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


class TestTreeTotals:
    """tree_totals_upto counts the last depth from its parents' labels, without building it."""

    @pytest.mark.parametrize("h,k,nmax", [(h, k, 9) for h, k in SUPPORTED] + [(7, 5, 12)])
    def test_leaf_count_equals_the_built_level(self, h, k, nmax):
        params = ClassParams(h, k)
        for n in range(nmax + 1):
            assert tree_totals_upto(params, n) == [len(level) for level in walked_levels(params, n)]

    @pytest.mark.parametrize("h,k", [(4, 3), (7, 5)])
    def test_matches_dp_at_the_cap(self, h, k):
        params = ClassParams(h, k)
        assert tree_totals_upto(params, 14) == brute_counts_upto(params, 14)

    def test_small_nmax(self):
        assert tree_totals_upto(H4K3, 0) == [1]
        assert tree_totals_upto(H4K3, 1) == [1, 1]

    @pytest.mark.parametrize("nmax", [-1])
    def test_errors_are_raised_before_any_work(self, monkeypatch, nmax):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(eco, "_walk", no_walk)
        with pytest.raises(ValueError):
            tree_totals_upto(H4K3, nmax)
