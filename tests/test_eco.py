import random
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


class TestTreeTotals:
    """tree_totals_upto counts the last depth from its parents' labels, without building it."""

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

    @pytest.mark.parametrize("nmax", [-1])
    def test_errors_are_raised_before_any_work(self, monkeypatch, nmax):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(eco, "_walk", no_walk)
        with pytest.raises(ValueError):
            tree_totals_upto(H4K3, nmax)


K_RANGES = [(k_lo, k_hi) for k_lo in range(2, 7) for k_hi in range(k_lo, 7)]


def _least_cell(bits: int, m: int, h_lo: int, k_lo: int, k_hi: int) -> tuple[int, int]:
    """The least cell (h, k) of the chain whose class holds the path, read from its valleys.

    A path of height H whose longest run of valleys at H-1 is r lies in the
    cells (H, k) with k >= r+2 and in every cell with h > H.
    """
    path = DyckPath(bits, m)
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
            assert _least_cell(bits, m, h_lo, k_lo, k_hi) == (hm, km), (h_lo, h_hi, k_lo, k_hi, m, bits)
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


def _assert_no_walk(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax):
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(eco, "_walk", no_walk)
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
        _assert_no_walk(monkeypatch, h, h, k_lo, k_hi, nmax)


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
            _assert_grids_match_dp(h_lo, h_hi, [0, 1, 2, 9])

    def test_acceptance_grid_builds_the_largest_tree_once(self):
        # the paths of the (7, 5) tree up to depth 11, where a walk per h built 268,257
        assert sum(len(block) for *_, block in eco._walk(4, 7, 3, 5, 11)) == 81_231
        assert sum(brute_counts_upto(ClassParams(7, 5), 11)) == 81_231

    @pytest.mark.parametrize("h_lo,h_hi,k_lo,k_hi,nmax", [
        (0, 3, 3, 4, 5), (5, 4, 3, 4, 5), (4, 5, 1, 4, 5), (4, 5, 4, 3, 5), (4, 5, 3, 4, -1)])
    def test_errors_are_raised_before_any_work(self, monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax):
        _assert_no_walk(monkeypatch, h_lo, h_hi, k_lo, k_hi, nmax)


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
        path = DyckPath(bits, n)
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
