import copy
import itertools
import pickle
import random
import re
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, strategies as st

from valleyforge import eco
from valleyforge.errors import BadSymbol, NegativePrefix, UnbalancedWord
from valleyforge.oracle import enumerate_dyck
from valleyforge.paths import (
    EMPTY_PATH,
    ClassParams,
    DyckPath,
    catalan,
    clamped_grid,
    height,
    is_in_class,
    max_valley_run_at_height,
    parse_path,
)


def random_dyck_words(max_semilength=8):
    """Strategy producing valid Dyck words via ballot-sequence construction."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_semilength))
        word = []
        ups = downs = 0
        for _ in range(2 * n):
            can_up = ups < n
            can_down = downs < ups
            if can_up and can_down:
                step = draw(st.sampled_from("UD"))
            elif can_up:
                step = "U"
            else:
                step = "D"
            word.append(step)
            if step == "U":
                ups += 1
            else:
                downs += 1
        return "".join(word)

    return build()


def word_reference(word):
    """(height, {y: longest (DU)^m factor whose D steps land at y}) from the step string."""
    ordinates = [0]
    for c in word:
        ordinates.append(ordinates[-1] + (1 if c == "U" else -1))
    runs = {}
    for m in re.finditer("(?:DU)+", word):
        y = ordinates[m.start() + 1]
        runs[y] = max(runs.get(y, 0), len(m.group()) // 2)
    return max(ordinates), runs


def class_reference(word, h, k):
    top, runs = word_reference(word)
    return top <= h and runs.get(h - 1, 0) <= k - 2


class TestParse:
    def test_empty_word(self):
        assert parse_path("") == EMPTY_PATH

    def test_uudd(self):
        p = parse_path("UUDD")
        assert p.semilength == 2
        assert height(p) == 2

    def test_negative_prefix(self):
        with pytest.raises(NegativePrefix):
            parse_path("UDDU")

    def test_unbalanced(self):
        with pytest.raises(UnbalancedWord):
            parse_path("UUD")

    def test_bad_symbol(self):
        with pytest.raises(BadSymbol):
            parse_path("UXDD")

    @given(random_dyck_words())
    def test_round_trip(self, word):
        assert parse_path(word).word == word

    def test_slotted_and_frozen(self):
        """Listings hold ~200k paths: no per-instance dict, fields still read-only."""
        p = parse_path("UUDD")
        assert not hasattr(p, "__dict__")
        with pytest.raises(FrozenInstanceError):
            p.bits = 0
        with pytest.raises(FrozenInstanceError):
            p.semilength = 3
        assert pickle.loads(pickle.dumps(p)) == copy.copy(p) == p

    def test_bits_is_the_only_field(self):
        """The semilength and the word are derived from the bits, never stored."""
        assert [f.name for f in fields(DyckPath)] == ["bits"]
        assert (DyckPath(0).word, DyckPath(0).semilength) == ("", 0)
        assert (DyckPath(0b1100).word, DyckPath(0b1100).semilength) == ("UUDD", 2)
        assert all(str(p) == p.word for p in (EMPTY_PATH, DyckPath(0b1100), DyckPath(0b110100)))
        assert repr(DyckPath(bits=0b1100)) == "DyckPath(bits=12)"
        assert DyckPath(bits=12) == DyckPath(12) != DyckPath(10)
        assert hash(DyckPath(12)) == hash(DyckPath(12)) == hash((12,))


def _parse_reference(word):
    """The per-character parser: one step per character, the first fault raised."""
    bits = 0
    balance = 0
    for i, ch in enumerate(word):
        if ch == "U":
            bits = (bits << 1) | 1
            balance += 1
        elif ch == "D":
            bits = bits << 1
            balance -= 1
            if balance < 0:
                raise NegativePrefix(f"prefix {word[: i + 1]!r} dips below the axis")
        else:
            raise BadSymbol(f"unexpected character {ch!r} at position {i}")
    if balance != 0:
        raise UnbalancedWord(f"{word.count('U')} U steps vs {word.count('D')} D steps")
    return DyckPath(bits)


def _outcome(parse, word):
    """The bits of the parsed path, or the exception's type and message.

    Both parsers' semilengths are derived from the bits, so each is checked
    against the word itself, as is the word the path renders.
    """
    try:
        p = parse(word)
    except (BadSymbol, NegativePrefix, UnbalancedWord) as exc:
        return type(exc), str(exc)
    assert (p.semilength, p.word) == (len(word) // 2, word)
    return p.bits


class TestParseAgreesWithReference:
    @pytest.mark.parametrize("length", range(10))
    def test_every_short_word(self, length):
        for steps in itertools.product("UDX", repeat=length):
            word = "".join(steps)
            assert _outcome(parse_path, word) == _outcome(_parse_reference, word), word

    @pytest.mark.parametrize("word", [
        # int() or translate() would take these
        "U_D", " UD", "UD\n", "+UD", "ud", "U\u0661D",
        # 10,000 steps: past int()'s digit limit for decimal strings
        "U" * 5000 + "D" * 5000, "UD" * 5000,
        "U" * 4999 + "D" * 5000 + "U", "U" * 5000 + "D" * 4999 + "U",
    ], ids=lambda word: repr(word) if len(word) < 10 else f"long{len(word)}")
    def test_inputs_int_and_translate_accept(self, word):
        assert _outcome(parse_path, word) == _outcome(_parse_reference, word)


class TestHeight:
    @pytest.mark.parametrize("word,expected", [("UDUD", 1), ("UUDD", 2), ("", 0)])
    def test_examples(self, word, expected):
        assert height(parse_path(word)) == expected


    @given(random_dyck_words(max_semilength=40))
    def test_matches_word_reference(self, word):
        assert height(parse_path(word)) == word_reference(word)[0]


class TestValleyRun:
    def test_single_valley(self):
        assert max_valley_run_at_height(parse_path("UUDUDD"), 1) == 1

    def test_double_valley_at_three(self):
        # U^4 (DU)^2 D^4, checked against a naive substring scan below
        assert max_valley_run_at_height(parse_path("UUUUDUDUDDDD"), 3) == 2

    def test_no_valley(self):
        assert max_valley_run_at_height(parse_path("UUDD"), 1) == 0

    def test_broken_run_resets(self):
        # two valleys at height 1 separated by a peak: not adjacent
        p = parse_path("UUDUDDUUDUDD")
        assert max_valley_run_at_height(p, 1) == 1

    @given(random_dyck_words(), st.integers(0, 9))
    def test_matches_naive_scan(self, word, y):
        p = parse_path(word)
        # naive: for every index, extend (DU)* with D landing at y
        best = 0
        for start in range(len(word)):
            o = sum(1 if c == "U" else -1 for c in word[:start])
            run = 0
            i = start
            while i + 1 < len(word) and word[i] == "D" and word[i + 1] == "U" and o - 1 == y:
                run += 1
                i += 2
            best = max(best, run)
        assert max_valley_run_at_height(p, y) == best

    @given(random_dyck_words())
    def test_zero_above_height(self, word):
        p = parse_path(word)
        h = height(p)
        for y in range(h, h + 3):
            assert max_valley_run_at_height(p, y) == 0


class TestClassMembership:
    def test_in_class(self):
        assert is_in_class(parse_path("UUDD"), ClassParams(4, 3))

    def test_too_tall(self):
        assert not is_in_class(parse_path("UUUUUDDDDD"), ClassParams(4, 3))

    def test_forbidden_valley_run(self):
        assert not is_in_class(parse_path("UUUUDUDUDDDD"), ClassParams(4, 3))

    def test_k2_means_no_valley_at_top(self):
        p = parse_path("UUUDUDDD")  # one valley at height 2
        assert not is_in_class(p, ClassParams(3, 2))
        assert is_in_class(p, ClassParams(3, 3))


    @given(random_dyck_words(max_semilength=40), st.integers(1, 12), st.integers(2, 8))
    def test_matches_word_reference(self, word, h, k):
        assert is_in_class(parse_path(word), ClassParams(h, k)) == class_reference(word, h, k)


def _bounded_walk(rng: random.Random, n: int, h: int) -> DyckPath:
    """A seeded Dyck path of semilength n and height <= h, each free step a coin toss."""
    bits = o = 0
    for left in range(2 * n, 0, -1):
        up = o < h and o < left - 1 and (o == 0 or rng.random() < 0.5)
        bits = bits << 1 | up
        o += 1 if up else -1
    return DyckPath(bits)


class TestMembershipAgreesWithValleyRuns:
    """is_in_class against the word reference ``class_reference``, which reads the
    ordinates and the (DU)+ factors off the step string."""

    @pytest.mark.parametrize("n", range(11))
    def test_every_dyck_path(self, n):
        for p in enumerate_dyck(n):
            for h in range(1, 7):
                for k in range(2, 6):
                    assert is_in_class(p, ClassParams(h, k)) == class_reference(p.word, h, k)

    @pytest.mark.parametrize("h,k,n", [(7, 5, 300), (3, 9, 500)])
    def test_seeded_long_paths(self, h, k, n):
        rng = random.Random(1000 * h + k)
        seen = set()
        for _ in range(200):
            p = _bounded_walk(rng, n, h)
            member = is_in_class(p, ClassParams(h, k))
            assert member == class_reference(p.word, h, k)
            seen.add(member)
        assert seen == {True, False}  # both answers are checked

    def test_every_height_band(self):
        """Paths below h skip the valley-run scan, paths above h are out: all three bands."""
        bands = set()
        for n in range(10):
            for p in enumerate_dyck(n):
                top = height(p)
                for h in range(1, 12):
                    bands.add((top > h) - (top < h))
                    for k in range(2, 7):
                        assert is_in_class(p, ClassParams(h, k)) == class_reference(p.word, h, k)
        assert bands == {-1, 0, 1}  # paths below, at and above h are all checked


class TestPredicatesExhaustive:
    """Every Dyck path of semilength 0..9: all byte alignments of 2n steps."""

    @pytest.mark.parametrize("n", range(10))
    def test_match_word_reference(self, n):
        for p in enumerate_dyck(n):
            top, runs = word_reference(p.word)
            assert height(p) == top
            for y in range(-1, n + 2):
                assert max_valley_run_at_height(p, y) == runs.get(y, 0)
            for h in range(1, 8):
                for k in range(2, 7):
                    assert is_in_class(p, ClassParams(h, k)) == class_reference(p.word, h, k)


def test_predicates_never_render_the_word(monkeypatch):
    params = ClassParams(7, 5)
    paths = eco.generate(params, 9)
    expected = [(height(p), max_valley_run_at_height(p, 6), eco.label_of(p, params))
                for p in paths]

    def refuse(self):
        raise AssertionError("the word was rendered")

    monkeypatch.setattr(DyckPath, "word", property(refuse))
    got = [(height(p), max_valley_run_at_height(p, 6), eco.label_of(p, params)) for p in paths]
    assert got == expected
    assert all(is_in_class(p, params) for p in paths)


class TestClassParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassParams(0, 2)
        with pytest.raises(ValueError):
            ClassParams(3, 1)


class TestClampedGrid:
    # Inside the clamp; h_lo past n + 1; k_lo past n + 2; both ranges crossing it.
    @pytest.mark.parametrize("h_lo,h_hi,k_lo,k_hi,n,cells", [
        (2, 4, 2, 3, 5, [(h, k) for h in (2, 3, 4) for k in (2, 3)]),
        (7, 30, 3, 4, 5, [(6, 3), (6, 4)]),
        (2, 3, 9, 40, 5, [(2, 7), (3, 7)]),
        (1, 10, 2, 10, 3, [(h, k) for h in range(1, 5) for k in range(2, 6)]),
    ])
    def test_counts_each_clamped_cell_once(self, h_lo, h_hi, k_lo, k_hi, n, cells):
        calls, made = [], {}  # made: clamped cell -> the object count returned for it

        def count(cell):
            calls.append(cell)
            made[cell] = [cell]
            return made[cell]

        grid = clamped_grid(h_lo, h_hi, k_lo, k_hi, n, count)
        assert calls == [ClassParams(h, k) for h, k in cells]
        assert len(grid) == h_hi - h_lo + 1
        for h, row in enumerate(grid, h_lo):
            assert row is grid[max(min(h, n + 1), h_lo) - h_lo]  # an h past the clamp: its clamped h's list
            assert len(row) == k_hi - k_lo + 1
            assert all(value is made[ClassParams(h, k).clamped(n)] for k, value in enumerate(row, k_lo))


class TestCatalan:
    @pytest.mark.parametrize("n,expected", [(0, 1), (3, 5), (10, 16796)])
    def test_examples(self, n, expected):
        assert catalan(n) == expected

    def test_convolution(self):
        for n in range(31):
            assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)
