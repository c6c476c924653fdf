"""The counting series as a continued fraction, built from its continuants alone.

Above level h-2 a path of height <= h holds only blocks (UD)^j at level h-1,
and a block holds j-1 adjacent valleys at h-1; valleys in different blocks
are never adjacent.  So the class is the set of height-<=h paths whose blocks
all have j <= k-1: Flajolet's continued fraction of depth h, with the last
level 1 + x + ... + x^{k-1} in place of 1/(1-x).  Its continuants are
c_{-1} = 1 - x^k, c_0 = 1 - x and c_j = c_{j-1} - x c_{j-2}, and
f = c_{h-2} / c_{h-1}.  With sign = (-1)^binom(h+1, 2) they give S, P and
every N_i; q_h + x^{k+1} q_{h-3} obeys the same recurrence in h from the same
two seeds, which carries the identities to every (h, k).  Nothing here comes
from ``eco`` or ``oracle``.
"""

from math import comb

import pytest

from valleyforge.paths import ClassParams
from valleyforge.series import build_S, closed_form_numerator, counting_numerator, f_series

CELLS = [(h, k) for h in range(1, 41) for k in range(2, 16)]


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _minus_x_times(a: list[int], b: list[int]) -> list[int]:
    """a - x b."""
    out = a + [0] * (len(b) + 1 - len(a))
    for j, c in enumerate(b, 1):
        out[j] -= c
    return _trim(out)


def _x_power(k: int) -> list[int]:
    return [0] * k + [1]


def _continuants(h: int, k: int, c_minus1: list[int], c0: list[int]) -> list[list[int]]:
    """[c_{-1}, c_0, ..., c_{h-1}] from the two seeds."""
    cs = [c_minus1, c0]
    while len(cs) < h + 1:
        cs.append(_minus_x_times(cs[-1], cs[-2]))
    return cs


def _seeds(k: int) -> tuple[list[int], list[int]]:
    return _trim([1] + [0] * (k - 1) + [-1]), [1, -1]  # 1 - x^k, 1 - x


def _times(sign: int, shift: int, p: list[int]) -> list[int]:
    """sign * x^shift * p."""
    return [0] * shift + [sign * c for c in p]


def _mismatches(seeds) -> list[tuple]:
    """The cells and identities where the continuants built from ``seeds(k)`` miss S, P or N_i."""
    bad = []
    for h, k in CELLS:
        c = _continuants(h, k, *seeds(k))  # c[j + 1] is c_j
        sign = (-1) ** comb(h + 1, 2)
        if build_S(h, k) != _times(sign, 0, c[h]):
            bad.append((h, k, "S"))
        if counting_numerator(h, k) != _times(sign, 0, c[h - 1]):
            bad.append((h, k, "P"))
        params = ClassParams(h, k)
        for i in range(1, h + 1):
            want = _trim([1, -2] + [0] * (k - 2) + [1]) if i == h - 1 else c[h - i + 1]
            if closed_form_numerator(params, i) != _times(sign, i - 1, want):
                bad.append((h, k, i))
    return bad


class TestContinuants:
    def test_give_S_P_and_every_N_i(self):
        assert _mismatches(_seeds) == []

    @pytest.mark.parametrize("wrong", [
        lambda k: (_trim([1] + [0] * k + [-1]), [1, -1]),
        lambda k: (_seeds(k)[0], [1]),
    ], ids=["c_-1=1-x^(k+1)", "c_0=1"])
    def test_a_wrong_seed_fails(self, wrong):
        assert _mismatches(wrong)

    @pytest.mark.parametrize("h,k", [(1, 2), (1, 5), (2, 2), (4, 3), (7, 5), (64, 5)])
    def test_the_fraction_expands_to_the_counting_series(self, h, k):
        order = 60
        c = _continuants(h, k, *_seeds(k))
        num, den = c[h - 1], c[h]  # c_{h-2}, c_{h-1}; den starts with 1
        coeffs = []
        for n in range(order + 1):
            s = num[n] if n < len(num) else 0
            coeffs.append(s - sum(den[j] * coeffs[n - j] for j in range(1, min(n, len(den) - 1) + 1)))
        assert tuple(coeffs) == f_series(ClassParams(h, k), order).coeffs
