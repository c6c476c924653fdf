"""Ground truth: exhaustive Dyck enumeration and a state DP over path prefixes.

Deliberately shares no code with the ECO engine or the series engine; this
module is the independent oracle the other routes are checked against.
``enumerate_dyck`` filtered by ``is_in_class`` is the literal exhaustive
certificate.  It lists every path as the join of a first half-word that
never dips below the axis and a second half that returns from the same
ordinate (Knuth, TAOCP 4A §7.2.1.6, in spirit), in the U-before-D order of
a backtracking search.  The counts come from a transfer-matrix walk over
the same prefix state a pruned backtracking search would carry (Stanley,
EC1 §4.7).
Only the enumeration lists paths, so only it takes the semilength cap; the
DP is polynomial in n and runs to any n.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import CapExceeded
from .paths import ClassParams, DyckPath, parse_path

DEFAULT_CAP = 14

_MIRROR = str.maketrans("UD", "DU")


def check_cap(n: int, cap: int) -> None:
    """Refuse a negative semilength, or one above ``cap``, before any paths are listed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_dyck(n: int, cap: int = DEFAULT_CAP) -> list[DyckPath]:
    """All unrestricted Dyck paths of semilength n, in descending word order (U before D).

    A path is a first half of n steps that never dips below the axis, ending
    at some ordinate o, joined to a second half that runs from o back to the
    axis.  The second halves ending at o are the first halves ending at o,
    reversed, with U and D swapped.  Both lists are built once; each path is
    one join, parsed once.
    """
    check_cap(n, cap)
    firsts = [("", 0)]  # (half-word, end ordinate), descending
    for _ in range(n):
        firsts = [(w + s, o + d) for w, o in firsts
                  for s, d in (("U", 1), ("D", -1)) if o + d >= 0]
    seconds: defaultdict[int, list[str]] = defaultdict(list)
    for w, o in firsts:
        seconds[o].append(w[::-1].translate(_MIRROR))
    for ends in seconds.values():
        ends.sort(reverse=True)
    return [parse_path(a + b) for a, o in firsts for b in seconds[o]]


def brute_counts_upto(params: ClassParams, nmax: int) -> list[int]:
    """Class counts for every semilength 0..nmax, one step of the prefix at a time.

    A prefix state is (ordinate, last step was D, run), where run counts the
    adjacent DU factors at height h-1 ending at the current position and is
    carried through a D from height h.  The count at semilength n is the
    number of prefixes of length 2n back on the axis.
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


def brute_count(params: ClassParams, n: int) -> int:
    """Number of class paths of semilength n."""
    return brute_counts_upto(params, n)[n]
