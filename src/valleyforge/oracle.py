"""Ground truth: exhaustive Dyck enumeration and a state DP over path prefixes.

Deliberately shares no code with the ECO engine or the series engine; this
module is the independent oracle the other routes are checked against.
``enumerate_dyck`` filtered by ``is_in_class`` is the literal exhaustive
certificate.  It lists every path as the join of a first half-word that
never dips below the axis and a second half that returns from the same
ordinate (Knuth, TAOCP 4A §7.2.1.6, in spirit), in the U-before-D order of
a backtracking search.  The counts come from a transfer-matrix walk over
path prefixes that merges the states the restriction cannot tell apart
(Stanley, EC1 §4.7; Flajolet-Sedgewick, Analytic Combinatorics §V.4).
Only the enumeration lists paths, so only it takes the semilength cap; the
DP is polynomial in n and runs to any n.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add

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

    Only ordinates h-1 and h see the restriction, so elsewhere a prefix is
    known by its ordinate: ``low[o]``, o <= h-1, where h-1 is reached by a U
    or is the start.  ``down[r]`` is h-1 just after a D from h, ``top[r]`` is
    h, with run r < k-1 adjacent DU factors at h-1 carried through the D
    from h.  Merged prefixes have the same continuations, so these h + 2k - 2
    states keep every count.  The DP runs at ``params.clamped(nmax)``, so
    huge bounds are free.
    """
    params = params.clamped(nmax)
    h, k = params.h, params.k
    low, down, top = [0] * h, [0] * (k - 1), [0] * (k - 1)
    low[0] = 1  # the empty prefix
    counts = [1]
    for step in range(1, 2 * nmax + 1):
        fall = low[-1] + sum(down)  # a D from h-1 lands on h-2, none at h = 1
        # A U from h-1 after a D lengthens the run; down[k-2] may not rise.
        low, top, down = ([*map(add, [0, *low[:-1]], [*low[1:-1], fall, 0][-h:])],
                          [low[-1], *down[:-1]], top)
        if step % 2 == 0:
            counts.append(low[0] + sum(down) if h == 1 else low[0])
    return counts
