"""Ground truth: exhaustive Dyck enumeration and a state DP over path prefixes.

Deliberately shares no code with the ECO engine or the series engine; this
module is the independent oracle the other routes are checked against.
``enumerate_dyck`` filtered by ``is_in_class`` is the literal exhaustive
certificate; the counts come from a transfer-matrix walk over the same
prefix state a pruned backtracking search would carry (Stanley, EC1 §4.7).
Only the enumeration lists paths, so only it takes the semilength cap; the
DP is polynomial in n and runs to any n.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import CapExceeded
from .paths import ClassParams, DyckPath, parse_path

DEFAULT_CAP = 14


def check_cap(n: int, cap: int) -> None:
    """Refuse a negative semilength, or one above ``cap``, before any paths are listed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_dyck(n: int, cap: int = DEFAULT_CAP) -> list[DyckPath]:
    """All unrestricted Dyck paths of semilength n, by prefix backtracking."""
    check_cap(n, cap)
    out: list[DyckPath] = []

    def extend(prefix: str, ups: int, downs: int) -> None:
        if downs == n:
            out.append(parse_path(prefix))
            return
        if ups < n:
            extend(prefix + "U", ups + 1, downs)
        if downs < ups:
            extend(prefix + "D", ups, downs + 1)

    extend("", 0, 0)
    return out


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
