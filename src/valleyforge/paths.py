"""Dyck path representation, structural predicates, and Catalan numbers.

A Dyck path is stored as a packed bit sequence: U = 1, D = 0, first step in
the most significant position.  The canonical text form is an uppercase
'U'/'D' string with no separators; that string is the wire format used by
every other module and by the CLI.  The predicates (height, valley runs,
class membership) read the bits and never render the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BadSymbol, NegativePrefix, UnbalancedWord


@dataclass(frozen=True, order=False, slots=True)
class DyckPath:
    """Immutable balanced U/D step sequence with nonnegative prefixes.

    ``bits`` packs the 2*semilength steps (U=1, D=0, first step most
    significant).  The constructor trusts its arguments; use
    :func:`parse_path` to build a path from untrusted text.
    """

    bits: int
    semilength: int

    @property
    def word(self) -> str:
        n2 = 2 * self.semilength
        if n2 == 0:
            return ""
        return format(self.bits, f"0{n2}b").replace("1", "U").replace("0", "D")

    def __str__(self) -> str:
        return self.word


EMPTY_PATH = DyckPath(0, 0)


@dataclass(frozen=True)
class ClassParams:
    """The pair (h, k): height bound h, valley-run bound k.

    Paths in the class have height at most h and never contain k-1
    consecutive valleys at height h-1.
    """

    h: int
    k: int

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


def parse_path(word: str) -> DyckPath:
    """Parse an uppercase 'U'/'D' word into a validated DyckPath."""
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
    return DyckPath(bits, len(word) // 2)


def _byte_steps(byte: int) -> tuple[int, int]:
    """(net change, highest ordinate reached) over the eight steps of ``byte``."""
    o = top = 0
    for i in range(7, -1, -1):
        o += 1 if byte >> i & 1 else -1
        top = max(top, o)
    return o, top


# Eight steps at a time, first step in the most significant bit.
_BYTE_STEPS = tuple(_byte_steps(b) for b in range(256))


def height(path: DyckPath) -> int:
    """Maximum ordinate reached by the path."""
    n2 = 2 * path.semilength
    pad = -n2 % 8  # trailing D steps fill the last byte and cannot raise the maximum
    best = o = 0
    for byte in (path.bits << pad).to_bytes((n2 + pad) // 8, "big"):
        net, top = _BYTE_STEPS[byte]
        if o + top > best:
            best = o + top
        o += net
    return best


def _valleys(bits: int, n2: int) -> int:
    """DU mask of a path of ``n2`` steps: bit p set when step p is D and the next is U.

    Steps are numbered by bit position, as in ``DyckPath.bits``.  A (DU)^m
    factor is a run of m set bits at stride 2.
    """
    return ~bits & (bits << 1) & ((1 << n2) - 1)


def max_valley_run_at_height(path: DyckPath, y: int) -> int:
    """Longest run of adjacent DU factors whose D steps all end at ordinate y.

    A valley is a DU factor; its height is the ordinate where the D lands.
    Runs must be literally adjacent in the step string, i.e. a (DU)^m factor.
    Every valley of a run sits at the same height, so each maximal run is
    placed once, by a popcount of the steps before it.
    """
    bits = path.bits
    n2 = 2 * path.semilength
    du = _valleys(bits, n2)
    best = 0
    while du:
        p = du.bit_length() - 1  # the run's first D
        q = p - 2
        while q >= 0 and du >> q & 1:
            q -= 2
        run = (p - q) // 2
        if run > best and 2 * (bits >> (p + 1)).bit_count() - (n2 - 1 - p) - 1 == y:
            best = run
        du &= (1 << (q + 2)) - 1  # drop the run; bit q+1 is a U, never in the mask
    return best


def is_in_class(path: DyckPath, params: ClassParams) -> bool:
    """True iff the path has height <= h and valley-run at h-1 <= k-2."""
    if height(path) > params.h:
        return False
    # Bit p survives when a (DU)^(k-1) factor ends with the DU at p; none at
    # all means no forbidden run at any height.
    du = _valleys(path.bits, 2 * path.semilength)
    runs = du
    for s in range(2, 2 * (params.k - 1), 2):
        runs &= du >> s
    return not runs or max_valley_run_at_height(path, params.h - 1) <= params.k - 2


def catalan(n: int) -> int:
    """n-th Catalan number binom(2n, n) / (n + 1), computed exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)


def catalan_upto(n: int) -> list[int]:
    """Catalan numbers C_0..C_n from C_{m+1} = C_m * 2(2m+1) / (m+2), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = [1]
    for m in range(n):
        table.append(table[-1] * 2 * (2 * m + 1) // (m + 2))
    return table


def height_denominator(h: int) -> list[int]:
    """Coefficients of q_h(x) = sum_j (-1)^j binom(h+1-j, j) x^j, constant term first.

    q_h is the denominator of the generating function of Dyck paths of height
    <= h (de Bruijn, Knuth and Rice 1972).  The sum also gives the values the
    three-term recurrence q_h = q_{h-1} - x q_{h-2} takes below h = 0
    (Flajolet 1980): q_{-1} = 1 and q_{-2} = 0, the empty list.
    """
    return [(-1) ** j * comb(h + 1 - j, j) for j in range((h + 1) // 2 + 1)]
