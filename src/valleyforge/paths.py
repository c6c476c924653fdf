"""Dyck path representation, structural predicates, and Catalan numbers.

A Dyck path is stored as a packed bit sequence: U = 1, D = 0, first step in
the most significant position.  The canonical text form is an uppercase
'U'/'D' string with no separators; that string is the wire format used by
every other module and by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BadSymbol, NegativePrefix, UnbalancedWord, UnsupportedParams


@dataclass(frozen=True, order=False)
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

    @property
    def eco_supported(self) -> bool:
        """True iff the ECO operator / succession rule applies to (h, k)."""
        return (self.k == 2 and self.h >= 3) or (self.k >= 3 and self.h >= 4)

    def require_eco_supported(self) -> None:
        """Raise UnsupportedParams unless the ECO routes and series apply."""
        if not self.eco_supported:
            raise UnsupportedParams(
                f"(h={self.h}, k={self.k}) is outside the supported range: "
                "need k=2 with h>=3, or k>=3 with h>=4"
            )


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


def height(path: DyckPath) -> int:
    """Maximum ordinate reached by the path."""
    best = 0
    o = 0
    for ch in path.word:
        o += 1 if ch == "U" else -1
        if o > best:
            best = o
    return best


def max_valley_run_at_height(path: DyckPath, y: int) -> int:
    """Longest run of adjacent DU factors whose D steps all end at ordinate y.

    A valley is a DU factor; its height is the ordinate where the D lands.
    Runs must be literally adjacent in the step string, i.e. a (DU)^m factor.
    """
    word = path.word
    best = 0
    run = 0
    o = 0
    i = 0
    n2 = len(word)
    while i < n2:
        if word[i] == "D" and o - 1 == y and i + 1 < n2 and word[i + 1] == "U":
            run += 1
            if run > best:
                best = run
            i += 2  # consume the DU pair; o is unchanged
        else:
            run = 0
            o += 1 if word[i] == "U" else -1
            i += 1
    return best


def is_in_class(path: DyckPath, params: ClassParams) -> bool:
    """True iff the path has height <= h and valley-run at h-1 <= k-2."""
    if height(path) > params.h:
        return False
    return max_valley_run_at_height(path, params.h - 1) <= params.k - 2


def catalan(n: int) -> int:
    """n-th Catalan number binom(2n, n) / (n + 1), computed exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return comb(2 * n, n) // (n + 1)
