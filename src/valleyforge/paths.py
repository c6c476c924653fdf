"""Dyck path representation, structural predicates, and Catalan numbers.

A Dyck path is an int whose value packs its steps: U = 1, D = 0, first step
in the most significant position; the semilength is half the bit length.
So a listed path is one object, and the predicates read it as the int
itself.  Modules pass these bit patterns; the uppercase 'U'/'D' word, with
no separators, is the form the CLI prints and ``parse_path`` reads.  The
predicates (height, valley runs, class membership) never render the word;
class membership of a path of height exactly h scans its valley runs at
h-1 with ``max_valley_run_at_height``.
"""

from __future__ import annotations

from math import comb

from .errors import BadSymbol, NegativePrefix, UnbalancedWord


class _Value:
    """Read-only slots, printed, compared, hashed and copied as the tuple of their values.

    The base of :class:`ClassParams` (a path is an int instead).  Each
    subclass lists its fields in ``__slots__`` and stores them through the
    slots' own setters.  Equality holds only between instances of one
    class.  Pickle and ``copy`` rebuild an instance through its constructor,
    since the slots refuse to be set.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class DyckPath(int):
    """Immutable balanced U/D step sequence with nonnegative prefixes.

    A path is an int whose value packs the steps (U=1, D=0, first step most
    significant), so each path is one object.  ``bits`` reads the value
    back as a plain int.  A nonempty path begins with U, so ``semilength``
    and ``word`` derive from ``bit_length()``.  The constructor trusts
    ``bits``; use :func:`parse_path` to build a path from untrusted text.

    A path equals only a path with the same bits, never a plain int, and
    hashes as ``(bits,)``.  From ``int`` it keeps ordering by bits, the
    arithmetic (whose results are plain ints), and falsehood of the empty
    path.
    """

    __slots__ = ()
    bits = property(int.__int__)
    semilength = property(lambda self: self.bit_length() >> 1)

    def __new__(cls, bits: int) -> DyckPath:
        return int.__new__(cls, bits)

    @property
    def word(self) -> str:
        return f"{self:b}".translate(_WORD) if self else ""

    def __str__(self) -> str:
        return self.word

    def __repr__(self) -> str:
        return f"DyckPath(bits={int(self)})"

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and int.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return other.__class__ is not self.__class__ or int.__ne__(self, other)

    def __hash__(self) -> int:
        return hash((int(self),))


EMPTY_PATH = DyckPath(0)

# Steps as text and as binary digits.
_WORD = str.maketrans("10", "UD")
_BITS = str.maketrans("UD", "10")


class ClassParams(_Value):
    """The pair (h, k): height bound h, valley-run bound k.

    Paths in the class have height at most h and never contain k-1
    consecutive valleys at height h-1.
    """

    __slots__ = ("h", "k")

    def __init__(self, h: int, k: int) -> None:
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        ClassParams.h.__set__(self, h)
        ClassParams.k.__set__(self, k)

    def clamped(self, n: int) -> ClassParams:
        """(min(h, n+1), min(k, n+2)), the bounds every route that counts or walks to n takes: a
        path of semilength <= n never reaches height n+1 or holds n valleys, so no larger h or k
        admits another path up to n."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return ClassParams(min(self.h, n + 1), min(self.k, n + 2))


def clamped_grid(h_lo: int, h_hi: int, k_lo: int, k_hi: int, n: int, count) -> list[list]:
    """``count(cell)`` for each (h, k) of the grid, indexed [h - h_lo][k - k_lo], called once per
    cell of ``ClassParams.clamped(n)``: a cell past the clamp holds its clamped cell's object, and
    an h past it its clamped h's list."""
    lo, hi = ClassParams(h_lo, k_lo).clamped(n), ClassParams(h_hi, k_hi).clamped(n)
    rows = ([count(ClassParams(h, k)) for k in range(lo.k, hi.k + 1)] for h in range(lo.h, hi.h + 1))
    grid = [[row[min(k, hi.k) - lo.k] for k in range(k_lo, k_hi + 1)] for row in rows]
    return [grid[min(h, hi.h) - lo.h] for h in range(h_lo, h_hi + 1)]


def parse_path(word: str) -> DyckPath:
    """Parse an uppercase 'U'/'D' word into a validated DyckPath."""
    n = word.count("U")
    n2 = len(word)
    if n + word.count("D") == n2 == 2 * n:  # only U and D, as many of each
        bits = int(word.translate(_BITS) or "0", 2)
        # No prefix dips below the axis: the mirror image never rises above it.
        if not _top(bits ^ ((1 << n2) - 1), n2):
            return DyckPath(bits)
    # A malformed word: walk it step by step to name its first fault.
    balance = 0
    for i, ch in enumerate(word):
        if ch == "U":
            balance += 1
        elif ch == "D":
            balance -= 1
            if balance < 0:
                raise NegativePrefix(f"prefix {word[: i + 1]!r} dips below the axis")
        else:
            raise BadSymbol(f"unexpected character {ch!r} at position {i}")
    raise UnbalancedWord(f"{word.count('U')} U steps vs {word.count('D')} D steps")


def _byte_steps(byte: int) -> tuple[int, int]:
    """(net change, highest ordinate reached) over the eight steps of ``byte``."""
    o = top = 0
    for i in range(7, -1, -1):
        o += 1 if byte >> i & 1 else -1
        top = max(top, o)
    return o, top


# Eight steps at a time, first step in the most significant bit.
_BYTE_STEPS = tuple(_byte_steps(b) for b in range(256))


def _top(bits: int, n2: int) -> int:
    """Highest ordinate reached by the ``n2`` steps packed in ``bits``."""
    pad = -n2 % 8  # trailing D steps fill the last byte and cannot raise the maximum
    best = o = 0
    for byte in (bits << pad).to_bytes((n2 + pad) // 8, "big"):
        net, top = _BYTE_STEPS[byte]
        if o + top > best:
            best = o + top
        o += net
    return best


def height(path: DyckPath) -> int:
    """Maximum ordinate reached by the path."""
    return _top(path, path.bit_length())


def max_valley_run_at_height(path: DyckPath, y: int) -> int:
    """Longest run of adjacent DU factors whose D steps all end at ordinate y.

    A valley is a DU factor; its height is the ordinate where the D lands.
    Runs must be literally adjacent in the step string, i.e. a (DU)^m factor.
    Every valley of a run sits at the same height, so each maximal run is
    placed once, by a popcount of the steps before it.
    """
    bits = path
    n2 = bits.bit_length()
    # Bit p is set when step p is D and the next step is U (steps numbered by
    # bit position): a (DU)^m factor is a run of m set bits at stride 2.
    du = ~bits & (bits << 1) & ((1 << n2) - 1)
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
    # A valley at h-1 is entered by a D from h, so only a path of height h can
    # hold a forbidden run: only such a path scans its valley runs at h-1.
    top = _top(path, path.bit_length())
    if top != params.h:
        return top < params.h
    return max_valley_run_at_height(path, params.h - 1) <= params.k - 2


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
    top = (h + 1) // 2
    coeffs = [1] * (top + 1)
    for j in range(top):  # the term ratio c_{j+1} / c_j, from c_0 = 1
        coeffs[j + 1] = -coeffs[j] * (h + 1 - 2 * j) * (h - 2 * j) // ((j + 1) * (h + 1 - j))
    return coeffs
