"""Exact polynomial / power-series algebra for the class generating function.

Builds the denominator polynomial family
S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}) from the
denominators q_h of height-bounded Dyck paths, assembles the almost
tridiagonal linear system for the component series F_1..F_h, solves it
order by order over the integers, and expands the single-variable
generating function whose n-th coefficient counts the class paths of
semilength n.  No entry of the system has degree above k-1, so the solve is
a linear recurrence of order k-1 on coefficient vectors: the solver keeps
only the last k-1 columns, so ``f_series`` takes O(h*k) working memory
besides its coefficients and ``components`` O(order) more.  Each F_i is
N_i / S, proved by exact substitution; f = P / S, P = ``counting_numerator``.

A polynomial is a plain list of integer coefficients, constant term first,
as in ``paths`` and ``identity`` and in the JSON form; the lists built here
end in a nonzero coefficient.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from math import comb
from operator import add, sub

from .paths import ClassParams, height_denominator


class TruncatedSeries:
    """Exact power series to a fixed order: its one slot, ``coeffs``, holds the
    order+1 known coefficients as given.  No arithmetic; ``_row_times`` multiplies lists."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)

    def coefficient(self, n: int) -> int:
        """Coefficient n, 0 for n < 0; past the order it is unknown, so refused."""
        if n >= len(self.coeffs):
            raise IndexError(f"coefficient {n} is past the order {len(self.coeffs) - 1}")
        return self.coeffs[n] if n >= 0 else 0

    def to_json(self) -> list[str]:
        """JSON form: decimal-string coefficients, constant term first."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "TruncatedSeries":
        return TruncatedSeries(int(c) for c in data)


def build_S(h: int, k: int) -> list[int]:
    """Denominator-family polynomial for height bound h and run bound k.

    S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}), q_h being the
    denominator for Dyck paths of height <= h (``height_denominator``), with
    q_{-1} = 1 and q_{-2} = 0.
    """
    ClassParams(h, k)  # refuses h < 1 and k < 2
    q, tail = height_denominator(h), height_denominator(h - 3)
    # x^{k+1} q_{h-3} has the higher degree (k >= 2); it is empty for h = 1
    s = q + [0] * (k + 1 + len(tail) - len(q)) if tail else q
    for j, c in enumerate(tail, start=k + 1):
        s[j] += c
    sign = (-1) ** comb(h + 1, 2)
    return [sign * c for c in s]


def counting_numerator(h: int, k: int) -> list[int]:
    """P = (-1)^h S(h-1, k), or -(1 - x^k) at h = 1: the counting series is P / S(h, k).

    Derived: f is a continued fraction of depth h, c_{h-2} / c_{h-1} for the continuants
    c_{-1} = 1 - x^k, c_0 = 1 - x, c_j = c_{j-1} - x c_{j-2}; S's q_h + x^{k+1} q_{h-3} has
    that recurrence in h and those seeds, so S and P are c_{h-1} and c_{h-2} times S's sign.
    """
    ClassParams(h, k)  # refuses h < 1 and k < 2
    return [(-1) ** h * c for c in build_S(h - 1, k)] if h > 1 else [-1, *[0] * (k - 1), 1]


def build_system(params: ClassParams) -> list[dict[int, list[int]]]:
    """The sparse rows of the polynomial system A F = b solved by (F_1, ..., F_h).

    Row i maps column j to A[i][j] and holds only the nonzero entries (at
    most four).  b is implicit: 1 in row 0 and 0 in every other row.
    F_i counts the class paths with label (i), and x^{j+1} F_h those with
    label (h_j).  Row structure (1-based): F_1 = 1; interior band rows
    x F_{i-1} - F_i + F_{i+1} = 0; row h-2 carries an extra -x^{k-1} F_h;
    row h-1 reads x F_{h-2} - F_{h-1} + (1 + x^{k-1}) F_h = 0; the last row
    is x F_{h-1} + (-1 + x + x^2 (1 + x + ... + x^{k-3})) F_h = 0.
    The x^{k-1} F_h terms are the last label going back to (h-1).  At
    h = 2 that is the root's label (1), so row 1 reads
    F_1 - x^{k-1} F_2 = 1 and there is no middle row; at h = 1 it is (0),
    no component, and the system is the one row F_1 = 1.
    At x = 0 the matrix is upper triangular with diagonal (1, -1, ..., -1).
    """
    h, k = params.h, params.k
    wrap = [0] * (k - 1) + [-1]
    rows = [{0: [1]}]
    for r in range(1, h - 2):
        rows.append({r - 1: [0, 1], r: [-1], r + 1: [1]})
    if h > 3:
        rows[h - 3][h - 1] = wrap
    if h > 2:
        rows.append({h - 3: [0, 1], h - 2: [-1], h - 1: [1] + [0] * (k - 2) + [1]})
    elif h > 1:
        rows[0][1] = wrap
    if h > 1:
        rows.append({h - 2: [0, 1], h - 1: [-1, 1] + [1] * (k - 2)})
    return rows


def _columns(params: ClassParams, order: int) -> Iterator[list[int]]:
    """The coefficient vectors (F_1[n], ..., F_h[n]) for n = 0, 1, ..., order.

    Splitting A = A0 + (higher powers of x), each vector is obtained by back
    substitution against the triangular constant matrix A0, whose diagonal
    entries are all +-1; everything stays integral.  Column n reads only the
    previous ``depth`` columns, depth being the highest degree of an entry,
    so only those are kept.  The order is checked here, before the first
    column.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = build_system(params)
    depth = max(len(a) for row in rows for a in row.values()) - 1
    # Per row, in back-substitution order: its index, whether its diagonal
    # entry is +1, its lagged terms (j, m, a_m) and its same-column terms
    # (j, a_0) with j > i, nonzero coefficients only.
    plan = [(i, rows[i][i][0] == 1,
             tuple((j, m, a[m]) for j, a in rows[i].items() for m in range(1, len(a)) if a[m]),
             tuple((j, a[0]) for j, a in rows[i].items() if j > i and a[0]))
            for i in range(len(rows) - 1, -1, -1)]
    return _solve(plan, len(rows), depth, order)


def _solve(plan, h: int, depth: int, order: int) -> Iterator[list[int]]:
    # Zero columns stand for the columns before n = 0.
    window = deque([[0] * h] * depth, maxlen=depth)
    for n in range(order + 1):
        vec = [0] * h
        for i, plus, lagged, same in plan:
            s = 1 if i == n == 0 else 0
            for j, m, a in lagged:
                s -= a * window[-m][j]
            for j, a in same:
                s -= a * vec[j]
            vec[i] = s if plus else -s
        window.append(vec)
        yield vec


def components(params: ClassParams, order: int) -> tuple[TruncatedSeries, Iterator[TruncatedSeries]]:
    """The counting series, and F_1..F_h made as they are read, from one back substitution.

    The solve keeps F_1, F_2 and F_h; band row ``build_system(params)[r]``, 1 <= r <= h-3, gives
    F_{r+2}[n] = F_{r+1}[n] - F_r[n-1], plus F_h[n-k+1] at r = h-3, the wrap -x^{k-1} F_h.
    """
    h = params.h
    held = {j: [] for j in (0, min(1, h - 1), h - 1)}  # component index -> coefficients
    def sweep(rows):
        for i in range(h):
            if i not in held:  # minus row i-1's other entries, each 0 or +-1, times their series
                held[i] = new = [0] * (order + 1)
                for j, a in rows[i - 1].items():
                    for m, c in enumerate(a):
                        if c and j != i:
                            new[m:] = map(sub if c == 1 else add, new[m:], held[j])
            held.pop(i - 2, None)  # F_{i-1}: rows past i-1 never read it
            yield TruncatedSeries(held[i])

    return _counts(params, _columns(params, order), held.items()), sweep(build_system(params))


def solve_series(params: ClassParams, order: int) -> list[TruncatedSeries]:
    """Unique power-series solution F_1..F_h of the system, to the given order."""
    return list(components(params, order)[1])


def _row_times(row: dict[int, list[int]], vectors: Sequence[Sequence[int]]) -> list[int]:
    """sum_j row[j] * vectors[j], multiplied out exactly, trailing zeros dropped."""
    out = [0] * max(len(a) + len(vectors[j]) for j, a in row.items())
    for j, a in row.items():
        for m, c in enumerate(a):
            for t, d in enumerate(vectors[j]):
                out[m + t] += c * d
    while out and out[-1] == 0:
        out.pop()
    return out


def system_residuals(params: ClassParams, order: int) -> list[list[int]]:
    """Coefficients 0..order of each row of A F - b; every entry must vanish."""
    rows = build_system(params)
    rows[0][params.h] = [-1]  # -b as column h, times the series 1
    F = [s.coeffs for s in solve_series(params, order)] + [[1]]
    return [(_row_times(row, F) + [0] * (order + 1))[: order + 1] for row in rows]


def closed_form_numerator(params: ClassParams, i: int) -> list[int]:
    """N_i = sign * x^{i-1} * S(h+1-i, k), sign = (-1)^binom((h mod 2) + i + 3, 2).

    F_i = N_i / S(h, k) for i = 1..h (``closed_form_residuals``).  For
    i = h-1 the factor is not S(2, k) = -1 + 2x - x^{k+1} but -1 + 2x - x^k:
    F_{h-1} also holds the paths the last label goes back to.
    """
    if not 1 <= i <= params.h:
        raise ValueError(f"i must be in 1..{params.h}")
    h, k = params.h, params.k
    sign = (-1) ** comb((h % 2) + i + 3, 2)
    S = [-1, 2] + [0] * (k - 2) + [-1] if i == h - 1 else build_S(h + 1 - i, k)
    return [0] * (i - 1) + [sign * c for c in S]


def closed_form_residuals(params: ClassParams) -> list[list[int]]:
    """Each row of A N - b S(h, k) as a polynomial, N_i = ``closed_form_numerator``.

    The rows are all empty exactly when F_i = N_i / S solves A F = b.  A is
    invertible at x = 0, so that proves the solver's F_i equal N_i / S at
    every order, with no truncation.
    """
    rows = build_system(params)
    rows[0][params.h] = [-1]  # -b as column h, times S
    N = [closed_form_numerator(params, i) for i in range(1, params.h + 1)]
    N.append(build_S(params.h, params.k))
    return [_row_times(row, N) for row in rows]


def _counts(params: ClassParams, columns: Iterable[Sequence[int]], keep=()) -> TruncatedSeries:
    """Counting series from the component columns, read as they come.

    f = F_1 + ... + F_h + (x + x^2 + ... + x^top) F_h, the labels (h_j)
    being x^{j+1} F_h; top = k-2, so the prefactor is zero when k = 2.  At
    h = 1 top = k-1, for the label (0) that the last label goes back to.
    """
    top = params.k - 1 if params.h == 1 else params.k - 2
    last = deque([0] * top, maxlen=top)  # F_h[n-top] .. F_h[n-1]
    coeffs = []
    for col in columns:
        coeffs.append(sum(col) + sum(last))
        last.append(col[-1])
        for j, kept in keep:  # (j, list) pairs: entry j of each column is kept
            kept.append(col[j])
    return TruncatedSeries(coeffs)


def f_series(params: ClassParams, order: int) -> TruncatedSeries:
    """Counting series of the class: coefficient n is the count at semilength n.

    The components are never held: working memory is the last k-1 columns.
    The class is counted at ``params.clamped(order)``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    params = params.clamped(order)
    return _counts(params, _columns(params, order))
