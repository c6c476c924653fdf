"""Exact polynomial / power-series algebra for the class generating function.

Builds the denominator polynomial family
S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}) (h != 2) from the
denominators q_h of height-bounded Dyck paths, assembles the almost
tridiagonal linear system for the component series F_1..F_h, solves it
order by order over the integers, and expands the single-variable
generating function whose n-th coefficient counts the class paths of
semilength n.  A closed-form expression for each F_i doubles as an
independent cross-check of the solver.

A polynomial is a plain list of integer coefficients, constant term first,
as in ``paths`` and ``identity`` and in the JSON form; the lists built here
end in a nonzero coefficient.
"""

from __future__ import annotations

from math import comb

from .paths import ClassParams, height_denominator


class TruncatedSeries:
    """Exact power series truncated at a fixed order.

    ``coeffs`` always holds order+1 integers; arithmetic never looks past
    the truncation order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):  # noqa: ANN001
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def coefficient(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n <= self.order else 0

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            order, (self.coeffs[i] + other.coeffs[i] for i in range(order + 1))
        )

    def mul_poly(self, poly: list[int]) -> "TruncatedSeries":
        out = [0] * (self.order + 1)
        for j, b in enumerate(poly):
            if b:
                for n in range(j, self.order + 1):
                    out[n] += b * self.coeffs[n - j]
        return TruncatedSeries(self.order, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """JSON form: decimal-string coefficients, constant term first."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "TruncatedSeries":
        return TruncatedSeries(len(data) - 1, (int(c) for c in data))


def build_S(h: int, k: int) -> list[int]:
    """Denominator-family polynomial for height bound h and run bound k.

    S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}), q_h being the
    denominator for Dyck paths of height <= h (``height_denominator``), for
    every h except h = 2, which is listed: there the formula ends in
    -x^{k+1} where -x^k is right.
    """
    if h < 1 or k < 2:
        raise ValueError("need h >= 1 and k >= 2")
    if h == 2:
        return [-1, 2] + [0] * (k - 2) + [-1]
    q, tail = height_denominator(h), height_denominator(h - 3)
    # x^{k+1} q_{h-3} has the higher degree (k >= 2); it is empty for h = 1
    s = q + [0] * (k + 1 + len(tail) - len(q)) if tail else q
    for j, c in enumerate(tail, start=k + 1):
        s[j] += c
    sign = (-1) ** comb(h + 1, 2)
    return [sign * c for c in s]


def build_system(params: ClassParams) -> list[dict[int, list[int]]]:
    """The sparse rows of the polynomial system A F = b solved by (F_1, ..., F_h).

    Row i maps column j to A[i][j] and holds only the nonzero entries (at
    most four).  b is implicit: 1 in row 0 and 0 in every other row.
    Row structure (1-based): F_1 = 1; interior band rows
    x F_{i-1} - F_i + F_{i+1} = 0; row h-2 carries an extra -x^{k-1} F_h;
    row h-1 reads x F_{h-2} - F_{h-1} + (1 + x^{k-1}) F_h = 0; the last row
    is x F_{h-1} + (-1 + x + x^2 (1 + x + ... + x^{k-3})) F_h = 0.
    At x = 0 the matrix is upper triangular with diagonal (1, -1, ..., -1).
    """
    params.require_eco_supported()
    h, k = params.h, params.k
    rows = [{0: [1]}]
    for r in range(1, h - 2):
        rows.append({r - 1: [0, 1], r: [-1], r + 1: [1]})
    if h > 3:
        rows[h - 3][h - 1] = [0] * (k - 1) + [-1]
    rows.append({h - 3: [0, 1], h - 2: [-1], h - 1: [1] + [0] * (k - 2) + [1]})
    rows.append({h - 2: [0, 1], h - 1: [-1, 1] + [1] * (k - 2)})
    return rows


def solve_series(params: ClassParams, order: int) -> list[TruncatedSeries]:
    """Unique power-series solution of the system, order by order.

    Splitting A = A0 + (higher powers of x), each coefficient vector is
    obtained by back substitution against the triangular constant matrix
    A0, whose diagonal entries are all +-1; everything stays integral.
    Each row contributes only its stored nonzero entries.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = build_system(params)
    h = params.h
    cols: list[list[int]] = []
    for n in range(order + 1):
        vec = [0] * h
        for i in range(h - 1, -1, -1):
            row = rows[i]
            s = 1 if i == n == 0 else 0
            for j, a in row.items():
                for m in range(1, min(n, len(a) - 1) + 1):
                    s -= a[m] * cols[n - m][j]
                if j > i:
                    s -= a[0] * vec[j]
            vec[i] = s if row[i][0] == 1 else -s
        cols.append(vec)
    return [TruncatedSeries(order, col) for col in zip(*cols)]


def system_residuals(params: ClassParams, order: int) -> list[list[int]]:
    """Coefficients 0..order of each row of A F - b; every entry must vanish."""
    F = solve_series(params, order)
    out = []
    for i, row in enumerate(build_system(params)):
        acc = [-1 if i == n == 0 else 0 for n in range(order + 1)]
        for j, a in row.items():
            for n, c in enumerate(F[j].mul_poly(a).coeffs):
                acc[n] += c
        out.append(acc)
    return out


def closed_form_numerator(params: ClassParams, i: int) -> list[int]:
    """N_i = sign * x^{i-1} * S(h+1-i, k), sign = (-1)^binom((h mod 2) + i + 3, 2).

    F_i = N_i / S(h, k) for i = 1..h.
    """
    params.require_eco_supported()
    if not 1 <= i <= params.h:
        raise ValueError(f"i must be in 1..{params.h}")
    h, k = params.h, params.k
    sign = (-1) ** comb((h % 2) + i + 3, 2)
    return [0] * (i - 1) + [sign * c for c in build_S(h + 1 - i, k)]


def closed_form_F(params: ClassParams, i: int, order: int) -> TruncatedSeries:
    """Series expansion of the closed-form expression N_i / S(h, k) for F_i.

    The denominator has constant term +-1, so exact long division yields
    integer coefficients.
    """
    num = closed_form_numerator(params, i)
    den = build_S(params.h, params.k)
    coeffs = [0] * (order + 1)
    for n in range(order + 1):
        s = num[n] if n < len(num) else 0
        for m in range(1, min(n, len(den) - 1) + 1):
            s -= den[m] * coeffs[n - m]
        coeffs[n] = s if den[0] == 1 else -s
    return TruncatedSeries(order, coeffs)


def counting_series(params: ClassParams, F: list[TruncatedSeries]) -> TruncatedSeries:
    """Counting series of the class from its solved components F_1..F_h.

    f = F_1 + ... + F_h + (x + x^2 + ... + x^{k-2}) F_h; the prefactor is
    zero when k = 2.
    """
    parts = [s.coeffs for s in F] + [F[-1].mul_poly([0] + [1] * (params.k - 2)).coeffs]
    return TruncatedSeries(F[0].order, map(sum, zip(*parts)))


def f_series(params: ClassParams, order: int) -> TruncatedSeries:
    """Counting series of the class: coefficient n is the count at semilength n."""
    return counting_series(params, solve_series(params, order))
