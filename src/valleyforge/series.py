"""Exact polynomial / power-series algebra for the class generating function.

Builds the denominator polynomial family
S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}) (h != 2) from the
denominators q_h of height-bounded Dyck paths, assembles the almost
tridiagonal linear system for the component series F_1..F_h, solves it
order by order over the integers, and expands the single-variable
generating function whose n-th coefficient counts the class paths of
semilength n.  A closed-form expression for each F_i doubles as an
independent cross-check of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .paths import ClassParams, height_denominator


class IntPolynomial:
    """Dense integer-coefficient polynomial in one variable.

    ``coeffs[i]`` is the coefficient of x^i; normalized form has no
    trailing zeros and the zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):  # noqa: ANN001 - accepts any int iterable
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "IntPolynomial":
        return IntPolynomial([0] * power + [coeff])

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial()

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial([1])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            self.coefficient(i) - other.coefficient(i) for i in range(n)
        )

    def __mul__(self, other):  # noqa: ANN001 - polynomial or int
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """JSON form: decimal-string coefficients, constant term first."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "IntPolynomial":
        return IntPolynomial(int(c) for c in data)


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

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            order, (self.coeffs[i] - other.coeffs[i] for i in range(order + 1))
        )

    def mul_poly(self, poly: IntPolynomial) -> "TruncatedSeries":
        out = [0] * (self.order + 1)
        for j, b in enumerate(poly.coeffs):
            if b:
                for n in range(j, self.order + 1):
                    out[n] += b * self.coeffs[n - j]
        return TruncatedSeries(self.order, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self.coeffs)})"

    def to_json(self) -> list[str]:
        """JSON form: decimal-string coefficients, constant term first."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[str]) -> "TruncatedSeries":
        return TruncatedSeries(len(data) - 1, (int(c) for c in data))


@dataclass
class PolySystem:
    """The polynomial system A F = b for the component series.

    ``matrix[i]`` maps column j to A[i][j] and holds only the nonzero
    entries of row i (at most four).
    """

    matrix: list[dict[int, IntPolynomial]]
    rhs: list[IntPolynomial]


def build_S(h: int, k: int) -> IntPolynomial:
    """Denominator-family polynomial for height bound h and run bound k.

    S(h, k) = (-1)^{binom(h+1, 2)} (q_h + x^{k+1} q_{h-3}), q_h being the
    denominator for Dyck paths of height <= h (``height_denominator``), for
    every h except h = 2, which is listed: there the formula ends in
    -x^{k+1} where -x^k is right.
    """
    if h < 1 or k < 2:
        raise ValueError("need h >= 1 and k >= 2")
    if h == 2:
        return IntPolynomial([-1, 2]) + IntPolynomial.monomial(k, -1)
    tail = IntPolynomial([0] * (k + 1) + height_denominator(h - 3))
    return (-1) ** comb(h + 1, 2) * (IntPolynomial(height_denominator(h)) + tail)


def build_system(params: ClassParams) -> PolySystem:
    """Assemble the polynomial system whose solution is (F_1, ..., F_h).

    Row structure (1-based): F_1 = 1; interior band rows
    x F_{i-1} - F_i + F_{i+1} = 0; row h-2 carries an extra -x^{k-1} F_h;
    row h-1 reads x F_{h-2} - F_{h-1} + (1 + x^{k-1}) F_h = 0; the last row
    is x F_{h-1} + (-1 + x + x^2 (1 + x + ... + x^{k-3})) F_h = 0.
    At x = 0 the matrix is upper triangular with diagonal (1, -1, ..., -1).
    """
    params.require_eco_supported()
    h, k = params.h, params.k
    x = IntPolynomial.monomial(1)
    minus_one = IntPolynomial([-1])
    one = IntPolynomial.one()
    matrix = [{0: one}]
    for r in range(1, h - 2):
        matrix.append({r - 1: x, r: minus_one, r + 1: one})
    if h > 3:
        matrix[h - 3][h - 1] = IntPolynomial.monomial(k - 1, -1)
    matrix.append({h - 3: x, h - 2: minus_one, h - 1: one + IntPolynomial.monomial(k - 1)})
    # geometric block 1 + x + ... + x^{k-3}; empty when k = 2
    geom = IntPolynomial([1] * (k - 2))
    matrix.append({h - 2: x, h - 1: IntPolynomial([-1, 1]) + IntPolynomial.monomial(2) * geom})
    rhs = [one] + [IntPolynomial.zero()] * (h - 1)
    return PolySystem(matrix, rhs)


def solve_series(params: ClassParams, order: int) -> list[TruncatedSeries]:
    """Unique power-series solution of the system, order by order.

    Splitting A = A0 + (higher powers of x), each coefficient vector is
    obtained by back substitution against the triangular constant matrix
    A0, whose diagonal entries are all +-1; everything stays integral.
    Each row contributes only its stored nonzero entries.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    system = build_system(params)
    h = params.h
    cols: list[list[int]] = []
    for n in range(order + 1):
        vec = [0] * h
        for i in range(h - 1, -1, -1):
            row = system.matrix[i]
            s = system.rhs[i].coefficient(n)
            for j, a in row.items():
                cs = a.coeffs
                for m in range(1, min(n, len(cs) - 1) + 1):
                    s -= cs[m] * cols[n - m][j]
                if j > i:
                    s -= a.coefficient(0) * vec[j]
            vec[i] = s if row[i].coefficient(0) == 1 else -s
        cols.append(vec)
    return [
        TruncatedSeries(order, (cols[n][i] for n in range(order + 1)))
        for i in range(h)
    ]


def system_residuals(params: ClassParams, order: int) -> list[TruncatedSeries]:
    """A F - b for the order-by-order solution; every entry must vanish."""
    system = build_system(params)
    F = solve_series(params, order)
    out = []
    for i in range(params.h):
        acc = TruncatedSeries(order)
        for j, a in system.matrix[i].items():
            acc = acc + F[j].mul_poly(a)
        acc = acc - TruncatedSeries(order, system.rhs[i].coeffs)
        out.append(acc)
    return out


def closed_form_numerator(params: ClassParams, i: int) -> IntPolynomial:
    """N_i = sign * x^{i-1} * S(h+1-i, k), sign = (-1)^binom((h mod 2) + i + 3, 2).

    F_i = N_i / S(h, k) for i = 1..h.
    """
    params.require_eco_supported()
    if not 1 <= i <= params.h:
        raise ValueError(f"i must be in 1..{params.h}")
    h, k = params.h, params.k
    sign = (-1) ** comb((h % 2) + i + 3, 2)
    return IntPolynomial.monomial(i - 1, sign) * build_S(h + 1 - i, k)


def closed_form_F(params: ClassParams, i: int, order: int) -> TruncatedSeries:
    """Series expansion of the closed-form expression N_i / S(h, k) for F_i.

    The denominator has constant term +-1, so exact long division yields
    integer coefficients.
    """
    num = closed_form_numerator(params, i)
    den = build_S(params.h, params.k)
    d0 = den.coefficient(0)
    coeffs = [0] * (order + 1)
    for n in range(order + 1):
        s = num.coefficient(n)
        for m in range(1, min(n, den.degree) + 1):
            s -= den.coefficient(m) * coeffs[n - m]
        coeffs[n] = s if d0 == 1 else -s
    return TruncatedSeries(order, coeffs)


def counting_series(params: ClassParams, F: list[TruncatedSeries]) -> TruncatedSeries:
    """Counting series of the class from its solved components F_1..F_h.

    f = F_1 + ... + F_h + (x + x^2 + ... + x^{k-2}) F_h; the prefactor is
    the zero polynomial when k = 2.
    """
    acc = TruncatedSeries(F[0].order)
    for s in F:
        acc = acc + s
    prefactor = IntPolynomial([0] + [1] * (params.k - 2))
    return acc + F[-1].mul_poly(prefactor)


def f_series(params: ClassParams, order: int) -> TruncatedSeries:
    """Counting series of the class: coefficient n is the count at semilength n."""
    return counting_series(params, solve_series(params, order))
