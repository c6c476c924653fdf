"""Coefficient identities linking the class counts to Catalan numbers.

The headline result: for ceil((h+1)/2) <= n <= h the Catalan numbers obey a
constant-coefficient recurrence whose weights are binomials in h alone.
It is a window identity.  Dyck paths of height <= h have a rational
generating function with denominator

    q_h(x) = sum_j (-1)^j binom(h+1-j, j) x^j     (``paths.height_denominator``)

and a numerator of degree floor(h/2) (de Bruijn, Knuth and Rice, "The
average height of planted plane trees", 1972; Flajolet, "Combinatorial
aspects of continued fractions", Discrete Math. 32, 1980).  That series
agrees with the Catalan series C(x) through x^h, so coefficients
ceil((h+1)/2) .. h of C(x) q_h(x) vanish; the checks here take n <= h-1.
The intermediate coefficient relation is checked against exact class
counts supplied by any route (series engine or brute force).
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import Callable, Sequence

from .errors import DomainViolation
from .paths import height_denominator


def lhs_coefficient_relation(h: int, k: int, n: int, D: Sequence[int]) -> int:
    """Class counts weighted by q_h: (-1)^{binom(h+1, 2)} sum_j q_h[j] D_{n-j}.

    Terms with n - j < 0 contribute zero.  Only meaningful for n < h < k.
    ``D`` holds the counts D_0 .. D_n at least.
    """
    if not (0 <= n < h < k):
        raise DomainViolation(f"need 0 <= n < h < k, got n={n}, h={h}, k={k}")
    if len(D) <= n:
        raise DomainViolation(f"need the counts D_0..D_{n}, got {len(D)}")
    return (-1) ** comb(h + 1, 2) * sum(map(mul, height_denominator(h), D[n::-1]))


def rhs_coefficient_relation(h: int, n: int) -> int:
    """Alternating partial row sum of Pascal's triangle matching the lhs."""
    if not 0 <= n < h:
        raise DomainViolation(f"need 0 <= n < h, got n={n}, h={h}")
    base = (h + 1) // 2
    total = 0
    for t in range(n // h, min(n, h - n + 1) + 1):
        total += (-1) ** (base - t) * comb(h - n + 1, t)
    return total


def check_relation(
    h: int, k: int, provider: Callable[[int], int]
) -> list[tuple[int, int, int]]:
    """Every (n, lhs, rhs) with lhs != rhs, 0 <= n < h, counts from ``provider``."""
    if not h < k:
        raise DomainViolation(f"need h < k, got h={h}, k={k}")
    D = [provider(n) for n in range(h)]
    failures = []
    for n in range(h):
        lhs = lhs_coefficient_relation(h, k, n, D)
        rhs = rhs_coefficient_relation(h, n)
        if lhs != rhs:
            failures.append((n, lhs, rhs))
    return failures


def _recurrence_weights(h: int) -> list[int]:
    """The weights -q_h[j] = (-1)^{j+1} binom(h+1-j, j) for j = 1 .. floor((h+1)/2)."""
    return [-c for c in height_denominator(h)[1:]]


def _recurrence_value(weights: list[int], C: Sequence[int], n: int) -> int:
    """sum_j weights[j-1] * C_{n-j}, for n >= len(weights): no index runs below 0."""
    return sum(map(mul, weights, C[n - 1::-1]))


def catalan_recurrence_sweep(h: int, C: Sequence[int]) -> list[tuple[int, int, int]]:
    """(n, C_n, recurrence value) for every n with ceil((h+1)/2) <= n < h.

    C_n = sum_{j=1}^{floor((h+1)/2)} (-1)^{j+1} binom(h+1-j, j) C_{n-j}
    holds exactly on the window ceil((h+1)/2) <= n <= h: the recurrence is
    the one of paths of height <= h, whose series agrees with C(x) up to
    x^h.  It fails at n = floor(h/2) and at n = h+1, where C_{h+1} exceeds
    the recurrence by 1, the lone path U^{h+1} D^{h+1}.  The sweep takes
    ceil((h+1)/2) <= n < h, so every row's two values must be equal.

    ``C`` is a Catalan table holding at least C_0 .. C_{h-1}, such as
    ``catalan_upto(h_max)``, shared by every h of a sweep; the weights are
    computed once for h.
    """
    weights = _recurrence_weights(h)
    return [(n, C[n], _recurrence_value(weights, C, n)) for n in range((h + 2) // 2, h)]
