"""Coefficient identities linking the class counts to Catalan numbers.

Dyck paths of height <= h have a rational generating function with
denominator q_h(x) = sum_j (-1)^j binom(h+1-j, j) x^j
(``paths.height_denominator``; de Bruijn, Knuth and Rice, "The average
height of planted plane trees", 1972; Flajolet, "Combinatorial aspects of
continued fractions", Discrete Math. 32, 1980).  The coefficient relation
adds the run bound k: the class counts D_n obey D(x) S(h, k) = P, with
S = ``series.build_S`` and P = ``series.counting_numerator``,

    P = (-1)^h S(h-1, k)   (h >= 2),   P = -(1 - x^k)   (h = 1).

``counting_numerator`` derives it; it is checked here against counts
from every route.  ``check_relation`` refuses a bad (h, k) before it
reads any count, then takes n = 0 .. h+k-1, the last being the first
semilength where the run bound removes a path, U^h (DU)^{k-1} D^h.

The Catalan recurrence: the height series agrees with the Catalan series
C(x) through x^h, so coefficients ceil((h+1)/2) .. h of C(x) q_h(x)
vanish, a recurrence whose weights are binomials in h alone; the checks
here take n <= h-1.  The q_h obey q_h = q_{h-1} - x q_{h-2} (Pascal's rule
on the binomials), so the products C(x) q_h(x) for every h <= H each come
from the two before, in O(H^2) additions in all (``catalan_recurrence_rows``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import mul, sub

from .paths import catalan_upto
from .series import build_S, counting_numerator


def check_relation(
    h: int, k: int, provider: Callable[[int], int]
) -> list[tuple[int, int, int]]:
    """Every (n, lhs, rhs), 0 <= n <= h+k-1, where coefficient n of S(h, k) D(x)
    differs from that of ``series.counting_numerator`` (0 past its degree);
    D_n is ``provider(n)``, read only once S and P exist for (h, k)."""
    S, P = build_S(h, k), counting_numerator(h, k)
    D = [provider(n) for n in range(h + k)]
    P += [0] * (h + k - len(P))
    failures = []
    for n in range(h + k):
        lhs = sum(map(mul, S, D[n::-1]))
        if lhs != P[n]:
            failures.append((n, lhs, P[n]))
    return failures


def catalan_recurrence_rows(h_min: int, h_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(h, n, C_n, recurrence value) for h_min <= h <= h_max and ceil((h+1)/2) <= n < h.

    C_n = sum_{j=1}^{floor((h+1)/2)} (-1)^{j+1} binom(h+1-j, j) C_{n-j}
    holds exactly on the window ceil((h+1)/2) <= n <= h: the recurrence is
    the one of paths of height <= h, whose series agrees with C(x) up to
    x^h.  It fails at n = floor(h/2) and at n = h+1, where C_{h+1} exceeds
    the recurrence by 1, the lone path U^{h+1} D^{h+1}.  The rows take
    ceil((h+1)/2) <= n < h, so every row's two values must be equal.

    The recurrence value is C_n - P_h[n], P_h = C(x) q_h(x).  The rows step
    P_h = P_{h-1} - x P_{h-2} from P_{-1} = P_0 = C, truncated at x^{h_max},
    so all of them cost O(h_max^2) additions and no binomial.  The congruence
    C q_h = q_{h-1} (mod x^{h+1}) is what the rows check, never how they are
    built.
    """
    if not 1 <= h_min <= h_max:
        raise ValueError("need 1 <= h-min <= h-max")
    C = catalan_upto(h_max - 1)
    older, row = C, C
    for h in range(1, h_max + 1):
        older, row = row, list(map(sub, row, [0, *older]))
        if h >= h_min:
            for n in range((h + 2) // 2, h):
                yield h, n, C[n], C[n] - row[n]
