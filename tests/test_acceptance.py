"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact integer equality; there are no tolerances
anywhere.
"""

import pytest

from valleyforge import eco, identity, oracle, series
from valleyforge.paths import EMPTY_PATH, ClassParams, catalan, catalan_upto

GRID = [(h, k) for h in range(4, 8) for k in range(3, 6)]
N_MAX = 12


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def grid_counts():
    """Four-route counts for every (h, k) in the grid and n = 0..12, one sweep per route."""
    table = {}
    for h, k in GRID:
        params = ClassParams(h, k)
        routes = zip(
            [len(level) for level in eco.levels(params, N_MAX)],
            eco.rule_totals_upto(params, N_MAX),
            series.f_series(params, N_MAX).coeffs,
            oracle.brute_counts_upto(params, N_MAX),
            strict=True,
        )
        for n, counts in enumerate(routes):
            table[(h, k, n)] = counts
    return table


def test_criterion_1_four_route_agreement(grid_counts):
    bad = [cell for cell, counts in grid_counts.items() if len(set(counts)) != 1]
    _report(1, "four-route agreement", not bad, f"mismatched cells: {bad}" if bad else "")


def test_criterion_2_catalan_boundary(grid_counts):
    bad = []
    for (h, k, n), counts in grid_counts.items():
        if n <= h and any(c != catalan(n) for c in counts):
            bad.append((h, k, n))
    _report(2, "Catalan boundary", not bad, f"cells: {bad}" if bad else "")


def test_criterion_3_k2_regression():
    bad = []
    for h in range(3, 7):
        params = ClassParams(h, 2)
        brute = oracle.brute_counts_upto(params, N_MAX)
        for n in range(N_MAX + 1):
            if eco.rule_counts(params, n).total() != brute[n]:
                bad.append((h, n))
    _report(3, "k=2 succession-rule regression", not bad, f"cells: {bad}" if bad else "")


def test_criterion_4_system_residual():
    bad = []
    for h, k in GRID:
        residuals = series.system_residuals(ClassParams(h, k), 30)
        if any(c for row in residuals for c in row):
            bad.append((h, k))
    _report(4, "system residual zero to order 30", not bad, f"cells: {bad}" if bad else "")


def test_criterion_5_closed_form_certification():
    bad = []
    for h, k in GRID:
        params = ClassParams(h, k)
        F = series.solve_series(params, 30)
        for i in range(1, h + 1):
            if series.closed_form_F(params, i, 30) != F[i - 1]:
                bad.append((h, k, i))
    _report(5, "closed form matches solver to order 30", not bad,
            f"components: {bad}" if bad else "")


def test_criterion_6_catalan_recurrence_suite():
    C = catalan_upto(64)
    bad = []
    for h in range(4, 65):
        rows = identity.catalan_recurrence_sweep(h, C)
        if [n for n, _, _ in rows] != list(range((h + 2) // 2, h)):
            bad.append((h, "window"))
        bad += [(h, n) for n, expected, value in rows if expected != value]
    _report(6, "Catalan recurrence h=4..64", not bad, f"windows: {bad}" if bad else "")


def test_criterion_7_coefficient_relation():
    bad = []
    for h in range(4, 13):
        for k in (h + 1, h + 2, h + 3):
            params = ClassParams(h, k)
            fs = series.f_series(params, h)
            from_series = identity.check_relation(h, k, fs.coefficient)
            from_oracle = identity.check_relation(
                h, k, lambda n, p=params: oracle.brute_count(p, n)
            )
            if from_series or from_oracle:
                bad.append((h, k))
    _report(7, "coefficient relation, series and oracle providers", not bad,
            f"cells: {bad}" if bad else "")


def test_criterion_8_eco_structural_properties():
    params = ClassParams(4, 3)
    ok = True
    detail = ""
    level = [EMPTY_PATH]
    for n in range(11):
        words = [p.word for p in level]
        if len(set(words)) != len(words):
            ok, detail = False, f"duplicates at n={n}"
            break
        for p in level:
            kids = eco.children(p, params)
            if len(kids) != eco.label_of(p, params).child_count(params.h):
                ok, detail = False, f"label/child mismatch at {p.word!r}"
                break
        if not ok or n == 10:
            break
        next_level = [c for p in level for c in eco.children(p, params)]
        for q in next_level:
            parent = eco.invert_first_peak(q)
            if q.word not in {c.word for c in eco.children(parent, params)}:
                ok, detail = False, f"reverse map fails at {q.word!r}"
                break
        if not ok:
            break
        level = next_level
    _report(8, "ECO structural properties h=4 k=3 n<=10", ok, detail)


def test_criterion_9_spot_values(grid_counts):
    expected = [1, 1, 2, 5, 14, 41, 121, 358]
    bad = []
    for n, want in enumerate(expected):
        if grid_counts[(4, 3, n)] != (want, want, want, want):
            bad.append((n, grid_counts[(4, 3, n)]))
    _report(9, "spot values for (h=4, k=3)", not bad, f"{bad}" if bad else "")
