import pytest

from valleyforge.oracle import brute_counts_upto
from valleyforge.paths import ClassParams, catalan
from valleyforge.series import (
    TruncatedSeries,
    build_S,
    build_system,
    closed_form_F,
    closed_form_numerator,
    f_series,
    solve_series,
    system_residuals,
)

GRID = [(h, k) for h in range(1, 9) for k in range(2, 7)]


def _row_times(row, N):
    """sum_j row[j] * N[j], multiplied out as coefficient lists, trailing zeros dropped."""
    out = [0] * max(len(a) + len(N[j]) for j, a in row.items())
    for j, a in row.items():
        for m, c in enumerate(a):
            for t, d in enumerate(N[j]):
                out[m + t] += c * d
    while out and out[-1] == 0:
        out.pop()
    return out


class TestTruncatedSeries:
    def test_padding(self):
        s = TruncatedSeries(4, [1, 2])
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_mul_poly(self):
        s = TruncatedSeries(3, [1, 1, 1, 1])
        assert s.mul_poly([0, 1]).coeffs == (0, 1, 1, 1)

    def test_json_round_trip(self):
        s = TruncatedSeries(2, [1, -2, 3])
        assert TruncatedSeries.from_json(s.to_json()) == s


class TestBuildS:
    def test_h1(self):
        assert build_S(1, 3) == [-1, 1]

    def test_h2(self):
        # -(1 - 2x + x^{k+1}): f = (1 - x) / (1 - 2x + x^{k+1}) at h = 2
        assert build_S(2, 3) == [-1, 2, 0, 0, -1]

    def test_h3(self):
        # 1 - 3x + x^2 + x^{k+1}
        assert build_S(3, 4) == [1, -3, 1, 0, 0, 1]

    @pytest.mark.parametrize("k", range(2, 13))
    def test_h1_h3_every_k(self, k):
        assert build_S(1, k) == [-1, 1]
        assert build_S(2, k) == [-1, 2] + [0] * (k - 1) + [-1]
        assert build_S(3, k) == [1, -3, 1] + [0] * (k - 2) + [1]

    def test_h4(self):
        # 1 - 4x + 3x^2 + x^{k+1} - x^{k+2}
        assert build_S(4, 3) == [1, -4, 3, 0, 1, -1]

    @pytest.mark.parametrize("h,k", GRID)
    def test_unit_constant_term(self, h, k):
        assert build_S(h, k)[0] in (-1, 1)

    def test_constant_term_sign(self):
        for h in range(1, 12):
            from math import comb

            assert build_S(h, 5)[0] == (-1) ** comb(h + 1, 2)

    def test_lists_end_in_a_nonzero_coefficient(self):
        """Lists do not normalise themselves, and a trailing zero would change
        the printed S(h,k) and the JSON "denominator"."""
        for h in range(1, 61):
            for k in range(2, 13):
                S = build_S(h, k)
                assert S[0] in (-1, 1) and S[-1] != 0, (h, k)
                for row in build_system(ClassParams(h, k)):
                    assert all(a and a[-1] for a in row.values()), (h, k)


class TestBuildSystem:
    def test_last_row_h4k3(self):
        assert build_system(ClassParams(4, 3))[3][3] == [-1, 1, 1]

    def test_correction_row_h4k3(self):
        row = build_system(ClassParams(4, 3))[1]
        assert row == {0: [0, 1], 1: [-1], 2: [1], 3: [0, 0, -1]}

    @pytest.mark.parametrize("h,k", GRID)
    def test_constant_matrix_triangular(self, h, k):
        rows = build_system(ClassParams(h, k))
        for i in range(h):
            for j in range(h):
                a0 = rows[i].get(j, [0])[0]
                if j < i:
                    assert a0 == 0
                elif j == i:
                    assert a0 == (1 if i == 0 else -1)

    @pytest.mark.parametrize("h,k", GRID)
    def test_rows_store_only_nonzero_entries(self, h, k):
        rows = build_system(ClassParams(h, k))
        assert len(rows) == h
        for i, row in enumerate(rows):
            assert len(row) <= 4
            assert i in row
            assert all(any(entry) for entry in row.values())

    def test_h1_h2_systems(self):
        # At h = 2 the last label goes back to the root's label (1); at h = 1 to (0).
        assert build_system(ClassParams(1, 4)) == [{0: [1]}]
        assert build_system(ClassParams(2, 4)) == [{0: [1], 1: [0, 0, 0, -1]},
                                                   {0: [0, 1], 1: [-1, 1, 1, 1]}]


class TestSolveSeries:
    def test_f1_is_one(self):
        F = solve_series(ClassParams(4, 3), 10)
        assert F[0].coeffs == (1,) + (0,) * 10

    def test_f4_leading_term(self):
        # smallest path whose initial up-run has length 3 is UUUDDD, so the
        # fourth component starts at x^3
        F = solve_series(ClassParams(4, 3), 10)
        assert F[3].coeffs[:5] == (0, 0, 0, 1, 3)

    @pytest.mark.parametrize("h,k", GRID)
    def test_higher_components_vanish_at_zero(self, h, k):
        F = solve_series(ClassParams(h, k), 5)
        for s in F[1:]:
            assert s.coefficient(0) == 0

    @pytest.mark.parametrize("h,k", GRID + [(64, 5), (500, 7)])
    def test_residuals_vanish(self, h, k):
        assert system_residuals(ClassParams(h, k), 30) == [[0] * 31] * h


class TestClosedForm:
    # At h = 2, F_1 = 1 + x^{k-1} F_2 (test_h2_component_one_holds_the_wrap).
    @pytest.mark.parametrize("h,k", [(h, k) for h, k in GRID if h != 2])
    def test_component_one_is_constant_one(self, h, k):
        assert closed_form_F(ClassParams(h, k), 1, 8).coeffs == (1,) + (0,) * 8

    @pytest.mark.parametrize("k", range(2, 7))
    def test_h2_component_one_holds_the_wrap(self, k):
        """The last label goes back to the root's label (1)."""
        params = ClassParams(2, k)
        F2 = closed_form_F(params, 2, 12).mul_poly([0] * (k - 1) + [1]).coeffs
        assert closed_form_F(params, 1, 12).coeffs == (1 + F2[0],) + F2[1:]

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            closed_form_F(ClassParams(4, 3), 1, -1)
        with pytest.raises(ValueError, match="order must be >= 0"):
            solve_series(ClassParams(4, 3), -1)

    @pytest.mark.parametrize("h,k", GRID)
    def test_agrees_with_solver(self, h, k):
        params = ClassParams(h, k)
        F = solve_series(params, 30)
        for i in range(1, h + 1):
            assert closed_form_F(params, i, 30) == F[i - 1], (h, k, i)

    @pytest.mark.parametrize("h,ks", [(h, range(2, 12)) for h in range(1, 41)] + [(500, [7])],
                             ids=[f"h{h}-k2..11" for h in range(1, 41)] + ["h500-k7"])
    def test_solves_the_system_exactly(self, h, ks):
        """A N = b S as polynomials, for every k in ``ks``.  A(0) is
        invertible, so the power-series solution is unique and F_i = N_i / S
        holds at every order."""
        for params in (ClassParams(h, k) for k in ks):
            N = [closed_form_numerator(params, i) for i in range(1, h + 1)]
            S = build_S(h, params.k)
            for i, row in enumerate(build_system(params)):
                assert _row_times(row, N) == (S if i == 0 else []), (h, params.k, i)

    def test_h4k3_component4_explicit(self):
        # x^3 (1 - x) / (1 - 4x + 3x^2 + x^4 - x^5), expanded by hand division
        got = closed_form_F(ClassParams(4, 3), 4, 8)
        prod = got.mul_poly(build_S(4, 3))
        assert prod == TruncatedSeries(8, [0, 0, 0, 1, -1])


class TestFSeries:
    def test_h4k3_coefficients(self):
        fs = f_series(ClassParams(4, 3), 7)
        assert fs.coeffs == (1, 1, 2, 5, 14, 41, 121, 358)

    @pytest.mark.parametrize("h,k", GRID)
    def test_catalan_boundary(self, h, k):
        fs = f_series(ClassParams(h, k), h)
        for n in range(h + 1):
            assert fs.coefficient(n) == catalan(n)

    @pytest.mark.parametrize("h,k", GRID)
    def test_matches_brute_force(self, h, k):
        params = ClassParams(h, k)
        fs = f_series(params, 12)
        assert list(fs.coeffs) == brute_counts_upto(params, 12)

    def test_k2_prefactor_vanishes(self):
        params = ClassParams(5, 2)
        F = solve_series(params, 10)
        assert f_series(params, 10).coeffs == tuple(map(sum, zip(*(s.coeffs for s in F))))

    @pytest.mark.parametrize("h,k", GRID)
    def test_t_series_relation(self, h, k):
        # defining T_j = x^{j+1} F_h, sum_j T_j + sum_i F_i must equal f; the
        # labels (h_j) are T_0 .. T_{k-3}, and at h = 1 the label (0) is T_{k-2}
        params = ClassParams(h, k)
        F = solve_series(params, 15)
        parts = [s.coeffs for s in F]
        for j in range(k - 2 if h > 1 else k - 1):
            parts.append(F[-1].mul_poly([0] * (j + 1) + [1]).coeffs)
        assert f_series(params, 15).coeffs == tuple(map(sum, zip(*parts)))
