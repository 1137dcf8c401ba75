"""The unit-circle-to-critical-line transform and its closed form.

Anchor transforms are worked by hand from the Hilbert-coefficient
identity Z(-l) = [z^l] U(z)/(1-z)^{e+1}:

    U = 1,       e = 0:  Z = 1
    U = 1,       e = 1:  coefficients l + 1,      Z = 1 - s
    U = 1 + z,   e = 1:  coefficients 2 l + 1,    Z = 1 - 2 s
    U = 1 + z^2, e = 2:  coefficients l^2 + l + 1, Z = s^2 - s + 1
"""

from fractions import Fraction

import pytest
from mpmath import mp

from periodpoly import (
    ConventionError,
    InputError,
    LFunctionData,
    RealPolynomial,
    SpecialValues,
    VerificationError,
    check_zeta_properties,
    deflate_at_one,
    maclaurin_coefficients,
    rv_transform,
    stirling_first,
    zeta_poly_closed_form,
    zeta_polynomial,
)


def rp(*coeffs, bits=192):
    return RealPolynomial(tuple((c, 0) for c in coeffs), bits=bits)


class TestStirling:
    def test_rows(self):
        assert stirling_first(0) == [1]
        assert stirling_first(1) == [0, 1]
        assert stirling_first(2) == [0, -1, 1]
        assert stirling_first(3) == [0, 2, -3, 1]
        assert stirling_first(4) == [0, -6, 11, -6, 1]

    def test_row_sum_vanishes(self):
        # x(x-1)...(x-a+1) at x = 1 is 0 once the (x-1) factor appears
        for a in range(2, 9):
            assert sum(stirling_first(a)) == 0

    def test_known_entries(self):
        assert stirling_first(6)[1] == -120  # (-1)^5 5!
        assert stirling_first(6)[6] == 1


class TestTransformAnchors:
    @pytest.mark.parametrize(
        "u,e,want,eps",
        [
            ([1], 0, (1,), 1),
            ([1], 1, (1, -1), -1),
            ([1, 1], 1, (1, -2), -1),
            ([1, 0, 1], 2, (1, -1, 1), 1),
        ],
    )
    def test_exact(self, u, e, want, eps):
        z = rv_transform(u, e=e)
        assert z.exact == tuple(Fraction(w) for w in want)
        assert z.eps == eps
        assert z.e == e

    def test_values_at_negative_integers(self):
        # Z(-l) must equal the Maclaurin coefficient of U/(1-z)^{e+1}
        z = rv_transform([3, 1, 4], e=4)
        u = rp(3, 1, 4)
        mac = maclaurin_coefficients(u, 4, 9)
        with mp.workprec(192):
            for l in range(9):
                zl = sum(Fraction(c) * Fraction(-l) ** q
                         for q, c in enumerate(z.exact))
                assert abs(mp.mpf(float(zl)) - mac[l]) < mp.mpf("1e-40") * (1 + abs(mac[l]))

    def test_functional_equation_sign(self):
        # palindromic U with e = deg U: odd degree gives Z(s) = -Z(1-s),
        # even degree +; both land every root on Re(s) = 1/2
        z1 = rv_transform([1, 3, 3, 1], e=3)
        assert z1.eps == -1
        z2 = rv_transform([1, 2, 1], e=2)
        assert z2.eps == 1
        for z in (z1, z2):
            chk = check_zeta_properties(z, tol_fe=1e-30)
            assert chk.ok

    def test_padding_past_degree_loses_the_line(self):
        # e > deg U re-centers the palindrome; the transform still works
        # as a Hilbert-series device but no longer promises the line
        z = rv_transform([1, 2, 1], e=3)
        chk = check_zeta_properties(z, tol_fe=1e-30)
        assert not chk.ok

    def test_float_path_matches_exact(self):
        u = [2, 3, 4]
        ze = rv_transform(u, e=3)
        zf = rv_transform(rp(2, 3, 4), e=3)
        with mp.workprec(192):
            for (fv, _), frac in zip(zf.coeffs, ze.exact):
                want = mp.mpf(frac.numerator) / frac.denominator
                assert abs(fv - want) < mp.mpf("1e-45") * (1 + abs(want))

    def test_rejects_vanishing_at_one(self):
        with pytest.raises(InputError):
            rv_transform([1, -1])
        with pytest.raises(InputError):
            rv_transform(rp(1, 0, -1))

    def test_rejects_small_e(self):
        with pytest.raises(InputError):
            rv_transform([1, 2, 3], e=1)


class TestDeflateAtOne:
    def test_negative_sign_divides(self):
        q = deflate_at_one(rp(1, 0, -1), -1)
        assert [float(c) for c in q.values()] == [1.0, 1.0]

    def test_positive_sign_passthrough(self):
        p = rp(1, 2, 1)
        assert deflate_at_one(p, 1) is p

    def test_positive_sign_requires_nonzero(self):
        with pytest.raises(VerificationError):
            deflate_at_one(rp(1, 0, -1), 1)

    def test_negative_sign_requires_zero(self):
        with pytest.raises(VerificationError):
            deflate_at_one(rp(1, 2, 1), -1)

    def test_rejects_other_eps(self):
        with pytest.raises(InputError):
            deflate_at_one(rp(1, 1), 3)


class TestMaclaurin:
    def test_against_long_division(self):
        u = rp(1, 2, 3)
        e = 2
        count = 10
        got = maclaurin_coefficients(u, e, count)
        # multiply out (1+2z+3z^2) * sum C(k+2,2) z^k directly
        from math import comb

        with mp.workprec(192):
            uv = [mp.mpf(1), mp.mpf(2), mp.mpf(3)]
            for l in range(count):
                want = mp.fsum(
                    uv[j] * comb(l - j + e, e) for j in range(3) if l - j >= 0
                )
                assert got[l] == want


def synthetic_dataset(weight, eps, upper_values, hodge, conductor=7,
                      bits=192):
    """Dataset + values from the upper half-line; the rest follows the
    functional equation exactly."""
    w = weight
    with mp.workprec(bits + 16):
        tiny = mp.mpf(2) ** (-bits)
        values = {}
        mid = (w + 1) // 2
        for i, v in enumerate(upper_values):
            s = mid + i
            values[s] = (mp.mpf(v), tiny)
            if s != w + 1 - s:
                values[w + 1 - s] = (eps * mp.mpf(v), tiny)
        data = LFunctionData(weight=w, degree=2 * sum(hodge),
                             conductor=conductor, hodge=hodge,
                             root_number=eps, coefficients=(mp.mpf(1),),
                             label="synthetic-w%d-eps%+d" % (w, eps))
        vals = SpecialValues(weight=w, values=values, bits=bits,
                             target=float(tiny), label=data.label)
    return data, vals


class TestZetaPolynomial:
    def test_sym3_frozen(self, sym3_data, sym3_vals):
        zp = zeta_polynomial(sym3_data, sym3_vals)
        assert zp.e == 2
        assert zp.eps == 1
        want = ("44.9190883915280165", "-69.3923152391377756",
                "69.3923152391377756")
        with mp.workprec(256):
            for (v, _), s in zip(zp.coeffs, want):
                assert abs(v - mp.mpf(s)) < mp.mpf("1e-15")
        chk = check_zeta_properties(zp)
        assert chk.ok
        assert chk.fe_residual < 1e-50
        assert chk.max_line_deviation < 1e-50

    def test_sym3_closed_form(self, sym3_data, sym3_vals):
        zp = zeta_polynomial(sym3_data, sym3_vals)
        zc, winner, report = zeta_poly_closed_form(sym3_data, sym3_vals, zp)
        assert winner == "A"
        with mp.workprec(256):
            scale = max(abs(v) for v in zp.values())
            for (a, _), (b, _) in zip(zc.coeffs, zp.coeffs):
                assert abs(a - b) < mp.mpf("1e-40") * scale

    def test_negative_sign_synthetic(self):
        # weight 3, eps = -1: p = a (1 - z^2), deflated to a (1 + z),
        # whose transform at e = 1 is a (1 - 2s)
        data, vals = synthetic_dataset(3, -1, ("0", "2.75"), (0, 1))
        zp = zeta_polynomial(data, vals)
        assert zp.e == 1
        assert zp.eps == -1
        with mp.workprec(192):
            assert abs(zp.values()[0] - mp.mpf("2.75")) < 1e-40
            assert abs(zp.values()[1] + mp.mpf("5.5")) < 1e-40
        zc, winner, _ = zeta_poly_closed_form(data, vals, zp)
        assert winner == "A"
        with mp.workprec(192):
            # written to full length 2m+1, the leading coefficient drops
            assert abs(zc.values()[0] - mp.mpf("2.75")) < 1e-30
            assert abs(zc.values()[1] + mp.mpf("5.5")) < 1e-30
            assert abs(zc.values()[2]) <= zc.errors()[2] + mp.mpf("1e-30")
        chk = check_zeta_properties(zp, tol_fe=1e-30)
        assert chk.ok

    def test_negative_sign_weight_five(self):
        # m = 2, eps = -1 with all-ones Hodge: the closed form and the
        # transform must agree after the forced deflation as well
        data, vals = synthetic_dataset(
            5, -1, ("0", "1.25", "9"), (1, 1, 1), conductor=11
        )
        zp = zeta_polynomial(data, vals)
        assert zp.e == 3
        zc, winner, _ = zeta_poly_closed_form(data, vals, zp)
        assert winner == "A"
        with mp.workprec(256):
            scale = max(abs(v) for v in zp.values())
            for q, (v, _) in enumerate(zp.coeffs):
                assert abs(zc.values()[q] - v) < mp.mpf("1e-35") * scale
        chk = check_zeta_properties(zp, tol_fe=1e-30)
        assert chk.ok

    def test_positive_sign_weight_five(self):
        data, vals = synthetic_dataset(
            5, 1, ("4", "1.25", "9"), (1, 1, 1), conductor=11
        )
        zp = zeta_polynomial(data, vals)
        assert zp.e == 4
        zc, winner, _ = zeta_poly_closed_form(data, vals, zp)
        assert winner == "A"
        chk = check_zeta_properties(zp, tol_fe=1e-30)
        assert chk.ok

    def test_reading_b_differs_and_loses(self):
        # the two Stirling readings are genuinely different formulas; the
        # report shows B missing by a wide margin while A is exact
        data, vals = synthetic_dataset(3, 1, ("1", "3"), (1, 1))
        _, winner, report = zeta_poly_closed_form(
            data, vals, zeta_polynomial(data, vals))
        assert winner == "A"
        assert set(report) == {"A", "B"}
        with mp.workprec(192):
            assert report["B"] > 1
