"""The unit-circle-to-critical-line transform and its closed form.

Anchor transforms are worked by hand from the Hilbert-coefficient
identity Z(-l) = [z^l] U(z)/(1-z)^{e+1}:

    U = 1,       e = 0:  Z = 1
    U = 1,       e = 1:  coefficients l + 1,      Z = 1 - s
    U = 1 + z,   e = 1:  coefficients 2 l + 1,    Z = 1 - 2 s
    U = 1 + z^2, e = 2:  coefficients l^2 + l + 1, Z = s^2 - s + 1
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from mpmath import mp
from mpmath.libmp import (from_rational, round_floor, round_nearest, round_up,
                          to_rational)

from periodpoly import (
    InputError,
    LFunctionData,
    Precision,
    RealPolynomial,
    SpecialValues,
    VerificationError,
    build_p_poly,
    check_zeta_properties,
    closed_form_ok,
    deflate_at_one,
    maclaurin_coefficients,
    rv_transform,
    special_values,
    stirling_first,
    sym_lfunction_data,
    zeta_poly_closed_form,
)
from periodpoly import rv
from periodpoly.rv import ZetaPolynomial, _integers, _ratio, _unit_transforms
from periodpoly.zeros import poly_roots


def rp(*coeffs, bits=192):
    return RealPolynomial(tuple((c, 0) for c in coeffs), bits=bits)


def zeta_of(data, vals):
    p_hat = deflate_at_one(build_p_poly(data, vals), data.root_number)
    return rv_transform(p_hat, eps=data.root_number)


def exact(poly):
    return [Fraction(*to_rational(v._mpf_)) for v in poly.values()]


def product(e, j):
    """prod_{i=1}^{e} (i - j - s), multiplied out factor by factor."""
    out = [1]
    for i in range(1, e + 1):
        nxt = [0] * (len(out) + 1)
        for q, c in enumerate(out):
            nxt[q] += (i - j) * c
            nxt[q + 1] -= c
        out = nxt
    return out


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
        # the transform at e > deg U is that of U padded with zeros
        z = rv_transform(rp(*u, *[0] * (e + 1 - len(u))))
        assert z.exact == tuple(Fraction(w) for w in want)
        assert z.eps == eps
        assert z.degree == e

    def test_values_at_negative_integers(self):
        # Z(-l) must equal the Maclaurin coefficient of U/(1-z)^{e+1}
        z = rv_transform(rp(3, 1, 4, 0, 0))
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
        z1 = rv_transform(rp(1, 3, 3, 1))
        assert z1.eps == -1
        z2 = rv_transform(rp(1, 2, 1))
        assert z2.eps == 1
        for z in (z1, z2):
            chk = check_zeta_properties(z)
            assert chk.ok
            assert chk.fe_residual <= 1e-30

    def test_padding_past_degree_loses_the_line(self):
        # e > deg U re-centers the palindrome; the transform still works
        # as a Hilbert-series device but no longer promises the line
        z = rv_transform(rp(1, 2, 1, 0))
        chk = check_zeta_properties(z)
        assert not chk.ok
        assert chk.fe_residual > 1e-30

    def test_moved_coefficient_breaks_the_functional_equation(self):
        z = rv_transform(rp(1, 3, 3, 1))
        for q in range(z.degree + 1):
            cs = list(z.coeffs)
            v, e = cs[q]
            with mp.workprec(z.bits):
                cs[q] = (v + v * mp.mpf(2) ** -50, e)
            chk = check_zeta_properties(replace(z, coeffs=tuple(cs), exact=None))
            # the roots stay on the line: each verdict reads its own check
            assert not chk.fe_ok and chk.line_ok and not chk.ok, q

    def test_rejects_vanishing_at_one(self):
        with pytest.raises(InputError):
            rv_transform(rp(1, -1))
        with pytest.raises(InputError):
            rv_transform(rp(1, 0, -1))

    @pytest.mark.parametrize("e", [2, 4, 6, 20])
    def test_errors_are_the_exact_linear_bound(self, e):
        # Z is linear in U, so its error is sum_j err_j |Z_q(e_j)| over the
        # transforms e! Z(z^j) = prod_i (i - j - s) of the unit vectors,
        # multiplied out here, plus the rounding of Z_q's value; the stated
        # error is that sum, rounded up once at bits + 16
        bits = 192
        err = Fraction(1, 2 ** 100)
        with mp.workprec(bits):
            u = RealPolynomial(tuple((1 + j % 3, mp.ldexp(1, -100)) for j in range(e + 1)),
                               bits=bits)
        z = rv_transform(u)
        units = [product(e, j) for j in range(e + 1)]
        for q in range(e + 1):
            stored = Fraction(*to_rational(z.values()[q]._mpf_))
            want = (sum(err * abs(col[q]) for col in units) / factorial(e)
                    + abs(stored - z.exact[q]))
            got = Fraction(*to_rational(z.errors()[q]._mpf_))
            assert want <= got <= want * (1 + Fraction(1, 2 ** (bits + 15)))

    def test_unit_transforms_are_the_product(self):
        for e in range(41):
            assert _unit_transforms(e) == [product(e, j)
                                           for j in range(e + 1)], e

    def test_zero_error_input_errs_by_its_rounding(self):
        # 1 + z + z^2 + z^3 gives Z_1 = -7/3, which no binary fraction holds
        for coeffs, bits in (((1, 1, 1, 1), 64), ((1, 2, 3, 1, 2), 192)):
            z = rv_transform(rp(*coeffs, bits=bits))
            for x, v, err in zip(z.exact, z.values(), z.errors()):
                off = abs(Fraction(*to_rational(v._mpf_)) - x)
                got = Fraction(*to_rational(err._mpf_))
                assert off <= got <= off * (1 + Fraction(1, 2 ** (bits + 15)))

    def test_ratio_rounds_as_from_rational(self):
        # the sticky-bit quotient against mpmath's exact-division rounding,
        # ties at the last place included
        rng = random.Random(3)
        for _ in range(3000):
            prec = rng.choice((3, 53, 208))
            den = rng.choice((1 << rng.randrange(300),
                              rng.randrange(1, 10 ** 40), 3 << 90))
            num = rng.randrange(-10 ** 80, 10 ** 80)
            if rng.random() < 0.3:  # (m + 1/2) units of the last place
                num = (2 * rng.randrange(1 << prec) + 1) * den
            for rnd in (round_nearest, round_up, round_floor):
                assert (_ratio(num, den, prec, rnd)
                        == from_rational(num, den, prec, rnd))


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

    def test_exact_at_64_bits(self):
        # Lambda(5) = 2^80 pi and Lambda(4) = pi/7 at 64 bits: the
        # cumulative sums need more bits than p has, and stay exact
        with mp.workprec(80):
            upper = (0, mp.pi / 7, mp.ldexp(mp.pi, 80))
        data, vals = synthetic_dataset(5, -1, upper, (1, 1, 1),
                                       conductor=11, bits=64)
        p = build_p_poly(data, vals)
        q = exact(deflate_at_one(p, -1))
        c = exact(p)
        # (1 - z) q(z) + p(1) z^4
        back = [a - b for a, b in zip(q + [0], [0] + q)]
        back[4] += sum(c)
        assert back == c


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


def integers_by_fractions(values):
    """The integers-over-one-denominator of exact mpf values, by the
    Fraction route: each value reduced, den the lcm of the denominators."""
    fracs = [Fraction(*to_rational(v._mpf_)) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


class TestIntegers:
    @pytest.mark.parametrize("values", [
        [],
        [0],
        [0, 0, 0],
        [3, -5, 12, 2 ** 70, -(2 ** 40)],  # positive exponents only
        [0, "0.375", "-1e-30", 7, 0],
        ["-0.5", "1e40", "-3.25", "1e-80"],
    ])
    def test_matches_the_fraction_route(self, values):
        with mp.workprec(192):
            vals = [mp.mpf(v) for v in values]
        assert _integers(vals) == integers_by_fractions(vals)

    def test_zeta_values_and_errors(self):
        for coeffs in ((1, 1, 1, 1), (1, 2, 3, 1, 2), (1, 3, 3, 1)):
            z = rv_transform(rp(*coeffs))
            vals = z.values() + z.errors()
            assert _integers(vals) == integers_by_fractions(vals), coeffs


def assert_anchor_roots(roots):
    """roots are those of s^2 - s + 1, 1/2 + i sqrt(3)/2 first."""
    with mp.workprec(192):
        for s, sign in zip(roots, (1, -1), strict=True):
            want = mp.mpc(0.5, sign * mp.sqrt(3) / 2)
            assert abs(s - want) < mp.mpf(10) ** -55


class TestZetaCheck:
    def test_root_off_the_circle_leaves_the_line(self):
        # U = (1 + z^2)(z^2 - 2.5 z + 1) is palindromic, so Z satisfies the
        # functional equation, but U's roots 2 and 1/2 move Z's off the line
        z = rv_transform(rp(1, -2.5, 2, -2.5, 1))
        chk = check_zeta_properties(z)
        assert chk.fe_ok and not chk.line_ok
        assert len(chk.roots) == 4
        assert chk.max_line_deviation > 1

    @pytest.mark.parametrize("u,eps", [
        ((1, 1), -1),
        ((1, 0, 1), 1),
        ((1, 1, 1), 1),
        ((1, 1, 1, 1), -1),
        ((1, 3, 3, 1), -1),
    ])
    def test_low_degrees(self, u, eps):
        z = rv_transform(rp(*u))
        chk = check_zeta_properties(z)
        assert z.eps == eps and chk.ok
        assert len(chk.roots) == z.degree
        # W(y) = y V(y^2) when eps = -1: the root y = 0 is s = 1/2 exactly
        assert (chk.roots[0] == mp.mpf(1) / 2) == (eps == -1)
        with mp.workprec(z.bits):
            for s in chk.roots:
                assert abs(mp.polyval(z.values()[::-1], s)) < mp.mpf(10) ** -50

    @pytest.mark.parametrize("eps", [1, -1])
    def test_constant_has_no_roots(self, eps):
        chk = check_zeta_properties(rv_transform(rp(3), eps=eps))
        assert chk.roots == () and chk.line_ok
        assert chk.fe_ok == (eps == 1)

    def test_anchor_roots(self):
        # Z = s^2 - s + 1 from U = 1 + z^2 has roots 1/2 +- i sqrt(3)/2
        chk = check_zeta_properties(rv_transform(rp(1, 0, 1)))
        assert_anchor_roots(chk.roots)

    def test_one_root_search_on_the_half(self, monkeypatch):
        # one poly_roots call per check, on V of degree (e - par) // 2
        seen = []

        def spy(p, radii=True):
            seen.append((p.degree, radii))
            return poly_roots(p, radii)

        monkeypatch.setattr(rv, "poly_roots", spy)
        for k in range(1, 9):  # U = (1 + z)^k, e = k
            z = rv_transform(rp(*(comb(k, j) for j in range(k + 1))))
            seen.clear()
            chk = check_zeta_properties(z)
            assert seen == [((k - (1 - z.eps) // 2) // 2, False)], k
            assert chk.ok and len(chk.roots) == k, k

    def test_trims_the_half_to_its_certain_degree(self, monkeypatch):
        # s^2 - s + 1 with s^4 and s^6 terms smaller than their errors:
        # V's two leading coefficients vanish within their errors
        seen = []

        def spy(p, radii=True):
            seen.append(p.degree)
            return poly_roots(p, radii)

        monkeypatch.setattr(rv, "poly_roots", spy)
        with mp.workprec(192):
            tiny = mp.mpf(2) ** -300
            z = ZetaPolynomial(((1, 0), (-1, 0), (1, 0), (0, 0),
                                (0, 8 * tiny), (0, 0), (tiny, 2 * tiny)),
                               bits=192, eps=1, exact=None)
        chk = check_zeta_properties(z)
        assert seen == [1] and len(chk.roots) == 2 and chk.ok
        assert_anchor_roots(chk.roots)


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
        zp = zeta_of(sym3_data, sym3_vals)
        assert zp.degree == 2
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

    def test_sym3_at_64_bits_satisfies_the_fe_exactly(self, curve_table):
        # evaluating Z at 64 bits rounds at about 1e-19 of its size; the
        # check on the coefficients is exact, so only a real defect shows
        for label in ("11a1", "14a1"):
            data = sym_lfunction_data(curve_table[label], 3, 10000)
            zp = zeta_of(data, special_values(data, Precision(64, 1e-3)))
            assert check_zeta_properties(zp).fe_residual < 1e-30, label

    def test_sym3_closed_form(self, sym3_data, sym3_vals):
        p = build_p_poly(sym3_data, sym3_vals)
        zp = zeta_of(sym3_data, sym3_vals)
        assert zeta_poly_closed_form(p) == zp.exact
        assert closed_form_ok(p, zp)

    def test_closed_form_check_is_sharp(self, sym3_data, sym3_vals):
        # a change of 2^-100 relative in one coefficient of Z is a mismatch
        p = build_p_poly(sym3_data, sym3_vals)
        zp = zeta_of(sym3_data, sym3_vals)
        for q in range(zp.degree + 1):
            moved = list(zp.exact)
            moved[q] *= 1 + Fraction(1, 2 ** 100)
            assert not closed_form_ok(p, replace(zp, exact=tuple(moved))), q

    def test_negative_sign_synthetic(self):
        # weight 3, eps = -1: p = a (1 - z^2), deflated to a (1 + z),
        # whose transform at e = 1 is a (1 - 2s)
        data, vals = synthetic_dataset(3, -1, ("0", "2.75"), (0, 1))
        zp = zeta_of(data, vals)
        assert zp.degree == 1
        assert zp.eps == -1
        assert zp.exact == (Fraction(11, 4), Fraction(-11, 2))
        # written to full length 2m+1, the leading coefficient is p(1) = 0
        p = build_p_poly(data, vals)
        assert zeta_poly_closed_form(p) == zp.exact + (0,)
        assert closed_form_ok(p, zp)
        chk = check_zeta_properties(zp)
        assert chk.ok
        assert chk.fe_residual <= 1e-30

    def test_negative_sign_weight_five(self):
        # m = 2, eps = -1 with all-ones Hodge: the closed form and the
        # transform must agree after the forced deflation as well
        data, vals = synthetic_dataset(
            5, -1, ("0", "1.25", "9"), (1, 1, 1), conductor=11
        )
        zp = zeta_of(data, vals)
        assert zp.degree == 3
        p = build_p_poly(data, vals)
        assert zeta_poly_closed_form(p) == zp.exact + (0,)
        assert closed_form_ok(p, zp)
        chk = check_zeta_properties(zp)
        assert chk.ok
        assert chk.fe_residual <= 1e-30

    def test_negative_sign_closed_form_with_remainder(self):
        # p(1) != 0 within the errors: the closed form of p is the
        # transform of its deflation plus p(1) Z(z^{2m}), exactly
        data, vals = synthetic_dataset(
            5, -1, ("0", "1.25", "9"), (1, 1, 1), conductor=11
        )
        p = build_p_poly(data, vals)
        cs = list(p.coeffs)
        with mp.workprec(p.bits):
            cs[1] = (cs[1][0] + mp.ldexp(1, -20), mp.ldexp(1, -10))
        p = replace(p, coeffs=tuple(cs))
        assert sum(exact(p)) != 0
        zp = rv_transform(deflate_at_one(p, -1), eps=-1)
        assert closed_form_ok(p, zp)
        assert zeta_poly_closed_form(p)[:-1] != zp.exact

    def test_positive_sign_weight_five(self):
        data, vals = synthetic_dataset(
            5, 1, ("4", "1.25", "9"), (1, 1, 1), conductor=11
        )
        zp = zeta_of(data, vals)
        assert zp.degree == 4
        p = build_p_poly(data, vals)
        assert zeta_poly_closed_form(p) == zp.exact
        assert closed_form_ok(p, zp)
        chk = check_zeta_properties(zp)
        assert chk.ok
        assert chk.fe_residual <= 1e-30

    def test_reading_b_differs_and_loses(self, double_sum):
        # the two Stirling readings are genuinely different formulas:
        # reading A is Z exactly, reading B is not
        data, vals = synthetic_dataset(3, 1, ("1", "3"), (1, 1))
        p = build_p_poly(data, vals)
        zp = zeta_of(data, vals)
        assert double_sum(p, stirling_first(2)) == zp.exact
        assert double_sum(p, stirling_first(3)[:3]) != zp.exact
